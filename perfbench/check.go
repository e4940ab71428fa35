package main

import (
	"errors"
	"fmt"
	"sync/atomic"
)

// Values carry their origin: producer<<32 | seq, where producer 0 is the
// set-up prefill and producers 1..n are the workers, and seq counts that
// producer's values from 0.
func tag(producer int, seq int64) uint64 { return uint64(producer)<<32 | uint64(seq) }

func untag(v uint64) (producer int, seq int64) { return int(v >> 32), int64(v & (1<<32 - 1)) }

// The per-call failures a checker reports.
var (
	errNeverPushed = errors.New("delivered a value that was never pushed")
	errDuplicate   = errors.New("delivered a value a second time")
	errOutOfOrder  = errors.New("delivered a producer's values out of order")
	errEmpty       = errors.New("structure observed empty while holding at least the prefill")
)

// chunkBits is how many values one lazily allocated chunk of a producer's
// delivered-bitset covers (4Mi values, 512 KiB).
const (
	chunkWords = 1 << 16
	chunkBits  = chunkWords * 64
	maxChunks  = (1 << 32) / chunkBits
)

type chunk [chunkWords]atomic.Uint64

// setBit sets bit i of the bitset ws and reports whether it was already
// set. It is a CAS loop rather than atomic.OrUint64, whose returned old
// value the go1.24.0 compiler gets wrong on amd64.
func setBit(ws []atomic.Uint64, i int64) bool {
	w, bit := &ws[i/64], uint64(1)<<(i%64)
	for {
		old := w.Load()
		if old&bit != 0 {
			return true
		}
		if w.CompareAndSwap(old, old|bit) {
			return false
		}
	}
}

// producerLog tracks one producer: how many values it has issued, and which
// of them have been delivered.
type producerLog struct {
	issued atomic.Int64
	chunks [maxChunks]atomic.Pointer[chunk]
}

// ledger checks a pool of values moving through a deque or queue: every
// delivered value was issued by a producer and is delivered at most once,
// and, when ordered, each consumer sees each producer's values in issue
// order. Producers and consumers are numbered 0..n; each number is driven
// by one goroutine at a time, and the structure carrying the values
// provides the happens-before edge from issue to delivery.
type ledger struct {
	ordered   bool
	producers []producerLog
	// last[c][p] is the last seq consumer c received from producer p.
	last [][]int64
}

func newLedger(n int, ordered bool) *ledger {
	l := &ledger{ordered: ordered, producers: make([]producerLog, n), last: make([][]int64, n)}
	for c := range l.last {
		l.last[c] = make([]int64, n)
		for p := range l.last[c] {
			l.last[c][p] = -1
		}
	}
	return l
}

// issue returns producer p's next value. It must be called before the value
// is pushed.
func (l *ledger) issue(p int) uint64 {
	pl := &l.producers[p]
	seq := pl.issued.Load()
	if seq%chunkBits == 0 {
		pl.chunks[seq/chunkBits].Store(new(chunk))
	}
	pl.issued.Store(seq + 1)
	return tag(p, seq)
}

// deliver records that consumer c received v, and reports what was wrong
// with it, if anything.
func (l *ledger) deliver(c int, v uint64) error {
	p, seq := untag(v)
	if p >= len(l.producers) || seq >= l.producers[p].issued.Load() {
		return fmt.Errorf("%w: %#x", errNeverPushed, v)
	}
	ch := l.producers[p].chunks[seq/chunkBits].Load()
	if setBit(ch[:], seq%chunkBits) {
		return fmt.Errorf("%w: %#x", errDuplicate, v)
	}
	if l.ordered {
		if seq <= l.last[c][p] {
			return fmt.Errorf("%w: consumer %d got seq %d from producer %d after seq %d", errOutOfOrder, c, seq, p, l.last[c][p])
		}
		l.last[c][p] = seq
	}
	return nil
}

// keyMarks is a bitset over a set's key universe: the keys that were ever
// inserted, or about to be. Marks are set before the Insert call, so a key
// that is present in the set always reads marked.
type keyMarks []atomic.Uint64

func newKeyMarks(universe int) keyMarks { return make(keyMarks, (universe+63)/64) }

func (m keyMarks) mark(k uint64) { setBit(m, int64(k)) }

func (m keyMarks) has(k uint64) bool {
	return k/64 < uint64(len(m)) && m[k/64].Load()&(1<<(k%64)) != 0
}

// checkKeys checks a set's quiescent contents: strictly ascending, every
// key once, and every key one that was inserted.
func checkKeys(keys []uint64, inserted keyMarks) error {
	for i, k := range keys {
		if !inserted.has(k) {
			return fmt.Errorf("%w: key %d", errNeverPushed, k)
		}
		if i == 0 {
			continue
		}
		switch prev := keys[i-1]; {
		case k == prev:
			return fmt.Errorf("%w: key %d", errDuplicate, k)
		case k < prev:
			return fmt.Errorf("%w: key %d after %d", errOutOfOrder, k, prev)
		}
	}
	return nil
}
