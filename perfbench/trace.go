package main

import (
	"bufio"
	"encoding/json"
	"io"
	"sync"
	"time"
)

// epoch anchors every timestamp the benchmark takes; now reads the
// monotonic clock relative to it.
var epoch = time.Now()

func now() int64 { return int64(time.Since(epoch)) }

// span is one timed call across a layer boundary.
type span struct {
	id, parent uint64
	name       string
	start, end int64
}

// ringSpans is how many spans each ring keeps: the most recent ones.
const ringSpans = 4096

// spanRing is one goroutine's span buffer. Recording a span is a few
// stores, with no allocation and no synchronization; the ring keeps the
// last ringSpans spans and counts the ones it overwrote.
type spanRing struct {
	base uint64 // ids in this ring are base+1, base+2, ...
	buf  []span
	n    uint64
}

func (r *spanRing) add(name string, parent uint64, start, end int64) {
	r.n++
	r.buf[r.n%ringSpans] = span{r.base + r.n, parent, name, start, end}
}

// tracer keeps the traced run's spans in memory until the run ends. Phase
// spans (a rung, a structure mix, a facade window) are few and all kept;
// per-call spans go to per-goroutine rings. A nil tracer records nothing.
type tracer struct {
	mu     sync.Mutex
	phases []span
	rings  []*spanRing
}

// phase opens a phase span and returns its id and a func that closes it.
func (t *tracer) phase(name string, parent uint64) (uint64, func()) {
	if t == nil {
		return 0, func() {}
	}
	start := now()
	t.mu.Lock()
	t.phases = append(t.phases, span{id: uint64(len(t.phases) + 1), parent: parent, name: name, start: start})
	i := len(t.phases) - 1
	t.mu.Unlock()
	return uint64(i + 1), func() {
		end := now()
		t.mu.Lock()
		t.phases[i].end = end
		t.mu.Unlock()
	}
}

// ring returns a new span ring for one goroutine.
func (t *tracer) ring() *spanRing {
	if t == nil {
		return nil
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	r := &spanRing{base: uint64(len(t.rings)+1) << 40, buf: make([]span, ringSpans)}
	t.rings = append(t.rings, r)
	return r
}

type spanJSON struct {
	ID     uint64 `json:"id"`
	Parent uint64 `json:"parent"`
	Name   string `json:"name"`
	Start  int64  `json:"start_ns"`
	End    int64  `json:"end_ns"`
}

// write emits one JSON object per line: a header with the kept and
// overwritten span counts, then every kept span.
func (t *tracer) write(w io.Writer) error {
	t.mu.Lock()
	defer t.mu.Unlock()
	bw := bufio.NewWriter(w)
	enc := json.NewEncoder(bw)
	var kept, dropped uint64
	for _, r := range t.rings {
		k := min(r.n, ringSpans)
		kept += k
		dropped += r.n - k
	}
	if err := enc.Encode(map[string]uint64{"phases": uint64(len(t.phases)), "call_spans": kept, "call_spans_overwritten": dropped}); err != nil {
		return err
	}
	emit := func(s span) error {
		return enc.Encode(spanJSON{s.id, s.parent, s.name, s.start, s.end})
	}
	for _, s := range t.phases {
		if err := emit(s); err != nil {
			return err
		}
	}
	for _, r := range t.rings {
		for i := r.n - min(r.n, ringSpans) + 1; i <= r.n; i++ {
			if err := emit(r.buf[i%ringSpans]); err != nil {
				return err
			}
		}
	}
	return bw.Flush()
}
