// Package gcsim models the environment the LFRC paper's §1 criticizes: a
// garbage-collected runtime whose collector stops the world. It provides
// the original (GC-dependent, self-pointer-sentinel) Snark deque on the
// simulated heap with *no* reference counts — nodes are reclaimed only by
// stop-the-world tracing collections — and a World that implements the
// stop-the-world barrier mutators must respect.
//
// The package exists for experiment G1: the same workload runs here and on
// the LFRC deque, exposing the trade the paper describes — "almost all
// [GC environments] employ excessive synchronization, such as locking
// and/or stop-the-world mechanisms, which brings into question their
// scalability" (§1), and "the overall system is not lock-free, since
// delaying the GC [...] can delay all storage allocation requests" (§6).
package gcsim

import (
	"fmt"
	"sync"
	"time"

	"lfrc/internal/dcas"
	"lfrc/internal/mem"
)

// World couples a heap with a stop-the-world tracing collector. Mutators
// wrap every operation in Mutate; Collect excludes all mutators for the
// duration of the trace — the barrier the paper's lock-free methodology
// exists to avoid.
type World struct {
	H *mem.Heap
	E dcas.Engine

	mu sync.RWMutex // the stop-the-world barrier

	book   sync.Mutex // guards roots and pauses
	roots  map[mem.Ref]int
	pauses []time.Duration
}

// NewWorld builds a world over the given heap and engine.
func NewWorld(h *mem.Heap, e dcas.Engine) *World {
	return &World{H: h, E: e, roots: make(map[mem.Ref]int)}
}

// Mutate runs one mutator operation under the world's read-side of the
// stop-the-world barrier.
func (w *World) Mutate(f func()) {
	w.mu.RLock()
	f()
	w.mu.RUnlock()
}

// AddRoot registers a root with the collector; each AddRoot needs a
// matching RemoveRoot.
func (w *World) AddRoot(r mem.Ref) {
	w.book.Lock()
	w.roots[r]++
	w.book.Unlock()
}

// RemoveRoot unregisters a root.
func (w *World) RemoveRoot(r mem.Ref) {
	w.book.Lock()
	if w.roots[r]--; w.roots[r] <= 0 {
		delete(w.roots, r)
	}
	w.book.Unlock()
}

// Result describes one collection.
type Result struct {
	// Marked counts the objects reachable from the roots; Freed the
	// unreachable ones reclaimed.
	Marked, Freed int
}

// Collect stops the world and runs one tracing collection.
func (w *World) Collect() Result {
	start := time.Now()
	w.mu.Lock()
	w.book.Lock()
	defer w.book.Unlock()
	res := w.markSweep()
	w.mu.Unlock()
	w.pauses = append(w.pauses, time.Since(start))
	return res
}

// markSweep marks every object reachable from the roots through the
// declared pointer fields and frees every other live block. These objects
// carry no reference counts, so unlike the census's backup collector there
// is no limbo to spare and no survivor count to fix up. Callers hold both
// the barrier and w.book.
func (w *World) markSweep() Result {
	h := w.H
	marked := make(map[mem.Ref]bool)
	var stack []mem.Ref
	for r := range w.roots {
		if !h.IsFreed(r) {
			marked[r] = true
			stack = append(stack, r)
		}
	}
	for len(stack) > 0 {
		p := stack[len(stack)-1]
		stack = stack[:len(stack)-1]
		d, err := h.Type(h.TypeOf(p))
		if err != nil {
			continue
		}
		for _, f := range d.PtrFields {
			t := mem.Ref(h.Load(h.FieldAddr(p, f)))
			if t != 0 && !marked[t] && !h.IsFreed(t) {
				marked[t] = true
				stack = append(stack, t)
			}
		}
	}
	res := Result{Marked: len(marked)}
	h.WalkBlocks(func(b mem.Block) bool {
		if !b.Freed && !marked[b.Ref] && h.Free(b.Ref) == nil {
			res.Freed++
		}
		return true
	})
	return res
}

// Pauses returns the stop-the-world pause durations so far.
func (w *World) Pauses() []time.Duration {
	w.book.Lock()
	defer w.book.Unlock()
	return append([]time.Duration(nil), w.pauses...)
}

// Node field indices (identical layout to the LFRC deque's SNode).
const (
	fL = 0
	fR = 1
	fV = 2
)

// Anchor field indices.
const (
	aDummy = 0
	aLeft  = 1
	aRight = 2
)

// Types holds the heap type ids; register once per heap. Pointer fields are
// declared so the tracing collector can walk them.
type Types struct {
	SNode  mem.TypeID
	Anchor mem.TypeID
}

// RegisterTypes registers the node and anchor types on h.
func RegisterTypes(h *mem.Heap) (Types, error) {
	snode, err := h.RegisterType(mem.TypeDesc{
		Name:      "gcsim.SNode",
		NumFields: 3,
		PtrFields: []int{fL, fR},
	})
	if err != nil {
		return Types{}, fmt.Errorf("gcsim: register SNode: %w", err)
	}
	anchor, err := h.RegisterType(mem.TypeDesc{
		Name:      "gcsim.Anchor",
		NumFields: 3,
		PtrFields: []int{aDummy, aLeft, aRight},
	})
	if err != nil {
		return Types{}, fmt.Errorf("gcsim: register anchor: %w", err)
	}
	return Types{SNode: snode, Anchor: anchor}, nil
}

// MustRegisterTypes is RegisterTypes for static setup; it panics on error.
func MustRegisterTypes(h *mem.Heap) Types {
	ts, err := RegisterTypes(h)
	if err != nil {
		panic(err)
	}
	return ts
}

// Deque is the original GC-dependent Snark (paper Figure 1, left column)
// on the simulated heap: self-pointer sentinels, no reference counts, and
// reclamation only by the world's tracing collector. Every operation must
// run inside World.Mutate; the helper methods do so themselves.
type Deque struct {
	w  *World
	ts Types

	anchor mem.Ref
	dummy  mem.Ref
	dummyA mem.Addr
	leftA  mem.Addr
	rightA mem.Addr
	closed bool
}

// New builds an empty deque and roots it with the collector.
func New(w *World, ts Types) (*Deque, error) {
	d := &Deque{w: w, ts: ts}
	anchor, err := w.H.Alloc(ts.Anchor)
	if err != nil {
		return nil, fmt.Errorf("gcsim: allocate anchor: %w", err)
	}
	d.anchor = anchor
	d.dummyA = w.H.FieldAddr(anchor, aDummy)
	d.leftA = w.H.FieldAddr(anchor, aLeft)
	d.rightA = w.H.FieldAddr(anchor, aRight)

	dummy, err := w.H.Alloc(ts.SNode)
	if err != nil {
		return nil, fmt.Errorf("gcsim: allocate dummy: %w", err)
	}
	d.dummy = dummy
	w.E.Write(w.H.FieldAddr(dummy, fL), uint64(dummy)) // self-pointers: the
	w.E.Write(w.H.FieldAddr(dummy, fR), uint64(dummy)) // original convention
	w.E.Write(d.dummyA, uint64(dummy))
	w.E.Write(d.leftA, uint64(dummy))
	w.E.Write(d.rightA, uint64(dummy))
	w.AddRoot(anchor)
	return d, nil
}

func (d *Deque) fL(n mem.Ref) mem.Addr { return d.w.H.FieldAddr(n, fL) }
func (d *Deque) fR(n mem.Ref) mem.Addr { return d.w.H.FieldAddr(n, fR) }
func (d *Deque) fV(n mem.Ref) mem.Addr { return d.w.H.FieldAddr(n, fV) }

// allocNode allocates a node; on exhaustion the *caller* (outside the
// mutator critical section) must run a collection and retry — §6's point
// that an allocation request can be delayed by the collector.
func (d *Deque) allocNode() (mem.Ref, error) {
	return d.w.H.Alloc(d.ts.SNode)
}

// withCollectRetry runs one mutator operation that may fail on heap
// exhaustion; on failure it stops the world for a collection and retries
// once.
func (d *Deque) withCollectRetry(op func() error) error {
	var err error
	for attempt := 0; attempt < 2; attempt++ {
		d.w.Mutate(func() { err = op() })
		if err == nil {
			return nil
		}
		d.w.Collect()
	}
	return err
}

// PushRight appends v on the right (paper Figure 1, left column).
func (d *Deque) PushRight(v uint64) error {
	return d.withCollectRetry(func() error { return d.pushRight(v) })
}

func (d *Deque) pushRight(v uint64) error {
	e := d.w.E
	nd, err := d.allocNode()
	if err != nil {
		return err
	}
	e.Write(d.fR(nd), uint64(d.dummy))
	e.Write(d.fV(nd), v)
	for {
		rh := mem.Ref(e.Read(d.rightA))
		rhR := mem.Ref(e.Read(d.fR(rh)))
		if rhR == rh {
			e.Write(d.fL(nd), uint64(d.dummy))
			lh := mem.Ref(e.Read(d.leftA))
			if e.DCAS(d.rightA, d.leftA, uint64(rh), uint64(lh), uint64(nd), uint64(nd)) {
				return nil
			}
		} else {
			e.Write(d.fL(nd), uint64(rh))
			if e.DCAS(d.rightA, d.fR(rh), uint64(rh), uint64(rhR), uint64(nd), uint64(nd)) {
				return nil
			}
		}
	}
}

// PushLeft prepends v on the left.
func (d *Deque) PushLeft(v uint64) error {
	return d.withCollectRetry(func() error { return d.pushLeft(v) })
}

func (d *Deque) pushLeft(v uint64) error {
	e := d.w.E
	nd, err := d.allocNode()
	if err != nil {
		return err
	}
	e.Write(d.fL(nd), uint64(d.dummy))
	e.Write(d.fV(nd), v)
	for {
		lh := mem.Ref(e.Read(d.leftA))
		lhL := mem.Ref(e.Read(d.fL(lh)))
		if lhL == lh {
			e.Write(d.fR(nd), uint64(d.dummy))
			rh := mem.Ref(e.Read(d.rightA))
			if e.DCAS(d.leftA, d.rightA, uint64(lh), uint64(rh), uint64(nd), uint64(nd)) {
				return nil
			}
		} else {
			e.Write(d.fR(nd), uint64(lh))
			if e.DCAS(d.leftA, d.fL(lh), uint64(lh), uint64(lhL), uint64(nd), uint64(nd)) {
				return nil
			}
		}
	}
}

// PopRight removes and returns the rightmost value.
func (d *Deque) PopRight() (v uint64, ok bool) {
	d.w.Mutate(func() { v, ok = d.popRight() })
	return v, ok
}

func (d *Deque) popRight() (uint64, bool) {
	e := d.w.E
	for {
		rh := mem.Ref(e.Read(d.rightA))
		lh := mem.Ref(e.Read(d.leftA))
		if mem.Ref(e.Read(d.fR(rh))) == rh {
			return 0, false
		}
		if rh == lh {
			if e.DCAS(d.rightA, d.leftA, uint64(rh), uint64(lh), uint64(d.dummy), uint64(d.dummy)) {
				return e.Read(d.fV(rh)), true
			}
		} else {
			rhL := mem.Ref(e.Read(d.fL(rh)))
			if e.DCAS(d.rightA, d.fL(rh), uint64(rh), uint64(rhL), uint64(rhL), uint64(rh)) {
				v := e.Read(d.fV(rh))
				e.Write(d.fR(rh), uint64(d.dummy))
				return v, true
			}
		}
	}
}

// PopLeft removes and returns the leftmost value.
func (d *Deque) PopLeft() (v uint64, ok bool) {
	d.w.Mutate(func() { v, ok = d.popLeft() })
	return v, ok
}

func (d *Deque) popLeft() (uint64, bool) {
	e := d.w.E
	for {
		lh := mem.Ref(e.Read(d.leftA))
		rh := mem.Ref(e.Read(d.rightA))
		if mem.Ref(e.Read(d.fL(lh))) == lh {
			return 0, false
		}
		if lh == rh {
			if e.DCAS(d.leftA, d.rightA, uint64(lh), uint64(rh), uint64(d.dummy), uint64(d.dummy)) {
				return e.Read(d.fV(lh)), true
			}
		} else {
			lhR := mem.Ref(e.Read(d.fR(lh)))
			if e.DCAS(d.leftA, d.fR(lh), uint64(lh), uint64(lhR), uint64(lhR), uint64(lh)) {
				v := e.Read(d.fV(lh))
				e.Write(d.fL(lh), uint64(d.dummy))
				return v, true
			}
		}
	}
}

// Close unroots the deque; the next collection reclaims everything it
// owned. Must not run concurrently with other operations.
func (d *Deque) Close() {
	if d.closed {
		return
	}
	d.closed = true
	d.w.RemoveRoot(d.anchor)
	d.anchor = 0
}
