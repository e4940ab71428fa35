package main

import (
	"fmt"
	"slices"
	"sync"
	"sync/atomic"
	"time"

	"lfrc"
	"lfrc/internal/dcas"
	"lfrc/internal/mem"
)

// The layer ladder times calls into each layer's public functions from
// outside, one rung per operation. A rung runs batches of the operation on
// fresh, private memory, timing only the measured calls of each batch (the
// set-up and clean-up a batch needs run outside the clock), after warm-up
// batches that fault in memory and fill free lists. It reports the median
// per-call time over its batches.

// warmBatches run before any rung's timed batches.
const warmBatches = 32

// sink keeps the compiler from discarding loads whose values nothing uses.
var sink atomic.Uint64

// ladder measures rungs within a time budget each, recording each timed
// batch as a span under its rung's phase span.
type ladder struct {
	budget time.Duration
	tr     *tracer
	ring   *spanRing
	parent uint64
	out    map[string]float64
	err    error
}

// rung times batch until the budget is spent, and stores the median
// per-call nanoseconds under name. batch returns the clock readings around
// its measured calls and how many calls they were.
func (l *ladder) rung(name string, batch func() (start, end int64, calls int)) {
	id, done := l.tr.phase(name, l.parent)
	defer done()
	for i := 0; i < warmBatches; i++ {
		batch()
	}
	var per []float64
	deadline := now() + int64(l.budget)
	for len(per) < warmBatches || now() < deadline {
		s, e, n := batch()
		per = append(per, float64(e-s)/float64(n))
		if l.ring != nil {
			l.ring.add(name, id, s, e)
		}
	}
	l.out[name] = median(per)
}

func (l *ladder) fail(err error) {
	if err != nil && l.err == nil {
		l.err = err
	}
}

func median(xs []float64) float64 {
	s := slices.Clone(xs)
	slices.Sort(s)
	if len(s)%2 == 1 {
		return s[len(s)/2]
	}
	return (s[len(s)/2-1] + s[len(s)/2]) / 2
}

// memRungs: L0, the simulated heap.
func (l *ladder) memRungs() {
	h := mem.NewHeap()
	t, err := h.RegisterType(mem.TypeDesc{Name: "bench.obj", NumFields: 3})
	if err != nil {
		l.fail(err)
		return
	}
	const n = 256
	l.rung("mem.alloc_free_ns", func() (int64, int64, int) {
		s := now()
		for i := 0; i < n; i++ {
			r, err := h.Alloc(t)
			if err != nil {
				l.fail(err)
				break
			}
			l.fail(h.Free(r))
		}
		return s, now(), n
	})

	objs := make([]mem.Ref, 64)
	var cells []mem.Addr
	for i := range objs {
		r, err := h.Alloc(t)
		if err != nil {
			l.fail(err)
			return
		}
		objs[i] = r
		for f := 0; f < 3; f++ {
			cells = append(cells, h.FieldAddr(r, f))
		}
	}
	const loads = 4096
	l.rung("mem.cell_load_ns", func() (int64, int64, int) {
		var sum uint64
		s := now()
		for i := 0; i < loads; i++ {
			sum += h.Load(cells[i%len(cells)])
		}
		e := now()
		sink.Add(sum)
		return s, e, loads
	})
	a := cells[0]
	const cases = 1024
	l.rung("mem.cell_cas_ns", func() (int64, int64, int) {
		v := h.Load(a)
		s := now()
		for i := 0; i < cases; i++ {
			if !h.CAS(a, v, v+1) {
				l.fail(fmt.Errorf("mem.cell_cas: uncontended CAS failed"))
			}
			v++
		}
		return s, now(), cases
	})
	for _, r := range objs {
		l.fail(h.Free(r))
	}
	l.fail(checkHeap(lfrc.HeapStats(h.Stats())))
}

// dcasRungs: L1, one DCAS engine over a private heap.
func (l *ladder) dcasRungs(engine lfrc.Engine) {
	h := mem.NewHeap()
	var e dcas.Engine = dcas.NewLocking(h)
	if engine == lfrc.EngineMCAS {
		e = dcas.NewMCAS(h)
	}
	t, err := h.RegisterType(mem.TypeDesc{Name: "bench.pair", NumFields: 2})
	if err != nil {
		l.fail(err)
		return
	}
	r, err := h.Alloc(t)
	if err != nil {
		l.fail(err)
		return
	}
	a0, a1 := h.FieldAddr(r, 0), h.FieldAddr(r, 1)
	pre := "dcas." + engine.String() + "."
	const n = 1024
	l.rung(pre+"read_ns", func() (int64, int64, int) {
		var sum uint64
		s := now()
		for i := 0; i < n; i++ {
			sum += e.Read(a0)
		}
		en := now()
		sink.Add(sum)
		return s, en, n
	})
	l.rung(pre+"cas_ns", func() (int64, int64, int) {
		v := e.Read(a0)
		s := now()
		for i := 0; i < n; i++ {
			if !e.CAS(a0, v, v+1) {
				l.fail(fmt.Errorf("%scas: uncontended CAS failed", pre))
			}
			v++
		}
		return s, now(), n
	})
	l.rung(pre+"dcas_ns", func() (int64, int64, int) {
		v0, v1 := e.Read(a0), e.Read(a1)
		s := now()
		for i := 0; i < n; i++ {
			if !e.DCAS(a0, a1, v0, v1, v0+1, v1+1) {
				l.fail(fmt.Errorf("%sdcas: uncontended DCAS failed", pre))
			}
			v0++
			v1++
		}
		return s, now(), n
	})

	// Contention: every worker increments the same cell pair with
	// read-read-DCAS; the ratio is failed DCASes over attempted.
	id, done := l.tr.phase(pre+"dcas_fail_ratio", l.parent)
	var (
		stop         atomic.Bool
		tries, fails atomic.Int64
		wg           sync.WaitGroup
	)
	for w := 0; w < numWorkers; w++ {
		ring := l.tr.ring()
		wg.Add(1)
		go func() {
			defer wg.Done()
			var n, f int64
			for !stop.Load() {
				s := now()
				for i := 0; i < 64; i++ {
					o0, o1 := e.Read(a0), e.Read(a1)
					if !e.DCAS(a0, a1, o0, o1, o0+1, o1+1) {
						f++
					}
					n++
				}
				if ring != nil {
					ring.add(pre+"dcas_contended", id, s, now())
				}
			}
			tries.Add(n)
			fails.Add(f)
		}()
	}
	time.Sleep(l.budget)
	stop.Store(true)
	wg.Wait()
	done()
	l.out[pre+"dcas_fail_ratio"] = ratio(fails.Load(), tries.Load())
	l.fail(h.Free(r))
	l.fail(checkHeap(lfrc.HeapStats(h.Stats())))
}

// coreRungs: L2, the LFRC operations under one strategy, on the stack of
// the workload that runs that strategy. L3's release rung is measured on
// the same stack, since each backend is run by exactly one stack.
func (l *ladder) coreRungs(st stack) {
	h, rc := st.newRC()
	obj, err := h.RegisterType(mem.TypeDesc{Name: "bench.obj", NumFields: 1})
	if err != nil {
		l.fail(err)
		return
	}
	const n = 48
	ptrs := make([]int, n)
	for i := range ptrs {
		ptrs[i] = i
	}
	box, err := h.RegisterType(mem.TypeDesc{Name: "bench.box", NumFields: n, PtrFields: ptrs})
	if err != nil {
		l.fail(err)
		return
	}
	x, err := rc.NewObject(obj)
	if err != nil {
		l.fail(err)
		return
	}
	b, err := rc.NewObject(box)
	if err != nil {
		l.fail(err)
		return
	}
	cells := make([]mem.Addr, n)
	for i := range cells {
		cells[i] = h.FieldAddr(b, i)
	}
	refs := make([]mem.Ref, n)
	pre := "core." + st.strategy.String() + "."

	// Store into null cells; the cells are nulled again off the clock.
	l.rung(pre+"store_ns", func() (int64, int64, int) {
		s := now()
		for _, a := range cells {
			rc.Store(a, x)
		}
		e := now()
		for _, a := range cells {
			rc.Store(a, 0)
		}
		return s, e, n
	})
	for _, a := range cells {
		rc.Store(a, x)
	}
	// Load into null locals, so no Load releases a previous referent.
	l.rung(pre+"load_ns", func() (int64, int64, int) {
		s := now()
		for i, a := range cells {
			rc.Load(a, &refs[i])
		}
		e := now()
		for i := range refs {
			rc.Destroy(refs[i])
			refs[i] = 0
		}
		return s, e, n
	})
	// Destroy a reference that is not the last one.
	l.rung(pre+"destroy_ns", func() (int64, int64, int) {
		for i := range refs {
			rc.Copy(&refs[i], x)
		}
		s := now()
		for _, r := range refs {
			rc.Destroy(r)
		}
		e := now()
		clear(refs)
		return s, e, n
	})
	alloc := func() {
		for i := range refs {
			r, err := rc.NewObject(obj)
			if err != nil {
				l.fail(err)
			}
			refs[i] = r
		}
	}
	release := func() {
		for _, r := range refs {
			rc.Destroy(r)
		}
		clear(refs)
	}
	l.rung(pre+"new_object_ns", func() (int64, int64, int) {
		s := now()
		alloc()
		e := now()
		release()
		return s, e, n
	})
	// Destroy the last reference to a fresh object: the count drops to
	// zero and the object is retired to the backend.
	l.rung("reclaim."+st.reclaimer.String()+".release_ns", func() (int64, int64, int) {
		alloc()
		s := now()
		release()
		return s, now(), n
	})

	for _, a := range cells {
		rc.Store(a, 0)
	}
	rc.Destroy(x, b)
	rc.DrainZombies(0)
	l.fail(checkHeap(lfrc.HeapStats(h.Stats())))
}

// spanRung times what the traced run adds to each traced call: recording
// its span in a goroutine's ring.
func (l *ladder) spanRung() {
	r := (&tracer{}).ring()
	const n = 1024
	l.rung("trace.span_ns", func() (int64, int64, int) {
		s := now()
		for i := 0; i < n; i++ {
			r.add("trace.span", 1, s, s)
		}
		return s, now(), n
	})
}

// runLadder measures every rung of L0-L3 and the span rung, giving each the
// same share of total.
func runLadder(total time.Duration, tr *tracer, parent uint64) (map[string]float64, error) {
	const rungs = 1 + 3 + 2*4 + 2*5 // span, mem, dcas (3 timed + contention), core + release
	l := &ladder{budget: total / rungs, tr: tr, ring: tr.ring(), parent: parent, out: map[string]float64{}}
	l.spanRung()
	l.memRungs()
	l.dcasRungs(lfrc.EngineLocking)
	l.dcasRungs(lfrc.EngineMCAS)
	l.coreRungs(defaultStack)
	l.coreRungs(lockFreeStack)
	return l.out, l.err
}

func ratio(num, den int64) float64 {
	if den == 0 {
		return 0
	}
	return float64(num) / float64(den)
}
