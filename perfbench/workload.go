package main

import (
	"errors"
	"fmt"
	"math/rand/v2"

	"lfrc"
	"lfrc/internal/core"
	"lfrc/internal/dcas"
	"lfrc/internal/dlist"
	"lfrc/internal/mem"
	"lfrc/internal/msqueue"
	"lfrc/internal/reclaim"
	"lfrc/internal/snark"
)

// numWorkers is the closed-loop client count of every workload.
const numWorkers = 2

// Workload sizes.
const (
	pipePrefill = 64  // deque-churn and queue-lockfree start with this many values
	setUniverse = 512 // set-lookup keys are uniform over [0, setUniverse)
	setPrefill  = 256 // distinct keys present after set-lookup's prefill
)

// stack is one configuration of the three seams.
type stack struct {
	engine    lfrc.Engine
	reclaimer lfrc.Reclaimer
	strategy  lfrc.RCStrategy
}

var (
	defaultStack  = stack{lfrc.EngineLocking, lfrc.ReclaimerLFRC, lfrc.RCFigure2}
	lockFreeStack = stack{lfrc.EngineMCAS, lfrc.ReclaimerEpoch, lfrc.RCSplit}
)

func (s stack) options() []lfrc.Option {
	return []lfrc.Option{lfrc.WithEngine(s.engine), lfrc.WithReclamation(s.reclaimer), lfrc.WithRCStrategy(s.strategy)}
}

// newRC builds s directly on the internal packages, the way lfrc.New does.
func (s stack) newRC() (*mem.Heap, *core.RC) {
	h := mem.NewHeap()
	var e dcas.Engine = dcas.NewLocking(h)
	if s.engine == lfrc.EngineMCAS {
		e = dcas.NewMCAS(h)
	}
	rk := reclaim.KindLFRC
	if s.reclaimer == lfrc.ReclaimerEpoch {
		rk = reclaim.KindEpoch
	}
	sk := core.StrategyFigure2
	if s.strategy == lfrc.RCSplit {
		sk = core.StrategySplit
	}
	return h, core.New(h, e, core.WithReclaimerKind(rk), core.WithStrategyKind(sk))
}

// workload is one closed-loop mix. Its calls come in two kinds, each timed
// separately at the structure level.
type workload struct {
	name      string
	structure string // the internal package the facade structure wraps
	kinds     [2]string
	stack     stack
}

var workloads = []workload{
	{"deque-churn", "snark", [2]string{"push", "pop"}, defaultStack},
	{"set-lookup", "dlist", [2]string{"contains", "update"}, defaultStack},
	{"queue-lockfree", "msqueue", [2]string{"enqueue", "dequeue"}, lockFreeStack},
}

func findWorkload(name string) (workload, bool) {
	for _, w := range workloads {
		if w.name == name {
			return w, true
		}
	}
	return workload{}, false
}

// The structure interfaces below are met both by the lfrc facade types and
// by the internal structure packages, so one mix drives either level.
type dequeAPI interface {
	PushLeft(uint64) error
	PushRight(uint64) error
	PopLeft() (uint64, bool)
	PopRight() (uint64, bool)
}

type queueAPI interface {
	Enqueue(uint64) error
	Dequeue() (uint64, bool)
}

type setAPI interface {
	Insert(uint64) (bool, error)
	Delete(uint64) bool
	Contains(uint64) bool
	Len() int
	Keys() []uint64
}

// worker is one closed-loop client: it issues its next call only after the
// previous one returned. Fields are owned by the worker's goroutine while a
// window runs and read by the driver between windows.
type worker struct {
	id   int // producer and consumer number, 1..numWorkers
	rng  *rand.Rand
	push bool // the next deque/queue call is a push

	hist        [2]histogram // per call kind, current window
	ops, failed int64        // current window
	firstErr    error        // the current window's first failure

	// Totals over the worker's life, for the final accounting checks.
	pushes, pops, inserts, deletes int64
}

func newWorkers(seed uint64) []*worker {
	ws := make([]*worker, numWorkers)
	for i := range ws {
		ws[i] = &worker{id: i + 1, rng: rand.New(rand.NewPCG(seed, uint64(i+1))), push: true}
	}
	return ws
}

// mix is a workload's call sequence over one structure.
type mix interface {
	// call makes worker w's next call; it returns the call's kind and
	// why the call failed, if it did.
	call(w *worker) (kind int, err error)
	// settle runs the structure's quiescent checks once the workers are
	// done. Its error is a structural breach.
	settle(ws []*worker) error
}

// pipe is a deque or a queue: values pushed at one end, popped at one.
type pipe interface {
	push(w *worker, v uint64) error
	pop(w *worker) (uint64, bool)
}

type dequePipe struct{ d dequeAPI }

func (p dequePipe) push(w *worker, v uint64) error {
	if w.rng.IntN(2) == 0 {
		return p.d.PushLeft(v)
	}
	return p.d.PushRight(v)
}

func (p dequePipe) pop(w *worker) (uint64, bool) {
	if w.rng.IntN(2) == 0 {
		return p.d.PopLeft()
	}
	return p.d.PopRight()
}

type queuePipe struct{ q queueAPI }

func (p queuePipe) push(_ *worker, v uint64) error { return p.q.Enqueue(v) }
func (p queuePipe) pop(*worker) (uint64, bool)     { return p.q.Dequeue() }

// pipeMix alternates push and pop on each worker. A worker pops only after
// its own push, so the structure never holds fewer than the prefill and an
// empty pop is a failure.
type pipeMix struct {
	p   pipe
	led *ledger
}

func newPipeMix(p pipe, ordered bool, seed uint64) (*pipeMix, error) {
	m := &pipeMix{p: p, led: newLedger(numWorkers+1, ordered)}
	setup := &worker{rng: rand.New(rand.NewPCG(seed, 0))}
	for i := 0; i < pipePrefill; i++ {
		if err := p.push(setup, m.led.issue(0)); err != nil {
			return nil, fmt.Errorf("prefill: %w", err)
		}
	}
	return m, nil
}

func (m *pipeMix) call(w *worker) (int, error) {
	if w.push {
		w.push = false
		if err := m.p.push(w, m.led.issue(w.id)); err != nil {
			return 0, err
		}
		w.pushes++
		return 0, nil
	}
	w.push = true
	v, ok := m.p.pop(w)
	if !ok {
		return 1, errEmpty
	}
	w.pops++
	return 1, m.led.deliver(w.id, v)
}

// settle drains the structure through the checker: every value pushed must
// come out exactly once.
func (m *pipeMix) settle(ws []*worker) error {
	drain := &worker{rng: rand.New(rand.NewPCG(0, 0))}
	want := int64(pipePrefill)
	for _, w := range ws {
		want += w.pushes - w.pops
	}
	var drained int64
	for {
		v, ok := m.p.pop(drain)
		if !ok {
			break
		}
		if err := m.led.deliver(0, v); err != nil {
			return fmt.Errorf("drain: %w", err)
		}
		drained++
	}
	if drained != want {
		return fmt.Errorf("drained %d values, want prefill + pushes - pops = %d", drained, want)
	}
	return nil
}

// setMix is set-lookup: 90% Contains, 5% Insert, 5% Delete over uniform keys.
type setMix struct {
	s        setAPI
	inserted keyMarks
}

func newSetMix(s setAPI, seed uint64) (*setMix, error) {
	m := &setMix{s: s, inserted: newKeyMarks(setUniverse)}
	rng := rand.New(rand.NewPCG(seed, 0))
	for _, k := range rng.Perm(setUniverse)[:setPrefill] {
		m.inserted.mark(uint64(k))
		if _, err := s.Insert(uint64(k)); err != nil {
			return nil, fmt.Errorf("prefill: %w", err)
		}
	}
	return m, nil
}

func (m *setMix) call(w *worker) (int, error) {
	k := uint64(w.rng.IntN(setUniverse))
	switch r := w.rng.IntN(100); {
	case r < 90:
		if m.s.Contains(k) && !m.inserted.has(k) {
			return 0, fmt.Errorf("%w: Contains found key %d", errNeverPushed, k)
		}
		return 0, nil
	case r < 95:
		m.inserted.mark(k)
		added, err := m.s.Insert(k)
		if added {
			w.inserts++
		}
		return 1, err
	default:
		if m.s.Delete(k) {
			w.deletes++
		}
		return 1, nil
	}
}

func (m *setMix) settle(ws []*worker) error {
	want := setPrefill
	for _, w := range ws {
		want += int(w.inserts - w.deletes)
	}
	keys := m.s.Keys()
	if err := checkKeys(keys, m.inserted); err != nil {
		return err
	}
	if len(keys) != want || m.s.Len() != want {
		return fmt.Errorf("set holds %d keys (Len %d), want prefill + inserts - deletes = %d", len(keys), m.s.Len(), want)
	}
	return nil
}

// counters are the program's own Stats() counters the benchmark reads
// before and after a measured window.
type counters struct {
	loads, loadRetries, stores, cas, dcas, destroys, allocs int64 // core
	heapAllocs, recycles, frees, highWater                  int64 // mem
	retired                                                 int64 // reclaim
}

func (c counters) minus(o counters) counters {
	return counters{
		loads: c.loads - o.loads, loadRetries: c.loadRetries - o.loadRetries,
		stores: c.stores - o.stores, cas: c.cas - o.cas, dcas: c.dcas - o.dcas,
		destroys: c.destroys - o.destroys, allocs: c.allocs - o.allocs,
		heapAllocs: c.heapAllocs - o.heapAllocs, recycles: c.recycles - o.recycles,
		frees: c.frees - o.frees, highWater: c.highWater, retired: c.retired - o.retired,
	}
}

func countersOf(rc lfrc.RCStats, h lfrc.HeapStats, r lfrc.ReclaimStats) counters {
	return counters{
		loads: rc.Loads, loadRetries: rc.LoadRetries, stores: rc.Stores,
		cas: rc.CASOps, dcas: rc.DCASOps, destroys: rc.Destroys, allocs: rc.Allocs,
		heapAllocs: h.Allocs, recycles: h.Recycles, frees: h.Frees, highWater: h.HighWater,
		retired: r.Retired,
	}
}

// target is one running instance of a workload: a system, a structure on
// it, and the mix driving it.
type target struct {
	mix     mix
	workers []*worker
	stats   func() counters
	sample  func() (liveWords, pending int64)
	// teardown closes the structure and the system and checks that
	// nothing leaked or was corrupted.
	teardown func() error
}

// finish runs the quiescent checks and tears the target down; any error is
// a structural breach.
func (t *target) finish() error {
	return errors.Join(t.mix.settle(t.workers), t.teardown())
}

func newMix(wl workload, d dequeAPI, q queueAPI, s setAPI, seed uint64) (mix, error) {
	switch wl.structure {
	case "snark":
		return newPipeMix(dequePipe{d}, false, seed)
	case "msqueue":
		return newPipeMix(queuePipe{q}, true, seed)
	default:
		return newSetMix(s, seed)
	}
}

// newFacadeTarget builds wl on the lfrc facade: lfrc.New, the structure and
// its prefill. This is what setup_s times.
func newFacadeTarget(wl workload, seed uint64) (*target, error) {
	sys, err := lfrc.New(wl.stack.options()...)
	if err != nil {
		return nil, err
	}
	var (
		d          dequeAPI
		q          queueAPI
		s          setAPI
		closeStruc func()
	)
	switch wl.structure {
	case "snark":
		dq, err := sys.NewDeque()
		if err != nil {
			return nil, err
		}
		d, closeStruc = dq, dq.Close
	case "msqueue":
		qq, err := sys.NewQueue()
		if err != nil {
			return nil, err
		}
		q, closeStruc = qq, qq.Close
	default:
		st, err := sys.NewSet()
		if err != nil {
			return nil, err
		}
		s, closeStruc = st, st.Close
	}
	m, err := newMix(wl, d, q, s, seed)
	if err != nil {
		return nil, err
	}
	return &target{
		mix:     m,
		workers: newWorkers(seed),
		stats: func() counters {
			st := sys.Stats()
			return countersOf(st.RC, st.Heap, st.Reclaim)
		},
		sample: func() (int64, int64) {
			st := sys.Stats()
			return st.Heap.LiveWords, st.Zombies
		},
		teardown: func() error {
			closeStruc()
			sys.Close()
			sys.DrainZombies(0)
			if a := sys.Audit(); len(a) > 0 {
				return fmt.Errorf("audit after close: %d violations, first: %s", len(a), a[0])
			}
			return checkHeap(sys.Stats().Heap)
		},
	}, nil
}

// newCoreTarget builds wl directly on its structure package over core.New
// with the workload's engine, reclaimer and strategy: the facade's layer
// minus the facade.
func newCoreTarget(wl workload, seed uint64) (*target, error) {
	h, rc := wl.stack.newRC()
	var (
		d          dequeAPI
		q          queueAPI
		s          setAPI
		closeStruc func()
	)
	switch wl.structure {
	case "snark":
		ts, err := snark.RegisterTypes(h)
		if err != nil {
			return nil, err
		}
		dq, err := snark.New(rc, ts)
		if err != nil {
			return nil, err
		}
		d, closeStruc = dq, dq.Close
	case "msqueue":
		ts, err := msqueue.RegisterTypes(h)
		if err != nil {
			return nil, err
		}
		qq, err := msqueue.New(rc, ts)
		if err != nil {
			return nil, err
		}
		q, closeStruc = qq, qq.Close
	default:
		ts, err := dlist.RegisterTypes(h)
		if err != nil {
			return nil, err
		}
		l, err := dlist.New(rc, ts)
		if err != nil {
			return nil, err
		}
		s, closeStruc = l, l.Close
	}
	m, err := newMix(wl, d, q, s, seed)
	if err != nil {
		return nil, err
	}
	return &target{
		mix:     m,
		workers: newWorkers(seed),
		stats: func() counters {
			return countersOf(lfrc.RCStats(rc.Stats()), lfrc.HeapStats(h.Stats()), lfrc.ReclaimStats(rc.Reclaimer().Stats()))
		},
		sample: func() (int64, int64) { return h.Stats().LiveWords, rc.ZombieCount() },
		teardown: func() error {
			closeStruc()
			rc.DrainZombies(0)
			return checkHeap(lfrc.HeapStats(h.Stats()))
		},
	}, nil
}

// checkHeap is the post-teardown invariant: everything freed, nothing freed
// twice, no freed memory written.
func checkHeap(h lfrc.HeapStats) error {
	if h.LiveObjects != 0 || h.Corruptions != 0 || h.DoubleFrees != 0 {
		return fmt.Errorf("heap after teardown: %d live objects, %d corruptions, %d double frees", h.LiveObjects, h.Corruptions, h.DoubleFrees)
	}
	return nil
}
