package gcsim

import (
	"math/rand"
	"runtime"
	"sync"
	"sync/atomic"
	"testing"
	"testing/quick"

	"lfrc/internal/dcas"
	"lfrc/internal/mem"
)

func newWorld(t *testing.T, opts ...mem.Option) (*World, Types) {
	t.Helper()
	h := mem.NewHeap(opts...)
	return NewWorld(h, dcas.NewLocking(h)), MustRegisterTypes(h)
}

func TestSequentialModelEquivalence(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		w, ts := newWorld(t)
		d, err := New(w, ts)
		if err != nil {
			return false
		}
		defer d.Close()

		var model []uint64
		next := uint64(1)
		for i := 0; i < 300; i++ {
			switch rng.Intn(4) {
			case 0:
				if d.PushLeft(next) != nil {
					return false
				}
				model = append([]uint64{next}, model...)
				next++
			case 1:
				if d.PushRight(next) != nil {
					return false
				}
				model = append(model, next)
				next++
			case 2:
				v, ok := d.PopLeft()
				if ok != (len(model) > 0) {
					return false
				}
				if ok {
					if v != model[0] {
						return false
					}
					model = model[1:]
				}
			case 3:
				v, ok := d.PopRight()
				if ok != (len(model) > 0) {
					return false
				}
				if ok {
					if v != model[len(model)-1] {
						return false
					}
					model = model[:len(model)-1]
				}
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 25}); err != nil {
		t.Error(err)
	}
}

func TestNoReclamationWithoutCollection(t *testing.T) {
	w, ts := newWorld(t)
	d, err := New(w, ts)
	if err != nil {
		t.Fatal(err)
	}
	defer d.Close()

	for v := uint64(1); v <= 100; v++ {
		if err := d.PushRight(v); err != nil {
			t.Fatal(err)
		}
	}
	for i := 0; i < 100; i++ {
		d.PopLeft()
	}
	// Without a collection, every popped node is still live garbage.
	if got := w.H.Stats().Frees; got != 0 {
		t.Errorf("Frees = %d before any collection, want 0", got)
	}
	live := w.H.Stats().LiveObjects
	res := w.Collect()
	if res.Freed == 0 {
		t.Fatal("collection freed nothing")
	}
	after := w.H.Stats().LiveObjects
	if after >= live {
		t.Errorf("LiveObjects %d -> %d; collection did not shrink the heap", live, after)
	}
	// The live structure survives: deque still behaves.
	if err := d.PushRight(7); err != nil {
		t.Fatal(err)
	}
	if v, ok := d.PopRight(); !ok || v != 7 {
		t.Fatalf("PopRight = (%d,%v) after collection, want (7,true)", v, ok)
	}
}

func TestCollectionPreservesLiveValues(t *testing.T) {
	w, ts := newWorld(t)
	d, err := New(w, ts)
	if err != nil {
		t.Fatal(err)
	}
	defer d.Close()

	for v := uint64(1); v <= 50; v++ {
		if err := d.PushRight(v); err != nil {
			t.Fatal(err)
		}
	}
	for i := 0; i < 20; i++ {
		d.PopRight()
		w.Collect()
	}
	for v := uint64(1); v <= 30; v++ {
		got, ok := d.PopLeft()
		if !ok || got != v {
			t.Fatalf("PopLeft = (%d,%v), want (%d,true)", got, ok, v)
		}
	}
}

func TestAllocationTriggersCollection(t *testing.T) {
	// A tiny heap forces the §6 behaviour: an allocation request is
	// delayed by a collection.
	w, ts := newWorld(t, mem.WithMaxWords(1<<16))
	d, err := New(w, ts)
	if err != nil {
		t.Fatal(err)
	}
	defer d.Close()

	for i := uint64(0); i < 50_000; i++ {
		if err := d.PushRight(i); err != nil {
			t.Fatalf("push %d: %v", i, err)
		}
		d.PopLeft() // keep the live set tiny; garbage accumulates
	}
	if got := len(w.Pauses()); got == 0 {
		t.Fatal("no collection was triggered by allocation pressure")
	}
	t.Logf("%d allocation-triggered collections", len(w.Pauses()))
}

func TestCloseThenCollectReclaimsAll(t *testing.T) {
	w, ts := newWorld(t)
	d, err := New(w, ts)
	if err != nil {
		t.Fatal(err)
	}
	for v := uint64(1); v <= 100; v++ {
		if err := d.PushRight(v); err != nil {
			t.Fatal(err)
		}
	}
	d.Close()
	w.Collect()
	if got := w.H.Stats().LiveObjects; got != 0 {
		t.Errorf("LiveObjects = %d after Close+Collect, want 0", got)
	}
}

func TestConcurrentMutatorsWithPeriodicSTW(t *testing.T) {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(4))
	w, ts := newWorld(t)
	d, err := New(w, ts)
	if err != nil {
		t.Fatal(err)
	}

	const workers, perW = 4, 1500
	var (
		wg     sync.WaitGroup
		mu     sync.Mutex
		popped = map[uint64]int{}
		done   atomic.Int64
	)
	// A collector goroutine stops the world periodically.
	stopGC := make(chan struct{})
	gcDone := make(chan struct{})
	go func() {
		defer close(gcDone)
		for {
			select {
			case <-stopGC:
				return
			default:
				w.Collect()
				runtime.Gosched()
			}
		}
	}()

	for p := 0; p < workers; p++ {
		wg.Add(1)
		go func(p int) {
			defer wg.Done()
			defer done.Add(1)
			for i := 0; i < perW; i++ {
				v := uint64(p*perW+i) + 1
				if err := d.PushRight(v); err != nil {
					t.Errorf("push: %v", err)
					return
				}
				if lv, ok := d.PopLeft(); ok {
					mu.Lock()
					popped[lv]++
					mu.Unlock()
				}
			}
		}(p)
	}
	wg.Wait()
	close(stopGC)
	<-gcDone

	for {
		v, ok := d.PopLeft()
		if !ok {
			break
		}
		popped[v]++
	}
	if len(popped) != workers*perW {
		t.Errorf("recovered %d distinct values, want %d", len(popped), workers*perW)
	}
	for v, n := range popped {
		if n != 1 {
			t.Errorf("value %d delivered %d times", v, n)
		}
	}
	if len(w.Pauses()) == 0 {
		t.Error("collector never ran")
	}
	d.Close()
	w.Collect()
	if got := w.H.Stats().LiveObjects; got != 0 {
		t.Errorf("LiveObjects = %d, want 0", got)
	}
}

// TestRootRegistrationCounts: a root registered twice survives one
// RemoveRoot and is collected after the last.
func TestRootRegistrationCounts(t *testing.T) {
	w, ts := newWorld(t)
	a := w.H.MustAlloc(ts.SNode)
	w.AddRoot(a)
	w.AddRoot(a)
	w.RemoveRoot(a)
	if res := w.Collect(); res.Freed != 0 || res.Marked != 1 {
		t.Errorf("Collect with a live root = %+v, want 1 marked, 0 freed", res)
	}
	w.RemoveRoot(a)
	if res := w.Collect(); res.Freed != 1 {
		t.Errorf("Freed = %d after the last RemoveRoot, want 1", res.Freed)
	}
}

// TestCollectReclaimsCycles: the tracer needs no counts, so the cycles the
// original deque's self-pointer sentinels strand are ordinary garbage to it.
func TestCollectReclaimsCycles(t *testing.T) {
	w, ts := newWorld(t)
	a, b := w.H.MustAlloc(ts.SNode), w.H.MustAlloc(ts.SNode)
	w.H.Store(w.H.FieldAddr(a, fR), uint64(b))
	w.H.Store(w.H.FieldAddr(b, fL), uint64(a))
	self := w.H.MustAlloc(ts.SNode)
	w.H.Store(w.H.FieldAddr(self, fL), uint64(self))
	if res := w.Collect(); res.Freed != 3 || w.H.Stats().LiveObjects != 0 {
		t.Errorf("Collect = %+v, live %d; want all 3 freed", res, w.H.Stats().LiveObjects)
	}
}
