package census_test

import (
	"testing"

	"lfrc/internal/census"
	"lfrc/internal/core"
	"lfrc/internal/reclaim"
	"lfrc/internal/snark"
)

func TestCollectEmptyHeap(t *testing.T) {
	w := newWorld(t)
	if res := census.Collect(w.config()); res != (census.Result{}) {
		t.Errorf("Collect on an empty heap = %+v, want zeros", res)
	}
}

func TestCollectSparesRootReachable(t *testing.T) {
	w := newWorld(t)
	root, _ := w.rc.NewObject(w.node)
	child, _ := w.rc.NewObject(w.node)
	w.rc.StoreAlloc(w.h.FieldAddr(root, 0), child)

	res := census.Collect(w.config(root))
	if res.Freed != 0 || res.Marked != 2 {
		t.Errorf("Collect = %+v, want 2 marked and nothing freed", res)
	}
	if w.h.IsFreed(root) || w.h.IsFreed(child) {
		t.Error("root-reachable object freed")
	}
}

func TestCollectReclaimsSimpleCycle(t *testing.T) {
	w := newWorld(t)
	a, _ := w.rc.NewObject(w.node)
	b, _ := w.rc.NewObject(w.node)
	w.rc.Store(w.h.FieldAddr(a, 0), b)
	w.rc.Store(w.h.FieldAddr(b, 0), a)
	w.rc.Destroy(a, b) // now a pure garbage cycle; LFRC cannot reclaim it

	if got := w.h.Stats().LiveObjects; got != 2 {
		t.Fatalf("precondition: LiveObjects = %d, want 2 leaked", got)
	}
	if res := census.Collect(w.config()); res.Freed != 2 {
		t.Errorf("Freed = %d, want 2", res.Freed)
	}
	if got := w.h.Stats().LiveObjects; got != 0 {
		t.Errorf("LiveObjects = %d after Collect, want 0", got)
	}
}

func TestCollectReclaimsSelfCycle(t *testing.T) {
	w := newWorld(t)
	a, _ := w.rc.NewObject(w.node)
	w.rc.Store(w.h.FieldAddr(a, 0), a) // self-pointer, like a Snark sentinel
	w.rc.Destroy(a)

	if res := census.Collect(w.config()); res.Freed != 1 {
		t.Errorf("Freed = %d, want 1", res.Freed)
	}
}

// collectAdjustsSurvivor builds the garbage cycle {a, b} with b also
// linking the rooted survivor s, collects, and checks that s's count lost
// exactly the dying link's weight and that plain LFRC frees s afterwards.
func collectAdjustsSurvivor(t *testing.T, w *world) {
	t.Helper()
	s, _ := w.rc.NewObject(w.node)
	a, _ := w.rc.NewObject(w.node)
	b, _ := w.rc.NewObject(w.node)
	w.rc.Store(w.h.FieldAddr(a, 0), b)
	w.rc.Store(w.h.FieldAddr(b, 0), a)
	w.rc.Store(w.h.FieldAddr(b, 1), s)
	w.rc.Destroy(a, b)

	if ms := w.audit(s); len(ms) != 0 {
		t.Fatalf("precondition: audit = %+v", ms)
	}
	res := census.Collect(w.config(s))
	if res.Freed != 2 || res.RCAdjusted != 1 {
		t.Errorf("Collect = %+v, want 2 freed and 1 count adjusted", res)
	}
	if ms := w.audit(s); len(ms) != 0 {
		t.Errorf("survivor miscounted after Collect: %+v", ms)
	}
	// Ordinary LFRC reclamation must work again afterwards.
	w.rc.Destroy(s)
	if got := w.h.Stats().LiveObjects; got != 0 {
		t.Errorf("LiveObjects = %d, want 0", got)
	}
}

func TestCollectAdjustsSurvivorCounts(t *testing.T) {
	collectAdjustsSurvivor(t, newWorld(t))
}

// TestCollectReturnsSplitStash: under split a dying link holds a weight
// stash, not one unit; the sweep must decode it and return all of it.
func TestCollectReturnsSplitStash(t *testing.T) {
	collectAdjustsSurvivor(t, newWorld(t, core.WithStrategyKind(core.StrategySplit)))
}

// TestCollectSparesLimbo: the epoch backend parks popped nodes as count-zero
// husks until a drain. They are unreachable but not garbage, so the
// collector must leave them for the backend; freeing them here made the
// later drain free them a second time.
func TestCollectSparesLimbo(t *testing.T) {
	w := newWorld(t, core.WithReclaimerKind(reclaim.KindEpoch))
	d, err := snark.New(w.rc, snark.MustRegisterTypes(w.h))
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 10; i++ {
		if err := d.PushRight(snark.Value(i)); err != nil {
			t.Fatal(err)
		}
		d.PopLeft()
	}
	if w.rc.ZombieCount() == 0 {
		t.Fatal("precondition: no husks in limbo")
	}
	s := census.Take(w.config(d.Anchor()))
	if s.Limbo.Objects == 0 || s.Unreachable.Objects != 0 {
		t.Fatalf("precondition: limbo=%d unreachable=%d", s.Limbo.Objects, s.Unreachable.Objects)
	}
	if res := census.Collect(w.config(d.Anchor())); res.Freed != 0 {
		t.Errorf("Collect freed %d limbo husks, want 0", res.Freed)
	}
	w.rc.DrainZombies(0)
	d.Close()
	w.rc.DrainZombies(0)
	if hs := w.h.Stats(); hs.DoubleFrees != 0 || hs.LiveObjects != 0 {
		t.Errorf("after drain: double frees %d, live %d, want 0/0", hs.DoubleFrees, hs.LiveObjects)
	}
}

// TestBackupCollectorOnCyclicSnark is the paper's §7 scenario end to end:
// the original self-pointer Snark strands sentinel cycles that LFRC cannot
// reclaim; an occasional tracing pass collects them while sparing the live
// deque (experiment E8).
func TestBackupCollectorOnCyclicSnark(t *testing.T) {
	w := newWorld(t)
	d, err := snark.New(w.rc, snark.MustRegisterTypes(w.h), snark.WithCyclicSentinels())
	if err != nil {
		t.Fatalf("snark.New: %v", err)
	}
	const n = 100
	for v := snark.Value(0); v < n; v++ {
		if err := d.PushRight(v); err != nil {
			t.Fatal(err)
		}
	}
	for i := 0; i < n/2; i++ {
		if _, ok := d.PopRight(); !ok {
			t.Fatalf("premature empty at %d", i)
		}
	}

	liveBefore := w.h.Stats().LiveObjects
	res := census.Collect(w.config(d.Anchor()))
	if res.Freed == 0 {
		t.Fatal("backup collector reclaimed nothing; expected stranded sentinel cycles")
	}
	t.Logf("backup trace freed %d of %d live objects", res.Freed, liveBefore)
	if ms := w.audit(d.Anchor()); len(ms) != 0 {
		t.Errorf("survivors miscounted after the trace: %+v", ms)
	}

	// The live half of the deque must still drain correctly.
	for i := 0; i < n/2; i++ {
		if _, ok := d.PopLeft(); !ok {
			t.Fatalf("deque lost live element %d after trace", i)
		}
	}
	if _, ok := d.PopLeft(); ok {
		t.Error("deque has extra elements after trace")
	}
}

// TestCollectFreesNothingTwice: a second pass right after the first finds
// nothing, and the freed slots stay poisoned.
func TestCollectFreesNothingTwice(t *testing.T) {
	w := newWorld(t)
	a, _ := w.rc.NewObject(w.node)
	w.rc.Store(w.h.FieldAddr(a, 0), a)
	w.rc.Destroy(a)
	census.Collect(w.config())
	if res := census.Collect(w.config()); res.Freed != 0 {
		t.Errorf("second Collect freed %d, want 0", res.Freed)
	}
	if ds := w.h.ScanPoison(); len(ds) != 0 {
		t.Errorf("ScanPoison after Collect = %+v", ds)
	}
	if hs := w.h.Stats(); hs.DoubleFrees != 0 {
		t.Errorf("DoubleFrees = %d", hs.DoubleFrees)
	}
}
