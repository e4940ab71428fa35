package census_test

import (
	"testing"

	"lfrc/internal/census"
	"lfrc/internal/core"
	"lfrc/internal/dcas"
	"lfrc/internal/mem"
	"lfrc/internal/snark"
)

// world is a heap driven through the real LFRC operations, for the audit
// and collector tests: the census must agree with counts core maintained.
type world struct {
	h    *mem.Heap
	rc   *core.RC
	node mem.TypeID
}

func newWorld(t *testing.T, opts ...core.Option) *world {
	t.Helper()
	h := mem.NewHeap()
	return &world{
		h:    h,
		rc:   core.New(h, dcas.NewLocking(h), opts...),
		node: h.MustRegisterType(mem.TypeDesc{Name: "node", NumFields: 3, PtrFields: []int{0, 1}}),
	}
}

// config describes a quiescent census of w whose roots each hold one count
// unit (a Go-side handle), with every mismatch listed.
func (w *world) config(roots ...mem.Ref) census.Config {
	rs := map[uint32]census.Root{}
	for _, r := range roots {
		e := rs[uint32(r)]
		e.Ref, e.Name = uint32(r), "local"
		e.Count++
		rs[uint32(r)] = e
	}
	return census.Config{Heap: w.h, Read: w.h.Load, Decode: w.rc.DecodeLink, Roots: rs, MaxMismatches: 1 << 20}
}

func (w *world) audit(roots ...mem.Ref) []census.Mismatch {
	return census.Take(w.config(roots...)).RCMismatches
}

func TestAuditCleanGraph(t *testing.T) {
	w := newWorld(t)
	// root -> {a, b}; b -> a. Locals: root, a, b.
	root, _ := w.rc.NewObject(w.node)
	a, _ := w.rc.NewObject(w.node)
	b, _ := w.rc.NewObject(w.node)
	w.rc.Store(w.h.FieldAddr(root, 0), a)
	w.rc.Store(w.h.FieldAddr(root, 1), b)
	w.rc.Store(w.h.FieldAddr(b, 0), a)

	if ms := w.audit(root, a, b); len(ms) != 0 {
		t.Errorf("audit of a clean graph = %+v, want none", ms)
	}
}

func TestAuditDetectsInflatedCount(t *testing.T) {
	w := newWorld(t)
	a, _ := w.rc.NewObject(w.node)
	w.h.Store(w.h.RCAddr(a), 5) // corrupt: only the local ref exists

	ms := w.audit(a)
	if len(ms) != 1 {
		t.Fatalf("audit = %+v, want 1 mismatch", ms)
	}
	if m := ms[0]; m.Ref != uint32(a) || m.Expected != 1 || m.Stored != 5 || m.Class != "reachable" {
		t.Errorf("mismatch = %+v", m)
	}
}

func TestAuditDetectsDeflatedCount(t *testing.T) {
	w := newWorld(t)
	root, _ := w.rc.NewObject(w.node)
	a, _ := w.rc.NewObject(w.node)
	w.rc.Store(w.h.FieldAddr(root, 0), a)
	w.h.Store(w.h.RCAddr(a), 1) // lost the root's field reference

	ms := w.audit(root, a)
	if len(ms) != 1 || ms[0].Ref != uint32(a) || ms[0].Expected != 2 || ms[0].Stored != 1 {
		t.Errorf("audit = %+v, want one deflation at %#x", ms, a)
	}
}

func TestAuditCountsSelfPointers(t *testing.T) {
	w := newWorld(t)
	a, _ := w.rc.NewObject(w.node)
	w.rc.Store(w.h.FieldAddr(a, 0), a)

	if ms := w.audit(a); len(ms) != 0 {
		t.Errorf("audit with a self-pointer = %+v, want none", ms)
	}
}

// TestAuditSplitWeights: under the split strategy each link carries a
// weight stash and the stored count is the weighted in-edge sum; the audit
// must decode links to see it.
func TestAuditSplitWeights(t *testing.T) {
	w := newWorld(t, core.WithStrategyKind(core.StrategySplit))
	root, _ := w.rc.NewObject(w.node)
	a, _ := w.rc.NewObject(w.node)
	w.rc.Store(w.h.FieldAddr(root, 0), a)
	var local mem.Ref
	w.rc.Load(w.h.FieldAddr(root, 0), &local) // borrows from the stash
	w.rc.Destroy(local)

	if rc := w.rc.RCOf(a); rc <= 2 {
		t.Fatalf("precondition: split count of a = %d, want a weighted count > 2", rc)
	}
	if ms := w.audit(root, a); len(ms) != 0 {
		t.Errorf("audit under split = %+v, want none", ms)
	}
	bare := w.config(root, a)
	bare.Decode = nil // the figure2 reading ignores the stash
	if s := census.Take(bare); s.RCMismatchCount == 0 {
		t.Error("bare-ref audit of a split heap found no mismatch; the decode is not exercised")
	}
}

// TestAuditReportsPoisonedLiveCount: at quiescence a live object whose
// count cell holds poison is corruption, not a walk race.
func TestAuditReportsPoisonedLiveCount(t *testing.T) {
	w := newWorld(t)
	a, _ := w.rc.NewObject(w.node)
	w.h.Store(w.h.RCAddr(a), mem.Poison)

	ms := w.audit(a)
	if len(ms) != 1 || ms[0].Ref != uint32(a) || ms[0].Stored != mem.Poison || ms[0].Expected != 1 {
		t.Errorf("audit = %+v, want the poisoned count of %#x", ms, a)
	}
}

// TestAuditListsEveryMismatch: the aggregate is always exact, and an
// uncapped config lists every mismatch, beyond the default cap of 64.
func TestAuditListsEveryMismatch(t *testing.T) {
	w := newWorld(t)
	const n = census.DefaultMaxMismatches + 36
	var refs []mem.Ref
	for i := 0; i < n; i++ {
		r, _ := w.rc.NewObject(w.node)
		w.h.Store(w.h.RCAddr(r), 3)
		refs = append(refs, r)
	}
	if ms := w.audit(refs...); len(ms) != n {
		t.Errorf("uncapped audit listed %d mismatches, want %d", len(ms), n)
	}
	cfg := w.config(refs...)
	cfg.MaxMismatches = 0 // package default
	if s := census.Take(cfg); s.RCMismatchCount != n || len(s.RCMismatches) != census.DefaultMaxMismatches {
		t.Errorf("default cap: count %d listed %d, want %d and %d",
			s.RCMismatchCount, len(s.RCMismatches), n, census.DefaultMaxMismatches)
	}
}

func TestAuditQuiescentSnark(t *testing.T) {
	w := newWorld(t)
	ts := snark.MustRegisterTypes(w.h)
	d, err := snark.New(w.rc, ts)
	if err != nil {
		t.Fatalf("snark.New: %v", err)
	}
	for v := snark.Value(0); v < 200; v++ {
		if err := d.PushRight(v); err != nil {
			t.Fatal(err)
		}
		if v%3 == 0 {
			d.PopLeft()
		}
		if v%7 == 0 {
			d.PopRight()
		}
	}

	// At quiescence the only external reference is the Deque struct's
	// anchor handle.
	if ms := w.audit(d.Anchor()); len(ms) != 0 {
		t.Errorf("audit of a quiescent deque found %d mismatches: %+v", len(ms), ms)
	}
	d.Close()
	if s := census.Take(w.config()); s.LiveObjects != 0 {
		t.Errorf("LiveObjects after Close = %d, want none", s.LiveObjects)
	}
}

func TestLeaksListsLiveObjects(t *testing.T) {
	w := newWorld(t)
	a, _ := w.rc.NewObject(w.node)
	b, _ := w.rc.NewObject(w.node)

	if s := census.Take(w.config()); s.LiveObjects != 2 || s.Unreachable.Objects != 2 {
		t.Fatalf("live=%d unreachable=%d, want 2/2 (nothing roots them)", s.LiveObjects, s.Unreachable.Objects)
	}
	w.rc.Destroy(a, b)
	if s := census.Take(w.config()); s.LiveObjects != 0 || s.FreedSlots != 2 {
		t.Errorf("after destroy live=%d freed=%d, want 0/2", s.LiveObjects, s.FreedSlots)
	}
}

func TestCensusCountsByType(t *testing.T) {
	w := newWorld(t)
	leaf := w.h.MustRegisterType(mem.TypeDesc{Name: "leaf", NumFields: 1})

	var nodes, leaves []mem.Ref
	for i := 0; i < 5; i++ {
		n, _ := w.rc.NewObject(w.node)
		nodes = append(nodes, n)
	}
	for i := 0; i < 3; i++ {
		l, _ := w.rc.NewObject(leaf)
		leaves = append(leaves, l)
	}
	w.rc.Destroy(nodes[0])
	w.rc.Destroy(leaves[0])

	s := census.Take(w.config())
	got := map[string]census.TypeStat{}
	for _, ts := range s.Types {
		got[ts.Name] = ts
	}
	if ts := got["node"]; ts.Objects != 4 || ts.Bytes != 4*(mem.HeaderWords+3)*8 {
		t.Errorf("node = %+v, want 4 objects of 6 words", ts)
	}
	if ts := got["leaf"]; ts.Objects != 2 {
		t.Errorf("leaf = %+v, want 2 objects", ts)
	}
	// Largest bytes first: node objects are larger and more.
	if len(s.Types) == 0 || s.Types[0].Name != "node" {
		t.Errorf("Types = %+v, want node first", s.Types)
	}
	if s.FreedSlots != 2 {
		t.Errorf("FreedSlots = %d, want 2", s.FreedSlots)
	}
}

func TestCensusEmptyHeap(t *testing.T) {
	w := newWorld(t)
	if s := census.Take(w.config()); s.LiveObjects != 0 || len(s.Types) != 0 || s.RCMismatchCount != 0 {
		t.Errorf("census of an empty heap = %+v", s)
	}
}
