package lfrc

import (
	"bytes"
	"os"
	"strconv"
	"strings"
	"sync"
	"testing"

	"lfrc/internal/mem"
)

// buildCycle plants the paper's unfixable garbage: a doubly-linked A⇄B pair
// whose counts each settle at 1 (held only by the other member) with no
// Go-side reference remaining. LFRC can never free it — exactly what the
// census exists to report.
func buildCycle(t *testing.T, sys *System) (a, b mem.Ref) {
	t.Helper()
	tid, err := sys.heap.RegisterType(mem.TypeDesc{Name: "cyclepair", NumFields: 2, PtrFields: []int{0, 1}})
	if err != nil {
		t.Fatalf("RegisterType: %v", err)
	}
	a, err = sys.rc.NewObject(tid) // rc=1 (our handle)
	if err != nil {
		t.Fatalf("NewObject: %v", err)
	}
	b, err = sys.rc.NewObject(tid) // rc=1 (our handle)
	if err != nil {
		t.Fatalf("NewObject: %v", err)
	}
	sys.rc.Store(sys.heap.FieldAddr(a, 0), b) // b rc=2
	sys.rc.Store(sys.heap.FieldAddr(b, 0), a) // a rc=2
	sys.rc.Destroy(a, b)                      // drop our handles: rc=1 each, unreachable
	return a, b
}

// TestCensusCycleLeak is the acceptance scenario: a deliberately constructed
// doubly-linked cycle, unreachable after the structures close, is reported by
// the census — with its member list, retained bytes, and a non-zero
// lfrc_census_cycle_bytes gauge — on both reclamation backends. On the epoch
// backend the pre-drain census must additionally classify retired husks as
// limbo, never as leaks.
func TestCensusCycleLeak(t *testing.T) {
	for _, backend := range []Reclaimer{ReclaimerLFRC, ReclaimerEpoch} {
		t.Run(backend.String(), func(t *testing.T) {
			sys, err := New(WithReclamation(backend))
			if err != nil {
				t.Fatalf("New: %v", err)
			}
			defer sys.Close()
			q, err := sys.NewQueue()
			if err != nil {
				t.Fatalf("NewQueue: %v", err)
			}
			for i := Value(0); i < 64; i++ {
				if err := q.Enqueue(i); err != nil {
					t.Fatalf("Enqueue: %v", err)
				}
			}
			for i := 0; i < 32; i++ {
				if _, ok := q.Dequeue(); !ok {
					t.Fatal("Dequeue: empty")
				}
			}
			a, b := buildCycle(t, sys)

			pre := sys.Census()
			if pre.Unreachable.Objects != 2 {
				t.Errorf("pre-drain unreachable = %d, want 2 (only the cycle): %+v",
					pre.Unreachable.Objects, pre.Unreachable)
			}
			if backend == ReclaimerEpoch && pre.Limbo.Objects == 0 {
				t.Errorf("epoch pre-drain census shows no limbo despite 32 undrained retirees")
			}

			q.Close()
			sys.DrainZombies(0)
			c := sys.Census()

			if c.Limbo.Objects != 0 {
				t.Errorf("post-drain limbo = %d, want 0", c.Limbo.Objects)
			}
			if c.CycleCount != 1 || len(c.Cycles) != 1 {
				t.Fatalf("cycle count = %d (%d listed), want 1", c.CycleCount, len(c.Cycles))
			}
			cy := c.Cycles[0]
			if cy.Size != 2 || cy.Bytes <= 0 || cy.RetainedBytes < cy.Bytes {
				t.Errorf("cycle = %+v, want size 2 with positive (retained) bytes", cy)
			}
			members := map[uint32]uint64{}
			for _, o := range cy.Objects {
				members[o.Ref] = o.RC
				if o.Type != "cyclepair" {
					t.Errorf("member type = %q, want cyclepair", o.Type)
				}
			}
			if members[uint32(a)] != 1 || members[uint32(b)] != 1 {
				t.Errorf("members = %v, want a=%d and b=%d at rc=1", cy.Objects, a, b)
			}
			if c.CycleBytes <= 0 || c.Unreachable.Objects != 2 {
				t.Errorf("cycle_bytes=%d unreachable=%d, want >0 and 2", c.CycleBytes, c.Unreachable.Objects)
			}
			// The cycle's counts are consistent (1 in-edge each), so it must
			// NOT be flagged as an rc mismatch — it is a leak, not a count bug.
			if c.RCMismatchCount != 0 {
				t.Errorf("rc mismatches = %d (%v), want 0", c.RCMismatchCount, c.RCMismatches)
			}

			var buf bytes.Buffer
			sys.WriteMetrics(&buf)
			v, ok := metricValue(buf.String(), "lfrc_census_cycle_bytes")
			if !ok || v <= 0 {
				t.Errorf("lfrc_census_cycle_bytes = %v (found=%v), want > 0", v, ok)
			}
		})
	}
}

// metricValue scans Prometheus text exposition for an unlabelled series.
func metricValue(text, name string) (float64, bool) {
	for _, line := range strings.Split(text, "\n") {
		if !strings.HasPrefix(line, name+" ") {
			continue
		}
		v, err := strconv.ParseFloat(strings.TrimSpace(strings.TrimPrefix(line, name+" ")), 64)
		if err != nil {
			return 0, false
		}
		return v, true
	}
	return 0, false
}

// TestCensusExtraRoots: a counted reference held only in a Go-side variable
// would be misreported as a leak; WithCensusRoots declares it, which both
// reclassifies its subgraph as reachable and fixes the expected in-edge count.
func TestCensusExtraRoots(t *testing.T) {
	var held uint32
	sys, err := New(WithCensusRoots(func() []uint32 { return []uint32{held} }))
	if err != nil {
		t.Fatalf("New: %v", err)
	}
	defer sys.Close()
	tid, err := sys.heap.RegisterType(mem.TypeDesc{Name: "held", NumFields: 1})
	if err != nil {
		t.Fatalf("RegisterType: %v", err)
	}
	r, err := sys.rc.NewObject(tid)
	if err != nil {
		t.Fatalf("NewObject: %v", err)
	}
	held = uint32(r)

	c := sys.Census()
	if c.Reachable.Objects != 1 || c.Unreachable.Objects != 0 {
		t.Errorf("reachable=%d unreachable=%d, want 1/0", c.Reachable.Objects, c.Unreachable.Objects)
	}
	if c.RCMismatchCount != 0 {
		t.Errorf("declared root still flagged as mismatch: %v", c.RCMismatches)
	}
	found := false
	for _, root := range c.Roots {
		if root.Ref == held && root.Name == "extra" && root.Count == 1 {
			found = true
		}
	}
	if !found {
		t.Errorf("extra root not listed: %+v", c.Roots)
	}

	// Undeclared, the same object is a leak candidate: unreachable with a
	// stuck count.
	held = 0
	c = sys.Census()
	if c.Unreachable.Objects != 1 || c.RCMismatchCount != 1 {
		t.Errorf("undeclared handle not reported: unreachable=%d mismatches=%d, want 1/1",
			c.Unreachable.Objects, c.RCMismatchCount)
	}
}

// TestCensusWhileMutating locks the read-only guarantee under -race: censuses
// taken while mutator goroutines hammer the structures must be race-clean,
// and a census must never free or retain anything itself.
func TestCensusWhileMutating(t *testing.T) {
	sys, err := New()
	if err != nil {
		t.Fatalf("New: %v", err)
	}
	defer sys.Close()
	q, err := sys.NewQueue()
	if err != nil {
		t.Fatalf("NewQueue: %v", err)
	}
	st, err := sys.NewStack()
	if err != nil {
		t.Fatalf("NewStack: %v", err)
	}

	stop := make(chan struct{})
	var wg sync.WaitGroup
	for w := 0; w < 4; w++ {
		wg.Add(1)
		go func(seed uint64) {
			defer wg.Done()
			rng := seed*0x9E3779B97F4A7C15 + 1
			for {
				select {
				case <-stop:
					return
				default:
				}
				rng = rng*6364136223846793005 + 1442695040888963407
				v := Value(rng >> 16 & 0xFFFF)
				switch rng % 4 {
				case 0:
					q.Enqueue(v)
				case 1:
					q.Dequeue()
				case 2:
					st.Push(v)
				case 3:
					st.Pop()
				}
			}
		}(uint64(w + 1))
	}
	for i := 0; i < 20; i++ {
		c := sys.Census()
		// Moving-target snapshots are approximate but must stay internally
		// partitioned.
		if got := c.Reachable.Objects + c.Unreachable.Objects + c.Limbo.Objects; got != c.LiveObjects {
			t.Errorf("buckets do not partition a concurrent census: %d != %d", got, c.LiveObjects)
		}
	}
	close(stop)
	wg.Wait()

	// Quiescent: the census itself must not move the heap.
	before := sys.Stats().Heap
	c := sys.Census()
	after := sys.Stats().Heap
	if before.LiveObjects != after.LiveObjects || before.Frees != after.Frees || before.Allocs != after.Allocs {
		t.Errorf("census moved the heap: before=%+v after=%+v", before, after)
	}
	if c.LiveObjects != before.LiveObjects {
		t.Errorf("census live=%d, heap live=%d", c.LiveObjects, before.LiveObjects)
	}
}

// TestWriteCensusProfileCapture regenerates the census.pb.gz capture quoted
// in README.md ("Heap census"): a queue plus one planted cycle, closed and
// drained, so `go tool pprof -top` shows the cycle-leak class on top. Skipped
// unless CENSUS_CAPTURE names an output path:
//
//	CENSUS_CAPTURE=/tmp/census.pb.gz go test -run TestWriteCensusProfileCapture .
//	go tool pprof -top /tmp/census.pb.gz
func TestWriteCensusProfileCapture(t *testing.T) {
	out := os.Getenv("CENSUS_CAPTURE")
	if out == "" {
		t.Skip("set CENSUS_CAPTURE=<path> to write the README capture")
	}
	sys, err := New()
	if err != nil {
		t.Fatalf("New: %v", err)
	}
	defer sys.Close()
	q, err := sys.NewQueue()
	if err != nil {
		t.Fatalf("NewQueue: %v", err)
	}
	for i := Value(0); i < 64; i++ {
		if err := q.Enqueue(i); err != nil {
			t.Fatalf("Enqueue: %v", err)
		}
	}
	buildCycle(t, sys)
	f, err := os.Create(out)
	if err != nil {
		t.Fatalf("create %s: %v", out, err)
	}
	defer f.Close()
	if err := sys.WriteCensusProfile(f); err != nil {
		t.Fatalf("WriteCensusProfile: %v", err)
	}
}

// TestCollectSparesEpochLimbo: on an epoch system popped nodes wait in limbo
// as count-zero husks. The backup collector must leave them to the backend;
// when it freed them, the later drain freed them again.
func TestCollectSparesEpochLimbo(t *testing.T) {
	sys, err := New(WithReclamation(ReclaimerEpoch))
	if err != nil {
		t.Fatal(err)
	}
	defer sys.Close()
	d, err := sys.NewDeque()
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 10; i++ {
		if err := d.PushRight(Value(i)); err != nil {
			t.Fatal(err)
		}
		d.PopLeft()
	}
	if sys.ZombieCount() == 0 {
		t.Fatal("precondition: nothing in limbo")
	}
	if res := sys.Collect(); res.Freed != 0 {
		t.Errorf("Collect freed %d limbo husks, want 0", res.Freed)
	}
	sys.DrainZombies(0)
	if hs := sys.Stats().Heap; hs.DoubleFrees != 0 {
		t.Errorf("DoubleFrees = %d after Collect + DrainZombies, want 0", hs.DoubleFrees)
	}
	d.Close()
	sys.DrainZombies(0)
	if live := sys.Stats().Heap.LiveObjects; live != 0 {
		t.Errorf("LiveObjects = %d after Close, want 0", live)
	}
}

// TestCollectHonorsCensusRoots: Collect reads the same root set as Census
// and Audit, so a Go-held object declared with WithCensusRoots survives.
func TestCollectHonorsCensusRoots(t *testing.T) {
	var held []uint32
	sys, err := New(WithCensusRoots(func() []uint32 { return held }))
	if err != nil {
		t.Fatal(err)
	}
	a, b := buildCycle(t, sys)
	var ref mem.Ref
	sys.rc.Copy(&ref, a) // take a Go-side reference to a, and declare it
	held = []uint32{uint32(ref)}
	if vs := sys.Audit(); len(vs) != 0 {
		t.Fatalf("Audit = %v, want none", vs)
	}
	if res := sys.Collect(); res.Freed != 0 {
		t.Errorf("Collect freed %d objects held through WithCensusRoots", res.Freed)
	}
	held = nil
	sys.rc.Destroy(ref)
	if res := sys.Collect(); res.Freed != 2 || !sys.heap.IsFreed(b) {
		t.Errorf("Collect = %+v once undeclared, want the 2-cycle freed", res)
	}
}

// TestAuditReportsPoisonedCount: at quiescence a live object whose count
// cell holds poison is corruption. The census skips it only when the block
// turns out to have been freed under a concurrent walk.
func TestAuditReportsPoisonedCount(t *testing.T) {
	sys, err := New()
	if err != nil {
		t.Fatal(err)
	}
	d, err := sys.NewDeque()
	if err != nil {
		t.Fatal(err)
	}
	anchor := d.d.Anchor()
	rc := sys.heap.RCAddr(anchor)
	good := sys.heap.Load(rc)
	sys.heap.Store(rc, mem.Poison)
	vs := sys.Audit()
	if len(vs) != 1 || !strings.Contains(vs[0], strconv.FormatUint(mem.Poison, 10)) {
		t.Errorf("Audit = %v, want the poisoned anchor count", vs)
	}
	sys.heap.Store(rc, good)
	if vs := sys.Audit(); len(vs) != 0 {
		t.Errorf("Audit after repair = %v", vs)
	}
	d.Close()
}

// TestAuditReturnsEveryViolation: Audit is the census's mismatch set
// uncapped; the census's 64-entry list cap must not hide violations.
func TestAuditReturnsEveryViolation(t *testing.T) {
	sys, err := New()
	if err != nil {
		t.Fatal(err)
	}
	tid, err := sys.heap.RegisterType(mem.TypeDesc{Name: "stray", NumFields: 1})
	if err != nil {
		t.Fatal(err)
	}
	const n = 100
	for i := 0; i < n; i++ {
		// Counted, but nothing points at it and no root declares it.
		if _, err := sys.rc.NewObject(tid); err != nil {
			t.Fatal(err)
		}
	}
	if vs := sys.Audit(); len(vs) != n {
		t.Errorf("Audit returned %d violations, want %d", len(vs), n)
	}
}

// TestCensusRootSetCounts: each registration of an anchor is one count unit
// and one RemoveRoot; the root goes only with its last registration.
func TestCensusRootSetCounts(t *testing.T) {
	var rs rootSet
	rs.add(40, "deque")
	rs.add(40, "")
	rs.remove(40)
	if r := rs.m[40]; r.Count != 1 || r.Name != "deque" {
		t.Errorf("after add, add, remove: %+v, want count 1 named deque", r)
	}
	rs.remove(40)
	rs.remove(40) // unbalanced removes are ignored
	if _, ok := rs.m[40]; ok {
		t.Error("root survived its last remove")
	}
}
