package workload

import (
	"fmt"
	"math/rand"
	"time"

	"lfrc/internal/census"
	"lfrc/internal/core"
	"lfrc/internal/gcdep"
	"lfrc/internal/mem"
	"lfrc/internal/snark"
)

// RunE7 demonstrates the methodology's Step 3 (paper §3, §4): with the
// original self-pointer sentinels every pop strands a garbage cycle that
// reference counting cannot reclaim; the null-pointer change eliminates the
// leak entirely.
func RunE7(kind EngineKind, scale Scale) *Table {
	t := &Table{
		ID:     "E7",
		Title:  "garbage cycles from sentinel self-pointers vs Step-3 null sentinels",
		Claim:  "§3 step 3: \"the reference counts of nodes in a garbage cycle will remain non-zero forever\"",
		Header: []string{"sentinel convention", "engine", "pushes", "pops", "objects leaked after close"},
		Notes: []string{
			"expected shape: self-pointer sentinels leak proportionally to pops; null sentinels leak exactly 0",
		},
	}
	n := scale.times(500)

	for _, cyclic := range []bool{true, false} {
		env := NewEnv(kind)
		var opts []snark.Option
		if cyclic {
			opts = append(opts, snark.WithCyclicSentinels())
		}
		d, err := env.NewDeque(opts...)
		if err != nil {
			t.Notes = append(t.Notes, "setup failed: "+err.Error())
			return t
		}
		for i := 0; i < n; i++ {
			_ = d.PushRight(uint64(i + 1))
		}
		pops := 0
		for {
			if _, ok := d.PopRight(); !ok {
				break
			}
			pops++
		}
		d.Close()

		name := "null (Step 3 applied)"
		if cyclic {
			name = "self-pointer (original)"
		}
		t.AddRow(name, kind.String(), n, pops, env.Heap.Stats().LiveObjects)
	}
	return t
}

// RunE8 exercises the paper's §7 proposal: an occasional stop-the-world
// tracing pass reclaims the cyclic garbage LFRC strands, while sparing the
// live structure.
func RunE8(kind EngineKind, scale Scale) *Table {
	t := &Table{
		ID:     "E8",
		Title:  "backup tracing collector on stranded sentinel cycles",
		Claim:  "§7: \"integrate a tracing collector that can be invoked occasionally in order to identify and collect cyclic garbage\"",
		Header: []string{"stage", "live objects", "freed by trace"},
		Notes: []string{
			"expected shape: trace reclaims (nearly) all stranded cycles; a second trace finds nothing; live deque survives intact",
		},
	}
	n := scale.times(500)

	env := NewEnv(kind)
	d, err := env.NewDeque(snark.WithCyclicSentinels())
	if err != nil {
		t.Notes = append(t.Notes, "setup failed: "+err.Error())
		return t
	}
	gc := env.CensusConfig(d.Anchor())

	for i := 0; i < n; i++ {
		_ = d.PushRight(uint64(i + 1))
	}
	for i := 0; i < n/2; i++ {
		d.PopRight()
	}
	t.AddRow("after churn (half popped)", env.Heap.Stats().LiveObjects, "-")

	res := census.Collect(gc)
	t.AddRow("after first trace", env.Heap.Stats().LiveObjects, res.Freed)

	res2 := census.Collect(gc)
	t.AddRow("after second trace", env.Heap.Stats().LiveObjects, res2.Freed)

	// Verify the survivors are exactly the live elements.
	drained := 0
	for {
		if _, ok := d.PopLeft(); !ok {
			break
		}
		drained++
	}
	t.Notes = append(t.Notes, fmt.Sprintf("live elements drained after traces: %d (want %d)", drained, n-n/2))
	return t
}

// RunE9 checks that the LFRC transformation preserves the deque's
// sequential semantics (paper §3/§4: the methodology is a semantics-
// preserving code transformation): the same operation script runs on the
// GC-dependent original and the GC-independent transform, and every result
// must match.
func RunE9(kind EngineKind, scale Scale) *Table {
	t := &Table{
		ID:     "E9",
		Title:  "behavioural equivalence of original and transformed Snark",
		Claim:  "§4: Steps 1..6 mechanically transform the implementation without changing its semantics",
		Header: []string{"scripts", "ops per script", "engine", "mismatches"},
		Notes:  []string{"expected shape: 0 mismatches"},
	}
	scripts := scale.times(50)
	const opsPerScript = 400

	mismatches := 0
	for s := 0; s < scripts; s++ {
		env := NewEnv(kind)
		ld, err := env.NewDeque()
		if err != nil {
			t.Notes = append(t.Notes, "setup failed: "+err.Error())
			return t
		}
		gd := gcdep.New()

		rng := rand.New(rand.NewSource(int64(s) + 1))
		next := uint64(1)
		for i := 0; i < opsPerScript; i++ {
			switch rng.Intn(4) {
			case 0:
				_ = ld.PushLeft(next)
				gd.PushLeft(next)
				next++
			case 1:
				_ = ld.PushRight(next)
				gd.PushRight(next)
				next++
			case 2:
				lv, lok := ld.PopLeft()
				gv, gok := gd.PopLeft()
				if lok != gok || lv != gv {
					mismatches++
				}
			case 3:
				lv, lok := ld.PopRight()
				gv, gok := gd.PopRight()
				if lok != gok || lv != gv {
					mismatches++
				}
			}
		}
		// Drain both; remaining sequences must agree.
		for {
			lv, lok := ld.PopLeft()
			gv, gok := gd.PopLeft()
			if lok != gok || lv != gv {
				mismatches++
			}
			if !lok && !gok {
				break
			}
		}
		ld.Close()
	}
	t.AddRow(scripts, opsPerScript, kind.String(), mismatches)
	return t
}

// RunA1 is the engine ablation: identical DCAS/CAS traffic on the modeled
// hardware DCAS vs the lock-free software MCAS, plus a contended deque
// comparison. It quantifies what the paper's hardware assumption is worth.
func RunA1(dur time.Duration) *Table {
	t := &Table{
		ID:     "A1",
		Title:  "ablation: modeled hardware DCAS (locking) vs software MCAS",
		Claim:  "§1: the paper assumes hardware DCAS; software MCAS from CAS is the commodity fallback and costs more",
		Header: []string{"benchmark", "locking", "mcas", "mcas/locking"},
		Notes: []string{
			"expected shape: mcas pays 2-5x per DCAS (descriptor install/resolve/remove), less on CAS-only paths",
		},
	}

	measure := func(kind EngineKind, contended bool) float64 {
		env := NewEnv(kind)
		d, err := env.NewDeque()
		if err != nil {
			return 0
		}
		defer d.Close()
		workers := 1
		if contended {
			workers = 4
		}
		res := RunThroughput(SnarkAdapter{D: d}, workers, dur, Balanced, 128)
		return res.OpsPerSec()
	}

	for _, row := range []struct {
		name      string
		contended bool
	}{
		{name: "deque ops/sec (1 worker)", contended: false},
		{name: "deque ops/sec (4 workers)", contended: true},
	} {
		l := measure(EngineLocking, row.contended)
		m := measure(EngineMCAS, row.contended)
		ratio := "-"
		if l > 0 {
			ratio = fmt.Sprintf("%.2f", m/l)
		}
		t.AddRow(row.name, fmt.Sprintf("%.0f", l), fmt.Sprintf("%.0f", m), ratio)
	}
	return t
}

// RunA2 is the incremental-destroy ablation (paper §7: avoid "long delays
// when a thread destroys the last pointer to a large structure"): dropping a
// K-node list with different per-call budgets, measuring the longest single
// Destroy pause and the total reclamation time.
func RunA2(kind EngineKind, scale Scale) *Table {
	t := &Table{
		ID:     "A2",
		Title:  "ablation: eager vs incremental destruction of a large structure",
		Claim:  "§7: incremental collection \"would avoid long delays when a thread destroys the last pointer to a large structure\"",
		Header: []string{"budget", "nodes", "max pause", "total reclaim time", "drain calls"},
		Notes: []string{
			"expected shape: eager = one pause ~ total time; budgets bound the pause at modest total overhead",
		},
	}
	nodes := scale.times(100_000)

	for _, budget := range []int{0, 64, 4096} {
		var env *Env
		if budget == 0 {
			env = NewEnv(kind)
		} else {
			env = NewEnv(kind, core.WithIncrementalDestroy(budget))
		}
		rc, h := env.RC, env.Heap

		var head mem.Ref
		for i := 0; i < nodes; i++ {
			p, err := rc.NewObject(env.SnarkTypes.SNode)
			if err != nil {
				t.Notes = append(t.Notes, "allocation failed: "+err.Error())
				return t
			}
			rc.StoreAlloc(h.FieldAddr(p, 0), head)
			head = p
		}

		start := time.Now()
		rc.Destroy(head)
		firstPause := time.Since(start)

		maxPause := firstPause
		drains := 0
		for h.Stats().LiveObjects > 0 {
			ds := time.Now()
			if rc.DrainZombies(budget) == 0 && rc.ZombieCount() == 0 {
				break
			}
			if p := time.Since(ds); p > maxPause {
				maxPause = p
			}
			drains++
		}
		total := time.Since(start)

		name := "eager"
		if budget > 0 {
			name = fmt.Sprintf("%d objs", budget)
		}
		t.AddRow(name, nodes, maxPause.Round(time.Microsecond), total.Round(time.Microsecond), drains)
	}
	return t
}
