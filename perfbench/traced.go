package main

import (
	"errors"
	"fmt"
	"io"
	"strings"
	"time"
)

// runTraced is the per-layer run. Its time is split between the ladder (a
// quarter), the mixes of the two structures the workload does not use (a
// tenth each) and the facade phase (the rest). Every phase after the ladder
// is driven in windows of about subWindow, so each reading pools many
// stripe draws. The facade phase takes its windows in rounds of three
// kinds, in an order that rotates from round to round: the facade
// untraced, the facade traced, and the workload's own structure mix traced
// and driven directly on its package. Each difference the run reports,
// tracing overhead and the facade's own share, is then taken between
// readings with the same kind of noise. Each call and each rung batch is
// recorded as a span in tr.
func runTraced(wl workload, seed uint64, total time.Duration, tr *tracer, stdout io.Writer) (*result, error) {
	root, endRoot := tr.phase("perfbench."+wl.name, 0)
	defer endRoot()
	m := map[string]metric{}
	put := func(name string, v float64, unit string) { m[name] = metric{v, unit} }
	warm := min(total/50, 200*time.Millisecond)

	// L0-L3: the ladder.
	lid, endLadder := tr.phase("ladder", root)
	rungs, err := runLadder(total/4, tr, lid)
	endLadder()
	if err != nil {
		return nil, fmt.Errorf("ladder: %w", err)
	}
	for k, v := range rungs {
		unit := "ns"
		if strings.HasSuffix(k, "_ratio") {
			unit = "ratio"
		}
		put(k, v, unit)
	}

	// structure reports a structure mix measured over win, with c its
	// counter deltas over the same calls.
	structure := func(sw workload, win window, c counters) float64 {
		p := sw.structure + "."
		for k, name := range sw.kinds {
			put(p+name+"_ns.p50", win.kinds[k].quantile(0.50), "ns")
			put(p+name+"_ns.p99", win.kinds[k].quantile(0.99), "ns")
		}
		all := win.all()
		p50 := all.quantile(0.50)
		put(p+"op_ns.p50", p50, "ns")
		put(p+"residual_ns", p50-reconcile(c, win.ops, sw.stack, rungs), "ns")
		return p50
	}
	spanNames := func(sw workload, level string) [2]string {
		return [2]string{level + "." + sw.kinds[0], level + "." + sw.kinds[1]}
	}

	// L4: the other structures' mixes, each driven on its own package, so
	// each traced run reports every structure.
	var attempted, failed int64
	for _, sw := range workloads {
		if sw.structure == wl.structure {
			continue
		}
		sid, endMix := tr.phase(sw.structure+".mix", root)
		t, err := newCoreTarget(sw, seed)
		if err != nil {
			return nil, fmt.Errorf("%s setup: %w", sw.structure, err)
		}
		w0 := t.drive(warm, nil, 0, sw.kinds)
		c0 := t.stats()
		var win window
		n := windows(total / 10)
		for i := 0; i < n; i++ {
			win.add(t.drive(total/10/time.Duration(n), tr, sid, spanNames(sw, sw.structure)))
		}
		c := t.stats().minus(c0)
		err = t.finish()
		endMix()
		if err != nil {
			return nil, fmt.Errorf("%s: %w", sw.structure, err)
		}
		attempted += w0.ops + win.ops
		failed += w0.failed + win.failed
		reportFailure(stdout, sw.structure, firstErr(w0, win))
		structure(sw, win, c)
	}

	// L5: the facade, and the same mix on the structure package.
	fid, endFacade := tr.phase("lfrc."+wl.name, root)
	sid, endMix := tr.phase(wl.structure+".mix", root)
	t, err := newFacadeTarget(wl, seed)
	if err != nil {
		return nil, fmt.Errorf("setup: %w", err)
	}
	bare, err := newCoreTarget(wl, seed)
	if err != nil {
		return nil, fmt.Errorf("%s setup: %w", wl.structure, err)
	}
	names := spanNames(wl, "lfrc")
	w0 := t.drive(warm, nil, 0, names)
	bare0 := bare.drive(warm, nil, 0, wl.kinds)
	c0, bc0 := t.stats(), bare.stats()
	var plain, traced, bareWin window
	n := windows(total * 11 / 60)
	d := total * 11 / 60 / time.Duration(n)
	for i := 0; i < n; i++ {
		for k := 0; k < 3; k++ {
			switch (i + k) % 3 {
			case 0:
				plain.add(t.drive(d, nil, 0, names))
			case 1:
				traced.add(t.drive(d, tr, fid, names))
			case 2:
				bareWin.add(bare.drive(d, tr, sid, spanNames(wl, wl.structure)))
			}
		}
	}
	c, bc := t.stats().minus(c0), bare.stats().minus(bc0)
	err = errors.Join(t.finish(), bare.finish())
	endMix()
	endFacade()
	if err != nil {
		return nil, err
	}
	var facade window
	facade.add(plain)
	facade.add(traced)
	attempted += w0.ops + bare0.ops + facade.ops + bareWin.ops
	failed += w0.failed + bare0.failed + facade.failed + bareWin.failed
	reportFailure(stdout, wl.name, firstErr(w0, facade))
	reportFailure(stdout, wl.structure, firstErr(bare0, bareWin))
	bareP50 := structure(wl, bareWin, bc)

	all := traced.all()
	put("lfrc.op_ns.p50", all.quantile(0.50), "ns")
	put("lfrc.self_ns", all.quantile(0.50)-bareP50, "ns")
	put("trace.ops_per_s", traced.opsPerSec(), "1/s")
	put("trace.untraced_ops_per_s", plain.opsPerSec(), "1/s")
	put("trace.overhead_share", 1-traced.opsPerSec()/plain.opsPerSec(), "ratio")

	perOp := func(n int64) float64 { return ratio(n, facade.ops) }
	put("core.loads_per_op", perOp(c.loads), "count/op")
	put("core.dcas_per_op", perOp(c.dcas), "count/op")
	put("core.destroys_per_op", perOp(c.destroys), "count/op")
	put("core.load_retry_ratio", ratio(c.loadRetries, c.loads), "ratio")
	put("reclaim.frees_per_op", perOp(c.frees), "count/op")
	put("reclaim.pending_mean", facade.pendingMean, "objects")
	put("mem.allocs_per_op", perOp(c.heapAllocs), "count/op")
	put("mem.recycle_ratio", ratio(c.recycles, c.heapAllocs), "ratio")
	put("mem.high_water_words", float64(c.highWater), "words")
	put("mem.live_words_mean", facade.liveMean, "words")

	return &result{Correct: failed == 0, Attempted: attempted, Failed: failed, Metrics: m}, nil
}

// reconcile is what a structure op should cost if it were only the sum of
// its layers: each per-op count from the Stats() counters times the rung
// that times that operation on the same stack. Destroys that retire an
// object are charged the backend's release rung, the others the core
// destroy rung. Whatever else the op pays (structure logic, retries not
// counted here, contention between the workers) is the residual.
func reconcile(c counters, ops int64, st stack, rungs map[string]float64) float64 {
	per := func(n int64) float64 { return ratio(n, ops) }
	s := "core." + st.strategy.String() + "."
	e := "dcas." + st.engine.String() + "."
	return per(c.loads)*rungs[s+"load_ns"] +
		per(c.stores)*rungs[s+"store_ns"] +
		per(c.destroys-c.retired)*rungs[s+"destroy_ns"] +
		per(c.retired)*rungs["reclaim."+st.reclaimer.String()+".release_ns"] +
		per(c.allocs)*rungs[s+"new_object_ns"] +
		per(c.cas)*rungs[e+"cas_ns"] +
		per(c.dcas)*rungs[e+"dcas_ns"]
}
