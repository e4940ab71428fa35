package main

import (
	"bytes"
	"encoding/json"
	"errors"
	"os"
	"slices"
	"strings"
	"testing"

	"lfrc"
)

// benchmarkMetrics reads the metric names BENCHMARK.json declares.
func benchmarkMetrics(t *testing.T) (endToEnd, perLayer []string) {
	t.Helper()
	raw, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var b struct {
		EndToEnd []struct{ Name string } `json:"end_to_end"`
		PerLayer []struct{ Name string } `json:"per_layer"`
	}
	if err := json.Unmarshal(raw, &b); err != nil {
		t.Fatal(err)
	}
	for _, m := range b.EndToEnd {
		endToEnd = append(endToEnd, m.Name)
	}
	for _, m := range b.PerLayer {
		perLayer = append(perLayer, m.Name)
	}
	return endToEnd, perLayer
}

// runBench runs the command in-process and returns its parsed last line.
func runBench(t *testing.T, args ...string) result {
	t.Helper()
	var stdout, stderr bytes.Buffer
	if code := run(args, &stdout, &stderr); code != 0 {
		t.Fatalf("perfbench %v exited %d: %s", args, code, stderr.String())
	}
	lines := strings.Split(strings.TrimSpace(stdout.String()), "\n")
	var r result
	if err := json.Unmarshal([]byte(lines[len(lines)-1]), &r); err != nil {
		t.Fatalf("last line is not the result: %v\n%s", err, stdout.String())
	}
	return r
}

func metricNames(r result) []string {
	var names []string
	for k := range r.Metrics {
		names = append(names, k)
	}
	slices.Sort(names)
	return names
}

func sorted(names []string) []string {
	s := slices.Clone(names)
	slices.Sort(s)
	return s
}

func TestShortRunOfEachWorkloadPassesEveryCheck(t *testing.T) {
	endToEnd, _ := benchmarkMetrics(t)
	for _, wl := range workloads {
		t.Run(wl.name, func(t *testing.T) {
			r := runBench(t, "--workload", wl.name, "--seed", "7", "--seconds", "0.3", "--trace", "0")
			if !r.Correct || r.Failed != 0 || r.Attempted < 1 {
				t.Fatalf("correct=%v failed=%d attempted=%d", r.Correct, r.Failed, r.Attempted)
			}
			if got, want := metricNames(r), sorted(endToEnd); !slices.Equal(got, want) {
				t.Fatalf("metrics %v, BENCHMARK.json declares %v", got, want)
			}
			for k, m := range r.Metrics {
				if m.Value <= 0 {
					t.Errorf("%s = %v, want > 0", k, m.Value)
				}
			}
		})
	}
}

func TestTracedRunEmitsEveryPerLayerMetric(t *testing.T) {
	_, perLayer := benchmarkMetrics(t)
	for _, wl := range workloads {
		t.Run(wl.name, func(t *testing.T) {
			spans := t.TempDir() + "/spans.jsonl"
			r := runBench(t, "--workload", wl.name, "--seed", "7", "--seconds", "1", "--trace", "1", "--spans", spans)
			if !r.Correct || r.Failed != 0 {
				t.Fatalf("correct=%v failed=%d", r.Correct, r.Failed)
			}
			if got, want := metricNames(r), sorted(perLayer); !slices.Equal(got, want) {
				t.Fatalf("metrics %v, BENCHMARK.json declares %v", got, want)
			}
			for _, name := range []string{"snark.residual_ns", "dlist.residual_ns", "msqueue.residual_ns", "trace.overhead_share"} {
				if _, ok := r.Metrics[name]; !ok {
					t.Errorf("missing %s", name)
				}
			}
			for k, m := range r.Metrics {
				if m.Value <= 0 && !mayReadZero(wl, k) {
					t.Errorf("%s = %v, want > 0", k, m.Value)
				}
			}
			raw, err := os.ReadFile(spans)
			if err != nil {
				t.Fatal(err)
			}
			if n := bytes.Count(raw, []byte("\n")); n < 100 {
				t.Fatalf("spans file has %d lines", n)
			}
		})
	}
}

// mayReadZero lists the per-layer metrics that can read 0 or less on a
// correct run of wl.
func mayReadZero(wl workload, name string) bool {
	switch name {
	case "reclaim.pending_mean":
		// The lfrc backend with no destroy budget frees a whole cascade
		// at once and never parks an object, so its backlog is always 0.
		return wl.stack.reclaimer == lfrc.ReclaimerLFRC
	case "core.dcas_per_op":
		// The MS queue makes no LFRC DCAS calls, only CAS.
		return wl.structure == "msqueue"
	case "lfrc.self_ns", "trace.overhead_share":
		// Differences of two measurements whose true value is a few
		// nanoseconds per call, below the noise of either measurement.
		return true
	}
	return false
}

func TestRefusesBadArguments(t *testing.T) {
	for _, args := range [][]string{
		{"--workload", "nope", "--trace", "0"},
		{"--workload", "deque-churn", "--trace", "2"},
		{"--workload", "deque-churn", "--seconds", "0"},
	} {
		var stdout, stderr bytes.Buffer
		if code := run(args, &stdout, &stderr); code != 2 {
			t.Errorf("%v exited %d, want 2", args, code)
		}
		if strings.Contains(stdout.String(), `"metrics"`) {
			t.Errorf("%v printed a result", args)
		}
	}
}

func TestLedgerCatchesPlantedValues(t *testing.T) {
	for _, ordered := range []bool{false, true} {
		l := newLedger(3, ordered)
		a, b := l.issue(1), l.issue(1)
		if err := l.deliver(2, a); err != nil {
			t.Fatal(err)
		}
		if err := l.deliver(0, a); !errors.Is(err, errDuplicate) {
			t.Errorf("ordered=%v: duplicate gave %v", ordered, err)
		}
		for _, v := range []uint64{tag(1, 2), tag(2, 0), tag(9, 0)} {
			if err := l.deliver(2, v); !errors.Is(err, errNeverPushed) {
				t.Errorf("ordered=%v: never-pushed %#x gave %v", ordered, v, err)
			}
		}
		if err := l.deliver(1, b); err != nil {
			t.Fatal(err)
		}
	}

	// Out of order: a consumer sees a producer's later value first. Only
	// the queue's ledger is ordered; a deque pops from either end.
	for _, ordered := range []bool{false, true} {
		l := newLedger(2, ordered)
		a, b := l.issue(1), l.issue(1)
		if err := l.deliver(1, b); err != nil {
			t.Fatal(err)
		}
		err := l.deliver(1, a)
		if ordered && !errors.Is(err, errOutOfOrder) {
			t.Errorf("ordered: out-of-order gave %v", err)
		}
		if !ordered && err != nil {
			t.Errorf("unordered: out-of-order gave %v", err)
		}
	}
}

func TestSetCheckerCatchesPlantedKeys(t *testing.T) {
	ins := newKeyMarks(setUniverse)
	for _, k := range []uint64{1, 5, 9} {
		ins.mark(k)
	}
	if err := checkKeys([]uint64{1, 5, 9}, ins); err != nil {
		t.Fatal(err)
	}
	for _, c := range []struct {
		keys []uint64
		want error
	}{
		{[]uint64{1, 5, 5, 9}, errDuplicate},
		{[]uint64{1, 4, 9}, errNeverPushed},
		{[]uint64{1, 9, 5}, errOutOfOrder},
		{[]uint64{1, 5, setUniverse + 1}, errNeverPushed},
	} {
		if err := checkKeys(c.keys, ins); !errors.Is(err, c.want) {
			t.Errorf("%v gave %v, want %v", c.keys, err, c.want)
		}
	}
}

// faultyQueue is a queue that misbehaves on one chosen dequeue.
type faultyQueue struct {
	vals  []uint64
	n     int
	fault string
}

func (q *faultyQueue) Enqueue(v uint64) error { q.vals = append(q.vals, v); return nil }

func (q *faultyQueue) Dequeue() (uint64, bool) {
	if len(q.vals) == 0 {
		return 0, false
	}
	q.n++
	if q.n == 10 {
		switch q.fault {
		case "duplicate":
			return q.vals[0], true // deliver without removing
		case "never-pushed":
			return tag(2, 1<<20), true
		case "out-of-order":
			q.vals[0], q.vals[1] = q.vals[1], q.vals[0]
		case "lose":
			q.vals = q.vals[1:]
		}
	}
	v := q.vals[0]
	q.vals = q.vals[1:]
	return v, true
}

// TestMixFailsPlantedFaults drives the queue mix over a queue that
// duplicates, invents, reorders or loses a value, and expects a failed call
// or a settle error.
func TestMixFailsPlantedFaults(t *testing.T) {
	for _, fault := range []string{"", "duplicate", "never-pushed", "out-of-order", "lose"} {
		q := &faultyQueue{fault: fault}
		m, err := newPipeMix(queuePipe{q}, true, 1)
		if err != nil {
			t.Fatal(err)
		}
		ws := newWorkers(1)
		var failed int
		for i := 0; i < 40; i++ {
			if _, err := m.call(ws[0]); err != nil {
				failed++
			}
		}
		settleErr := m.settle(ws)
		caught := failed > 0 || settleErr != nil
		if caught != (fault != "") {
			t.Errorf("fault %q: %d failed calls, settle %v", fault, failed, settleErr)
		}
	}
}

func TestHistogramQuantiles(t *testing.T) {
	var h histogram
	for v := int64(1); v <= 10000; v++ {
		h.observe(v)
	}
	for _, c := range []struct{ q, want float64 }{{0.5, 5000}, {0.99, 9900}} {
		if got := h.quantile(c.q); got < c.want*0.99 || got > c.want*1.01 {
			t.Errorf("q%.2f = %v, want about %v", c.q, got, c.want)
		}
	}
	for _, v := range []int64{0, 1, 127, 128, 129, 1000, 1 << 20, 1<<62 + 12345} {
		b := bucketOf(v)
		lo, w := bucketRange(b)
		if float64(v) < lo || float64(v) >= lo+w {
			t.Errorf("%d in bucket %d = [%v, %v)", v, b, lo, lo+w)
		}
	}
}
