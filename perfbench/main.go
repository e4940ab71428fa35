// Command perfbench is the repository's benchmark. It drives the lfrc
// facade with one of three closed-loop workloads, each with two client
// goroutines that issue their next call only after the previous one
// returned, and checks every value the structure hands back.
//
//	perfbench --workload deque-churn --seed 1 --seconds 20 --trace 0
//
// With --trace 0 it reports the end-to-end metrics: set-up time, calls per
// second, per-call latency p50 and p99, and mean live heap words. With
// --trace 1 it makes a separate traced run that reports per-layer metrics:
// a ladder of single-layer rungs (mem, dcas, core, reclaim), each
// structure's mix driven directly on its internal package, the facade's
// own share, per-call counts from the Stats() counters, a reconciliation
// residual per structure, and the cost of the tracing itself. The last
// line of standard output is one JSON object with the keys correct,
// attempted, failed and metrics. A structural breach (a leak, a corrupt
// heap, lost values) exits 1; bad arguments or a host with fewer CPUs than
// workers exit 2.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"math"
	"os"
	"runtime"
	"slices"
	"time"
)

type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

type result struct {
	Correct   bool              `json:"correct"`
	Attempted int64             `json:"attempted"`
	Failed    int64             `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

func main() {
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
}

func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("perfbench", flag.ContinueOnError)
	fs.SetOutput(stderr)
	name := fs.String("workload", "", "workload to run: deque-churn, set-lookup or queue-lockfree")
	seed := fs.Uint64("seed", 1, "seed every input and worker RNG derives from")
	seconds := fs.Float64("seconds", 10, "length of the measured window (traced run: of the whole run)")
	trace := fs.Int("trace", 0, "0: end-to-end metrics; 1: traced run with per-layer metrics")
	spans := fs.String("spans", "", "traced run: write the recorded spans to this file as JSON lines")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	wl, ok := findWorkload(*name)
	if !ok || (*trace != 0 && *trace != 1) || *seconds <= 0 {
		fmt.Fprintf(stderr, "perfbench: need --workload deque-churn|set-lookup|queue-lockfree, --trace 0|1 and --seconds > 0\n")
		return 2
	}

	// Host guard: never more workers than CPUs, and multi-core numbers
	// only where GOMAXPROCS does not oversubscribe the host.
	nproc, procs := runtime.NumCPU(), runtime.GOMAXPROCS(0)
	fmt.Fprintf(stdout, "host nproc=%d gomaxprocs=%d go=%s workers=%d workload=%s seed=%d trace=%d\n",
		nproc, procs, runtime.Version(), numWorkers, wl.name, *seed, *trace)
	if numWorkers > nproc || procs > nproc {
		fmt.Fprintf(stderr, "perfbench: refusing to run %d workers at GOMAXPROCS=%d on %d CPUs\n", numWorkers, procs, nproc)
		return 2
	}

	d := time.Duration(*seconds * float64(time.Second))
	var (
		res *result
		err error
	)
	if *trace == 0 {
		res, err = runEndToEnd(wl, *seed, d, stdout)
	} else {
		var tr tracer
		res, err = runTraced(wl, *seed, d, &tr, stdout)
		if err == nil && *spans != "" {
			err = writeSpans(&tr, *spans)
		}
	}
	if err != nil {
		fmt.Fprintf(stderr, "perfbench: %s: %v\n", wl.name, err)
		return 1
	}
	for k, m := range res.Metrics {
		if math.IsNaN(m.Value) || math.IsInf(m.Value, 0) {
			fmt.Fprintf(stderr, "perfbench: metric %s is %v\n", k, m.Value)
			return 1
		}
	}
	out, err := json.Marshal(res)
	if err != nil {
		fmt.Fprintf(stderr, "perfbench: %v\n", err)
		return 1
	}
	fmt.Fprintf(stdout, "%s\n", out)
	return 0
}

// reportFailure prints the first failed call's reason, if there was one.
func reportFailure(w io.Writer, name string, err error) {
	if err != nil {
		fmt.Fprintf(w, "%s first failed call: %v\n", name, err)
	}
}

func writeSpans(tr *tracer, path string) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	if err := tr.write(f); err != nil {
		f.Close()
		return fmt.Errorf("write spans: %w", err)
	}
	return f.Close()
}

// Set-up timing: warmSetups untimed set-ups first, then about setups timed
// ones spread over the run; setup_s is their median.
const (
	warmSetups = 3
	setups     = 31
)

// subWindow is the length of one measuring window. Each window starts
// fresh worker goroutines, and the program's per-goroutine stripe hints
// (allocator shard, counter stripe) are drawn from goroutine stack
// addresses, so whether the two workers share a stripe changes from window
// to window and moves set-lookup's throughput by about a quarter. Many
// short windows average over those draws instead of reporting one.
const subWindow = 200 * time.Millisecond

// windows is how many windows of about subWindow fit in d, at least one.
func windows(d time.Duration) int { return max(1, int(d/subWindow)) }

// timeSetup builds wl's target once and returns it with the build's wall
// time. A forced collection first, off the clock, hands the memory of
// earlier set-ups back to the Go heap, so each set-up reuses pages that are
// already mapped instead of faulting in fresh ones.
func timeSetup(wl workload, seed uint64) (*target, float64, error) {
	runtime.GC()
	s := now()
	t, err := newFacadeTarget(wl, seed)
	if err != nil {
		return nil, 0, fmt.Errorf("setup: %w", err)
	}
	return t, time.Duration(now() - s).Seconds(), nil
}

// runEndToEnd measures wl untraced for d, in windows of about subWindow
// after a short warm-up, and checks every output. Throughput and latency
// pool all windows. live_words_mean is the median over windows of each
// window's mean sampled live words: the standing footprint. It leaves out
// the rare windows in which queue-lockfree's live words burst to many
// times their usual level (mem.live_words_mean in the traced run includes
// them), because those bursts make a run's plain mean differ by half from
// one run to the next. Between windows, off their clocks, the run builds
// and tears down further instances of the target, so that setup_s samples
// the host across the whole run and not in one burst at its start.
func runEndToEnd(wl workload, seed uint64, d time.Duration, stdout io.Writer) (*result, error) {
	var times []float64
	probe := func() error {
		t, s, err := timeSetup(wl, seed)
		if err != nil {
			return err
		}
		times = append(times, s)
		return t.finish()
	}
	for i := 0; i < warmSetups; i++ {
		if err := probe(); err != nil {
			return nil, err
		}
	}
	times = nil
	tgt, s, err := timeSetup(wl, seed)
	if err != nil {
		return nil, err
	}
	times = append(times, s)

	warm := tgt.drive(min(d/10, 500*time.Millisecond), nil, 0, wl.kinds)
	var (
		win   window
		lives []float64
	)
	n := windows(d)
	every := max(1, n/(setups-1))
	for i := 0; i < n; i++ {
		if i%every == every-1 {
			if err := probe(); err != nil {
				return nil, err
			}
		}
		w := tgt.drive(d/time.Duration(n), nil, 0, wl.kinds)
		win.add(w)
		lives = append(lives, w.liveMean)
	}
	if err := tgt.finish(); err != nil {
		return nil, err
	}

	all := win.all()
	attempted, failed := warm.ops+win.ops, warm.failed+win.failed
	m := map[string]metric{
		"setup_s":         {median(times), "s"},
		"ops_per_s":       {win.opsPerSec(), "1/s"},
		"op_p50_us":       {all.quantile(0.50) / 1e3, "us"},
		"op_p99_us":       {all.quantile(0.99) / 1e3, "us"},
		"live_words_mean": {median(lives), "words"},
	}
	names := make([]string, 0, len(m))
	for k := range m {
		names = append(names, k)
	}
	slices.Sort(names)
	for _, k := range names {
		fmt.Fprintf(stdout, "%s %s=%.6g %s\n", wl.name, k, m[k].Value, m[k].Unit)
	}
	fmt.Fprintf(stdout, "%s fail_share=%.6g ratio (%d failed of %d calls; latency over %d samples)\n",
		wl.name, ratio(failed, attempted), failed, attempted, all.n)
	reportFailure(stdout, wl.name, firstErr(warm, win))
	return &result{Correct: failed == 0, Attempted: attempted, Failed: failed, Metrics: m}, nil
}
