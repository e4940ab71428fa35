// Command lfrcbench runs the reproduction's experiment suite (E1..E9, A1,
// A2, A3, L1, G1, R2, O1..O6 — see DESIGN.md §4 and EXPERIMENTS.md)
// and prints
// one table per experiment, in the same format EXPERIMENTS.md records. A3's
// notes include the unified System.Stats snapshot as JSON.
//
// Usage:
//
//	lfrcbench [-run E1,E5] [-engine locking|mcas|both] [-reclaim lfrc|epoch]
//	          [-rc figure2|split] [-scale N] [-dur 250ms] [-workers 1,2,4,8]
//	          [-markdown] [-stats-json] [-census] [-metrics addr]
//	          [-trace out.json] [-bench-json out.json] [-bench-runs N]
//
// With no -run flag every experiment runs. -stats-json appends the final
// unified System.Stats of the last system an experiment published (O1, O2,
// O3, O4, A3) as one JSON object on stdout. -metrics serves /metrics (Prometheus
// text), /debug/vars (expvar), /debug/lfrc/{stats,trace} (JSON),
// /debug/lfrc/trace.json (Chrome trace_event export) and /debug/pprof on
// addr for the lifetime of the run, reporting on the same published system;
// the bound address is echoed as a machine-readable "metrics_addr=" line so
// harnesses can pass ":0". -trace writes the published system's Chrome
// trace_event export (flight events plus lifecycle timelines; open in
// Perfetto) to a file after the run. -bench-json skips the experiment tables
// and instead writes a schema-versioned perf-telemetry record (medians over
// -bench-runs adjacent runs per workload, plus a contention summary) for
// cmd/lfrcperf to gate regressions on; the path is echoed as a
// machine-readable "bench_json=" line. -reclaim selects the reclamation
// backend for -bench-json, -fault-plan chaos runs, and the R2 backend
// comparison (experiment R2 itself always measures both backends).
package main

import (
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io"
	"net"
	"net/http"
	"os"
	"os/signal"
	"slices"
	"strconv"
	"strings"
	"syscall"
	"time"

	"lfrc"
	"lfrc/internal/workload"
)

func main() {
	// SIGQUIT is the field escape hatch: instead of the runtime's goroutine
	// dump, capture a diagnostic bundle of whatever system is currently
	// published (chaos runs, O-series experiments, -bench-json) so a stuck or
	// misbehaving run can be frozen for cmd/lfrcdoctor without killing it.
	quit := make(chan os.Signal, 1)
	signal.Notify(quit, syscall.SIGQUIT)
	go func() {
		for range quit {
			writeSignalBundle(os.Stderr)
		}
	}()
	if err := run(os.Args[1:], os.Stdout); err != nil {
		fmt.Fprintln(os.Stderr, "lfrcbench:", err)
		os.Exit(exitCode(err))
	}
}

// usageError marks a command-line mistake: it exits 2, other failures 1.
type usageError struct{ error }

func exitCode(err error) int {
	if errors.As(err, new(usageError)) {
		return 2
	}
	return 1
}

// experiments lists every -run id, in the order run executes them.
var experiments = []string{
	"E1", "E2", "E3", "E4", "E7", "E8", "E9", "A2", "L1", "G1", "R2",
	"O1", "O2", "O3", "O4", "O5", "O6", "E5", "E6", "A1", "A3", "R3",
}

// writeSignalBundle dumps the published system's bundle to an auto-named file
// and echoes the machine-readable bundle= line on w.
func writeSignalBundle(w io.Writer) {
	sys := workload.CurrentSystem()
	if sys == nil {
		fmt.Fprintln(w, "lfrcbench: SIGQUIT: no published system to bundle yet")
		return
	}
	path := fmt.Sprintf("lfrc-sigquit-%d.tar.gz", os.Getpid())
	f, err := os.Create(path)
	if err != nil {
		fmt.Fprintf(w, "lfrcbench: SIGQUIT: %v\n", err)
		return
	}
	werr := sys.WriteBundle(f)
	if cerr := f.Close(); werr == nil {
		werr = cerr
	}
	if werr != nil {
		fmt.Fprintf(w, "lfrcbench: SIGQUIT: %v\n", werr)
		return
	}
	fmt.Fprintf(w, "bundle=%s\n", path)
}

func run(args []string, stdout io.Writer) error {
	fs := flag.NewFlagSet("lfrcbench", flag.ContinueOnError)
	var (
		runList   = fs.String("run", "", "comma-separated experiment ids (default: all)")
		engine    = fs.String("engine", "locking", "engine for single-engine experiments: locking, mcas or both")
		scale     = fs.Int("scale", 1, "iteration multiplier (1 = quick)")
		dur       = fs.Duration("dur", 250*time.Millisecond, "measurement window for timed experiments")
		workers   = fs.String("workers", "1,2,4,8", "worker counts for the E5 sweep")
		markdown  = fs.Bool("markdown", false, "emit GitHub-flavoured markdown tables")
		statsJSON = fs.Bool("stats-json", false, "dump the published system's unified Stats as JSON on stdout after the run")
		metrics   = fs.String("metrics", "", "serve /metrics, /debug/vars and /debug/pprof on this address (e.g. :9100) during the run")
		tracePath = fs.String("trace", "", "write the published system's Chrome trace_event export to this file after the run")
		benchJSON = fs.String("bench-json", "", "skip the experiment tables and write a perf-telemetry record (for cmd/lfrcperf) to this file")
		benchRuns = fs.Int("bench-runs", 5, "adjacent runs per workload in -bench-json mode")
		faultPlan = fs.String("fault-plan", "", "chaos mode: skip the experiment tables and stress all structures under this fault-injection plan (e.g. 'core.*:p=0.01;mem.alloc:every=500')")
		faultSeed = fs.Uint64("fault-seed", 1, "fault-injection seed; same seed and plan replay the same firing schedule")
		bundle    = fs.String("bundle", "", "chaos mode: write the diagnostic bundle here even on PASS; a FAIL always captures one (auto-named lfrc-chaos-<engine>-<reclaim>.tar.gz when unset)")
		destroyB  = fs.Int("destroy-budget", 0, "chaos mode: incremental-destroy budget (objects parked per release; 0 = eager)")
		heapWords = fs.Int("heap-words", 0, "chaos mode: cap the arena at this many words (0 = default) to plant heap-pressure exhaustions")
		doCensus  = fs.Bool("census", false, "after the run, take a heap census of the published system, drain zombies, take another, and print the summaries plus the diff")
	)
	reclaimer := lfrc.ReclaimerLFRC
	fs.Var(&reclaimer, "reclaim", "reclamation backend: lfrc or epoch (applies to -bench-json, -fault-plan and R2)")
	rcStrategy := lfrc.RCFigure2
	fs.Var(&rcStrategy, "rc", "reference-count strategy: figure2 or split (applies to -bench-json and -fault-plan; experiment R3 always measures both)")
	if err := fs.Parse(args); err != nil {
		return err
	}

	kinds, err := parseEngines(*engine)
	if err != nil {
		return err
	}
	workerCounts, err := parseInts(*workers)
	if err != nil {
		return fmt.Errorf("-workers: %w", err)
	}
	sc := workload.Scale(*scale)

	wanted := map[string]bool{}
	if *runList != "" {
		for _, id := range strings.Split(*runList, ",") {
			id = strings.ToUpper(strings.TrimSpace(id))
			if !slices.Contains(experiments, id) {
				return usageError{fmt.Errorf("-run: unknown experiment %q (want one of %s)",
					id, strings.Join(experiments, ","))}
			}
			wanted[id] = true
		}
	}

	if *metrics != "" {
		ln, err := net.Listen("tcp", *metrics)
		if err != nil {
			return fmt.Errorf("-metrics: %w", err)
		}
		defer ln.Close()
		fmt.Fprintf(stdout, "metrics listening on http://%s/metrics\n", ln.Addr())
		// Machine-readable form for harnesses that bind ":0" and need the
		// chosen port.
		fmt.Fprintf(stdout, "metrics_addr=%s\n", ln.Addr())
		go func() {
			_ = http.Serve(ln, lfrc.NewDebugMux(workload.CurrentSystem))
		}()
	}

	// -bench-json and -fault-plan each replace the experiment tables with
	// their own harness; the tail flags (-metrics, -stats-json, -trace) still
	// apply to the system the harness publishes.
	benchMode := *benchJSON != ""
	chaosMode := *faultPlan != ""
	want := func(id string) bool { return !benchMode && !chaosMode && (len(wanted) == 0 || wanted[id]) }

	if chaosMode {
		if len(kinds) != 1 {
			return fmt.Errorf("-fault-plan: pick a single engine (locking or mcas), not both")
		}
		nw := workerCounts[len(workerCounts)-1]
		return runChaos(stdout, lfrc.Engine(kinds[0]), reclaimer, rcStrategy, *faultPlan, *faultSeed, *dur, nw, *bundle, *destroyB, *heapWords)
	}

	if benchMode {
		if len(kinds) != 1 {
			return fmt.Errorf("-bench-json: pick a single engine (locking or mcas), not both")
		}
		if *benchRuns < 1 {
			return fmt.Errorf("-bench-runs %d < 1", *benchRuns)
		}
		rec, err := workload.RunBenchJSON(kinds[0], reclaimer, rcStrategy, *dur, *benchRuns)
		if err != nil {
			return fmt.Errorf("-bench-json: %w", err)
		}
		rec.CreatedUnixNS = time.Now().UnixNano()
		raw, err := json.MarshalIndent(rec, "", "  ")
		if err != nil {
			return fmt.Errorf("-bench-json: %w", err)
		}
		if err := os.WriteFile(*benchJSON, append(raw, '\n'), 0o644); err != nil {
			return fmt.Errorf("-bench-json: %w", err)
		}
		// Machine-readable form, mirroring metrics_addr=.
		fmt.Fprintf(stdout, "bench_json=%s\n", *benchJSON)
	}

	emit := func(t *workload.Table) {
		if *markdown {
			fmt.Fprintln(stdout, t.Markdown())
		} else {
			fmt.Fprintln(stdout, t.String())
		}
	}

	for _, kind := range kinds {
		if want("E1") {
			emit(workload.RunE1(kind, sc))
		}
		if want("E2") {
			emit(workload.RunE2(kind, sc))
		}
		if want("E3") {
			emit(workload.RunE3(kind, sc))
		}
		if want("E4") {
			emit(workload.RunE4(kind, *dur))
		}
		if want("E7") {
			emit(workload.RunE7(kind, sc))
		}
		if want("E8") {
			emit(workload.RunE8(kind, sc))
		}
		if want("E9") {
			emit(workload.RunE9(kind, sc))
		}
		if want("A2") {
			emit(workload.RunA2(kind, sc))
		}
		if want("L1") {
			emit(workload.RunL1(kind, sc))
		}
		if want("G1") {
			emit(workload.RunG1(kind, *dur))
		}
		if want("R2") {
			emit(workload.RunR2(kind, *dur))
		}
		if want("O1") {
			emit(workload.RunO1(kind, *dur))
		}
		if want("O2") {
			emit(workload.RunO2(kind, *dur))
		}
		if want("O3") {
			emit(workload.RunO3(kind, *dur))
		}
		if want("O4") {
			emit(workload.RunO4(kind, *dur))
		}
		if want("O5") {
			emit(workload.RunO5(kind, sc))
		}
		if want("O6") {
			emit(workload.RunO6(kind, *dur))
		}
	}
	// Engine-sweeping experiments run once.
	if want("E5") {
		emit(workload.RunE5(*dur, workerCounts))
	}
	if want("E6") {
		emit(workload.RunE6(sc))
	}
	if want("A1") {
		emit(workload.RunA1(*dur))
	}
	if want("A3") {
		emit(workload.RunA3(*dur))
	}
	if want("R3") {
		emit(workload.RunR3(*dur))
	}

	if *tracePath != "" {
		sys := workload.CurrentSystem()
		if sys == nil {
			return fmt.Errorf("-trace: no experiment published a System (include O1, O2 or A3 in -run)")
		}
		f, err := os.Create(*tracePath)
		if err != nil {
			return fmt.Errorf("-trace: %w", err)
		}
		if err := sys.WriteChromeTrace(f); err != nil {
			f.Close()
			return fmt.Errorf("-trace: %w", err)
		}
		if err := f.Close(); err != nil {
			return fmt.Errorf("-trace: %w", err)
		}
		fmt.Fprintf(stdout, "trace written to %s\n", *tracePath)
	}

	if *doCensus {
		sys := workload.CurrentSystem()
		if sys == nil {
			return fmt.Errorf("-census: no experiment published a System (include O1, O5 or A3 in -run)")
		}
		reportCensus(stdout, sys)
	}

	if *statsJSON {
		sys := workload.CurrentSystem()
		if sys == nil {
			return fmt.Errorf("-stats-json: no experiment published a System (include O1 or A3 in -run)")
		}
		raw, err := json.Marshal(sys.Stats())
		if err != nil {
			return fmt.Errorf("-stats-json: %w", err)
		}
		fmt.Fprintln(stdout, string(raw))
	}
	return nil
}

// parseEngines accepts everything lfrc.ParseEngine does, plus "both" for the
// engine-comparison sweeps. workload.EngineKind values are numerically
// aligned with lfrc.Engine.
func parseEngines(s string) ([]workload.EngineKind, error) {
	s = strings.ToLower(strings.TrimSpace(s))
	if s == "both" {
		return workload.Engines, nil
	}
	e, err := lfrc.ParseEngine(s)
	if err != nil {
		return nil, fmt.Errorf(`unknown engine %q (want "locking", "mcas" or "both")`, s)
	}
	return []workload.EngineKind{workload.EngineKind(e)}, nil
}

func parseInts(s string) ([]int, error) {
	var out []int
	for _, part := range strings.Split(s, ",") {
		part = strings.TrimSpace(part)
		if part == "" {
			continue
		}
		n, err := strconv.Atoi(part)
		if err != nil {
			return nil, err
		}
		if n < 1 {
			return nil, fmt.Errorf("worker count %d < 1", n)
		}
		out = append(out, n)
	}
	if len(out) == 0 {
		return nil, fmt.Errorf("no worker counts in %q", s)
	}
	return out, nil
}
