// Command snarkstress soaks the LFRC structures under randomized concurrent
// load with periodic invariant audits: reference counts are re-derived from
// the heap graph at quiescent checkpoints, poison integrity is scanned, and
// value conservation is checked on teardown. It is the long-running
// validation companion to the unit tests.
//
// Usage:
//
//	snarkstress [-dur 10s] [-workers 8] [-engine locking|mcas]
//	            [-reclaim lfrc|epoch] [-rc figure2|split]
//	            [-structure deque|queue|stack|all]
//	            [-checkpoint 2s] [-claim]
//
// Exit status is non-zero if any invariant is violated.
package main

import (
	"flag"
	"fmt"
	"math/rand"
	"os"
	"runtime"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"lfrc"
	"lfrc/internal/census"
	"lfrc/internal/core"
	"lfrc/internal/mem"
	"lfrc/internal/reclaim"
	"lfrc/internal/snark"
	"lfrc/internal/workload"
)

func main() {
	if err := run(os.Args[1:]); err != nil {
		fmt.Fprintln(os.Stderr, "snarkstress:", err)
		os.Exit(1)
	}
}

type options struct {
	dur        time.Duration
	workers    int
	engine     workload.EngineKind
	reclaimer  lfrc.Reclaimer
	rcStrategy lfrc.RCStrategy
	structures []string
	checkpoint time.Duration
	claim      bool
}

func run(args []string) error {
	fs := flag.NewFlagSet("snarkstress", flag.ContinueOnError)
	engine := lfrc.EngineLocking
	var (
		dur        = fs.Duration("dur", 10*time.Second, "total soak duration per structure")
		workers    = fs.Int("workers", 8, "concurrent workers")
		structure  = fs.String("structure", "all", "deque, queue, stack or all")
		checkpoint = fs.Duration("checkpoint", 2*time.Second, "interval between quiescent audits")
		claim      = fs.Bool("claim", true, "use the value-claiming deque variant")
	)
	fs.Var(&engine, "engine", "DCAS engine: locking or mcas")
	reclaimer := lfrc.ReclaimerLFRC
	fs.Var(&reclaimer, "reclaim", "reclamation backend: lfrc or epoch")
	rcStrategy := lfrc.RCFigure2
	fs.Var(&rcStrategy, "rc", "reference-count strategy: figure2 or split")
	if err := fs.Parse(args); err != nil {
		return err
	}

	// workload.EngineKind is numerically aligned with lfrc.Engine.
	kind := workload.EngineKind(engine)

	var structures []string
	switch strings.ToLower(*structure) {
	case "all":
		structures = []string{"deque", "queue", "stack"}
	case "deque", "queue", "stack":
		structures = []string{strings.ToLower(*structure)}
	default:
		return fmt.Errorf("unknown structure %q", *structure)
	}

	opts := options{
		dur:        *dur,
		workers:    *workers,
		engine:     kind,
		reclaimer:  reclaimer,
		rcStrategy: rcStrategy,
		structures: structures,
		checkpoint: *checkpoint,
		claim:      *claim,
	}
	if runtime.GOMAXPROCS(0) < 4 {
		runtime.GOMAXPROCS(4)
	}

	failures := 0
	for _, st := range opts.structures {
		fmt.Printf("=== soaking %s (%s engine, %s reclaim, %s rc, %d workers, %v) ===\n",
			st, opts.engine, opts.reclaimer, opts.rcStrategy, opts.workers, opts.dur)
		if err := soak(st, opts); err != nil {
			fmt.Printf("FAIL %s: %v\n", st, err)
			failures++
		} else {
			fmt.Printf("PASS %s\n", st)
		}
	}
	if failures > 0 {
		return fmt.Errorf("%d structure(s) failed", failures)
	}
	return nil
}

// ops abstracts one structure under soak.
type ops struct {
	apply  func(op int, v uint64) (uint64, bool, bool) // returns (popped, wasPop, popOK)
	close  func()
	anchor func() mem.Ref
}

func buildOps(st string, env *workload.Env, claim bool) (ops, error) {
	switch st {
	case "deque":
		var sopts []snark.Option
		if claim {
			sopts = append(sopts, snark.WithValueClaiming())
		}
		d, err := env.NewDeque(sopts...)
		if err != nil {
			return ops{}, err
		}
		return ops{
			apply: func(op int, v uint64) (uint64, bool, bool) {
				switch op {
				case 0:
					return 0, false, d.PushLeft(v) == nil
				case 1:
					return 0, false, d.PushRight(v) == nil
				case 2:
					pv, ok := d.PopLeft()
					return pv, true, ok
				default:
					pv, ok := d.PopRight()
					return pv, true, ok
				}
			},
			close:  d.Close,
			anchor: d.Anchor,
		}, nil
	case "queue":
		q, err := env.NewQueue()
		if err != nil {
			return ops{}, err
		}
		return ops{
			apply: func(op int, v uint64) (uint64, bool, bool) {
				if op < 2 {
					return 0, false, q.Enqueue(v) == nil
				}
				pv, ok := q.Dequeue()
				return pv, true, ok
			},
			close:  q.Close,
			anchor: q.Anchor,
		}, nil
	case "stack":
		s, err := env.NewStack()
		if err != nil {
			return ops{}, err
		}
		return ops{
			apply: func(op int, v uint64) (uint64, bool, bool) {
				if op < 2 {
					return 0, false, s.Push(v) == nil
				}
				pv, ok := s.Pop()
				return pv, true, ok
			},
			close:  s.Close,
			anchor: s.Anchor,
		}, nil
	}
	return ops{}, fmt.Errorf("unknown structure %q", st)
}

func soak(st string, o options) error {
	// lfrc.Reclaimer is numerically aligned with reclaim.Kind, and
	// lfrc.RCStrategy with core.StrategyKind.
	env := workload.NewEnv(o.engine,
		core.WithReclaimerKind(reclaim.Kind(o.reclaimer)),
		core.WithStrategyKind(core.StrategyKind(o.rcStrategy)))
	structure, err := buildOps(st, env, o.claim)
	if err != nil {
		return err
	}

	var (
		pushed, popped atomic.Int64
		totalOps       atomic.Int64
	)
	deadline := time.Now().Add(o.dur)
	audits := 0

	for time.Now().Before(deadline) {
		// One concurrent burst...
		var (
			stop atomic.Bool
			wg   sync.WaitGroup
		)
		for w := 0; w < o.workers; w++ {
			wg.Add(1)
			go func(w int) {
				defer wg.Done()
				rng := rand.New(rand.NewSource(int64(w)*31 + time.Now().UnixNano()))
				v := uint64(w)<<40 | 1
				for !stop.Load() {
					_, wasPop, ok := structure.apply(rng.Intn(4), v)
					if wasPop {
						if ok {
							popped.Add(1)
						}
					} else if ok {
						pushed.Add(1)
						v++
					}
					totalOps.Add(1)
				}
			}(w)
		}
		burst := o.checkpoint
		if remaining := time.Until(deadline); remaining < burst {
			burst = remaining
		}
		time.Sleep(burst)
		stop.Store(true)
		wg.Wait()

		// ...then a quiescent audit.
		audits++
		snap := census.Take(env.CensusConfig(structure.anchor()))
		if snap.RCMismatchCount != 0 {
			m := snap.RCMismatches[0]
			return fmt.Errorf("audit %d: %d rc violations, first: %#x (%s) want %d, got %d",
				audits, snap.RCMismatchCount, m.Ref, m.Type, m.Expected, m.Stored)
		}
		if ds := env.Heap.ScanPoison(); len(ds) != 0 {
			return fmt.Errorf("audit %d: %d poison violations, first: %#x at offset %d",
				audits, len(ds), ds[0].Ref, ds[0].Offset)
		}
		hs := env.Heap.Stats()
		if hs.Corruptions != 0 || hs.DoubleFrees != 0 {
			return fmt.Errorf("audit %d: corruptions=%d doubleFrees=%d", audits, hs.Corruptions, hs.DoubleFrees)
		}
		fmt.Printf("  checkpoint %d: ops=%d live=%d audits clean\n",
			audits, totalOps.Load(), hs.LiveObjects)
	}

	// Teardown: drain, check conservation, close, check leaks.
	drained := int64(0)
	for {
		_, wasPop, ok := structure.apply(2, 0)
		if !wasPop || !ok {
			break
		}
		drained++
	}
	if got := popped.Load() + drained; got != pushed.Load() {
		return fmt.Errorf("conservation: pushed %d, recovered %d", pushed.Load(), got)
	}
	// A census before teardown shows what the structure held.
	for _, ts := range census.Take(env.CensusConfig(structure.anchor())).Types {
		fmt.Printf("  census: %-16s live=%-6d live-bytes=%d\n", ts.Name, ts.Objects, ts.Bytes)
	}
	structure.close()
	// The epoch backend holds freed-at-count-zero objects in limbo; finish
	// its deferred work before demanding an empty heap.
	env.RC.DrainZombies(0)
	if n := env.Heap.Stats().LiveObjects; n != 0 {
		return fmt.Errorf("%d objects leaked after close", n)
	}
	fmt.Printf("  done: %d ops, %d values pushed and fully recovered, zero leaks\n",
		totalOps.Load(), pushed.Load())
	return nil
}
