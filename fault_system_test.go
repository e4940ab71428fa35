package lfrc_test

import (
	"errors"
	"strings"
	"sync"
	"testing"

	"lfrc"
)

// faultWorkload runs a fixed single-threaded op sequence against sys and
// returns its firing schedule rendered as "point@attempt" strings.
func faultWorkload(t *testing.T, sys *lfrc.System) []string {
	t.Helper()
	d, err := sys.NewDeque()
	if err != nil {
		t.Fatal(err)
	}
	set, err := sys.NewSet()
	if err != nil {
		t.Fatal(err)
	}
	for i := lfrc.Value(1); i <= 300; i++ {
		if err := d.PushRight(i); err != nil {
			t.Fatalf("PushRight(%d): %v", i, err)
		}
		if i%3 == 0 {
			d.PopLeft()
		}
		if _, err := set.Insert(i % 64); err != nil {
			t.Fatalf("Insert: %v", err)
		}
		if i%5 == 0 {
			set.Delete(i % 64)
		}
	}
	d.Close()
	set.Close()
	var out []string
	for _, f := range sys.FaultSchedule() {
		out = append(out, f.Name+"@"+itoa(f.Attempt))
	}
	return out
}

func itoa(n uint64) string {
	if n == 0 {
		return "0"
	}
	var b [20]byte
	i := len(b)
	for n > 0 {
		i--
		b[i] = byte('0' + n%10)
		n /= 10
	}
	return string(b[i:])
}

// TestFaultDeterminism is the tentpole guarantee at the System level: the
// same plan and seed reproduce the identical firing schedule on identical
// workloads, and a different seed produces a different one.
func TestFaultDeterminism(t *testing.T) {
	const plan = "core.load:p=0.05;core.dcas:p=0.1;snark.pushright:p=0.02;set.insert:p=0.02"
	build := func(seed uint64) *lfrc.System {
		sys, err := lfrc.New(lfrc.WithFaultPlan(plan), lfrc.WithFaultSeed(seed))
		if err != nil {
			t.Fatal(err)
		}
		return sys
	}
	a := build(12345)
	b := build(12345)
	c := build(54321)
	defer a.Close()
	defer b.Close()
	defer c.Close()

	schedA := faultWorkload(t, a)
	schedB := faultWorkload(t, b)
	schedC := faultWorkload(t, c)

	if len(schedA) == 0 {
		t.Fatal("plan injected nothing; the workload or probabilities are off")
	}
	if strings.Join(schedA, " ") != strings.Join(schedB, " ") {
		t.Errorf("same seed diverged:\n a: %v\n b: %v", schedA, schedB)
	}
	if strings.Join(schedA, " ") == strings.Join(schedC, " ") {
		t.Error("different seeds produced identical schedules")
	}
	sa, sb := a.Stats(), b.Stats()
	if sa.Fault.Injected != sb.Fault.Injected {
		t.Errorf("same seed injected %d vs %d total", sa.Fault.Injected, sb.Fault.Injected)
	}
	if !sa.Fault.Enabled || sa.Fault.Seed != 12345 {
		t.Errorf("Fault stats surface wrong: %+v", sa.Fault)
	}
}

func TestFaultPlanRejected(t *testing.T) {
	if _, err := lfrc.New(lfrc.WithFaultPlan("no.such.point:p=0.5")); err == nil {
		t.Error("New accepted an unknown injection point")
	}
	if _, err := lfrc.New(lfrc.WithFaultPlan("core.load:p=7")); err == nil {
		t.Error("New accepted probability > 1")
	}
}

// TestFaultChaosSweep is the correctness acceptance gate: across multiple
// seeds, concurrent workloads on all four structures under fault injection
// must leave zero lifecycle violations, a clean quiescent rc audit, and zero
// leaked objects. Run under -race by `make check-fault`.
func TestFaultChaosSweep(t *testing.T) {
	const plan = "core.*:p=0.01;snark.*:p=0.02;queue.*:p=0.02;stack.*:p=0.02;set.*:p=0.02;mem.alloc:p=0.002;mem.alloc.slow:p=0.01"
	for _, seed := range []uint64{1, 7, 20260805} {
		seed := seed
		t.Run("seed="+itoa(seed), func(t *testing.T) {
			sys, err := lfrc.New(
				lfrc.WithFaultPlan(plan),
				lfrc.WithFaultSeed(seed),
				lfrc.WithHeapPressurePolicy(lfrc.DefaultHeapPressurePolicy()),
				lfrc.WithObservability(lfrc.ObservabilityOptions{LifecycleEvery: 1}),
			)
			if err != nil {
				t.Fatal(err)
			}
			defer sys.Close()
			d, err := sys.NewDeque()
			if err != nil {
				t.Fatal(err)
			}
			q, err := sys.NewQueue()
			if err != nil {
				t.Fatal(err)
			}
			st, err := sys.NewStack()
			if err != nil {
				t.Fatal(err)
			}
			set, err := sys.NewSet()
			if err != nil {
				t.Fatal(err)
			}

			const workers, opsPer = 4, 400
			var wg sync.WaitGroup
			errc := make(chan error, workers)
			for w := 0; w < workers; w++ {
				wg.Add(1)
				go func(id uint64) {
					defer wg.Done()
					rng := id*0x9E3779B97F4A7C15 + seed
					for i := 0; i < opsPer; i++ {
						rng = rng*6364136223846793005 + 1442695040888963407
						v := lfrc.Value(rng >> 16 & 0xFFFF)
						var err error
						switch rng % 8 {
						case 0:
							err = d.PushLeft(v)
						case 1:
							err = d.PushRight(v)
						case 2:
							d.PopLeft()
						case 3:
							err = q.Enqueue(v)
						case 4:
							q.Dequeue()
						case 5:
							err = st.Push(v)
						case 6:
							_, err = set.Insert(v)
						case 7:
							st.Pop()
							set.Delete(v)
						}
						if err != nil && !errors.Is(err, lfrc.ErrOutOfMemory) {
							errc <- err
							return
						}
					}
				}(uint64(w))
			}
			wg.Wait()
			close(errc)
			for err := range errc {
				t.Fatalf("worker error: %v", err)
			}

			if vs := sys.AuditPass(); len(vs) != 0 {
				t.Errorf("lifecycle auditor flagged %d violations: %+v", len(vs), vs[0])
			}
			if all := sys.Violations(); len(all) != 0 {
				t.Errorf("%d lifecycle violations accumulated", len(all))
			}
			if audit := sys.Audit(); len(audit) != 0 {
				t.Errorf("rc audit: %v", audit)
			}
			d.Close()
			q.Close()
			st.Close()
			set.Close()
			sys.DrainZombies(0)
			if live := sys.Stats().Heap.LiveObjects; live != 0 {
				t.Errorf("%d objects leaked after close", live)
			}
			if sys.Stats().Fault.Injected == 0 {
				t.Error("sweep injected nothing; plan or workload is off")
			}
		})
	}
}

// TestFaultDisabledZeroSurface locks the default: without WithFaultPlan the
// injector is absent, Stats reports it disabled, and the schedule is empty.
func TestFaultDisabledZeroSurface(t *testing.T) {
	sys, err := lfrc.New()
	if err != nil {
		t.Fatal(err)
	}
	defer sys.Close()
	if s := sys.Stats(); s.Fault.Enabled || s.Fault.Injected != 0 || len(s.Fault.Points) != 0 {
		t.Errorf("disabled fault surface not zero: %+v", s.Fault)
	}
	if sched := sys.FaultSchedule(); len(sched) != 0 {
		t.Errorf("disabled injector recorded %d firings", len(sched))
	}
}
