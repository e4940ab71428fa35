package explore

import (
	"fmt"
	"sort"
	"strings"
	"sync"
	"testing"

	"lfrc/internal/core"
	"lfrc/internal/dcas"
	"lfrc/internal/mem"
	"lfrc/internal/snark"
)

// snarkScenario prefills a deque and runs the given operations on separate
// threads under the controlled scheduler. The check drains the deque and
// verifies value conservation (each value delivered exactly once across pops
// and the final drain), that no pop reported empty while the deque held a
// value throughout its call, and heap integrity.
type dequeOp struct {
	push  bool
	left  bool
	value uint64
}

// opLog records each operation's invocation and response in the one order
// the controlled scheduler ran them, for the empty-pop oracle.
type opLog struct {
	mu  sync.Mutex
	seq []int      // op ids; an id's first appearance is its invocation
	ops []loggedOp // by id
}

type loggedOp struct {
	push bool
	ok   bool // the push succeeded, or the pop returned a value
}

func (l *opLog) begin(push bool) int {
	l.mu.Lock()
	defer l.mu.Unlock()
	id := len(l.ops)
	l.ops = append(l.ops, loggedOp{push: push})
	l.seq = append(l.seq, id)
	return id
}

func (l *opLog) end(id int, ok bool) {
	l.mu.Lock()
	defer l.mu.Unlock()
	l.ops[id].ok = ok
	l.seq = append(l.seq, id)
}

// spuriousEmpties flags every pop that reported empty although the deque
// held a value at every instant of its call. Between events the deque holds
// at least prefill + completed pushes − pops invoked so far that returned a
// value; a linearizable empty pop must take effect at an instant where that
// bound is 0, so a bound that stays positive from its invocation to its
// response convicts it.
func (l *opLog) spuriousEmpties(prefill int) []string {
	lower := prefill
	started := make([]bool, len(l.ops))
	open := map[int]int{} // empty pop -> least bound seen during its call
	var problems []string
	for _, id := range l.seq {
		op := l.ops[id]
		switch {
		case !started[id]:
			started[id] = true
			if !op.push && op.ok {
				lower--
			}
			if !op.push && !op.ok {
				open[id] = lower
			}
		case op.push:
			if op.ok {
				lower++
			}
		case !op.ok:
			if least := open[id]; least > 0 {
				problems = append(problems, fmt.Sprintf("pop reported empty while the deque held at least %d value(s)", least))
			}
			delete(open, id)
		}
		for p, least := range open {
			if lower < least {
				open[p] = lower
			}
		}
	}
	return problems
}

func snarkScenario(prefill []uint64, ops [][]dequeOp, claiming bool) Scenario {
	return func(instrument func(dcas.Engine) dcas.Engine) ([]func(), func() error) {
		h := mem.NewHeap()
		e := instrument(dcas.NewLocking(h))
		rc := core.New(h, e)
		var sopts []snark.Option
		if claiming {
			sopts = append(sopts, snark.WithValueClaiming())
		}
		d, err := snark.New(rc, snark.MustRegisterTypes(h), sopts...)
		if err != nil {
			panic(err)
		}
		expected := map[uint64]int{}
		for _, v := range prefill {
			if err := d.PushRight(v); err != nil {
				panic(err)
			}
			expected[v]++
		}

		var log opLog
		results := make([][]uint64, len(ops))
		threads := make([]func(), len(ops))
		for i, script := range ops {
			i, script := i, script
			for _, op := range script {
				if op.push {
					expected[op.value]++
				}
			}
			threads[i] = func() {
				for _, op := range script {
					id := log.begin(op.push)
					ok := true
					var v uint64
					switch {
					case op.push && op.left:
						ok = d.PushLeft(op.value) == nil
					case op.push:
						ok = d.PushRight(op.value) == nil
					case op.left:
						v, ok = d.PopLeft()
					default:
						v, ok = d.PopRight()
					}
					log.end(id, ok)
					if !op.push && ok {
						results[i] = append(results[i], v)
					}
				}
			}
		}

		check := func() error {
			got := map[uint64]int{}
			for _, rs := range results {
				for _, v := range rs {
					got[v]++
				}
			}
			for {
				v, ok := d.PopLeft()
				if !ok {
					break
				}
				got[v]++
			}
			problems := log.spuriousEmpties(len(prefill))
			for v, n := range got {
				if n != expected[v] {
					problems = append(problems, fmt.Sprintf("value %d delivered %d times (want %d)", v, n, expected[v]))
				}
			}
			for v, n := range expected {
				if got[v] != n {
					if got[v] == 0 {
						problems = append(problems, fmt.Sprintf("value %d lost", v))
					}
				}
			}
			d.Close()
			if hs := h.Stats(); hs.Corruptions != 0 || hs.DoubleFrees != 0 || hs.LiveObjects != 0 {
				problems = append(problems, fmt.Sprintf(
					"heap: corruptions=%d doubleFrees=%d live=%d", hs.Corruptions, hs.DoubleFrees, hs.LiveObjects))
			}
			if len(problems) > 0 {
				sort.Strings(problems)
				return fmt.Errorf("%v", problems)
			}
			return nil
		}
		return threads, check
	}
}

// popL/popR/pushL/pushR build scripts.
func popL() dequeOp          { return dequeOp{left: true} }
func popR() dequeOp          { return dequeOp{} }
func pushR(v uint64) dequeOp { return dequeOp{push: true, value: v} }
func pushL(v uint64) dequeOp { return dequeOp{push: true, left: true, value: v} }

// snarkScenarios enumerates small near-empty scenarios — the neighbourhood
// of the Doherty et al. (SPAA 2004) races in the published algorithm.
func snarkScenarios(claiming bool) map[string]Scenario {
	return map[string]Scenario{
		"2elem popL+popR": snarkScenario(
			[]uint64{1, 2},
			[][]dequeOp{{popL()}, {popR()}},
			claiming),
		"1elem popL+popR": snarkScenario(
			[]uint64{1},
			[][]dequeOp{{popL()}, {popR()}},
			claiming),
		"1elem popL+popR+pushR": snarkScenario(
			[]uint64{1},
			[][]dequeOp{{popL()}, {popR()}, {pushR(2)}},
			claiming),
		"popL+pushLpopL": snarkScenario(
			[]uint64{1},
			[][]dequeOp{{popL()}, {pushL(2), popL()}},
			claiming),
		"2elem popLpopL+popR": snarkScenario(
			[]uint64{1, 2},
			[][]dequeOp{{popL(), popL()}, {popR()}},
			claiming),
		// The stale-hat race: the right pop's hat is popped from the
		// left while a fourth value arrives.
		"3elem popR+pushRpopLpopLpopL": snarkScenario(
			[]uint64{1, 2, 3},
			[][]dequeOp{{popR()}, {pushR(4), popL(), popL(), popL()}},
			claiming),
	}
}

// snarkExplored runs the bounded DFS over every scenario of both deque
// variants once per test binary; the tests below judge the same results
// from different angles.
var snarkExplored = sync.OnceValue(func() map[bool]map[string]Result {
	out := map[bool]map[string]Result{}
	for _, claiming := range []bool{false, true} {
		out[claiming] = map[string]Result{}
		for name, s := range snarkScenarios(claiming) {
			out[claiming][name] = RunDFS(s, 2, 4_000, 100_000)
		}
	}
	return out
})

// TestSnarkMemorySafetyUnderExploration verifies the LFRC guarantees — no
// corruption, no double free, no leak — over every explored schedule of
// every scenario, for both deque variants. Memory safety is the paper's
// contribution and must hold regardless of the algorithm's value-level
// races. It also rejects any pop that reported empty while the deque held a
// value, in both variants.
func TestSnarkMemorySafetyUnderExploration(t *testing.T) {
	for claiming, byName := range snarkExplored() {
		for name, res := range byName {
			// Value anomalies are assessed in the test below; here only
			// heap-integrity problems fail.
			if res.FirstError != nil {
				msg := res.FirstError.Error()
				if containsHeapProblem(msg) {
					t.Errorf("claiming=%v %q: heap violation: %v (trace %v)",
						claiming, name, res.FirstError, res.FirstViolation)
				}
				// The stale-hat empty is no published race: it must not
				// appear with or without claiming.
				if strings.Contains(msg, "reported empty") {
					t.Errorf("claiming=%v %q: spurious empty pop: %v (trace %v)",
						claiming, name, res.FirstError, res.FirstViolation)
				}
			}
			t.Logf("claiming=%v %q: %d schedules explored, %d value anomalies",
				claiming, name, res.Runs, res.Violations)
		}
	}
}

func containsHeapProblem(msg string) bool {
	for _, bad := range []string{"corruptions=", "doubleFrees=", "live="} {
		idx := 0
		for idx < len(msg) {
			j := idx + len(bad)
			if j <= len(msg) && msg[idx:j] == bad {
				// "corruptions=0" is fine; any nonzero digit right after is not.
				if j < len(msg) && msg[j] != '0' {
					return true
				}
			}
			idx++
		}
	}
	return false
}

// TestClaimingDequeExactUnderExploration asserts that with value claiming
// no explored schedule can double-deliver a value, and logs whether the
// published (non-claiming) algorithm exhibits its historical races at this
// preemption bound.
func TestClaimingDequeExactUnderExploration(t *testing.T) {
	for name, res := range snarkExplored()[true] {
		if res.Violations != 0 {
			t.Errorf("claiming deque %q: %d anomalies, first: %v (trace %v)",
				name, res.Violations, res.FirstError, res.FirstViolation)
		}
	}

	totalRuns, totalViolations := 0, 0
	for name, res := range snarkExplored()[false] {
		totalRuns += res.Runs
		totalViolations += res.Violations
		if res.Violations > 0 {
			t.Logf("published Snark %q: %d/%d schedules anomalous; first: %v",
				name, res.Violations, res.Runs, res.FirstError)
		}
	}
	t.Logf("published Snark total: %d anomalies across %d explored schedules (<=2 preemptions)",
		totalViolations, totalRuns)
}
