package lfrc_test

import (
	"os"
	"path/filepath"
	"sort"
	"strings"
	"testing"

	"lfrc"
)

// TestMetricNamesGolden locks the Prometheus metric-name surface: the full
// set of "# TYPE name kind" declarations emitted by a system with every
// telemetry layer enabled must match testdata/metric_names.golden. Dashboards
// and alert rules key on these names, so renaming or dropping one is a
// breaking change that must show up in review as a golden-file diff — the
// same contract testdata/stats_keys.golden enforces for the Stats JSON.
//
// Regenerate with: UPDATE_GOLDEN=1 go test -run TestMetricNamesGolden .
func TestMetricNamesGolden(t *testing.T) {
	sys, err := lfrc.New(
		lfrc.WithObservability(lfrc.ObservabilityOptions{SampleEvery: 1, LifecycleEvery: 1, Contention: true}),
		// Arm the fault injector with a rule that can never fire so the
		// lfrc_fault_* names are part of the locked surface without
		// perturbing the run, and enable the pressure policy.
		lfrc.WithFaultPlan("core.load:nth=1000000000"),
		lfrc.WithHeapPressurePolicy(lfrc.DefaultHeapPressurePolicy()),
		// Manual timeline: the lfrc_timeline_* names are locked without a
		// background goroutine racing the scrape.
		lfrc.WithTimeline(lfrc.TimelineOptions{Manual: true}),
	)
	if err != nil {
		t.Fatalf("New: %v", err)
	}
	defer sys.Close()
	d, err := sys.NewDeque()
	if err != nil {
		t.Fatalf("NewDeque: %v", err)
	}
	for i := lfrc.Value(1); i <= 8; i++ {
		if err := d.PushRight(i); err != nil {
			t.Fatalf("PushRight: %v", err)
		}
	}
	d.Close()

	var sb strings.Builder
	sys.WriteMetrics(&sb)

	seen := map[string]bool{}
	var names []string
	for _, line := range strings.Split(sb.String(), "\n") {
		if !strings.HasPrefix(line, "# TYPE ") {
			continue
		}
		decl := strings.TrimPrefix(line, "# TYPE ")
		if fields := strings.Fields(decl); len(fields) != 2 {
			t.Errorf("malformed TYPE line: %q", line)
			continue
		}
		if !seen[decl] {
			seen[decl] = true
			names = append(names, decl)
		}
	}
	sort.Strings(names)
	got := strings.Join(names, "\n") + "\n"

	golden := filepath.Join("testdata", "metric_names.golden")
	if os.Getenv("UPDATE_GOLDEN") == "1" {
		if err := os.WriteFile(golden, []byte(got), 0o644); err != nil {
			t.Fatalf("write golden: %v", err)
		}
	}
	want, err := os.ReadFile(golden)
	if err != nil {
		t.Fatalf("read golden (run with UPDATE_GOLDEN=1 to create): %v", err)
	}
	if got != string(want) {
		t.Errorf("Prometheus metric-name set changed.\n--- got ---\n%s--- want (%s) ---\n%s"+
			"If the change is intentional, regenerate with UPDATE_GOLDEN=1 and call it out in review.",
			got, golden, want)
	}
}
