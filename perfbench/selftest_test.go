package main

import (
	"bytes"
	"testing"
)

// TestSelfTest runs every workload at the tiny size, untraced and traced,
// and checks the metric names and units against BENCHMARK.json, the
// recorded digests, and that no operation failed.
func TestSelfTest(t *testing.T) {
	if testing.Short() {
		t.Skip("runs every workload")
	}
	var log bytes.Buffer
	if err := selfTest("../BENCHMARK.json", t.TempDir(), &log); err != nil {
		t.Fatalf("%v\n%s", err, log.String())
	}
}

func TestCheckMetricsReportsMissingExtraAndUnit(t *testing.T) {
	want := []metricDef{{"run_s", "s"}, {"setup_s", "s"}}
	got := map[string]metricValue{"run_s": {1, "ms"}, "extra": {1, "s"}}
	if errs := checkMetrics("w", want, got); len(errs) != 3 {
		t.Fatalf("got %d errors %v, want 3 (unit, missing, extra)", len(errs), errs)
	}
}
