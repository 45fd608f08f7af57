//go:build !race

package main

import (
	"bytes"
	"io"
	"path/filepath"
	"strings"
	"testing"

	"iatsim/internal/exp"
)

// TestFig8TelemetryInspect drives the whole inspect path on real
// snapshots: Fig. 8's quick sweep (64/512/1500 B x baseline/iat, as
// `experiments -fig 8` runs it) collected at 4 workers, then every
// produced snapshot and Chrome trace schema-checked, one snapshot
// printed, and the baseline and IAT snapshots at 64 B diffed. Not built
// under -race: it simulates six full Fig. 8 points, and the harness's
// concurrency is race-tested in internal/exp.
func TestFig8TelemetryInspect(t *testing.T) {
	if testing.Short() {
		t.Skip("simulates six Fig. 8 points")
	}
	dir := t.TempDir()
	exp.SetExec(exp.Exec{Jobs: 4, TelemetryDir: dir})
	t.Cleanup(func() { exp.SetExec(exp.Exec{}) })
	o := exp.DefaultFig8Opts()
	o.Sizes = []int{64, 512, 1500}
	if rows := exp.RunFig8(io.Discard, o); len(rows) != 6 {
		t.Fatalf("Fig. 8 produced %d rows, want 6", len(rows))
	}

	var out bytes.Buffer
	if err := run([]string{"-validate", dir}, &out); err != nil {
		t.Fatalf("%v\n%s", err, out.String())
	}
	if got := strings.Count(out.String(), "ok   "); got != 12 {
		t.Errorf("validated %d files, want 12 (6 snapshots + 6 traces):\n%s", got, out.String())
	}

	iat := filepath.Join(dir, "fig8_pkt_64_iat.json")
	out.Reset()
	if err := run([]string{iat}, &out); err != nil {
		t.Fatal(err)
	}
	for _, want := range []string{iat + ": t=", "cache/", "ddio/", "nic/"} {
		if !strings.Contains(out.String(), want) {
			t.Errorf("printed snapshot lacks %q:\n%s", want, out.String())
		}
	}

	// At 64 B IAT leaves the DDIO ways alone, so the two snapshots'
	// metrics may agree; the diff must still read both and summarise.
	base := filepath.Join(dir, "fig8_pkt_64_baseline.json")
	out.Reset()
	if err := run([]string{"-diff", base, iat}, &out); err != nil {
		t.Fatal(err)
	}
	if !strings.HasPrefix(out.String(), "diff "+base) || !strings.HasSuffix(out.String(), " metric(s) changed\n") {
		t.Errorf("diff output malformed:\n%s", out.String())
	}
}
