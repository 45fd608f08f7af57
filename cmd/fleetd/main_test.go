package main

import (
	"bytes"
	"encoding/csv"
	"encoding/json"
	"errors"
	"os"
	"path/filepath"
	"slices"
	"strings"
	"testing"

	"iatsim/internal/harness"
	"iatsim/internal/telemetry"
)

// smokeArgs is a fleet small and time-compressed enough for a unit test.
func smokeArgs(extra ...string) []string {
	args := []string{
		"-hosts", "4", "-rounds", "4",
		"-round", "0.2", "-interval", "0.05", "-scale", "3200",
	}
	return append(args, extra...)
}

// TestFleetdDeterministicAcrossJobs runs each fleet at -jobs 1 and
// -jobs 8 and requires byte-identical stdout, aggregate CSV and
// telemetry snapshots, and a manifest with zero failed step jobs — the
// binary-level form of the fleet determinism contract. The cases are
// the acceptance shapes: a 32-host canary rollout under a fault storm,
// and a crash storm with per-round host checkpoints.
func TestFleetdDeterministicAcrossJobs(t *testing.T) {
	const rounds = 8 // fleetd's default
	cases := []struct {
		name     string
		args     []string
		hosts    int
		wantDown bool // the storm must crash at least one host
	}{
		{"canary-storm", []string{"-hosts", "32", "-rollout", "canary", "-chaos", "default",
			"-scale", "3200", "-round", "0.15"}, 32, false},
		{"crash-storm", []string{"-hosts", "8", "-rollout", "canary", "-chaos", "heavy", "-chaos-seed", "2",
			"-checkpoint-every", "1", "-scale", "3200", "-round", "0.2", "-interval", "0.05"}, 8, true},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			run1 := runFleetd(t, tc.args, "1")
			run8 := runFleetd(t, tc.args, "8")
			for name, pair := range map[string][2]string{
				"stdout":     {run1.stdout, run8.stdout},
				"fleet.csv":  {run1.csv, run8.csv},
				"controller": {run1.controller, run8.controller},
				"hosts":      {run1.hosts, run8.hosts},
			} {
				if pair[0] != pair[1] {
					t.Errorf("%s differs between -jobs 1 and -jobs 8:\n--- jobs=1\n%s\n--- jobs=8\n%s", name, pair[0], pair[1])
				}
			}
			if !strings.Contains(run1.stdout, "fleetd: done;") {
				t.Fatalf("run did not complete:\n%s", run1.stdout)
			}
			if tc.wantDown && !anyHostDown(t, run1.csv) {
				t.Error("the crash storm downed no host: nothing was restored from a checkpoint")
			}
			for _, m := range []*harness.Manifest{run1.manifest, run8.manifest} {
				if m.Failures != 0 || m.TotalJobs != tc.hosts*rounds {
					t.Errorf("manifest at -jobs %d: %d failures of %d jobs, want 0 of %d",
						m.Options.Jobs, m.Failures, m.TotalJobs, tc.hosts*rounds)
				}
			}
		})
	}
}

// anyHostDown reports whether fleet.csv records a crashed host in any
// round.
func anyHostDown(t *testing.T, data string) bool {
	t.Helper()
	rows, err := csv.NewReader(strings.NewReader(data)).ReadAll()
	if err != nil {
		t.Fatal(err)
	}
	col := slices.Index(rows[0], "HostsDown")
	if col < 0 {
		t.Fatalf("fleet.csv has no HostsDown column: %v", rows[0])
	}
	for _, r := range rows[1:] {
		if r[col] != "0" {
			return true
		}
	}
	return false
}

type fleetdRun struct {
	stdout, csv, controller, hosts string
	manifest                       *harness.Manifest
}

// runFleetd runs fleetd with args at the given -jobs, writing every
// artifact (CSV, telemetry, manifest) into one temp dir.
func runFleetd(t *testing.T, args []string, jobs string) fleetdRun {
	t.Helper()
	dir := t.TempDir()
	var out bytes.Buffer
	err := run(append(append([]string(nil), args...),
		"-jobs", jobs, "-csv", dir, "-telemetry", dir, "-json", dir,
	), &out)
	if err != nil {
		t.Fatalf("run: %v\noutput:\n%s", err, out.String())
	}
	read := func(name string) string {
		b, err := os.ReadFile(filepath.Join(dir, name))
		if err != nil {
			t.Fatal(err)
		}
		return string(b)
	}
	m, err := harness.ReadManifest(filepath.Join(dir, "manifest.json"))
	if err != nil {
		t.Fatal(err)
	}
	return fleetdRun{
		// The output paths embed the per-test temp dir; normalise them so
		// the rest of stdout can be compared byte-for-byte.
		stdout:     strings.ReplaceAll(out.String(), dir, "DIR"),
		csv:        read("fleet.csv"),
		controller: read("controller.json"),
		hosts:      read("hosts.json"),
		manifest:   m,
	}
}

// TestTelemetrySnapshotsValidate checks the controller and merged-host
// snapshots parse and self-validate.
func TestTelemetrySnapshotsValidate(t *testing.T) {
	dir := t.TempDir()
	var out bytes.Buffer
	if err := run(smokeArgs("-telemetry", dir), &out); err != nil {
		t.Fatalf("run: %v\noutput:\n%s", err, out.String())
	}
	for _, name := range []string{"controller.json", "hosts.json"} {
		snap, err := telemetry.ReadSnapshotFile(filepath.Join(dir, name))
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		if err := snap.Validate(); err != nil {
			t.Errorf("%s: %v", name, err)
		}
		if len(snap.Metrics) == 0 {
			t.Errorf("%s: no metrics", name)
		}
	}
}

// TestManifestRecordsChaos checks the run manifest records the storm
// profile and seed for every run — "off" when no storm is armed.
func TestManifestRecordsChaos(t *testing.T) {
	readManifest := func(extra ...string) *harness.Manifest {
		t.Helper()
		dir := t.TempDir()
		var out bytes.Buffer
		if err := run(smokeArgs(append(extra, "-json", dir)...), &out); err != nil {
			t.Fatalf("run: %v\noutput:\n%s", err, out.String())
		}
		b, err := os.ReadFile(filepath.Join(dir, "manifest.json"))
		if err != nil {
			t.Fatal(err)
		}
		m := new(harness.Manifest)
		if err := json.Unmarshal(b, m); err != nil {
			t.Fatal(err)
		}
		return m
	}
	m := readManifest()
	if m.Options.Chaos != "off" || m.Options.ChaosSeed != 0 {
		t.Errorf("storm-free manifest records chaos=%q seed=%d, want off/0", m.Options.Chaos, m.Options.ChaosSeed)
	}
	if m.TotalJobs != 16 { // 4 hosts x 4 rounds
		t.Errorf("TotalJobs = %d, want 16", m.TotalJobs)
	}
	m = readManifest("-chaos", "heavy", "-chaos-seed", "7")
	if m.Options.Chaos != "heavy" || m.Options.ChaosSeed != 7 {
		t.Errorf("storm manifest records chaos=%q seed=%d, want heavy/7", m.Options.Chaos, m.Options.ChaosSeed)
	}
	if m.Options.CheckpointEvery != 1 {
		t.Errorf("manifest checkpoint_every = %d, want the default 1", m.Options.CheckpointEvery)
	}
	m = readManifest("-checkpoint-every", "3")
	if m.Options.CheckpointEvery != 3 {
		t.Errorf("manifest checkpoint_every = %d, want 3", m.Options.CheckpointEvery)
	}
}

// TestCheckpointEveryDisabled: -checkpoint-every 0 turns host
// checkpointing off and the run still completes (hosts that die in a
// storm cold start on rejoin).
func TestCheckpointEveryDisabled(t *testing.T) {
	var out bytes.Buffer
	if err := run(smokeArgs("-chaos", "heavy", "-checkpoint-every", "0"), &out); err != nil {
		t.Fatalf("run: %v\noutput:\n%s", err, out.String())
	}
	if !strings.Contains(out.String(), "fleetd: done;") {
		t.Fatalf("run did not complete:\n%s", out.String())
	}
}

// TestUsageErrors checks every invalid invocation fails with the exit-2
// usage-error class before any simulation work happens.
func TestUsageErrors(t *testing.T) {
	cases := [][]string{
		{"-hosts", "0"},
		{"-rounds", "0"},
		{"-round", "-1"},
		{"-interval", "0"},
		{"-scale", "-5"},
		{"-jobs", "0"},
		{"-topology", "mesh"},
		{"-rollout", "yolo"},
		{"-chaos", "not-a-profile"},
		{"-policy", "bogus"},
		{"-policy", "static:0"},
		{"-shadow", "iat,iat"},
		{"-shadow", "greedy,bogus"},
		{"-checkpoint-every", "-1"},
	}
	for _, args := range cases {
		var out bytes.Buffer
		err := run(args, &out)
		var ue usageError
		if !errors.As(err, &ue) {
			t.Errorf("args %v: got %v, want usageError", args, err)
		}
	}
}

// TestPolicyRolloutSmoke stages a decision-engine change through the CLI
// with shadows armed: the run completes, names the engine pair in the
// preamble, and reports fleet-wide shadow divergence.
func TestPolicyRolloutSmoke(t *testing.T) {
	if testing.Short() {
		t.Skip("simulates several rounds of platform time")
	}
	var out bytes.Buffer
	err := run(smokeArgs("-policy", "static:2", "-shadow", "greedy"), &out)
	if err != nil {
		t.Fatalf("run: %v\noutput:\n%s", err, out.String())
	}
	s := out.String()
	if !strings.Contains(s, "rollout canary (iat -> static:2)") {
		t.Errorf("preamble does not name the engine rollout:\n%s", s)
	}
	if !strings.Contains(s, "fleetd: shadow greedy:") {
		t.Errorf("missing fleet-wide shadow summary:\n%s", s)
	}
	if !strings.Contains(s, "fleetd: done;") {
		t.Fatalf("run did not complete:\n%s", s)
	}
}
