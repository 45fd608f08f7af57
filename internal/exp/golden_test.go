package exp

import (
	"bytes"
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"testing"
)

// goldenFile pins the byte-exact outputs of representative fig3, fig10,
// fig11 and chaos rows (CSV and telemetry snapshots) to the hashes produced by
// the pre-optimisation code paths. The hot-path rewrites (sentinel-tag
// probes, packed victim scans, memoized mask resolution, zero-alloc
// stepping) must be invisible at every output byte; any optimisation
// that shifts a single simulated trajectory fails this test before it
// can reach a committed result.
//
// Regenerate (only for an intentional, reviewed behaviour change):
//
//	IATSIM_UPDATE_GOLDEN=1 go test ./internal/exp -run TestGoldenOutputsMatchPreOptimizationPaths
const goldenFile = "testdata/golden-output-hashes.txt"

// goldenHash is the one canonical digest: SHA-256, hex.
func goldenHash(data []byte) string {
	h := sha256.Sum256(data)
	return hex.EncodeToString(h[:])
}

// goldenFig3Opts is a scaled-down Fig. 3 sweep: one packet size, two
// ring sizes, coarse RFC2544 tolerance so the binary search stays short.
func goldenFig3Opts() Fig3Opts {
	o := DefaultFig3Opts()
	o.Sizes = []int{64}
	o.Rings = []int{64, 256}
	o.WarmNS, o.MeasureNS = 0.05e9, 0.1e9
	o.Tol = 0.1
	return o
}

// goldenFig11Opts compresses the Fig. 11 three-phase timeline enough for
// a unit test while still driving the daemon through real transitions.
func goldenFig11Opts() Fig10Opts {
	o := DefaultFig10Opts()
	o.Phase1NS, o.Phase2NS, o.Phase3NS = 0.4e9, 0.4e9, 0.4e9
	o.IntervalNS = 0.1e9
	return o
}

// goldenFig10Opts runs all four Fig. 10 modes on goldenFig11Opts'
// timeline at one packet size. The short phases still reach every
// comparator path: Core-only grows container 4 onto a DDIO way, and
// I/O-iso takes ways from best-effort tenants, then re-packs with overlap
// once DDIO is expanded.
func goldenFig10Opts() Fig10Opts {
	o := goldenFig11Opts()
	o.Sizes = []int{1500}
	return o
}

// goldenChaosOpts is one fault-free and one at-rate chaos pair.
func goldenChaosOpts() ChaosOpts {
	o := DefaultChaosOpts()
	o.Scales = []float64{0, 1}
	o.WarmNS, o.MeasureNS = 0.8e9, 0.4e9
	return o
}

// runGoldenOutputs executes the four runners at the canonical seed and
// returns every output artifact keyed by a stable name: the rendered CSV
// row bytes plus each per-job telemetry snapshot file (fig10, fig11 and
// chaos publish snapshots through the harness; fig3 has none).
func runGoldenOutputs(t *testing.T, jobs int) map[string][]byte {
	t.Helper()
	telDir := t.TempDir()
	SetExec(Exec{Jobs: jobs, Seed: 42, TelemetryDir: telDir})
	out := map[string][]byte{}

	csvBytes := func(rows any) []byte {
		var buf bytes.Buffer
		if err := WriteRowsCSV(&buf, rows); err != nil {
			t.Fatal(err)
		}
		return buf.Bytes()
	}

	fig3 := RunFig3(io.Discard, goldenFig3Opts())
	if len(fig3) != 2 {
		t.Fatalf("fig3 rows = %d, want 2", len(fig3))
	}
	out["fig3.csv"] = csvBytes(fig3)

	fig10 := RunFig10(io.Discard, goldenFig10Opts())
	if len(fig10) != 4 {
		t.Fatalf("fig10 rows = %d, want 4", len(fig10))
	}
	out["fig10.csv"] = csvBytes(fig10)

	fig11 := RunFig11(io.Discard, goldenFig11Opts())
	if len(fig11) == 0 {
		t.Fatal("fig11 produced no samples")
	}
	out["fig11.csv"] = csvBytes(fig11)

	chaos := RunChaos(io.Discard, goldenChaosOpts())
	if len(chaos) != 4 {
		t.Fatalf("chaos rows = %d, want 4", len(chaos))
	}
	out["chaos.csv"] = csvBytes(chaos)

	entries, err := os.ReadDir(telDir)
	if err != nil {
		t.Fatal(err)
	}
	for _, e := range entries {
		data, err := os.ReadFile(filepath.Join(telDir, e.Name()))
		if err != nil {
			t.Fatal(err)
		}
		out["tel/"+e.Name()] = data
	}
	return out
}

// goldenRuns caches the rendered hashes per worker count for the life of
// the test binary, so the gate and the worker-count test share one jobs=4
// run; under -race each run takes minutes.
var goldenRuns = map[int]string{}

// goldenHashes returns the rendered golden hashes at the given worker
// count, running the outputs once per binary.
func goldenHashes(t *testing.T, jobs int) string {
	t.Helper()
	if h, ok := goldenRuns[jobs]; ok {
		return h
	}
	h := renderGoldenHashes(runGoldenOutputs(t, jobs))
	goldenRuns[jobs] = h
	return h
}

// renderGoldenHashes formats the artifact digests as sorted
// "name hash" lines, the committed testdata format.
func renderGoldenHashes(arts map[string][]byte) string {
	names := make([]string, 0, len(arts))
	for name := range arts {
		names = append(names, name)
	}
	sort.Strings(names)
	var b strings.Builder
	for _, name := range names {
		fmt.Fprintf(&b, "%s %s\n", name, goldenHash(arts[name]))
	}
	return b.String()
}

// TestGoldenOutputsMatchPreOptimizationPaths is the pre/post
// differential gate of the hot-path performance pass: fig3, fig10, fig11
// and chaos rows — CSV bytes and telemetry snapshots — run at a fixed seed
// must hash exactly to the values recorded from the unoptimised code.
// It runs under -race (race_on_test.go builds this package's tests with
// the detector in CI via `make race`), so the comparison also holds with
// the memory model fully instrumented.
func TestGoldenOutputsMatchPreOptimizationPaths(t *testing.T) {
	if testing.Short() {
		t.Skip("integration test: simulates several seconds of platform time")
	}
	t.Cleanup(func() { SetExec(Exec{}) })

	got := goldenHashes(t, 4)

	if os.Getenv("IATSIM_UPDATE_GOLDEN") != "" {
		if err := os.MkdirAll(filepath.Dir(goldenFile), 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(goldenFile, []byte(got), 0o644); err != nil {
			t.Fatal(err)
		}
		t.Logf("golden hashes regenerated at %s", goldenFile)
		return
	}

	want, err := os.ReadFile(goldenFile)
	if err != nil {
		t.Fatalf("missing golden data (%v); regenerate with IATSIM_UPDATE_GOLDEN=1 from known-good code", err)
	}
	if string(want) == got {
		return
	}
	// Report exactly which artifacts moved, not just that bytes differ.
	parse := func(s string) map[string]string {
		m := map[string]string{}
		for _, line := range strings.Split(strings.TrimSpace(s), "\n") {
			if name, hash, ok := strings.Cut(line, " "); ok {
				m[name] = hash
			}
		}
		return m
	}
	wantH, gotH := parse(string(want)), parse(got)
	for name, h := range wantH {
		switch g, ok := gotH[name]; {
		case !ok:
			t.Errorf("%s: artifact missing from this run", name)
		case g != h:
			t.Errorf("%s: output bytes changed (hash %s -> %s)", name, h[:12], g[:12])
		}
	}
	for name := range gotH {
		if _, ok := wantH[name]; !ok {
			t.Errorf("%s: new artifact not in golden set", name)
		}
	}
	t.Fatal("optimised code paths changed simulated outputs; if intentional, regenerate with IATSIM_UPDATE_GOLDEN=1")
}

// TestGoldenHashesStableAcrossWorkerCounts proves the golden comparison
// itself is scheduling-independent: jobs=4 and jobs=1 must hash
// identically, otherwise a golden failure could be blamed on worker
// count rather than a real trajectory change.
func TestGoldenHashesStableAcrossWorkerCounts(t *testing.T) {
	if testing.Short() {
		t.Skip("integration test: simulates several seconds of platform time")
	}
	t.Cleanup(func() { SetExec(Exec{}) })

	par := goldenHashes(t, 4)
	seq := goldenHashes(t, 1)
	if par != seq {
		t.Fatalf("golden hashes depend on worker count:\n--- jobs=4 ---\n%s--- jobs=1 ---\n%s", par, seq)
	}
}
