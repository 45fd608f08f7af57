// Command perfbench is the repository benchmark: it times the simulator's
// Leaky DMA path, the Figs. 12/13 application co-run and the fleet
// control plane through their public entry points, checks every run's
// simulated outputs against recorded digests, and prints each metric by
// name and unit, ending with one JSON line:
//
//	{"correct":…,"attempted":…,"failed":…,"metrics":{"<name>":{"value":…,"unit":…}}}
//
// Run it through run.sh from the repository root (see README.md):
//
//	bash perfbench/run.sh --workload leaky-dma --seed 0 --seconds 30 --trace 0
//	bash perfbench/run.sh -selftest
//
// -trace 0 reports the end-to-end metrics. -trace 1 splits the budget
// between an untraced, CPU-profiled half and a traced half, and reports
// the per-layer metrics, the tracing overhead and whether both halves
// produced the same outputs.
package main

import (
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"runtime"
	"runtime/pprof"
	"sort"
	"strings"
	"time"

	"iatsim/internal/exp"
)

func main() { os.Exit(run(os.Args[1:], os.Stdout, os.Stderr)) }

func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("perfbench", flag.ContinueOnError)
	fs.SetOutput(stderr)
	name := fs.String("workload", "", "workload: "+strings.Join(workloadNames(), ", "))
	seed := fs.Int64("seed", 0, "workload seed, forwarded to the scenario options' Seed")
	seconds := fs.Int("seconds", 30, "measurement budget in host seconds (at least one operation runs)")
	trace := fs.Int("trace", 0, "0: end-to-end metrics, untraced; 1: per-layer metrics from a traced run")
	out := fs.String("out", filepath.Join(".bench_build", "trace"), "directory for a traced run's spans and CPU profile")
	selftest := fs.Bool("selftest", false, "run every workload at a tiny size and check names, units, digests and failures against ./BENCHMARK.json")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	if *selftest {
		if err := selfTest("BENCHMARK.json", *out, stdout); err != nil {
			fmt.Fprintln(stderr, "perfbench: self-test failed:", err)
			return 1
		}
		fmt.Fprintln(stdout, "perfbench: self-test OK")
		return 0
	}
	if *trace != 0 && *trace != 1 {
		fmt.Fprintln(stderr, "perfbench: -trace must be 0 or 1")
		return 2
	}
	if *seconds < 0 {
		fmt.Fprintln(stderr, "perfbench: -seconds must be >= 0")
		return 2
	}
	if _, ok := newWorkload(*name, "full", 0); !ok {
		fmt.Fprintf(stderr, "perfbench: unknown -workload %q (valid: %s)\n", *name, strings.Join(workloadNames(), ", "))
		return 2
	}
	res, err := execute(*name, "full", *seed, time.Duration(*seconds)*time.Second, *trace == 1, *out, stdout)
	if err != nil {
		fmt.Fprintln(stderr, "perfbench:", err)
		return 1
	}
	line, err := json.Marshal(res)
	if err != nil {
		fmt.Fprintln(stderr, "perfbench:", err)
		return 1
	}
	fmt.Fprintln(stdout, string(line))
	if !res.Correct {
		fmt.Fprintln(stderr, "perfbench: outputs incorrect:", strings.Join(res.problems, "; "))
		return 1
	}
	return 0
}

// workloadNames lists the workloads in BENCHMARK.json order.
func workloadNames() []string { return []string{"leaky-dma", "appmix", "fleet-storm"} }

// newWorkload configures a workload at "full" (benchmark) or "tiny"
// (self-test) size.
func newWorkload(name, size string, seed int64) (workload, bool) {
	tiny := size == "tiny"
	switch name {
	case "leaky-dma":
		w := &leakyDMA{seed: seed, setupReps: 3, warmSteps: 500, runSteps: 2000}
		if tiny {
			w.warmSteps, w.runSteps = 20, 50
		}
		return w, true
	case "appmix":
		o := exp.AppMixOpts{
			Scale: 100, Net: "redis", App: "rocksdb:A", Placement: exp.PlacePC,
			IAT: true, IntervalNS: 0.25e9, TargetOps: 20000, MaxNS: 14e9, Seed: seed,
		}
		if tiny {
			o.TargetOps = 500
		}
		return &appMix{opts: o, setupReps: 20}, true
	case "fleet-storm":
		o := exp.FleetOpts{
			Hosts: 32, Topology: "striped", Rollout: "canary", Scale: 3200, Rounds: 12,
			RoundNS: 0.15e9, IntervalNS: 0.05e9, CheckpointEvery: 1, Shadow: "static:2,ioca,greedy",
			Storm: "heavy", Seed: seed, StormSeed: seed,
		}
		if tiny {
			o.Hosts, o.Rounds = 4, 5
		}
		return &fleetStorm{opts: o, workers: runtime.NumCPU()}, true
	}
	return nil, false
}

// result is the final JSON line.
type result struct {
	Correct   bool                   `json:"correct"`
	Attempted int                    `json:"attempted"`
	Failed    int                    `json:"failed"`
	Metrics   map[string]metricValue `json:"metrics"`

	problems []string
}

type metricValue struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// execute runs one workload for budget and returns its result, printing
// the human-readable report to log.
func execute(name, size string, seed int64, budget time.Duration, traced bool, outDir string, log io.Writer) (*result, error) {
	w, ok := newWorkload(name, size, seed)
	if !ok {
		return nil, fmt.Errorf("unknown workload %q", name)
	}
	tag := fmt.Sprintf("%s-%s-seed%d", name, size, seed)
	var phases []*phase
	var values map[string]float64
	defs := endToEnd
	if traced {
		var err error
		if phases, values, err = tracedRun(w, budget, outDir, tag, log); err != nil {
			return nil, err
		}
		defs = perLayer
	} else {
		ph := runPhase(w, budget, nil, true)
		phases, values = []*phase{ph}, endToEndValues(ph, tag, log)
	}

	res := check(digestKey(name, size, seed), phases, log)
	if traced {
		values["ops"] = float64(res.Attempted)
		values["failed_frac"] = ratio(float64(res.Failed), float64(res.Attempted))
	}
	for _, d := range defs {
		res.Metrics[d.Name] = metricValue{Value: values[d.Name], Unit: d.Unit}
		fmt.Fprintf(log, "  %-32s %14.6g %s\n", d.Name, values[d.Name], d.Unit)
	}
	return res, nil
}

// endToEndValues derives the end-to-end metrics of an untraced phase.
func endToEndValues(ph *phase, tag string, log io.Writer) map[string]float64 {
	steps := ph.stepMedians()
	fmt.Fprintf(log, "%s: %d passes\n", tag, len(ph.run))
	fmt.Fprintf(log, "  setup_s  %s\n  run_s    %s %.4g\n  step_us  %s\n  step_us, median per position over passes: %s\n",
		describe(ph.setup), describe(ph.run), ph.run, describe(ph.step), describe(steps))
	return map[string]float64{
		"setup_s":      median(ph.setup),
		"run_s":        median(ph.run),
		"sim_ms_per_s": ratio(ph.simMS, sum(ph.run)),
		"step_p50_us":  percentile(steps, 50),
		"step_p99_us":  percentile(steps, 99),
		"alloc_mb":     median(ph.alloc),
		"heap_peak_mb": ph.heapPeakMB,
	}
}

// tracedRun runs half the budget untraced under the CPU profiler and half
// traced, writes the spans beside the profile, and derives the per-layer
// metrics (every one defaults to 0).
func tracedRun(w workload, budget time.Duration, outDir, tag string, log io.Writer) ([]*phase, map[string]float64, error) {
	if err := os.MkdirAll(outDir, 0o755); err != nil {
		return nil, nil, err
	}
	profPath := filepath.Join(outDir, tag+".cpu.pb.gz")
	un, err := profiledPhase(w, budget/2, profPath)
	if err != nil {
		return nil, nil, err
	}
	tr := newTracer()
	tp := runPhase(w, budget/2, tr, false)
	if err := tr.write(outDir, tag+".spans.json"); err != nil {
		return nil, nil, err
	}
	shares, err := reduceProfileFile(profPath)
	if err != nil {
		return nil, nil, err
	}
	values := map[string]float64{}
	for _, d := range perLayer {
		values[d.Name] = 0
	}
	w.layers(un, tp, values)
	values["trace.run_s"] = median(tp.run)
	values["trace.overhead_ratio"] = ratio(median(tp.run), median(un.run))
	for _, p := range profPkgs {
		values["prof."+p+".self_pct"] = shares.pkgSelf(p)
	}
	for _, h := range hotFuncs {
		if h.Cum {
			values[h.Metric] = shares.CumFn[h.Func]
		} else {
			values[h.Metric] = shares.SelfFn[h.Func]
		}
	}
	fmt.Fprintf(log, "%s traced: %d untraced + %d traced passes; spans and profile in %s\n", tag, len(un.run), len(tp.run), outDir)
	fmt.Fprintf(log, "  untraced run_s %s\n  traced run_s   %s\n", describe(un.run), describe(tp.run))
	return []*phase{un, tp}, values, nil
}

// check counts the phases' operations and compares their digests with
// each other and with the recorded digest for key. Any problem fails
// every operation of the run.
func check(key string, phases []*phase, log io.Writer) *result {
	res := &result{Correct: true, Metrics: map[string]metricValue{}}
	var digests []string
	for _, ph := range phases {
		res.Attempted += ph.ops
		res.Failed += ph.failed
		res.problems = append(res.problems, ph.errs...)
		digests = append(digests, ph.digests...)
	}
	if len(digests) == 0 {
		res.problems = append(res.problems, "no pass completed")
	}
	for _, d := range digests {
		if d != digests[0] {
			res.problems = append(res.problems, fmt.Sprintf("passes disagree: digests %v", digests))
			break
		}
	}
	want, recorded := recordedDigests[key]
	if recorded && len(digests) > 0 && digests[0] != want {
		res.problems = append(res.problems, fmt.Sprintf("digest %s, recorded %s for %s", digests[0], want, key))
	}
	if len(res.problems) > 0 {
		res.Correct = false
		res.Failed = res.Attempted
		return res
	}
	state := "matches the recorded digest"
	if !recorded {
		state = "no recorded digest for this seed"
	}
	fmt.Fprintf(log, "  digest %s (%s): %s\n", key, state, digests[0])
	return res
}

// profiledPhase runs an untraced phase under the CPU profiler.
func profiledPhase(w workload, budget time.Duration, path string) (*phase, error) {
	f, err := os.Create(path)
	if err != nil {
		return nil, err
	}
	if err := pprof.StartCPUProfile(f); err != nil {
		f.Close()
		return nil, err
	}
	ph := runPhase(w, budget, nil, false)
	pprof.StopCPUProfile()
	if err := f.Close(); err != nil {
		return nil, err
	}
	return ph, nil
}

// benchDef is the part of BENCHMARK.json the self-test checks.
type benchDef struct {
	Workloads []struct {
		Name string `json:"name"`
	} `json:"workloads"`
	EndToEnd []metricDef `json:"end_to_end"`
	PerLayer []metricDef `json:"per_layer"`
}

// selfTest runs every workload at the tiny size, untraced and traced, on
// seed 0, and checks that each prints every metric BENCHMARK.json names
// with its unit, that its digest matches the recorded one, and that no
// operation failed.
func selfTest(benchPath, outDir string, log io.Writer) error {
	data, err := os.ReadFile(benchPath)
	if err != nil {
		return err
	}
	var def benchDef
	if err := json.Unmarshal(data, &def); err != nil {
		return fmt.Errorf("%s: %w", benchPath, err)
	}
	var listed []string
	for _, wl := range def.Workloads {
		listed = append(listed, wl.Name)
	}
	if strings.Join(listed, ",") != strings.Join(workloadNames(), ",") {
		return fmt.Errorf("%s lists workloads %v, the benchmark runs %v", benchPath, listed, workloadNames())
	}
	var errs []error
	for _, name := range workloadNames() {
		key := digestKey(name, "tiny", 0)
		if _, ok := recordedDigests[key]; !ok {
			errs = append(errs, fmt.Errorf("no recorded digest for %s", key))
		}
		for _, traced := range []bool{false, true} {
			want := def.EndToEnd
			if traced {
				want = def.PerLayer
			}
			res, err := execute(name, "tiny", 0, 0, traced, outDir, log)
			if err != nil {
				errs = append(errs, fmt.Errorf("%s: %w", name, err))
				continue
			}
			if !res.Correct || res.Failed != 0 {
				errs = append(errs, fmt.Errorf("%s (traced=%v): %d of %d operations failed: %s",
					name, traced, res.Failed, res.Attempted, strings.Join(res.problems, "; ")))
			}
			if ff, ok := res.Metrics["failed_frac"]; traced && (!ok || ff.Value != 0) {
				errs = append(errs, fmt.Errorf("%s: failed_frac %v", name, ff.Value))
			}
			errs = append(errs, checkMetrics(name, want, res.Metrics)...)
		}
	}
	return errors.Join(errs...)
}

// checkMetrics reports every metric of want that got is missing or
// reports in another unit, and every metric got has that want lacks.
func checkMetrics(workload string, want []metricDef, got map[string]metricValue) []error {
	var errs []error
	names := map[string]bool{}
	for _, d := range want {
		names[d.Name] = true
		v, ok := got[d.Name]
		switch {
		case !ok:
			errs = append(errs, fmt.Errorf("%s: metric %s not printed", workload, d.Name))
		case v.Unit != d.Unit:
			errs = append(errs, fmt.Errorf("%s: metric %s printed in %q, BENCHMARK.json says %q", workload, d.Name, v.Unit, d.Unit))
		}
	}
	var extra []string
	for n := range got {
		if !names[n] {
			extra = append(extra, n)
		}
	}
	sort.Strings(extra)
	for _, n := range extra {
		errs = append(errs, fmt.Errorf("%s: metric %s printed but not in BENCHMARK.json", workload, n))
	}
	return errs
}
