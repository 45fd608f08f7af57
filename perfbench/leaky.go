package main

import (
	"time"

	"iatsim/internal/bridge"
	"iatsim/internal/core"
	"iatsim/internal/exp"
	"iatsim/internal/sim"
)

// leakyScale is the platform time-compression factor of the Fig. 8 setup.
const leakyScale = 100

// leakyDMA is the Leaky DMA path: two line-rate 1.5 KB NICs DMA into the
// DDIO ways through OVS to two testpmd containers, under the IAT daemon
// with the Fig. 8 parameters. One pass builds the scenario setupReps
// times (each timed; the last is kept), steps warmSteps epochs untimed so
// the modelled caches fill and the daemon settles, then times runSteps
// Platform.Step calls of 1 simulated ms each.
type leakyDMA struct {
	seed      int64
	setupReps int
	warmSteps int
	runSteps  int
}

func (w *leakyDMA) opsPerPass() int { return w.runSteps }

// tickTimer registers the daemon on the platform through a
// sim.ControllerFunc and, when on, times every Tick.
type tickTimer struct {
	d     *core.Daemon
	on    bool
	start time.Time
	dur   time.Duration
}

func (t *tickTimer) tick(nowNS float64) {
	if !t.on {
		t.d.Tick(nowNS)
		return
	}
	t.start = time.Now()
	t.d.Tick(nowNS)
	t.dur = time.Since(t.start)
}

func (w *leakyDMA) build() (*exp.LeakyScenario, *tickTimer, error) {
	s := exp.NewLeakyScenario(exp.LeakyOpts{Scale: leakyScale, PktSize: 1500, Seed: w.seed})
	params := core.DefaultParams()
	params.IntervalNS = 0.2e9
	// The miss-rate threshold is a real-time rate; Scale shrinks every
	// simulated rate by the same factor (as in exp's Fig. 8 runner).
	params.ThresholdMissLowPerSec /= leakyScale
	d, err := core.NewDaemon(bridge.NewSystem(s.P), params, core.Options{})
	if err != nil {
		return nil, nil, err
	}
	tt := &tickTimer{d: d}
	s.P.AddController(sim.ControllerFunc(tt.tick))
	return s, tt, nil
}

func (w *leakyDMA) pass(ph *phase, tr *tracer) error {
	root := tr.begin("leaky-dma.pass", -1)
	defer tr.finish(root)

	var s *exp.LeakyScenario
	var tt *tickTimer
	var mark uint64
	for i := 0; i < w.setupReps; i++ {
		mark = allocMark()
		t0 := time.Now()
		var err error
		s, tt, err = w.build()
		if err != nil {
			return err
		}
		d := time.Since(t0)
		ph.setup = append(ph.setup, d.Seconds())
		tr.add("setup", root, t0, d)
	}

	var ovs, testpmd time.Duration
	if tr != nil {
		wrapWorkers(s.P, func(tenant string) *time.Duration {
			if tenant == "ovs" {
				return &ovs
			}
			return &testpmd
		})
	}
	warm := tr.begin("warmup", root)
	for i := 0; i < w.warmSteps; i++ {
		s.P.Step()
	}
	tr.finish(warm)

	d := tt.d
	a, ddA, pktsA := exp.Snap(s.P), s.P.RDT.ReadDDIO(), s.OVSPackets()
	itersA, _ := d.Iterations()
	lastIters := itersA
	tt.on = tr != nil
	var workerNS float64
	epochMS := s.P.Cfg.EpochNS / 1e6
	runSpan := tr.begin("run", root)
	runStart := time.Now()
	for i := 0; i < w.runSteps; i++ {
		ovs, testpmd = 0, 0
		t0 := time.Now()
		s.P.Step()
		dt := time.Since(t0)
		ph.step = append(ph.step, float64(dt)/1e3/epochMS)
		if tr == nil {
			continue
		}
		st := tr.add("sim.Step", runSpan, t0, dt)
		tr.add("core.Tick", st, tt.start, tt.dur)
		tr.addAgg("workload.ovs", st, t0, ovs)
		tr.addAgg("workload.testpmd", st, t0, testpmd)
		ph.sample("sim.step_self_us", us(dt-tt.dur-ovs-testpmd))
		ph.sample("workload.ovs_us", us(ovs))
		ph.sample("workload.testpmd_us", us(testpmd))
		ph.sample("core.tick_us", us(tt.dur))
		workerNS += float64(ovs + testpmd)
		if it, _ := d.Iterations(); it != lastIters {
			lastIters = it
			tm := d.Timings()
			ph.sample("core.poll_us", us(tm.Poll))
			ph.sample("core.transition_us", us(tm.Transition))
			ph.sample("core.realloc_us", us(tm.Realloc))
		}
	}
	run := time.Since(runStart)
	tr.finish(runSpan)
	tt.on = false

	b, ddB, pktsB := exp.Snap(s.P), s.P.RDT.ReadDDIO(), s.OVSPackets()
	itersB, _ := d.Iterations()
	ph.alloc = append(ph.alloc, allocSince(mark))
	ph.run = append(ph.run, run.Seconds())
	ph.simMS += float64(w.runSteps) * epochMS

	dg := newDigester()
	dg.add("snapA", a)
	dg.add("snapB", b)
	dg.add("ddioA", ddA)
	dg.add("ddioB", ddB)
	dg.add("ovsPackets", []uint64{pktsA, pktsB})
	dg.add("daemon", []any{d.State().String(), d.DDIOWays(), uint32(s.P.RDT.DDIOMask()), itersB})
	ph.digests = append(ph.digests, dg.sum())

	var refs, misses uint64
	for c := range b.Refs {
		refs += b.Refs[c] - a.Refs[c]
		misses += b.Miss[c] - a.Miss[c]
	}
	dd := ddB.Sub(ddA)
	ph.counts["cache.llc_refs"] = float64(refs)
	ph.counts["cache.llc_misses"] = float64(misses)
	ph.counts["ddio.hits"] = float64(dd.Hits)
	ph.counts["ddio.misses"] = float64(dd.Misses)
	ph.counts["mem.read_gb"] = float64(b.Mem.BytesRead-a.Mem.BytesRead) / 1e9
	ph.counts["mem.write_gb"] = float64(b.Mem.BytesWritten-a.Mem.BytesWritten) / 1e9
	ph.counts["workload.ovs_packets"] = float64(pktsB - pktsA)
	ph.counts["core.iterations"] = float64(itersB - itersA)
	ph.counts["worker_ns"] = workerNS
	return nil
}

func (w *leakyDMA) layers(un, tp *phase, m map[string]float64) {
	for _, k := range []string{"sim.step_self_us", "workload.ovs_us", "workload.testpmd_us",
		"core.poll_us", "core.transition_us", "core.realloc_us"} {
		m[k] = median(tp.samples[k])
	}
	m["core.tick_p50_us"] = percentile(tp.samples["core.tick_us"], 50)
	m["core.tick_p99_us"] = percentile(tp.samples["core.tick_us"], 99)
	for _, k := range []string{"cache.llc_refs", "cache.llc_misses", "ddio.hits", "ddio.misses",
		"mem.read_gb", "mem.write_gb", "workload.ovs_packets", "core.iterations"} {
		m[k] = tp.counts[k]
	}
	m["ddio.hit_ratio"] = ratio(tp.counts["ddio.hits"], tp.counts["ddio.hits"]+tp.counts["ddio.misses"])
	m["sim.ns_per_pkt"] = ratio(median(un.run)*1e9, un.counts["workload.ovs_packets"])
	m["cache.ns_per_llc_ref"] = ratio(tp.counts["worker_ns"], tp.counts["cache.llc_refs"])
}

func us(d time.Duration) float64 { return float64(d) / 1e3 }
