package main

import (
	"fmt"
	"time"

	"iatsim/internal/exp"
	"iatsim/internal/faults"
	"iatsim/internal/fleet"
	"iatsim/internal/harness"
)

// fleetStorm is the fleet and control plane on top of the Leaky DMA path:
// BuildFleet assembles the hosts (timed as set-up), then fleet.Run steps
// them in lockstep rounds on the harness pool under a canary rollout, a
// heavy fault storm on the canary cohort, per-round checkpoints and three
// shadow policies. One operation is one host-round step job.
type fleetStorm struct {
	opts    exp.FleetOpts
	workers int
}

func (w *fleetStorm) opsPerPass() int { return w.opts.Hosts * w.opts.Rounds }

// storm mirrors the storm exp's fleet runner arms: the canary cohort,
// from the plan's start round through its bake window.
func (w *fleetStorm) storm(plan fleet.Plan) (*fleet.Storm, error) {
	prof, err := faults.ProfileByName("heavy")
	if err != nil {
		return nil, err
	}
	start, bake := plan.StartRound, plan.BakeRounds
	if start == 0 {
		start = 2
	}
	if bake == 0 {
		bake = 2
	}
	return &fleet.Storm{Profile: prof, Seed: w.opts.StormSeed, Target: fleet.CohortCanary, StartRound: start, Rounds: bake + 1}, nil
}

func (w *fleetStorm) pass(ph *phase, tr *tracer) error {
	root := tr.begin("fleet-storm.pass", -1)
	defer tr.finish(root)
	plan, err := exp.FleetPlan(w.opts)
	if err != nil {
		return err
	}
	storm, err := w.storm(plan)
	if err != nil {
		return err
	}

	mark := allocMark()
	t0 := time.Now()
	hosts, err := exp.BuildFleet(w.opts)
	build := time.Since(t0)
	if err != nil {
		return err
	}
	ph.setup = append(ph.setup, build.Seconds())
	tr.add("exp.BuildFleet", root, t0, build)

	man := harness.NewManifest(harness.RunOptions{
		Jobs: w.workers, Seed: w.opts.Seed, Chaos: "heavy", ChaosSeed: w.opts.StormSeed, CheckpointEvery: 1,
	})
	simA := fleetSimMS(hosts)
	t1 := time.Now()
	rep, err := fleet.Run(fleet.Config{
		Hosts: hosts, Rounds: w.opts.Rounds, RoundNS: w.opts.RoundNS, Workers: w.workers,
		Plan: plan, Storm: storm, CheckpointEvery: w.opts.CheckpointEvery, Manifest: man,
	})
	run := time.Since(t1)
	if err != nil {
		return err
	}
	ph.alloc = append(ph.alloc, allocSince(mark))
	if man.Failures > 0 {
		return fmt.Errorf("fleet: %d failed step jobs", man.Failures)
	}
	runSpan := tr.add("fleet.Run", root, t1, run)
	pool := time.Duration(man.WallMS * float64(time.Millisecond))
	tr.addAgg("harness.pool", runSpan, t1, pool)

	ph.run = append(ph.run, run.Seconds())
	ph.simMS += fleetSimMS(hosts) - simA
	epochsPerRound := w.opts.RoundNS / hosts[0].P.Cfg.EpochNS
	var jobMS float64
	for _, j := range man.Jobs {
		jobMS += j.WallMS
		if obs, ok := j.Row.(fleet.HostObs); ok && obs.Down {
			continue // a crash-down host does not step
		}
		ph.step = append(ph.step, j.WallMS*1e3/epochsPerRound)
		ph.sample("fleet.host_step_ms", j.WallMS)
	}
	ph.sample("fleet.build_s", build.Seconds())
	ph.sample("fleet.pool_s", pool.Seconds())
	ph.sample("fleet.control_s", (run - pool).Seconds())
	ph.sample("harness.pool_util", ratio(jobMS, man.WallMS*float64(w.workers)))

	merged, err := exp.MergeFleetTelemetry(hosts)
	if err != nil {
		return err
	}
	var faultsN, downRounds uint64
	for _, r := range rep.Rows {
		faultsN += r.Faults
		downRounds += uint64(r.HostsDown)
	}
	var refs, misses, ddioHits, ddioMisses, memRead, memWrite, iters uint64
	for _, h := range hosts {
		s := exp.Snap(h.P)
		for c := range s.Refs {
			refs += s.Refs[c]
			misses += s.Miss[c]
		}
		// Straight from the LLC, as the fleet's own observations read them:
		// the MSR path is where hosts' fault injectors corrupt reads.
		ddioHits += s.LLC.DDIOHits
		ddioMisses += s.LLC.DDIOMisses
		memRead += s.Mem.BytesRead
		memWrite += s.Mem.BytesWritten
		it, _ := h.Daemon.Iterations()
		iters += it
	}
	c := ph.counts
	c["fleet.faults"] = float64(faultsN)
	c["fleet.hosts_down_rounds"] = float64(downRounds)
	c["cache.llc_refs"] = float64(refs)
	c["cache.llc_misses"] = float64(misses)
	c["ddio.hits"] = float64(ddioHits)
	c["ddio.misses"] = float64(ddioMisses)
	c["mem.read_gb"] = float64(memRead) / 1e9
	c["mem.write_gb"] = float64(memWrite) / 1e9
	c["core.iterations"] = float64(iters)
	for _, mt := range merged.Metrics {
		if mt.Subsystem == "ckpt" && (mt.Name == "writes" || mt.Name == "restores") {
			c["ckpt."+mt.Name] = float64(mt.Counter)
		}
	}

	dg := newDigester()
	dg.add("rows", rep.Rows)
	dg.add("final", []any{rep.FinalOnNew, rep.RolledBack})
	dg.add("counts", []uint64{refs, misses, ddioHits, ddioMisses, memRead, memWrite, iters})
	if err := dg.addJSON("telemetry", merged); err != nil {
		return err
	}
	ph.digests = append(ph.digests, dg.sum())
	return nil
}

// fleetSimMS sums the hosts' simulated clocks, in ms.
func fleetSimMS(hosts []*fleet.Host) float64 {
	var t float64
	for _, h := range hosts {
		t += h.P.NowNS() / 1e6
	}
	return t
}

func (w *fleetStorm) layers(un, tp *phase, m map[string]float64) {
	for _, k := range []string{"fleet.build_s", "fleet.pool_s", "fleet.control_s", "harness.pool_util"} {
		m[k] = median(tp.samples[k])
	}
	m["fleet.host_step_p50_ms"] = percentile(tp.samples["fleet.host_step_ms"], 50)
	m["fleet.host_step_p95_ms"] = percentile(tp.samples["fleet.host_step_ms"], 95)
	for _, k := range []string{"fleet.faults", "fleet.hosts_down_rounds", "ckpt.writes", "ckpt.restores",
		"cache.llc_refs", "cache.llc_misses", "ddio.hits", "ddio.misses", "mem.read_gb", "mem.write_gb",
		"core.iterations"} {
		m[k] = tp.counts[k]
	}
	m["ddio.hit_ratio"] = ratio(tp.counts["ddio.hits"], tp.counts["ddio.hits"]+tp.counts["ddio.misses"])
}
