package main

import (
	"runtime"
	"sort"
	"time"

	"iatsim/internal/exp"
	"iatsim/internal/sim"
	"iatsim/internal/ycsb"
)

// appMixWarmMS is the simulated warm-up RunAppMix runs before it arms the
// application's completion target; the co-run's simulated length is this
// plus the measured execution time.
const appMixWarmMS = 1500

// appMix is the Latent Contender path of Figs. 12/13: one RunAppMix
// co-run (Redis over OVS beside RocksDB YCSB-A placed on the DDIO ways,
// under IAT) per operation. RunAppMix builds and warms its platform
// inside the call, as every user of it pays, so both stay in run_s. The
// set-up metric times setupReps calls of the platform constructor the
// co-run starts with, sim.NewPlatform(sim.XeonGold6140(Scale)), so a
// construction regression still shows on this workload.
type appMix struct {
	opts      exp.AppMixOpts
	setupReps int
}

func (w *appMix) opsPerPass() int { return 1 }

func (w *appMix) pass(ph *phase, tr *tracer) error {
	root := tr.begin("appmix.op", -1)
	defer tr.finish(root)
	for i := 0; i < w.setupReps; i++ {
		allocMark()
		t0 := time.Now()
		p := sim.NewPlatform(sim.XeonGold6140(w.opts.Scale))
		d := time.Since(t0)
		runtime.KeepAlive(p)
		ph.setup = append(ph.setup, d.Seconds())
		tr.add("sim.NewPlatform", root, t0, d)
	}

	mark := allocMark()
	t0 := time.Now()
	res := exp.RunAppMix(w.opts)
	run := time.Since(t0)
	tr.add("exp.RunAppMix", root, t0, run)
	ph.alloc = append(ph.alloc, allocSince(mark))

	execNS := res.ExecNS
	if execNS == 0 { // did not finish: the co-run ran to MaxNS
		execNS = w.opts.MaxNS
	}
	simMS := appMixWarmMS + execNS/1e6
	ph.run = append(ph.run, run.Seconds())
	ph.simMS += simMS
	ph.step = append(ph.step, run.Seconds()*1e6/simMS)
	ph.sample("exp.runappmix_s", run.Seconds())
	ph.digests = append(ph.digests, appMixDigest(res))
	return nil
}

// appMixDigest hashes every AppMixResult field; each RocksDB histogram
// contributes its count, mean, max and a ladder of percentiles.
func appMixDigest(r exp.AppMixResult) string {
	dg := newDigester()
	dg.add("exec", r.ExecNS)
	dg.add("redis", []float64{r.RedisOpsPS, r.RedisMeanNS, r.RedisP99NS})
	dg.add("nf", []float64{r.NFPPS, r.NFMaxLatNS, r.NFJitterNS})
	ops := make([]ycsb.Op, 0, len(r.RocksHists))
	for op := range r.RocksHists {
		ops = append(ops, op)
	}
	sort.Slice(ops, func(i, j int) bool { return ops[i] < ops[j] })
	for _, op := range ops {
		h := r.RocksHists[op]
		v := []float64{float64(h.Count()), h.Mean(), h.Max()}
		for _, p := range []float64{1, 10, 25, 50, 75, 90, 95, 99, 99.9, 99.99} {
			v = append(v, h.Percentile(p))
		}
		dg.add("rocks."+op.String(), v)
	}
	return dg.sum()
}

func (w *appMix) layers(un, tp *phase, m map[string]float64) {
	m["exp.runappmix_s"] = median(tp.samples["exp.runappmix_s"])
}
