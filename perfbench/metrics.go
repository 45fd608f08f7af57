package main

// metricDef is one metric the benchmark reports. The table below is the
// single source of the names and units; BENCHMARK.json at the repository
// root lists the same names, and the self-test (-selftest) fails when the
// two disagree or a run omits one.
type metricDef struct {
	Name string
	Unit string
}

// endToEnd are the metrics of an untraced run (-trace 0), reported on
// every workload. Host time throughout: simulated time appears only as
// the numerator of sim_ms_per_s.
var endToEnd = []metricDef{
	{"setup_s", "s"},
	{"run_s", "s"},
	{"sim_ms_per_s", "ms/s"},
	{"step_p50_us", "us"},
	{"step_p99_us", "us"},
	{"alloc_mb", "MB"},
	{"heap_peak_mb", "MB"},
}

// profPkgs are the packages the CPU profile is reduced to, in report
// order. "runtime" also collects runtime/... and internal/runtime/...;
// every other name is iatsim/internal/<name>.
var profPkgs = []string{
	"cache", "ddio", "nic", "sim", "workload", "rdt", "msr", "mem",
	"core", "policy", "telemetry", "ckpt", "fleet", "harness", "runtime",
}

// hotFuncs are the single functions the profile reports, by metric name:
// self time of the three tag-lookup/fill leaves, and the cumulative share
// of the DMA write entry point.
var hotFuncs = []struct {
	Metric string
	Func   string
	Cum    bool
}{
	{"prof.cache.llc_probe_pct", "iatsim/internal/cache.(*LLC).probe", false},
	{"prof.cache.private_probe_pct", "iatsim/internal/cache.(*private).probe", false},
	{"prof.cache.private_fill_pct", "iatsim/internal/cache.(*private).fill", false},
	{"prof.cache.iowrite_cum_pct", "iatsim/internal/cache.(*LLC).IOWrite", true},
}

// perLayer are the metrics of a traced run (-trace 1). A metric whose
// layer a workload does not reach reads 0 there (see README.md).
var perLayer = buildPerLayer()

func buildPerLayer() []metricDef {
	defs := []metricDef{
		{"trace.run_s", "s"},
		{"trace.overhead_ratio", "ratio"},
		{"ops", "count"},
		{"failed_frac", "ratio"},
		{"sim.step_self_us", "us"},
		{"workload.ovs_us", "us"},
		{"workload.testpmd_us", "us"},
		{"core.tick_p50_us", "us"},
		{"core.tick_p99_us", "us"},
		{"core.poll_us", "us"},
		{"core.transition_us", "us"},
		{"core.realloc_us", "us"},
		{"core.iterations", "count"},
		{"exp.runappmix_s", "s"},
		{"fleet.build_s", "s"},
		{"fleet.pool_s", "s"},
		{"fleet.control_s", "s"},
		{"fleet.host_step_p50_ms", "ms"},
		{"fleet.host_step_p95_ms", "ms"},
		{"harness.pool_util", "ratio"},
		{"cache.llc_refs", "count"},
		{"cache.llc_misses", "count"},
		{"ddio.hits", "count"},
		{"ddio.misses", "count"},
		{"ddio.hit_ratio", "ratio"},
		{"mem.read_gb", "GB"},
		{"mem.write_gb", "GB"},
		{"workload.ovs_packets", "count"},
		{"fleet.faults", "count"},
		{"fleet.hosts_down_rounds", "count"},
		{"ckpt.writes", "count"},
		{"ckpt.restores", "count"},
		{"sim.ns_per_pkt", "ns"},
		{"cache.ns_per_llc_ref", "ns"},
	}
	for _, p := range profPkgs {
		defs = append(defs, metricDef{"prof." + p + ".self_pct", "%"})
	}
	for _, h := range hotFuncs {
		defs = append(defs, metricDef{h.Metric, "%"})
	}
	return defs
}
