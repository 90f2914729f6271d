package main

import "fmt"

// metricDef names one metric the benchmark reports and its unit. The
// lists below are the ones BENCHMARK.json declares; every run reports
// every metric of its list.
type metricDef struct{ name, unit string }

var endToEnd = []metricDef{
	{"setup_s", "s"},
	{"lat_p50_ms", "ms"},
	{"lat_p95_ms", "ms"},
	{"slo_ok_ratio", "ratio"},
	{"rss_peak_mb", "MB"},
}

// simLayers are measured in process by paper-suite's traced run.
var simLayers = []metricDef{
	{"m68k.sisd_mips", "MIPS"},
	{"pasm.simd_mips", "MIPS"},
	{"pasm.mimd_mips", "MIPS"},
	{"pasm.smimd_mips", "MIPS"},
	{"pasm.memo_hit_ratio", "ratio"},
	{"matmul.build_ms", "ms"},
	{"experiments.cell_ms", "ms"},
	{"experiments.pass_alloc_mb", "MB"},
	{"experiments.pass_gc_count", "count"},
	{"sim.fig7_crossover_muls", "muls"},
}

// serveLayers are measured by the serve workloads' traced runs.
var serveLayers = []metricDef{
	{"service.submit_ms", "ms"},
	{"service.queue_wait_p50_ms", "ms"},
	{"service.queue_wait_p95_ms", "ms"},
	{"service.run_p50_ms", "ms"},
	{"service.sched_promoted", "count"},
	{"service.cache_hit_ratio", "ratio"},
	{"service.coalesced_ratio", "ratio"},
	{"service.rejected_ratio", "ratio"},
	{"cache.hit_rtt_p50_ms", "ms"},
	{"cache.hit_rtt_p95_ms", "ms"},
	{"http.result_ms", "ms"},
	{"gen.late_p95_ms", "ms"},
	{"gen.detect_lag_p95_ms", "ms"},
}

// partitionLayerDefs exist only in pasmd's partition mode.
var partitionLayerDefs = []metricDef{
	{"partition.wait_p95_ms", "ms"},
	{"partition.util_pct", "%"},
	{"partition.busy_pes_peak", "count"},
	{"partition.jobs_concurrent_peak", "count"},
}

// every traced run measures the tracing overhead.
var traceLayers = []metricDef{{"trace.overhead_ratio", "ratio"}}

func perLayer() []metricDef {
	var all []metricDef
	all = append(all, simLayers...)
	all = append(all, serveLayers...)
	all = append(all, partitionLayerDefs...)
	return append(all, traceLayers...)
}

// fillAbsent reports every metric of defs the run did not measure as
// absent, with the reason.
func (o *outcome) fillAbsent(defs []metricDef, why string) {
	have := map[string]bool{}
	for _, m := range o.metrics {
		have[m.Name] = true
	}
	for _, d := range defs {
		if !have[d.name] {
			o.absent(d.name, d.unit, why)
		}
	}
}

// check verifies that the run reports exactly the metrics of defs,
// each once and with its declared unit.
func (o *outcome) check(defs []metricDef) error {
	unit := map[string]string{}
	for _, d := range defs {
		unit[d.name] = d.unit
	}
	seen := map[string]bool{}
	for _, m := range o.metrics {
		u, ok := unit[m.Name]
		switch {
		case !ok:
			return fmt.Errorf("metric %s is not declared", m.Name)
		case seen[m.Name]:
			return fmt.Errorf("metric %s reported twice", m.Name)
		case u != m.Unit:
			return fmt.Errorf("metric %s has unit %s, declared %s", m.Name, m.Unit, u)
		}
		seen[m.Name] = true
	}
	if len(seen) != len(defs) {
		return fmt.Errorf("run reports %d of %d declared metrics", len(seen), len(defs))
	}
	return nil
}
