package main

import (
	"runtime"
	"time"
)

// perLayer lists every per-layer metric of the traced run with its
// unit, in report order. Every workload reports all of them; a layer a
// workload does not exercise reads 0 there (README.md says which
// workload each one applies to and which end-to-end metric it moves).
var perLayer = []struct{ name, unit string }{
	{"workload.parse_ms", "ms"},
	{"engine.load_s", "s"},
	{"engine.analyze_ms", "ms"},
	{"engine.restore_ms", "ms"},
	{"engine.select_us_p50", "us"},
	{"engine.select_us_p99", "us"},
	{"engine.dml_us_p50", "us"},
	{"engine.dml_us_p99", "us"},
	{"engine.pages_per_select", "pages"},
	{"engine.pages_per_dml", "pages"},
	{"engine.us_per_page", "us"},
	{"engine.ddl_ms", "ms"},
	{"engine.ddl_pages", "pages"},
	{"candidates.gen_ms", "ms"},
	{"candidates.count", "count"},
	{"advisor.new_ms", "ms"},
	{"advisor.problem_ms", "ms"},
	{"advisor.configs", "count"},
	{"advisor.memo_lookups", "count"},
	{"advisor.memo_hit_rate", "ratio"},
	{"advisor.render_ms", "ms"},
	{"cost.whatif_calls", "count"},
	{"cost.plan_table_builds", "count"},
	{"cost.plan_table_bytes", "bytes"},
	{"cost.batched_lookups", "count"},
	{"core.solve_cold_ms", "ms"},
	{"core.solve_warm_ms", "ms"},
	{"core.matrix_ms", "ms"},
	{"core.matrix_build_ms", "ms"},
	{"core.matrix_builds", "count"},
	{"core.matrix_reuses", "count"},
	{"core.exec_stage_p99_us", "us"},
	{"core.exec_stage_max_us", "us"},
	{"explain.attrib_ms", "ms"},
	{"durable.append_us_p50", "us"},
	{"durable.append_us_p99", "us"},
	{"durable.fsyncs_per_stmt", "ratio"},
	{"alerter.observe_us_p50", "us"},
	{"alerter.observe_us_p99", "us"},
	{"alerter.alerts", "count"},
	{"calib.replay_ms", "ms"},
	{"advisord.ingest_server_p50_ms", "ms"},
	{"advisord.ingest_server_p99_ms", "ms"},
	{"advisord.http_overhead_ms", "ms"},
	{"advisord.solves", "count"},
	{"advisord.solve_ms_p50", "ms"},
	{"advisord.publish_gap_ms", "ms"},
	{"loadgen.late_p99_ms", "ms"},
	{"loadgen.late_max_ms", "ms"},
	{"go.alloc_mb_per_op", "MB"},
	{"go.gc_pause_ms", "ms"},
	{"go.heap_peak_mb", "MB"},
	{"trace.coverage", "ratio"},
	{"trace.unattributed_ms", "ms"},
	{"obs.trace_overhead_frac", "ratio"},
	{"self.workload_ms", "ms"},
	{"self.engine_ms", "ms"},
	{"self.candidates_ms", "ms"},
	{"self.advisor_ms", "ms"},
	{"self.cost_ms", "ms"},
	{"self.core_ms", "ms"},
	{"self.explain_ms", "ms"},
	{"self.durable_ms", "ms"},
	{"self.alerter_ms", "ms"},
	{"self.calib_ms", "ms"},
	{"self.bench_ms", "ms"},
}

// selfLayers are the layers whose self time per operation is reported
// as self.<layer>_ms.
var selfLayers = []string{
	"workload", "engine", "candidates", "advisor", "cost", "core",
	"explain", "durable", "alerter", "calib", "bench",
}

// reportLayers writes every per-layer metric: the measured values in
// got, 0 for the layers this workload leaves idle.
func reportLayers(res *result, got map[string]float64) {
	for _, m := range perLayer {
		res.set(m.name, m.unit, got[m.name])
	}
}

// addTrace folds a trace summary into the per-layer values: self time
// per layer and operation, coverage, and the unattributed remainder.
func addTrace(got map[string]float64, sum traceSummary) {
	if sum.ops == 0 {
		return
	}
	for _, l := range selfLayers {
		got["self."+l+"_ms"] = ms(sum.self[l]) / float64(sum.ops)
	}
	got["trace.coverage"] = sum.coverage()
	got["trace.unattributed_ms"] = ms(sum.unattrib) / float64(sum.ops)
}

// goStats samples the Go runtime around measured operations: bytes
// allocated and GC pause time accumulated inside them, and the largest
// live heap seen at an operation boundary.
type goStats struct {
	ops       int
	allocated uint64
	pause     time.Duration
	heapPeak  uint64
	before    runtime.MemStats
}

// start reads the runtime counters before an operation (outside its
// timed window: ReadMemStats stops the world briefly).
func (g *goStats) start() { runtime.ReadMemStats(&g.before) }

// stop accumulates the operation's share of the counters.
func (g *goStats) stop() {
	var after runtime.MemStats
	runtime.ReadMemStats(&after)
	g.ops++
	g.allocated += after.TotalAlloc - g.before.TotalAlloc
	g.pause += time.Duration(after.PauseTotalNs - g.before.PauseTotalNs)
	if after.HeapAlloc > g.heapPeak {
		g.heapPeak = after.HeapAlloc
	}
}

func (g *goStats) report(got map[string]float64) {
	if g.ops == 0 {
		return
	}
	got["go.alloc_mb_per_op"] = float64(g.allocated) / (1 << 20) / float64(g.ops)
	got["go.gc_pause_ms"] = ms(g.pause) / float64(g.ops)
	got["go.heap_peak_mb"] = float64(g.heapPeak) / (1 << 20)
}
