package main

import (
	"bytes"
	"context"
	"fmt"
	"math/rand"
	"runtime"
	"runtime/debug"
	"slices"
	"strings"
	"time"

	"dyndesign/internal/advisor"
	"dyndesign/internal/core"
	"dyndesign/internal/engine"
	"dyndesign/internal/experiments"
	"dyndesign/internal/workload"
)

// setupRepeats is how many times a run builds its table; setup_s is the
// median, so one slow build does not move the metric.
const setupRepeats = 9

// tableScript returns the statements that create and fill the paper's
// table t(a,b,c,d) with rows uniform rows over the paper's domain for
// that row count, drawn from seed.
func tableScript(rows, seed int64) []string {
	domain := workload.DomainForRows(rows)
	rng := rand.New(rand.NewSource(seed))
	out := []string{"CREATE TABLE t (a INT, b INT, c INT, d INT)"}
	const batch = 500
	var sb strings.Builder
	for loaded := int64(0); loaded < rows; loaded += batch {
		sb.Reset()
		sb.WriteString("INSERT INTO t VALUES ")
		for i := int64(0); i < batch && loaded+i < rows; i++ {
			if i > 0 {
				sb.WriteString(", ")
			}
			fmt.Fprintf(&sb, "(%d, %d, %d, %d)",
				rng.Int63n(domain), rng.Int63n(domain), rng.Int63n(domain), rng.Int63n(domain))
		}
		out = append(out, sb.String())
	}
	return out
}

// loadTable executes a table script and analyzes the table, timing the
// two steps.
func loadTable(r *recorder, script []string) (db *engine.Database, load, analyze time.Duration, err error) {
	start := time.Now()
	end := r.begin("engine.Exec")
	db = engine.New()
	for _, s := range script {
		if _, err = db.Exec(s); err != nil {
			end()
			return nil, 0, 0, fmt.Errorf("loading table: %w", err)
		}
	}
	end()
	load = time.Since(start)
	start = time.Now()
	end = r.begin("engine.Analyze")
	err = db.Analyze("t")
	end()
	analyze = time.Since(start)
	return db, load, analyze, err
}

// tableBuilds times the builds of a run's table: one before the
// measurement, whose database the run uses, and the rest spread evenly
// over the measurement, between operations. A build takes 0.08–0.5 s,
// and on a shared machine a one-second window can run half again as fast
// or slow as the next, so builds made back to back before the
// measurement sampled one moment of the machine and setup_s spread 0.2
// across runs; spread out, they sample it like every other timing.
type tableBuilds struct {
	script []string
	// extra runs after each build and its time counts as set-up too.
	extra                   func(*engine.Database) error
	start                   time.Time     // when the measurement began
	period                  time.Duration // between spread builds
	totals, loads, analyzes []float64
}

// setupTable builds the table once from the run's seed and returns the
// database and the builder that times the remaining builds over a
// measurement of the given length.
func setupTable(cfg config, r *recorder, rows int64, measure float64,
	extra func(*engine.Database) error) (*engine.Database, *tableBuilds, error) {
	b := &tableBuilds{script: tableScript(rows, cfg.seed), extra: extra,
		period: time.Duration(measure * float64(time.Second) / setupRepeats)}
	db, err := b.build(r)
	b.start = time.Now()
	return db, b, err
}

// build makes one timed build of the table.
func (b *tableBuilds) build(r *recorder) (*engine.Database, error) {
	endSetup := r.begin("setup")
	start := time.Now()
	db, load, analyze, err := loadTable(r, b.script)
	if err == nil && b.extra != nil {
		err = b.extra(db)
	}
	endSetup()
	if err != nil {
		return nil, err
	}
	b.totals = append(b.totals, time.Since(start).Seconds())
	b.loads = append(b.loads, load.Seconds())
	b.analyzes = append(b.analyzes, ms(analyze))
	// Collect outside the timed window, so the peak resident set and the
	// next timing do not depend on when the collector happened to run.
	runtime.GC()
	return db, nil
}

// due makes the builds whose turn has come; the run calls it between
// operations.
func (b *tableBuilds) due(r *recorder) error {
	for len(b.totals) < setupRepeats && time.Since(b.start) >= time.Duration(len(b.totals))*b.period {
		// Start from the live heap alone, as the first build did, and hand
		// the operations' freed pages back to the system, so a build in the
		// middle of the run does not raise the peak resident set above
		// what the operations and the first build reach.
		debug.FreeOSMemory()
		if _, err := b.build(r); err != nil {
			return err
		}
	}
	return nil
}

// report makes any builds still missing and reports the median build as
// setup_s.
func (b *tableBuilds) report(res *result, got map[string]float64) error {
	for len(b.totals) < setupRepeats {
		if _, err := b.build(nil); err != nil {
			return err
		}
	}
	res.set("setup_s", "s", median(b.totals))
	got["engine.load_s"] = median(b.loads)
	got["engine.analyze_ms"] = median(b.analyzes)
	res.note("setup: %d builds spread over the run, median %.3f s (range %.3f–%.3f s)",
		len(b.totals), median(b.totals), slices.Min(b.totals), slices.Max(b.totals))
	return nil
}

// oneShot is one recommendation produced by the one-shot path.
type oneShot struct {
	adv      *advisor.Advisor
	w        *workload.Workload
	rec      *advisor.Recommendation
	rendered string
	wall     time.Duration // the whole path, trace text in → rendered out
	solve    time.Duration // the RecommendContext call alone
}

// recommendOnce runs the one-shot path as a user does: trace JSON text
// in, parsed by workload.ReadJSON; a design space (fixed, or derived
// from the trace by candidates.FromWorkload); advisor.New over the
// analyzed table; RecommendContext; attribution-only Explain; and
// Recommendation.Render.
func recommendOnce(ctx context.Context, r *recorder, db *engine.Database, text []byte,
	space func(*recorder, *workload.Workload) advisor.DesignSpace, opts advisor.Options) (*oneShot, error) {
	start := time.Now()
	end := r.begin("workload.ReadJSON")
	w, err := workload.ReadJSON(bytes.NewReader(text))
	end()
	if err != nil {
		return nil, err
	}
	ds := space(r, w)
	end = r.begin("advisor.New")
	adv, err := advisor.New(db, ds)
	end()
	if err != nil {
		return nil, err
	}
	opts.Tracer = r.tracer()
	solveStart := time.Now()
	end = r.begin("advisor.RecommendContext")
	rec, err := adv.RecommendContext(ctx, w, opts)
	end()
	solve := time.Since(solveStart)
	if err != nil {
		return nil, err
	}
	end = r.begin("explain.Explain")
	_, err = adv.Explain(ctx, rec, advisor.ExplainOptions{KSweepDelta: -1, AuditTrials: -1})
	end()
	if err != nil {
		return nil, err
	}
	var out strings.Builder
	end = r.begin("advisor.Render")
	rec.Render(&out)
	end()
	return &oneShot{adv: adv, w: w, rec: rec, rendered: out.String(), wall: time.Since(start), solve: solve}, nil
}

// checkRecommendation verifies a solved recommendation against its own
// problem: feasible under k and the space bound, and its reported cost
// matching a re-evaluation of its design sequence.
func checkRecommendation(res *result, o *oneShot) {
	res.check(o.rec.Solution != nil, "recommendation has no solution")
	if o.rec.Solution == nil {
		return
	}
	if err := o.rec.Problem.CheckSolution(o.rec.Solution); err != nil {
		res.check(false, "CheckSolution: %v", err)
	}
	res.check(strings.Contains(o.rendered, "design"), "rendered recommendation lacks its design")
	res.check(o.rec.Explanation != nil, "recommendation carries no explanation")
}

// probeSolve times core.Solve on a freshly assembled problem (cold: the
// cost tables are built) and again on the same problem (warm: the
// solve cache serves the tables, so only the DP runs).
func probeSolve(ctx context.Context, o *oneShot, opts advisor.Options) (cold, warm, buildWall time.Duration, err error) {
	opts.Tracer = nil
	p, _, err := o.adv.Problem(o.w, opts)
	if err != nil {
		return 0, 0, 0, err
	}
	start := time.Now()
	if _, err := core.Solve(ctx, p, core.StrategyKAware); err != nil {
		return 0, 0, 0, err
	}
	cold = time.Since(start)
	buildWall = p.Metrics.MatrixBuildTime()
	start = time.Now()
	if _, err := core.Solve(ctx, p, core.StrategyKAware); err != nil {
		return 0, 0, 0, err
	}
	return cold, time.Since(start), buildWall, nil
}

// layerSamples accumulates the per-operation values of traced runs.
type layerSamples map[string][]float64

func (l layerSamples) add(name string, v float64) { l[name] = append(l[name], v) }

// medians stores the median of every accumulated series into got.
func (l layerSamples) medians(got map[string]float64) {
	for k, v := range l {
		got[k] = median(v)
	}
}

// recordRecStats adds the costing and solver counters of one
// recommendation.
func recordRecStats(l layerSamples, o *oneShot) {
	st := o.rec.Stats
	l.add("cost.whatif_calls", float64(st.WhatIfCalls))
	l.add("cost.plan_table_builds", float64(st.PlanTableBuilds))
	l.add("cost.plan_table_bytes", float64(st.PlanTableBytes))
	l.add("cost.batched_lookups", float64(st.BatchedLookups))
	l.add("advisor.memo_lookups", float64(st.CacheLookups))
	l.add("advisor.memo_hit_rate", st.HitRate())
	l.add("advisor.configs", float64(len(o.rec.Problem.Configs)))
	l.add("core.matrix_builds", float64(o.rec.MatrixBuilds))
	l.add("core.matrix_reuses", float64(o.rec.MatrixReuses))
}

// recordProbe adds one cold/warm solve probe.
func recordProbe(ctx context.Context, l layerSamples, o *oneShot, opts advisor.Options) error {
	cold, warm, build, err := probeSolve(ctx, o, opts)
	if err != nil {
		return err
	}
	l.add("core.solve_cold_ms", ms(cold))
	l.add("core.solve_warm_ms", ms(warm))
	l.add("core.matrix_ms", ms(cold-warm))
	l.add("core.matrix_build_ms", ms(build))
	return nil
}

// spanLayers derives the per-layer timings that come straight from
// named spans.
func spanLayers(got map[string]float64, spans []spanRec) {
	for name, metric := range map[string]string{
		"workload.ReadJSON":       "workload.parse_ms",
		"advisor.New":             "advisor.new_ms",
		"advisor.problem":         "advisor.problem_ms",
		"explain.Explain":         "explain.attrib_ms",
		"advisor.Render":          "advisor.render_ms",
		"candidates.FromWorkload": "candidates.gen_ms",
		"engine.Load":             "engine.restore_ms",
	} {
		if v := spansNamed(spans, name); len(v) > 0 {
			got[metric] = median(v)
		}
	}
	stages := spansNamed(spans, "matrix.exec_stage")
	if len(stages) > 0 {
		got["core.exec_stage_p99_us"] = 1000 * quantile(stages, 0.99)
		got["core.exec_stage_max_us"] = 1000 * maxOf(stages)
	}
}

// finishTrace writes the spans and derives every span-based metric.
func finishTrace(cfg config, res *result, r *recorder, got map[string]float64,
	traced, untraced []float64) error {
	spans := r.snapshot()
	spanLayers(got, spans)
	addTrace(got, summarizeTrace(spans, "op"))
	if len(traced) > 0 && len(untraced) > 0 {
		got["obs.trace_overhead_frac"] = median(traced)/median(untraced) - 1
	}
	res.note("traced run at GOMAXPROCS=%d: %d spans, %d traced and %d untraced operations",
		runtime.GOMAXPROCS(0), len(spans), len(traced), len(untraced))
	return r.write(spansPath(cfg))
}

// --- paper-w1 ----------------------------------------------------------

// paperRows is the paper-w1 table size: costing time does not depend on
// the row count, and 100k rows keeps every regime of the paper's
// 2.5M-row table (seek ≪ index-only scan < heap scan).
const paperRows = 100000

// paperBlock is the Table 2 block size: 30 blocks × 500 = 15 000
// point queries, the paper's W1.
const paperBlock = 500

// runPaperW1 is the one-shot advisor on the paper's design space: each
// operation takes a freshly seeded Table 2 W1 trace as JSON text and
// produces the rendered k=2 recommendation.
func runPaperW1(cfg config, res *result) error {
	ctx := context.Background()
	var rec *recorder
	if cfg.trace {
		rec = newRecorder()
	}
	got := map[string]float64{}
	measure := cfg.seconds
	if rec != nil {
		measure /= 2 // the other half measures the service path's layers
	}
	db, builds, err := setupTable(cfg, rec, paperRows, measure, nil)
	if err != nil {
		return err
	}
	_, expected := experiments.ExpectedDesigns()
	fixed := func(*recorder, *workload.Workload) advisor.DesignSpace { return experiments.PaperSpace() }
	opts := experiments.PaperOptions(2)
	layers := layerSamples{}
	var gs goStats
	var walls, solves, traced, untraced, costs []float64
	end := time.Now().Add(time.Duration(measure * float64(time.Second)))
	for i := 0; i < 2 || time.Now().Before(end); i++ {
		if err := builds.due(rec); err != nil {
			return err
		}
		w, err := workload.PaperWorkload("W1", paperRows, paperBlock, cfg.seed*1_000_003+int64(i))
		if err != nil {
			return err
		}
		var text bytes.Buffer
		if err := w.WriteJSON(&text); err != nil {
			return err
		}
		// The traced run alternates traced and untraced operations so
		// the difference between the two is the tracing overhead.
		var r *recorder
		if rec != nil && i%2 == 1 {
			r = rec
			r.setOp(i)
			gs.start()
		}
		endOp := r.begin("op")
		o, err := recommendOnce(ctx, r, db, text.Bytes(), fixed, opts)
		endOp()
		if r != nil {
			gs.stop()
		}
		res.op(err)
		if err != nil {
			continue
		}
		checkRecommendation(res, o)
		checkPaperDesigns(res, o, expected)
		if i == 0 {
			continue // warm-up: lazy initialization and first-touch page faults
		}
		walls = append(walls, ms(o.wall))
		solves = append(solves, ms(o.solve))
		costs = append(costs, o.rec.Solution.Cost)
		switch {
		case r != nil:
			traced = append(traced, ms(o.wall))
			recordRecStats(layers, o)
			if err := recordProbe(ctx, layers, o, opts); err != nil {
				return err
			}
		case rec != nil:
			untraced = append(untraced, ms(o.wall))
		}
	}
	if err := builds.report(res, got); err != nil {
		return err
	}
	if rec != nil {
		layers.medians(got)
		gs.report(got)
		if err := finishTrace(cfg, res, rec, got, traced, untraced); err != nil {
			return err
		}
		// advisord runs this workload's advisor (the paper's design
		// space, k=2) continuously; its layers are measured here.
		if err := serviceLayers(cfg, res, got, cfg.seconds/2); err != nil {
			return err
		}
		reportLayers(res, got)
		return nil
	}
	reportRequests(res, "RecommendContext call, without parse, explain and render", solves, 0.90)
	res.set("recommend_p50_ms", "ms", median(walls))
	res.set("design_cost_pages", "pages", median(costs))
	res.note("design_cost_pages: what-if estimated cost of the k=2 design sequence, median of %d", len(costs))
	return peakRSS(res)
}

// checkPaperDesigns compares the k=2 design in the middle of every
// Table 2 block with the design the paper reports for that block.
func checkPaperDesigns(res *result, o *oneShot, expected map[string]string) {
	if o.rec.Solution == nil {
		return
	}
	names := o.rec.StructureNames
	for start := 0; start < o.w.Len(); start += paperBlock {
		label := o.w.Labels[start]
		got := "{}"
		if s := o.rec.DesignAt(start + paperBlock/2).Structures(); len(s) == 1 {
			got = names[s[0]]
		} else if len(s) > 1 {
			got = o.rec.DesignAt(start + paperBlock/2).Format(names)
		}
		res.check(got == expected[label], "block %d (%s): k=2 design %s, paper reports %s",
			start/paperBlock+1, label, got, expected[label])
	}
}

// reportRequests reports the median and tail latency of the workload's
// requests; the tail percentile is q, which the sample must support
// with at least minBeyond values beyond it.
func reportRequests(res *result, what string, lat []float64, q float64) {
	res.set("request_p50_ms", "ms", median(lat))
	res.set("request_tail_ms", "ms", quantile(lat, q))
	res.note("request: one %s; p50 and p%g over %d samples", what, 100*q, len(lat))
	if !supports(len(lat), q) {
		res.note("WARNING: %d samples leave fewer than %d beyond the p%g", len(lat), minBeyond, 100*q)
	}
}
