package main

import (
	"bytes"
	"context"
	"fmt"
	"math/rand"
	"time"

	"dyndesign/internal/advisor"
	"dyndesign/internal/candidates"
	"dyndesign/internal/engine"
	"dyndesign/internal/sql"
	"dyndesign/internal/workload"
)

// autoRows is the auto-rw table size, restored identically before every
// operation because the replay inserts and updates rows. Recommendation
// time does not depend on it; the replay's heap scans do. At 50k rows
// the scans (the p99 statement) ran up to three times slower while the
// machine was busy and the spread of ten runs reached 0.43; at 20k rows
// it was 0.06.
const autoRows = 20000

// autoPhase is the length of the auto-rw trace's phases.
const autoPhase = 1000

// autoTrace generates the auto-rw trace: read phases A and C, a bulk
// INSERT phase, a point-UPDATE phase keyed on a, then read phases B and
// D, so the best design changes with the phase and index maintenance
// matters. Phase A is half as long again as the others: over equal
// phases every column would be referenced equally often, and
// candidates.FromWorkload's top ten would hinge on sampling noise —
// traces without an a-leading candidate run every UPDATE as a heap
// scan, which doubles the replay. That is a known weakness of candidate
// generation, which ranks by reference counts and ignores what the DML
// predicates need; the trace is shaped so the figures stay steady, and
// a fix to candidate selection should be judged on an equal-phase
// trace as well.
func autoTrace(seed int64) (*workload.Workload, error) {
	mixes := workload.PaperMixes(autoRows)
	domain := workload.DomainForRows(autoRows)
	rng := rand.New(rand.NewSource(seed))
	w := &workload.Workload{Name: "auto-rw"}
	for _, phase := range []string{"A", "INSERT", "C", "UPDATE", "B", "D"} {
		n := autoPhase
		if phase == "A" {
			n = autoPhase * 3 / 2
		}
		var stmts []workload.Statement
		var err error
		switch phase {
		case "INSERT":
			stmts, err = workload.GenerateInserts("t", 4, domain, rng, n)
		case "UPDATE":
			stmts, err = workload.GenerateUpdates("t", "b", "a", domain, rng, n)
		default:
			stmts, err = mixes[phase].Generate(rng, n)
		}
		if err != nil {
			return nil, err
		}
		w.Append(phase, stmts...)
	}
	return w, nil
}

// autoOptions are the auto-rw solve options: 10-statement stages, at
// most four changes, and the resilient ladder.
func autoOptions() advisor.Options {
	return advisor.Options{K: 4, SegmentSize: 10, Fallback: true}
}

// autoSpace derives the design space from the trace: up to ten
// candidates of width ≤ 2, every subset of them a configuration.
func autoSpace(r *recorder, w *workload.Workload) advisor.DesignSpace {
	end := r.begin("candidates.FromWorkload")
	defs := candidates.FromWorkload(w, "t", candidates.Options{MaxWidth: 2, Limit: 10})
	end()
	return advisor.DesignSpace{Table: "t", Structures: defs}
}

// replayStats is what one replay of a recommended design sequence
// measured.
type replayStats struct {
	selectUS, dmlUS       []float64 // per-statement latency
	selectPages, dmlPages int64
	stmtTime              time.Duration
	ddlTime               time.Duration
	ddlPages              int64
	wall                  time.Duration
}

func (s replayStats) pages() int64 { return s.selectPages + s.dmlPages + s.ddlPages }

// replay executes the recommended sequence the way a user applies it:
// each step's DDL just before its statement index, every statement
// through Database.MeasureStmt, and the final teardown after the last
// statement.
func replay(r *recorder, db *engine.Database, o *oneShot) (replayStats, error) {
	var st replayStats
	steps := o.rec.Steps()
	start := time.Now()
	next := 0
	apply := func(at int) error {
		for ; next < len(steps) && steps[next].StatementIndex == at; next++ {
			for _, ddl := range steps[next].DDL {
				before := db.AccessStats().Snapshot()
				t := time.Now()
				end := r.begin("engine.Exec")
				_, err := db.Exec(ddl)
				end()
				st.ddlTime += time.Since(t)
				st.ddlPages += db.AccessStats().Snapshot().Sub(before).Total()
				if err != nil {
					return fmt.Errorf("applying %q: %w", ddl, err)
				}
			}
		}
		return nil
	}
	for i, s := range o.w.Statements {
		if err := apply(i); err != nil {
			return st, err
		}
		t := time.Now()
		end := r.begin("engine.MeasureStmt")
		_, acc, err := db.MeasureStmt(s.Stmt)
		end()
		d := time.Since(t)
		if err != nil {
			return st, fmt.Errorf("statement %d (%q): %w", i, s.SQL, err)
		}
		st.stmtTime += d
		if _, ok := s.Stmt.(*sql.Select); ok {
			st.selectUS = append(st.selectUS, us(d))
			st.selectPages += acc.Total()
		} else {
			st.dmlUS = append(st.dmlUS, us(d))
			st.dmlPages += acc.Total()
		}
	}
	if err := apply(o.w.Len()); err != nil {
		return st, err
	}
	st.wall = time.Since(start)
	return st, nil
}

// runAutoRW is the one-shot path on a wide lattice with writes beside
// reads, followed by the engine replay of its result: every operation
// restores the table, recommends a design sequence for a freshly seeded
// trace, and executes the trace under it.
func runAutoRW(cfg config, res *result) error {
	ctx := context.Background()
	var rec *recorder
	if cfg.trace {
		rec = newRecorder()
	}
	got := map[string]float64{}
	// Every build saves a snapshot, as set-up; the first one is restored.
	var snapshot []byte
	_, builds, err := setupTable(cfg, rec, autoRows, cfg.seconds, func(db *engine.Database) error {
		var saved bytes.Buffer
		err := db.Save(&saved)
		if snapshot == nil {
			snapshot = saved.Bytes()
		}
		return err
	})
	if err != nil {
		return err
	}
	restore := func(r *recorder) (*engine.Database, error) {
		end := r.begin("engine.Load")
		defer end()
		return engine.Load(bytes.NewReader(snapshot))
	}
	opts := autoOptions()
	layers := layerSamples{}
	var gs goStats
	var recWalls, stmtMS, pages, traced, untraced []float64
	var total replayStats
	var replayWall time.Duration
	replayed := 0
	end := time.Now().Add(time.Duration(cfg.seconds * float64(time.Second)))
	for i := 0; i < 2 || time.Now().Before(end); i++ {
		if err := builds.due(rec); err != nil {
			return err
		}
		w, err := autoTrace(cfg.seed*1_000_003 + int64(i))
		if err != nil {
			return err
		}
		var text bytes.Buffer
		if err := w.WriteJSON(&text); err != nil {
			return err
		}
		var r *recorder
		if rec != nil && i%2 == 1 {
			r = rec
			r.setOp(i)
			gs.start()
		}
		opStart := time.Now()
		endOp := r.begin("op")
		db, err := restore(r)
		var o *oneShot
		if err == nil {
			o, err = recommendOnce(ctx, r, db, text.Bytes(), autoSpace, opts)
		}
		var st replayStats
		if err == nil {
			st, err = replay(r, db, o)
		}
		endOp()
		opWall := time.Since(opStart)
		if r != nil {
			gs.stop()
		}
		res.op(err)
		if err != nil {
			continue
		}
		checkRecommendation(res, o)
		if err := db.CheckInvariants(); err != nil {
			res.check(false, "engine invariants after replay: %v", err)
		}
		if i == 0 {
			// Warm-up operation: it also cross-checks the replay against
			// advisor.Replay on a fresh copy of the same data.
			checkReplay(res, restore, o, st)
			continue
		}
		recWalls = append(recWalls, ms(o.wall))
		pages = append(pages, float64(st.pages()))
		for _, v := range st.selectUS {
			stmtMS = append(stmtMS, v/1000)
		}
		for _, v := range st.dmlUS {
			stmtMS = append(stmtMS, v/1000)
		}
		switch {
		case r != nil:
			traced = append(traced, ms(opWall))
			recordRecStats(layers, o)
			layers.add("candidates.count", float64(len(o.rec.Structures)))
			if err := recordProbe(ctx, layers, o, opts); err != nil {
				return err
			}
			total.selectUS = append(total.selectUS, st.selectUS...)
			total.dmlUS = append(total.dmlUS, st.dmlUS...)
			total.selectPages += st.selectPages
			total.dmlPages += st.dmlPages
			total.stmtTime += st.stmtTime
			total.ddlTime += st.ddlTime
			total.ddlPages += st.ddlPages
			replayed++
		case rec != nil:
			untraced = append(untraced, ms(opWall))
		}
		replayWall += st.wall
	}
	if err := builds.report(res, got); err != nil {
		return err
	}
	if rec != nil {
		layers.medians(got)
		gs.report(got)
		if replayed > 0 {
			got["engine.select_us_p50"] = quantile(total.selectUS, 0.5)
			got["engine.select_us_p99"] = quantile(total.selectUS, 0.99)
			got["engine.dml_us_p50"] = quantile(total.dmlUS, 0.5)
			got["engine.dml_us_p99"] = quantile(total.dmlUS, 0.99)
			got["engine.pages_per_select"] = float64(total.selectPages) / float64(len(total.selectUS))
			got["engine.pages_per_dml"] = float64(total.dmlPages) / float64(len(total.dmlUS))
			got["engine.us_per_page"] = us(total.stmtTime) / float64(total.selectPages+total.dmlPages)
			got["engine.ddl_ms"] = ms(total.ddlTime) / float64(replayed)
			got["engine.ddl_pages"] = float64(total.ddlPages) / float64(replayed)
		}
		if err := finishTrace(cfg, res, rec, got, traced, untraced); err != nil {
			return err
		}
		reportLayers(res, got)
		return nil
	}
	reportRequests(res, "replayed statement", stmtMS, 0.99)
	res.set("recommend_p50_ms", "ms", median(recWalls))
	res.set("design_cost_pages", "pages", median(pages))
	res.note("recommend_p50_ms over %d recommendations; design_cost_pages: engine-charged pages of the replay, median of %d",
		len(recWalls), len(pages))
	res.note("replay throughput: %.0f statements/s", float64(len(stmtMS))/replayWall.Seconds())
	return peakRSS(res)
}

// checkReplay replays the same design sequence with advisor.Replay on a
// fresh copy of the table: the engine must charge exactly the pages the
// benchmark's own replay counted, and both must leave a consistent
// database.
func checkReplay(res *result, restore func(*recorder) (*engine.Database, error), o *oneShot, st replayStats) {
	db, err := restore(nil)
	if err != nil {
		res.check(false, "restoring for the replay check: %v", err)
		return
	}
	rep, err := advisor.Replay(db, o.w, o.rec, o.rec.PerStatement())
	if err != nil {
		res.check(false, "advisor.Replay: %v", err)
		return
	}
	res.check(rep.TotalPages() == st.pages(), "replay charged %d pages, advisor.Replay %d", st.pages(), rep.TotalPages())
	if err := db.CheckInvariants(); err != nil {
		res.check(false, "engine invariants after advisor.Replay: %v", err)
	}
	res.check(rep.Changes == len(o.rec.Steps()), "replay applied %d changes, recommendation has %d steps",
		rep.Changes, len(o.rec.Steps()))
}
