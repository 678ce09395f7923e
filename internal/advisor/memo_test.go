package advisor

import (
	"testing"

	"dyndesign/internal/core"
	"dyndesign/internal/workload"
)

// distinctSQL returns the distinct statement texts of w in first-seen
// order.
func distinctSQL(w *workload.Workload) []string {
	seen := make(map[string]bool)
	var out []string
	for _, s := range w.Statements {
		if !seen[s.SQL] {
			seen[s.SQL] = true
			out = append(out, s.SQL)
		}
	}
	return out
}

// TestPlanCacheCountersArePerRun is the regression for lifetime
// counters leaking into one run's CostStats: two solves sharing one
// retained cache must each report their own probes — one per distinct
// statement — and an unchanged-window re-solve must compile nothing and
// hit on every probe. A slid window then compiles exactly the
// statements the previous window did not hold.
func TestPlanCacheCountersArePerRun(t *testing.T) {
	_, adv := testAdvisor(t)
	full := testWorkload(t)
	w := full.Slice(0, 400)
	distinct := int64(len(distinctSQL(w)))
	opts := paperOpts(2)
	opts.Memo = NewMemo(0)

	rec1, err := adv.Recommend(w, opts)
	if err != nil {
		t.Fatal(err)
	}
	if st := rec1.Stats; st.CacheLookups != distinct || st.CacheHits != 0 || st.WhatIfCalls != distinct {
		t.Fatalf("cold solve stats %+v, want %d lookups, 0 hits, %d compiles", st, distinct, distinct)
	}
	rec2, err := adv.Recommend(w, opts)
	if err != nil {
		t.Fatal(err)
	}
	st := rec2.Stats
	if st.CacheLookups != distinct || st.CacheHits != distinct {
		t.Fatalf("re-solve reports %d lookups / %d hits, want exactly its own %d / %d",
			st.CacheLookups, st.CacheHits, distinct, distinct)
	}
	if st.HitRate() != 1 {
		t.Fatalf("unchanged-window HitRate = %v, want 1", st.HitRate())
	}
	if st.WhatIfCalls != 0 || st.PlanTableBuilds != 0 {
		t.Fatalf("unchanged-window re-solve compiled %d plans (%d builds), want 0", st.WhatIfCalls, st.PlanTableBuilds)
	}

	slid := full.Slice(100, 500)
	held := make(map[string]bool)
	for _, q := range distinctSQL(w) {
		held[q] = true
	}
	var wantHits, wantCompiles int64
	for _, q := range distinctSQL(slid) {
		if held[q] {
			wantHits++
		} else {
			wantCompiles++
		}
	}
	if wantHits == 0 || wantCompiles == 0 {
		t.Fatalf("fixture too weak: slide shares %d and adds %d distinct statements", wantHits, wantCompiles)
	}
	rec3, err := adv.Recommend(slid, opts)
	if err != nil {
		t.Fatal(err)
	}
	if st := rec3.Stats; st.CacheHits != wantHits || st.WhatIfCalls != wantCompiles || st.CacheLookups != wantHits+wantCompiles {
		t.Fatalf("slid-window stats %+v, want %d hits and %d compiles", st, wantHits, wantCompiles)
	}
}

// TestExecMemoRetainsNewestProblemUpToCap pins the retention rule: after
// an assembly the cache holds exactly the newest problem's distinct
// statements, and a capacity below that keeps the ones occurring
// latest.
func TestExecMemoRetainsNewestProblemUpToCap(t *testing.T) {
	_, adv := testAdvisor(t)
	full := testWorkload(t)
	first, second := full.Slice(0, 300), full.Slice(200, 500)

	m := NewMemo(0)
	opts := paperOpts(2)
	opts.Memo = m
	for _, w := range []*workload.Workload{first, second} {
		if _, _, err := adv.Problem(w, opts); err != nil {
			t.Fatal(err)
		}
	}
	want := distinctSQL(second)
	if got := m.Stats().Entries; got != len(want) {
		t.Fatalf("uncapped cache retains %d tables, want the newest problem's %d", got, len(want))
	}
	for _, q := range want {
		if m.plans[q] == nil {
			t.Fatalf("newest problem's statement %q not retained", q)
		}
	}

	const capacity = 10
	capped := NewMemo(capacity)
	opts.Memo = capped
	if _, _, err := adv.Problem(second, opts); err != nil {
		t.Fatal(err)
	}
	st := capped.Stats()
	if st.Entries != capacity || st.Capacity != capacity {
		t.Fatalf("capped cache holds %d (capacity %d), want %d", st.Entries, st.Capacity, capacity)
	}
	latest := map[string]bool{}
	for i := second.Len() - 1; len(latest) < capacity; i-- {
		latest[second.Statements[i].SQL] = true
	}
	for q := range latest {
		if capped.plans[q] == nil {
			t.Fatalf("latest statement %q evicted by the cap", q)
		}
	}
}

// TestExecMemoInvalidationOnWorldChange pins the world pin in
// isolation: compiling under a different world fingerprint purges every
// retained table, counts one invalidation, and recompiles.
func TestExecMemoInvalidationOnWorldChange(t *testing.T) {
	_, adv := testAdvisor(t)
	stmts := testWorkload(t).Slice(0, 50).Statements
	m := NewMemo(0)
	compile := func(world uint64) CostStats {
		t.Helper()
		_, st, err := m.compile(world, stmts, adv.table, adv.phys)
		if err != nil {
			t.Fatal(err)
		}
		return st
	}
	cold := compile(1)
	if warm := compile(1); warm.WhatIfCalls != 0 || m.Stats().Invalidations != 0 {
		t.Fatalf("same-world compile recompiled %d tables (invalidations %d)", warm.WhatIfCalls, m.Stats().Invalidations)
	}
	moved := compile(2)
	if got := m.Stats().Invalidations; got != 1 {
		t.Fatalf("Invalidations = %d, want 1", got)
	}
	if moved.CacheHits != 0 || moved.WhatIfCalls != cold.WhatIfCalls {
		t.Fatalf("post-change compile served %d stale tables, compiled %d (want 0, %d)",
			moved.CacheHits, moved.WhatIfCalls, cold.WhatIfCalls)
	}
}

// TestAdvisorRetainedStateAcrossStatsRefresh is the end-to-end staleness
// regression: one advisor retaining a plan cache and a solve cache
// across recommendations must (a) serve an unchanged window entirely
// from the retained state and (b) discard ALL of it — plan tables and
// cost tables — the moment the table's histograms are mutated in place,
// because the fingerprints changed even though every pointer stayed the
// same.
func TestAdvisorRetainedStateAcrossStatsRefresh(t *testing.T) {
	_, adv := testAdvisor(t)
	w := testWorkload(t)
	opts := paperOpts(2)
	opts.Memo = NewMemo(0)
	opts.Cache = core.NewSolveCache()

	rec1, err := adv.Recommend(w, opts)
	if err != nil {
		t.Fatal(err)
	}
	if rec1.Stats.WhatIfCalls == 0 {
		t.Fatal("first solve performed no what-if costings")
	}

	// Unchanged world: the re-solve must be served wholly from the
	// retained plan cache (zero compiles) and warm-start the cost tables
	// from the retained cache despite the model instance being new.
	rec2, err := adv.Recommend(w, opts)
	if err != nil {
		t.Fatal(err)
	}
	if got := rec2.Stats.WhatIfCalls; got != 0 {
		t.Fatalf("unchanged-window re-solve compiled %d plans, want 0 (cache not reused)", got)
	}
	if got := rec2.Problem.Metrics.MatrixBuilds(); got != 0 {
		t.Fatalf("unchanged-window re-solve built %d matrices, want 0 (cache not warm-started)", got)
	}
	if rec2.Problem.Metrics.MatrixReuses() == 0 {
		t.Fatal("unchanged-window re-solve recorded no matrix reuse")
	}
	if rec1.Solution.Cost != rec2.Solution.Cost {
		t.Fatalf("re-solve cost %v != first cost %v", rec2.Solution.Cost, rec1.Solution.Cost)
	}
	if st := opts.Memo.Stats(); st.Invalidations != 0 {
		t.Fatalf("unchanged world purged the plan cache: %+v", st)
	}

	// "Refresh the statistics": mutate the histograms in place — same
	// TableStats pointer, new contents. Both fingerprints must change.
	for _, cs := range adv.table.Stats.Columns {
		cs.NDV = cs.NDV/2 + 1
		if cs.Hist != nil {
			for i := range cs.Hist.Buckets {
				cs.Hist.Buckets[i].Count = cs.Hist.Buckets[i].Count*3 + 7
			}
		}
	}

	rec3, err := adv.Recommend(w, opts)
	if err != nil {
		t.Fatal(err)
	}
	if st := opts.Memo.Stats(); st.Invalidations != 1 {
		t.Fatalf("Invalidations after stats refresh = %d, want 1", st.Invalidations)
	}
	if got := rec3.Stats; got.WhatIfCalls == 0 || got.CacheHits != 0 {
		t.Fatalf("post-refresh solve served stale plan tables: %+v", got)
	}
	if got := rec3.Problem.Metrics.MatrixBuilds(); got != 1 {
		t.Fatalf("post-refresh solve built %d matrices, want 1 (stale tables replayed)", got)
	}
}
