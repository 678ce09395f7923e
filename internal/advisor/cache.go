package advisor

import (
	"fmt"
	"sync"

	"dyndesign/internal/cost"
	"dyndesign/internal/workload"
)

// ExecMemo is the retained what-if plan cache: compiled per-statement
// plan tables (cost.PlanTable) keyed by SQL text. Problem assembly
// compiles every distinct statement of a workload exactly once and
// consults the cache first, so a long-running service that re-solves
// overlapping windows compiles only the statements that entered the
// window since the previous solve. EXEC values themselves are never
// cached: evaluating a compiled table is a few masked lookups, cheaper
// than any memo probe.
//
// The cache is pinned to the cost world it compiled under (statistics
// epoch plus physical descriptions) and purged when that world changes.
// After each assembly it retains only the tables the newest problem
// references, so memory is bounded by the window, with the capacity
// given to NewMemo as a ceiling. It is safe for concurrent use; its
// mutex is held during assembly only, never while a solver runs.
type ExecMemo struct {
	mu       sync.Mutex
	capacity int // retained-table ceiling; 0 = unbounded
	world    uint64
	worldOK  bool
	plans    map[string]*cost.PlanTable

	hits, compiles, invalidations int64
}

// NewMemo builds a plan cache retaining at most capacity plan tables
// between assemblies; capacity <= 0 means no ceiling beyond the newest
// problem's distinct statements. Pass it via Options.Memo to share it
// across recommendations.
func NewMemo(capacity int) *ExecMemo {
	if capacity < 0 {
		capacity = 0
	}
	return &ExecMemo{capacity: capacity}
}

// MemoStats describes a plan cache's occupancy and lifetime counters.
type MemoStats struct {
	// Entries is the number of retained plan tables; Capacity the
	// configured ceiling (0 = unbounded).
	Entries  int
	Capacity int
	// Hits counts distinct statements served from retained tables;
	// Compiles counts plan tables compiled.
	Hits     int64
	Compiles int64
	// Invalidations counts whole-cache purges forced by a cost-world
	// change (refreshed statistics).
	Invalidations int64
}

// Stats returns a snapshot of the cache's counters.
func (c *ExecMemo) Stats() MemoStats {
	c.mu.Lock()
	defer c.mu.Unlock()
	return MemoStats{
		Entries:       len(c.plans),
		Capacity:      c.capacity,
		Hits:          c.hits,
		Compiles:      c.compiles,
		Invalidations: c.invalidations,
	}
}

// compile returns one plan table per statement of stmts, compiled under
// the cost world fingerprinted by world. Each distinct SQL text is
// probed once: served from the retained tables when present, compiled
// otherwise. The returned stats describe this call alone. A statement
// that cost.CompilePlan rejects (DDL, or one that cannot be costed)
// fails the whole call with its index and text, and the retained tables
// are not replaced.
func (c *ExecMemo) compile(world uint64, stmts []workload.Statement, t cost.TablePhys, phys []cost.IndexPhys) ([]*cost.PlanTable, CostStats, error) {
	c.mu.Lock()
	defer c.mu.Unlock()
	if c.worldOK && c.world != world {
		c.plans = nil
		c.invalidations++
	}
	c.world, c.worldOK = world, true
	var st CostStats
	defer func() {
		c.hits += st.CacheHits
		c.compiles += st.WhatIfCalls
	}()
	tables := make([]*cost.PlanTable, len(stmts))
	seen := make(map[string]*cost.PlanTable)
	for i, s := range stmts {
		if pt, ok := seen[s.SQL]; ok {
			tables[i] = pt
			continue
		}
		st.CacheLookups++
		pt, ok := c.plans[s.SQL]
		if ok {
			st.CacheHits++
		} else {
			var err error
			if pt, err = cost.CompilePlan(s.Stmt, t, phys); err != nil {
				return nil, st, fmt.Errorf("advisor: statement %d (%q): %w", i, s.SQL, err)
			}
			st.WhatIfCalls++
		}
		st.PlanTableBytes += int64(pt.Bytes())
		seen[s.SQL] = pt
		tables[i] = pt
	}
	st.PlanTableBuilds = st.WhatIfCalls
	c.retain(seen, stmts)
	return tables, st, nil
}

// retain replaces the retained tables with the newest problem's, whose
// distinct statements seen maps. Over capacity it keeps the statements
// that occur latest in stmts — the ones a sliding window holds longest.
func (c *ExecMemo) retain(seen map[string]*cost.PlanTable, stmts []workload.Statement) {
	if c.capacity == 0 || len(seen) <= c.capacity {
		c.plans = seen
		return
	}
	c.plans = make(map[string]*cost.PlanTable, c.capacity)
	for i := len(stmts) - 1; len(c.plans) < c.capacity; i-- {
		c.plans[stmts[i].SQL] = seen[stmts[i].SQL]
	}
}

// CostStats is the lightweight instrumentation of one advisor run's
// what-if costing: how many plan tables problem assembly compiled and
// how well the plan cache served it.
type CostStats struct {
	// WhatIfCalls counts the what-if statement costings this run
	// performed: plan tables compiled, one per distinct statement not
	// served from a retained cache — the unit the paper's Figure 4
	// discussion treats as the advisor's dominant expense.
	WhatIfCalls int64
	// CacheLookups and CacheHits describe the plan cache: every distinct
	// statement of the workload is one lookup, a hit when a retained
	// cache (Options.Memo) already held its compiled table.
	CacheLookups int64
	CacheHits    int64
	// PlanTableBuilds counts per-statement plan-table compilations (equal
	// to WhatIfCalls); PlanTableBytes is the heap the problem's distinct
	// tables retain.
	PlanTableBuilds int64
	PlanTableBytes  int64
	// BatchedLookups counts configurations evaluated through the
	// BatchExec frontier entry point.
	BatchedLookups int64
}

// HitRate returns the fraction of plan-cache lookups served from
// retained tables, 0 when nothing was looked up.
func (s CostStats) HitRate() float64 {
	if s.CacheLookups == 0 {
		return 0
	}
	return float64(s.CacheHits) / float64(s.CacheLookups)
}

// add accumulates counters (used when several models back one run).
func (s CostStats) add(o CostStats) CostStats {
	return CostStats{
		WhatIfCalls:     s.WhatIfCalls + o.WhatIfCalls,
		CacheLookups:    s.CacheLookups + o.CacheLookups,
		CacheHits:       s.CacheHits + o.CacheHits,
		PlanTableBuilds: s.PlanTableBuilds + o.PlanTableBuilds,
		PlanTableBytes:  s.PlanTableBytes + o.PlanTableBytes,
		BatchedLookups:  s.BatchedLookups + o.BatchedLookups,
	}
}

// statsProvider is implemented by cost models that expose CostStats.
type statsProvider interface {
	costStats() CostStats
}
