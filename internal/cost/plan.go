package cost

import (
	"fmt"
	"math"
	"math/bits"

	"dyndesign/internal/sql"
)

// planKind mirrors the statement dispatch of StatementCost.
type planKind uint8

const (
	planSelect planKind = iota
	planInsert
	planUpdate
	planDelete
)

// PlanTable is the compiled what-if costing of one statement against a
// fixed candidate index list. Compilation enumerates the statement's
// access paths once — the heap scan plus each index's best seek or
// covering variant — pricing every histogram-derived selectivity a
// single time, and records per-index path costs, per-index per-row
// maintenance increments, and the statement's relevant-index mask.
// Evaluating a configuration is then a bit-scan over its selected
// indexes instead of a fresh plan derivation, and a whole lattice of
// configurations (AddRow) costs two sequential flops per cell. Both are
// bit-for-bit identical to StatementCost over the corresponding index
// slice (the equivalence the FuzzBatchCostEquivalence fuzzer pins):
//
//   - a SELECT's cost is the minimum over candidate paths, each path's
//     cost depends only on (statement, table, that one index), and
//     indexes whose best path loses to the heap scan can never change
//     the minimum;
//   - DML maintenance is per-index additive, replayed in ascending bit
//     order — exactly the iteration order of the scalar code.
//
// Configurations are uint64 bitmasks: bit i selects indexes[i] of the
// compile-time candidate list.
type PlanTable struct {
	kind planKind
	// allMask has one bit per candidate index; evaluated configurations
	// are masked with it so stray high bits cannot read out of range.
	allMask uint64
	// heapCost is the heap-scan page cost of the row search.
	heapCost float64
	// pathCost[i] is candidate i's cheapest index path (seek or
	// covering scan) for the row search; +Inf when it offers none.
	pathCost []float64
	// maint[i] is candidate i's maintenance pages per modified row.
	maint []float64
	// rows scales the per-row maintenance term: the INSERT row count,
	// or the estimated matched rows of an UPDATE/DELETE.
	rows float64
	// relevant marks the indexes that can win the row search — exactly
	// the indexes whose solo what-if probe beats (or ties, under the
	// planner's index-preferring tie-break) the heap scan, i.e. the
	// statement's interaction clique.
	relevant uint64
}

// CompilePlan compiles one workload statement into a PlanTable over the
// candidate index list. The supported statement set, validation errors,
// and cost arithmetic mirror StatementCost exactly.
func CompilePlan(stmt sql.Statement, t TablePhys, indexes []IndexPhys) (*PlanTable, error) {
	if len(indexes) > 64 {
		return nil, fmt.Errorf("cost: plan table supports at most 64 candidate indexes, got %d", len(indexes))
	}
	pt := &PlanTable{allMask: ^uint64(0)}
	if len(indexes) < 64 {
		pt.allMask = 1<<uint(len(indexes)) - 1
	}
	switch s := stmt.(type) {
	case *sql.Select:
		pt.kind = planSelect
		if err := pt.compileSearch(s, t, indexes); err != nil {
			return nil, err
		}
	case *sql.Insert:
		pt.kind = planInsert
		pt.rows = float64(len(s.Rows))
		pt.compileMaint(indexes, 1) // descend + leaf write
	case *sql.Update:
		pt.kind = planUpdate
		probe := &sql.Select{Table: s.Table, Where: s.Where, Limit: -1}
		if err := pt.compileSearch(probe, t, indexes); err != nil {
			return nil, err
		}
		pt.rows = estimateResultRows(s.Where, t)
		pt.compileMaint(indexes, 2) // delete + insert entries
	case *sql.Delete:
		pt.kind = planDelete
		probe := &sql.Select{Table: s.Table, Where: s.Where, Limit: -1}
		if err := pt.compileSearch(probe, t, indexes); err != nil {
			return nil, err
		}
		pt.rows = estimateResultRows(s.Where, t)
		pt.compileMaint(indexes, 1)
	default:
		return nil, fmt.Errorf("cost: statement %T is not a workload statement", stmt)
	}
	return pt, nil
}

// compileSearch prices the row search's access paths: the heap scan and
// each candidate index's best seek/covering variant, one histogram pass
// per path.
func (pt *PlanTable) compileSearch(sel *sql.Select, t TablePhys, indexes []IndexPhys) error {
	sh, err := shapeSelect(sel, t)
	if err != nil {
		return err
	}
	pt.heapCost = math.Max(1, t.HeapPages)
	pt.pathCost = make([]float64, len(indexes))
	for i := range indexes {
		ip := &indexes[i]
		covering := ip.Covers(sh.need)
		best := math.Inf(1)
		if a, ok := seekAccess(sel, t, ip, sh.conjuncts, covering, sh.resultRows); ok {
			best = a.PageCost
		}
		if covering {
			if v := ip.Height + ip.LeafPages; v < best {
				best = v
			}
		}
		pt.pathCost[i] = best
		// Relevance matches the planner's tie-break: on equal cost the
		// index path wins over the heap scan (kindRank seek/scan < heap).
		if best <= pt.heapCost {
			pt.relevant |= 1 << uint(i)
		}
	}
	return nil
}

// compileMaint precomputes the per-row maintenance increment of every
// candidate index: writes tree descents plus leaf writes per modified
// row (1 for INSERT/DELETE entries, 2 for UPDATE's delete+insert pair).
func (pt *PlanTable) compileMaint(indexes []IndexPhys, writes float64) {
	pt.maint = make([]float64, len(indexes))
	for i := range indexes {
		pt.maint[i] = writes * (indexes[i].Height + 1)
	}
}

// searchCost returns the row search's min-path cost under c.
func (pt *PlanTable) searchCost(c uint64) float64 {
	best := pt.heapCost
	for m := c & pt.relevant; m != 0; m &= m - 1 {
		if v := pt.pathCost[bits.TrailingZeros64(m)]; v < best {
			best = v
		}
	}
	return best
}

// perRow accumulates the per-modified-row maintenance pages of c in
// ascending bit order — the scalar code's iteration order, so the
// float64 operation sequence (and hence the result bits) is identical.
func (pt *PlanTable) perRow(c uint64) float64 {
	per := 1.0 // heap write
	for m := c; m != 0; m &= m - 1 {
		per += pt.maint[bits.TrailingZeros64(m)]
	}
	return per
}

// Cost returns EXEC(statement, c) for the configuration whose bit i
// selects candidate index i — bit-identical to StatementCost over the
// corresponding index slice. The maintenance product is wrapped in an
// explicit conversion, here and in AddRow, so no compiler may fuse it
// with an addition into an FMA and round it differently.
func (pt *PlanTable) Cost(c uint64) float64 {
	c &= pt.allMask
	switch pt.kind {
	case planSelect:
		return pt.searchCost(c)
	case planInsert:
		return float64(pt.rows * pt.perRow(c))
	default: // planUpdate, planDelete
		return pt.searchCost(c) + float64(pt.rows*pt.perRow(c))
	}
}

// AddRow adds EXEC(statement, c) to row[c] for every c < len(row): the
// whole configuration lattice over the low log2(len(row)) candidate
// bits, each cell bit-identical to Cost(c). len(row) must be a non-zero
// power of two; scratch must hold 2*len(row) floats and is overwritten.
//
// The lattice is filled one bit at a time, each cell from the cell with
// its highest bit cleared: the search cost is min(s[c-hi], pathCost[b])
// (min is exact, so its order does not matter), and the per-row
// maintenance p[c-hi] + maint[b] is the same ascending-bit addition
// sequence perRow performs.
func (pt *PlanTable) AddRow(row, scratch []float64) {
	n := len(row)
	if n == 0 || n&(n-1) != 0 {
		panic("cost: AddRow row length is not a power of two")
	}
	s, p := scratch[:n:n], scratch[n:2*n:2*n]
	switch pt.kind {
	case planSelect:
		pt.searchRow(s)
		for c, v := range s {
			row[c] += v
		}
	case planInsert:
		pt.perRowRow(p)
		for c, v := range p {
			row[c] += float64(pt.rows * v)
		}
	default: // planUpdate, planDelete
		pt.searchRow(s)
		pt.perRowRow(p)
		for c, v := range s {
			row[c] += v + float64(pt.rows*p[c])
		}
	}
}

// searchRow fills s[c] with searchCost(c) for every c < len(s), a
// non-empty power of two. A bit outside the relevant mask never wins
// the min (its path costs more than the heap scan), so its half of the
// lattice is a plain copy.
func (pt *PlanTable) searchRow(s []float64) {
	s[0] = pt.heapCost
	for b, hi := 0, 1; hi < len(s); b, hi = b+1, hi<<1 {
		lo, up := s[:hi], s[hi:2*hi]
		if pt.relevant&(1<<uint(b)) == 0 {
			copy(up, lo)
			continue
		}
		v := pt.pathCost[b]
		for c, best := range lo {
			if v < best {
				best = v
			}
			up[c] = best
		}
	}
}

// perRowRow fills p[c] with perRow(c) for every c < len(p), a non-empty
// power of two. Bits past the candidate list select nothing, as Cost's
// allMask makes them.
func (pt *PlanTable) perRowRow(p []float64) {
	p[0] = 1.0 // heap write
	for b, hi := 0, 1; hi < len(p); b, hi = b+1, hi<<1 {
		lo, up := p[:hi], p[hi:2*hi]
		if b >= len(pt.maint) {
			copy(up, lo)
			continue
		}
		m := pt.maint[b]
		for c, v := range lo {
			up[c] = v + m
		}
	}
}

// RelevantMask returns the statement's interaction clique: the indexes
// whose presence can change its row-search cost. Maintenance terms are
// per-index additive and contribute no interactions.
func (pt *PlanTable) RelevantMask() uint64 { return pt.relevant }

// Bytes estimates the retained heap footprint of the compiled table,
// for memory accounting of long-lived plan caches.
func (pt *PlanTable) Bytes() int {
	const header = 96 // struct fields + slice headers
	return header + 8*(len(pt.pathCost)+len(pt.maint))
}
