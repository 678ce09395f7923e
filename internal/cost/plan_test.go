package cost

import (
	"fmt"
	"math"
	"math/bits"
	"math/rand"
	"strings"
	"testing"

	"dyndesign/internal/catalog"
	"dyndesign/internal/sql"
	"dyndesign/internal/stats"
	"dyndesign/internal/types"
)

// synthColumn fabricates a structurally valid equi-depth histogram for
// one integer column: ascending distinct values grouped into buckets,
// random per-value counts. The absolute selectivities do not matter for
// the equivalence tests — only that plan tables and the scalar coster
// read the same statistics.
func synthColumn(rng *rand.Rand, name string) *stats.ColumnStats {
	ndv := 3 + rng.Intn(40)
	vals := make([]int64, 0, ndv)
	v := int64(rng.Intn(50))
	for i := 0; i < ndv; i++ {
		v += 1 + int64(rng.Intn(200))
		vals = append(vals, v)
	}
	counts := make([]int64, ndv)
	var rows int64
	for i := range counts {
		counts[i] = 1 + int64(rng.Intn(100))
		rows += counts[i]
	}
	h := &stats.Histogram{
		Min:  types.NewInt(vals[0]),
		Max:  types.NewInt(vals[ndv-1]),
		Rows: rows,
	}
	for i := 0; i < ndv; {
		span := 1 + rng.Intn(4)
		if i+span > ndv {
			span = ndv - i
		}
		var cnt int64
		for j := i; j < i+span; j++ {
			cnt += counts[j]
		}
		h.Buckets = append(h.Buckets, stats.Bucket{
			Upper:    types.NewInt(vals[i+span-1]),
			Count:    cnt,
			Distinct: int64(span),
		})
		i += span
	}
	return &stats.ColumnStats{Column: name, Rows: rows, NDV: int64(ndv), Hist: h}
}

func synthTable(t testing.TB, rng *rand.Rand) TablePhys {
	schema, err := types.NewSchema(
		types.Column{Name: "a", Kind: types.KindInt},
		types.Column{Name: "b", Kind: types.KindInt},
		types.Column{Name: "c", Kind: types.KindInt},
		types.Column{Name: "d", Kind: types.KindInt},
	)
	if err != nil {
		t.Fatalf("schema: %v", err)
	}
	rows := int64(500 + rng.Intn(200000))
	ts := &stats.TableStats{
		Table:    "t",
		Rows:     rows,
		RowBytes: 36,
		Columns:  map[string]*stats.ColumnStats{},
	}
	for _, c := range []string{"a", "b", "c", "d"} {
		ts.Columns[c] = synthColumn(rng, c)
	}
	return TablePhys{
		Name:      "t",
		Schema:    schema,
		Rows:      float64(rows),
		HeapPages: HeapPagesForRows(rows, 36),
		Stats:     ts,
	}
}

var synthCombos = [][]string{
	{"a"}, {"b"}, {"c"}, {"d"},
	{"a", "b"}, {"b", "a"}, {"c", "d"}, {"a", "c"}, {"d", "b"}, {"b", "c", "d"},
}

func synthIndexes(t testing.TB, rng *rand.Rand, tp TablePhys, n int) []IndexPhys {
	perm := rng.Perm(len(synthCombos))
	out := make([]IndexPhys, 0, n)
	for _, pi := range perm[:n] {
		ip, err := HypotheticalIndex(catalog.IndexDef{Table: "t", Columns: synthCombos[pi]}, tp)
		if err != nil {
			t.Fatalf("hypothetical index: %v", err)
		}
		out = append(out, ip)
	}
	return out
}

// synthStatement emits one random statement in the dialect the workload
// generator uses, exercising point and range predicates, IN lists,
// projections, star selects, and all three DML forms.
func synthStatement(rng *rand.Rand) string {
	cols := []string{"a", "b", "c", "d"}
	where := func(maxConj int) string {
		n := rng.Intn(maxConj + 1)
		if n == 0 {
			return ""
		}
		parts := make([]string, 0, n)
		ops := []string{"=", "<", ">", "<=", ">="}
		for i := 0; i < n; i++ {
			col := cols[rng.Intn(len(cols))]
			if rng.Intn(6) == 0 {
				k := 1 + rng.Intn(3)
				in := make([]string, k)
				for j := range in {
					in[j] = fmt.Sprint(rng.Intn(12000))
				}
				parts = append(parts, fmt.Sprintf("%s IN (%s)", col, strings.Join(in, ", ")))
				continue
			}
			parts = append(parts, fmt.Sprintf("%s %s %d", col, ops[rng.Intn(len(ops))], rng.Intn(12000)))
		}
		return " WHERE " + strings.Join(parts, " AND ")
	}
	switch rng.Intn(10) {
	case 0, 1, 2, 3:
		proj := "*"
		if rng.Intn(2) == 0 {
			k := 1 + rng.Intn(3)
			perm := rng.Perm(len(cols))
			sel := make([]string, k)
			for i := 0; i < k; i++ {
				sel[i] = cols[perm[i]]
			}
			proj = strings.Join(sel, ", ")
		}
		return "SELECT " + proj + " FROM t" + where(3)
	case 4, 5:
		return fmt.Sprintf("UPDATE t SET %s = %d", cols[rng.Intn(len(cols))], rng.Intn(12000)) + where(2)
	case 6, 7:
		return "DELETE FROM t" + where(2)
	default:
		return fmt.Sprintf("INSERT INTO t VALUES (%d, %d, %d, %d)",
			rng.Intn(12000), rng.Intn(12000), rng.Intn(12000), rng.Intn(12000))
	}
}

// checkSeed is the shared body of the fuzzer and the deterministic seed
// sweep: for one random world it asserts that PlanTable.Cost is
// bit-for-bit identical to scalar StatementCost on every configuration
// of the candidate set, and that the AddRow lattice kernel adds exactly
// Cost(c) to every cell of a prefilled row.
func checkSeed(t *testing.T, seed uint64) {
	rng := rand.New(rand.NewSource(int64(seed)))
	tp := synthTable(t, rng)
	idx := synthIndexes(t, rng, tp, 5)
	subset := make([]IndexPhys, 0, len(idx))
	// The row spans one bit past the candidate list, which Cost masks
	// away and AddRow must treat the same. Its prefill draws from its
	// own source so the seed's statements stay what they were.
	fill := rand.New(rand.NewSource(^int64(seed)))
	prefill := make([]float64, 2<<len(idx))
	row := make([]float64, len(prefill))
	scratch := make([]float64, 2*len(row))
	nstmt := 1 + rng.Intn(6)
	for si := 0; si < nstmt; si++ {
		text := synthStatement(rng)
		stmt, err := sql.Parse(text)
		if err != nil {
			t.Fatalf("seed %d: generated unparseable SQL %q: %v", seed, text, err)
		}
		pt, perr := CompilePlan(stmt, tp, idx)
		if perr != nil {
			if _, serr := StatementCost(stmt, tp, nil); serr == nil {
				t.Fatalf("seed %d: CompilePlan failed (%v) but StatementCost succeeded for %q", seed, perr, text)
			}
			continue
		}
		for c := uint64(0); c < 1<<len(idx); c++ {
			subset = subset[:0]
			for i := range idx {
				if c&(1<<uint(i)) != 0 {
					subset = append(subset, idx[i])
				}
			}
			want, serr := StatementCost(stmt, tp, subset)
			if serr != nil {
				t.Fatalf("seed %d: StatementCost(%q, %b): %v", seed, text, c, serr)
			}
			got := pt.Cost(c)
			if math.Float64bits(got) != math.Float64bits(want) {
				t.Fatalf("seed %d: %q config %05b: plan table %v (bits %x) != scalar %v (bits %x)",
					seed, text, c, got, math.Float64bits(got), want, math.Float64bits(want))
			}
		}
		for c := range prefill {
			prefill[c] = float64(fill.Intn(1000)) + fill.Float64()
		}
		for _, n := range []int{1 << len(idx), len(prefill)} {
			copy(row, prefill)
			pt.AddRow(row[:n], scratch)
			for c := 0; c < n; c++ {
				want := prefill[c] + pt.Cost(uint64(c))
				if math.Float64bits(row[c]) != math.Float64bits(want) {
					t.Fatalf("seed %d: %q lattice of %d, config %06b: AddRow %v (bits %x) != prefill+Cost %v (bits %x)",
						seed, text, n, c, row[c], math.Float64bits(row[c]), want, math.Float64bits(want))
				}
			}
		}
	}
}

// FuzzBatchCostEquivalence pins the tentpole invariant: batched
// plan-table costing is bitwise identical to the scalar coster on every
// configuration, across random schemas, statistics, index sets, and
// statements.
func FuzzBatchCostEquivalence(f *testing.F) {
	for s := uint64(0); s < 8; s++ {
		f.Add(s)
	}
	f.Fuzz(func(t *testing.T, seed uint64) {
		checkSeed(t, seed)
	})
}

// TestPlanTableMatchesStatementCostSeeds runs the fuzz body over a
// fixed seed sweep so plain `go test` exercises the equivalence without
// the fuzz engine.
func TestPlanTableMatchesStatementCostSeeds(t *testing.T) {
	for s := uint64(0); s < 50; s++ {
		checkSeed(t, s)
	}
}

// TestRelevantMaskMatchesSoloProbe pins the contract ExecInteractions
// depends on: bit i of RelevantMask is set exactly when a solo what-if
// probe of index i would pick a non-heap access path.
func TestRelevantMaskMatchesSoloProbe(t *testing.T) {
	for s := uint64(100); s < 120; s++ {
		rng := rand.New(rand.NewSource(int64(s)))
		tp := synthTable(t, rng)
		idx := synthIndexes(t, rng, tp, 5)
		for si := 0; si < 4; si++ {
			text := synthStatement(rng)
			stmt, err := sql.Parse(text)
			if err != nil {
				t.Fatalf("seed %d: %q: %v", s, text, err)
			}
			sel, ok := stmt.(*sql.Select)
			if !ok {
				continue
			}
			pt, err := CompilePlan(stmt, tp, idx)
			if err != nil {
				t.Fatalf("seed %d: CompilePlan(%q): %v", s, text, err)
			}
			for i := range idx {
				acc, err := ChooseAccess(sel, tp, idx[i:i+1])
				if err != nil {
					t.Fatalf("seed %d: ChooseAccess(%q): %v", s, text, err)
				}
				wantRelevant := acc.Kind != HeapScan
				gotRelevant := pt.RelevantMask()&(1<<uint(i)) != 0
				if wantRelevant != gotRelevant {
					t.Fatalf("seed %d: %q index %d: solo probe kind %v but relevant bit %v",
						s, text, i, acc.Kind, gotRelevant)
				}
			}
		}
	}
}

// TestPlanTableWideCliqueFallback builds a 14-wide relevant clique and
// checks Cost's bit-scan path — the one sparse frontiers and scalar
// callers take — against the scalar coster on sampled configurations.
func TestPlanTableWideCliqueFallback(t *testing.T) {
	const width = 14
	rng := rand.New(rand.NewSource(7))
	tp := synthTable(t, rng)
	def := catalog.IndexDef{Table: "t", Columns: []string{"a"}}
	idx := make([]IndexPhys, 0, width)
	for i := 0; i < width; i++ {
		ip, err := HypotheticalIndex(def, tp)
		if err != nil {
			t.Fatalf("hypothetical index: %v", err)
		}
		idx = append(idx, ip)
	}
	stmt := sql.MustParse("SELECT a FROM t WHERE a = 100")
	pt, err := CompilePlan(stmt, tp, idx)
	if err != nil {
		t.Fatalf("CompilePlan: %v", err)
	}
	if w := bits.OnesCount64(pt.RelevantMask()); w != width {
		t.Fatalf("want a %d-wide clique, got %d (mask %b)", width, w, pt.RelevantMask())
	}
	subset := make([]IndexPhys, 0, len(idx))
	check := func(c uint64) {
		subset = subset[:0]
		for i := range idx {
			if c&(1<<uint(i)) != 0 {
				subset = append(subset, idx[i])
			}
		}
		want, serr := StatementCost(stmt, tp, subset)
		if serr != nil {
			t.Fatalf("StatementCost(%b): %v", c, serr)
		}
		got := pt.Cost(c)
		if math.Float64bits(got) != math.Float64bits(want) {
			t.Fatalf("config %b: plan table %v != scalar %v", c, got, want)
		}
	}
	all := uint64(1)<<uint(len(idx)) - 1
	check(0)
	check(all)
	for i := 0; i < 300; i++ {
		check(rng.Uint64() & all)
	}
}

// TestCompilePlanRejectsInvalidStatement checks compile-time validation
// fails the same statements the scalar coster fails.
func TestCompilePlanRejectsInvalidStatement(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	tp := synthTable(t, rng)
	idx := synthIndexes(t, rng, tp, 3)
	stmt := sql.MustParse("SELECT nope FROM t WHERE a = 1")
	if _, err := CompilePlan(stmt, tp, idx); err == nil {
		t.Fatalf("CompilePlan accepted a statement with an unknown column")
	}
	if _, err := StatementCost(stmt, tp, idx); err == nil {
		t.Fatalf("StatementCost accepted a statement with an unknown column")
	}
}
