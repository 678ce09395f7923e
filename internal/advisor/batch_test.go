package advisor

import (
	"math"
	"strings"
	"testing"

	"dyndesign/internal/core"
	"dyndesign/internal/workload"
)

// TestBatchExecMatchesExec pins the batched entry point at the model
// layer: BatchExec over a frontier is bit-for-bit identical to per-call
// Exec, and repeated calls do not drift.
func TestBatchExecMatchesExec(t *testing.T) {
	_, adv := testAdvisor(t)
	w := testWorkload(t)
	p, _, err := adv.Problem(w, paperOpts(2))
	if err != nil {
		t.Fatal(err)
	}
	bm, ok := p.Model.(core.BatchCostModel)
	if !ok {
		t.Fatal("advisor problem model does not implement core.BatchCostModel")
	}
	// Scalar twin over separately compiled plan tables.
	p2, _, err := adv.Problem(w, paperOpts(2))
	if err != nil {
		t.Fatal(err)
	}
	var out []float64
	for stage := 0; stage < p.Stages; stage++ {
		out = bm.BatchExec(stage, p.Configs, out[:0])
		if len(out) != len(p.Configs) {
			t.Fatalf("stage %d: BatchExec returned %d values for %d configs", stage, len(out), len(p.Configs))
		}
		for j, c := range p.Configs {
			want := p2.Model.Exec(stage, c)
			if math.Float64bits(out[j]) != math.Float64bits(want) {
				t.Fatalf("stage %d config %v: batch %v != scalar %v", stage, c, out[j], want)
			}
		}
		// Second pass over the same tables: must not drift.
		again := bm.BatchExec(stage, p.Configs, nil)
		for j := range again {
			if math.Float64bits(again[j]) != math.Float64bits(out[j]) {
				t.Fatalf("stage %d config %v: second batch %v != first %v", stage, p.Configs[j], again[j], out[j])
			}
		}
	}
}

// TestProblemRejectsUncostableStatement pins the assembly-time
// validation that replaced the mid-solve compile-error path: a
// statement that parses but cannot be costed fails Problem itself,
// naming its index and SQL text, before any solver runs.
func TestProblemRejectsUncostableStatement(t *testing.T) {
	_, adv := testAdvisor(t)
	w := &workload.Workload{}
	w.Append("", workload.MustStatement("SELECT a FROM t WHERE a = 1"))
	w.Append("", workload.MustStatement("SELECT nope FROM t"))
	opts := paperOpts(1)
	opts.Memo = NewMemo(0)
	_, _, err := adv.Problem(w, opts)
	if err == nil {
		t.Fatal("uncostable statement accepted")
	}
	for _, want := range []string{"statement 1", `"SELECT nope FROM t"`} {
		if !strings.Contains(err.Error(), want) {
			t.Fatalf("error %q does not name %s", err, want)
		}
	}
	if n := opts.Memo.Stats().Entries; n != 0 {
		t.Fatalf("failed assembly retained %d plan tables", n)
	}
}

// TestExecWarmMemoZeroAllocs pins the arena property of the hot path:
// Exec, a pure sum over the stage's compiled plan tables, performs no
// heap allocation at all.
func TestExecWarmMemoZeroAllocs(t *testing.T) {
	_, adv := testAdvisor(t)
	w := testWorkload(t)
	p, _, err := adv.Problem(w, paperOpts(2))
	if err != nil {
		t.Fatal(err)
	}
	m := p.Model.(*whatIfModel)
	cfg := p.Configs[len(p.Configs)-1]
	m.Exec(0, cfg)
	if allocs := testing.AllocsPerRun(100, func() { m.Exec(0, cfg) }); allocs != 0 {
		t.Fatalf("Exec allocates %.1f objects per call, want 0", allocs)
	}
}

// TestStatementCostPooledScratch pins the satellite fix: the scalar
// what-if path assembles its []cost.IndexPhys in pooled scratch instead
// of allocating per call. The average must amortize below one
// allocation per call (an occasional GC may empty the pool).
func TestStatementCostPooledScratch(t *testing.T) {
	_, adv := testAdvisor(t)
	s := workload.MustStatement("INSERT INTO t VALUES (1, 2, 3, 4)")
	full := core.Config(1)<<uint(len(adv.phys)) - 1
	if _, err := adv.StatementCost(s, full); err != nil {
		t.Fatal(err)
	}
	allocs := testing.AllocsPerRun(200, func() {
		if _, err := adv.StatementCost(s, full); err != nil {
			panic(err)
		}
	})
	if allocs >= 1 {
		t.Fatalf("StatementCost allocates %.2f objects per call; pooled scratch should amortize below 1", allocs)
	}
}

// TestParallelSolveMatchesSerial requires the batched frontier costing
// to be deterministic under parallel matrix builds: a Parallelism=4
// solve must produce bit-identical designs and cost to a serial one.
func TestParallelSolveMatchesSerial(t *testing.T) {
	_, adv := testAdvisor(t)
	w := testWorkload(t)
	serial := paperOpts(2)
	serial.Parallelism = 1
	par := paperOpts(2)
	par.Parallelism = 4
	r1, err := adv.Recommend(w, serial)
	if err != nil {
		t.Fatal(err)
	}
	r2, err := adv.Recommend(w, par)
	if err != nil {
		t.Fatal(err)
	}
	if math.Float64bits(r1.Solution.Cost) != math.Float64bits(r2.Solution.Cost) {
		t.Fatalf("parallel cost %v != serial cost %v", r2.Solution.Cost, r1.Solution.Cost)
	}
	if len(r1.Solution.Designs) != len(r2.Solution.Designs) {
		t.Fatalf("design length mismatch: %d vs %d", len(r2.Solution.Designs), len(r1.Solution.Designs))
	}
	for i := range r1.Solution.Designs {
		if r1.Solution.Designs[i] != r2.Solution.Designs[i] {
			t.Fatalf("stage %d: parallel design %v != serial %v", i, r2.Solution.Designs[i], r1.Solution.Designs[i])
		}
	}
	if r2.Stats.BatchedLookups == 0 {
		t.Fatal("solve did not route any frontier through BatchExec")
	}
	if r2.Stats.PlanTableBuilds == 0 {
		t.Fatal("solve compiled no plan tables")
	}
}
