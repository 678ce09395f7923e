package advisor

import (
	"math"
	"math/rand"
	"slices"
	"sort"
	"sync"
	"testing"

	"dyndesign/internal/candidates"
	"dyndesign/internal/core"
	"dyndesign/internal/workload"
)

// latticeWorkload is an auto-rw-shaped trace at test scale: read phases
// around an INSERT and a point-UPDATE phase, so stages mix SELECT and
// DML plan tables.
func latticeWorkload(t *testing.T) *workload.Workload {
	t.Helper()
	mixes := workload.PaperMixes(testRows)
	domain := workload.DomainForRows(testRows)
	rng := rand.New(rand.NewSource(5))
	w := &workload.Workload{Name: "lattice"}
	for _, phase := range []string{"A", "INSERT", "C", "UPDATE", "B", "D"} {
		var stmts []workload.Statement
		var err error
		switch phase {
		case "INSERT":
			stmts, err = workload.GenerateInserts("t", 4, domain, rng, 30)
		case "UPDATE":
			stmts, err = workload.GenerateUpdates("t", "b", "a", domain, rng, 30)
		default:
			stmts, err = mixes[phase].Generate(rng, 40)
		}
		if err != nil {
			t.Fatal(err)
		}
		w.Append(phase, stmts...)
	}
	return w
}

// TestBatchExecLatticeRowsMatchExec pins BatchExec's frontier dispatch
// on a 10-candidate lattice: the full lattice (accumulated in place),
// the same lattice reversed and a space-bound-trimmed frontier (both
// gathered from the lattice row), and a sparse explicit frontier
// (per-configuration lookups) all equal scalar Exec bitwise, the
// lattice paths allocate nothing with a reused out, and concurrent
// callers get the same rows.
func TestBatchExecLatticeRowsMatchExec(t *testing.T) {
	db := buildDB(t)
	w := latticeWorkload(t)
	defs := candidates.FromWorkload(w, "t", candidates.Options{MaxWidth: 2, Limit: 10})
	if len(defs) != 10 {
		t.Fatalf("want 10 candidates, got %d", len(defs))
	}
	opts := Options{K: 4, SegmentSize: 10}
	problem := func(space DesignSpace, bound float64) *core.Problem {
		adv, err := New(db, space)
		if err != nil {
			t.Fatal(err)
		}
		o := opts
		o.SpaceBound = bound
		p, _, err := adv.Problem(w, o)
		if err != nil {
			t.Fatal(err)
		}
		return p
	}
	full := problem(DesignSpace{Table: "t", Structures: defs}, 0)
	if len(full.Configs) != 1<<len(defs) {
		t.Fatalf("full lattice has %d configs, want %d", len(full.Configs), 1<<len(defs))
	}
	// A bound at the 3/4 quantile of configuration sizes keeps every
	// single index (so the lattice row stays 1024 cells) but drops the
	// largest quarter of the configurations.
	sizes := make([]float64, len(full.Configs))
	for j, c := range full.Configs {
		sizes[j] = full.Model.Size(c)
	}
	sort.Float64s(sizes)
	trimmed := problem(DesignSpace{Table: "t", Structures: defs}, sizes[len(sizes)*3/4])
	sparse := problem(DesignSpace{Table: "t", Structures: defs, Configs: SingleIndexConfigs(len(defs))}, 0)

	// The whole lattice out of order must be gathered, not accumulated
	// in place.
	reversed := append([]core.Config(nil), full.Configs...)
	slices.Reverse(reversed)

	cases := []struct {
		name    string
		p       *core.Problem
		configs []core.Config
		lattice bool
	}{
		{"full", full, full.Configs, true},
		{"reversed", full, reversed, true},
		{"trimmed", trimmed, trimmed.Configs, true},
		{"sparse", sparse, sparse.Configs, false},
	}
	for _, tc := range cases {
		m := tc.p.Model.(*whatIfModel)
		configs := tc.configs
		if l, lattice := latticeLen(configs); lattice != tc.lattice {
			t.Fatalf("%s: %d configs in a %d-cell lattice: lattice path %v, want %v", tc.name, len(configs), l, lattice, tc.lattice)
		}
		want := make([][]float64, tc.p.Stages)
		var out []float64
		for stage := range want {
			want[stage] = make([]float64, len(configs))
			for j, c := range configs {
				want[stage][j] = m.Exec(stage, c)
			}
			out = m.BatchExec(stage, configs, out)
			for j, c := range configs {
				if math.Float64bits(out[j]) != math.Float64bits(want[stage][j]) {
					t.Fatalf("%s stage %d config %v: BatchExec %v != Exec %v", tc.name, stage, c, out[j], want[stage][j])
				}
			}
		}
		if tc.lattice {
			if allocs := testing.AllocsPerRun(50, func() { out = m.BatchExec(1, configs, out) }); allocs != 0 {
				t.Fatalf("%s: lattice BatchExec allocates %.1f objects per call, want 0", tc.name, allocs)
			}
		}
		// Parallel matrix-build workers call BatchExec on one model at
		// once; each must get its own pooled scratch.
		var wg sync.WaitGroup
		for g := 0; g < 4; g++ {
			wg.Add(1)
			go func(g int) {
				defer wg.Done()
				var out []float64
				for stage := g % 2; stage < tc.p.Stages; stage += 2 {
					out = m.BatchExec(stage, configs, out)
					for j := range out {
						if math.Float64bits(out[j]) != math.Float64bits(want[stage][j]) {
							t.Errorf("%s: concurrent stage %d config %v: %v != %v", tc.name, stage, configs[j], out[j], want[stage][j])
							return
						}
					}
				}
			}(g)
		}
		wg.Wait()
	}
}
