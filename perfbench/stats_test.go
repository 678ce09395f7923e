package main

import (
	"encoding/json"
	"math"
	"os"
	"path/filepath"
	"strings"
	"testing"
	"time"
)

func seq(n int) []float64 {
	out := make([]float64, n)
	for i := range out {
		out[i] = float64(i + 1)
	}
	return out
}

func TestQuantileNearestRank(t *testing.T) {
	xs := []float64{5, 1, 4, 2, 3}
	for _, c := range []struct {
		q    float64
		want float64
	}{{0, 1}, {0.2, 1}, {0.5, 3}, {0.9, 5}, {1, 5}} {
		if got := quantile(xs, c.q); got != c.want {
			t.Errorf("quantile(%v) = %v, want %v", c.q, got, c.want)
		}
	}
	if got := quantile(nil, 0.5); got != 0 {
		t.Errorf("quantile of empty sample = %v", got)
	}
	if xs[0] != 5 {
		t.Error("quantile sorted its input in place")
	}
}

// A tail percentile is reported only with at least ten samples beyond
// it: p90 needs 100 samples, p99 needs 1000.
func TestTailPercentileNeedsTenBeyond(t *testing.T) {
	for _, c := range []struct {
		n    int
		q    float64
		want bool
	}{{99, 0.90, false}, {100, 0.90, true}, {999, 0.99, false}, {1000, 0.99, true}, {20, 0.5, true}, {19, 0.5, false}} {
		if got := supports(c.n, c.q); got != c.want {
			t.Errorf("supports(%d, %v) = %v, want %v", c.n, c.q, got, c.want)
		}
	}
}

func TestMedian(t *testing.T) {
	if got := median([]float64{3, 1, 2}); got != 2 {
		t.Errorf("odd median = %v", got)
	}
	if got := median([]float64{4, 1, 3, 2}); got != 2.5 {
		t.Errorf("even median = %v", got)
	}
}

// Open-loop latency runs from the due time: a request sent late because
// an earlier one stalled is charged the wait.
func TestDueTimeLatencyAndLateness(t *testing.T) {
	t0 := time.Unix(1000, 0)
	s := schedule{start: t0, interval: 10 * time.Millisecond}
	if got := s.due(3); !got.Equal(t0.Add(30 * time.Millisecond)) {
		t.Fatalf("due(3) = %v", got)
	}
	onTime := openLoopTiming{due: s.due(1), sent: s.due(1), acked: s.due(1).Add(2 * time.Millisecond)}
	if onTime.latency() != 2*time.Millisecond || onTime.lateness() != 0 {
		t.Errorf("on-time request: latency %v lateness %v", onTime.latency(), onTime.lateness())
	}
	// Sent 25 ms late behind a stall, served in 2 ms: 27 ms latency.
	late := openLoopTiming{due: s.due(2), sent: s.due(2).Add(25 * time.Millisecond), acked: s.due(2).Add(27 * time.Millisecond)}
	if late.latency() != 27*time.Millisecond || late.lateness() != 25*time.Millisecond {
		t.Errorf("late request: latency %v lateness %v", late.latency(), late.lateness())
	}
	early := openLoopTiming{due: s.due(4), sent: s.due(4).Add(-time.Millisecond), acked: s.due(4)}
	if early.lateness() != 0 {
		t.Errorf("a request sent early is %v late", early.lateness())
	}
}

// The backlog test: an open-loop run keeps up when its lateness stays
// flat, and falls behind when lateness climbs through the run.
func TestBacklogGrowing(t *testing.T) {
	flat := make([]float64, 400)
	climbing := make([]float64, 400)
	for i := range flat {
		flat[i] = float64(i%7) * 0.1
		climbing[i] = float64(i) * 0.5
	}
	if backlogGrowing(flat, 1) {
		t.Error("flat lateness reported as a growing backlog")
	}
	if !backlogGrowing(climbing, 1) {
		t.Error("climbing lateness not reported as a growing backlog")
	}
	if backlogGrowing([]float64{0, 100, 200}, 1) {
		t.Error("too short a run judged")
	}
}

// quartiles must agree with Python's statistics.quantiles(xs, n=4).
func TestQuartilesMatchPython(t *testing.T) {
	for _, c := range []struct {
		xs     []float64
		q1, q3 float64
	}{
		// statistics.quantiles([1..10], n=4) == [2.75, 5.5, 8.25]
		{seq(10), 2.75, 8.25},
		// statistics.quantiles([1, 2, 3], n=4) == [1.0, 2.0, 3.0]
		{[]float64{3, 1, 2}, 1, 3},
		// statistics.quantiles([1, 2], n=4) == [0.75, 1.5, 2.25]
		{[]float64{1, 2}, 0.75, 2.25},
	} {
		q1, q3 := quartiles(c.xs)
		if math.Abs(q1-c.q1) > 1e-12 || math.Abs(q3-c.q3) > 1e-12 {
			t.Errorf("quartiles(%v) = %v, %v; want %v, %v", c.xs, q1, q3, c.q1, c.q3)
		}
	}
	if got := spread(seq(10)); math.Abs(got-(8.25-2.75)/5.5) > 1e-12 {
		t.Errorf("spread = %v", got)
	}
}

func TestBoundComparison(t *testing.T) {
	for _, c := range []struct {
		base, next float64
		better     string
		bound      float64
		want       bool
	}{
		{100, 110, "lower", 0.1, false}, // exactly at the bound
		{100, 111, "lower", 0.1, true},
		{100, 80, "lower", 0.1, false}, // better
		{100, 89, "higher", 0.1, true},
		{100, 95, "higher", 0.1, false},
		{100, 150, "higher", 0.1, false},
	} {
		if got := regressed(c.base, c.next, c.better, c.bound); got != c.want {
			t.Errorf("regressed(%v→%v, %s, %v) = %v, want %v", c.base, c.next, c.better, c.bound, got, c.want)
		}
	}
}

func TestCompareFiles(t *testing.T) {
	dir := t.TempDir()
	spec := `{"end_to_end": [{"name": "latency_ms", "unit": "ms", "better": "lower", "bound": 0.1}]}`
	line := func(v string) string {
		return `{"correct":true,"attempted":1,"failed":0,"metrics":{"latency_ms":{"value":` + v + `,"unit":"ms"}}}`
	}
	write := func(name string, vals ...string) string {
		var lines []string
		for _, v := range vals {
			lines = append(lines, "latency_ms 1 ms", line(v))
		}
		p := filepath.Join(dir, name)
		if err := os.WriteFile(p, []byte(strings.Join(lines, "\n")), 0o644); err != nil {
			t.Fatal(err)
		}
		return p
	}
	specPath := filepath.Join(dir, "BENCHMARK.json")
	if err := os.WriteFile(specPath, []byte(spec), 0o644); err != nil {
		t.Fatal(err)
	}
	base := write("base", "10", "10.1", "9.9")
	same := write("same", "10.2", "10", "9.8")
	slow := write("slow", "12", "12.1", "11.9")
	var out strings.Builder
	if err := compareFiles(&out, specPath, base, same); err != nil {
		t.Errorf("same code compared as a regression: %v\n%s", err, out.String())
	}
	out.Reset()
	if err := compareFiles(&out, specPath, base, slow); err == nil || !strings.Contains(out.String(), "REGRESSED") {
		t.Errorf("a 20%% slowdown passed a 10%% bound: %v\n%s", err, out.String())
	}
}

func TestSelfTimeAndCoverage(t *testing.T) {
	ms := time.Millisecond
	spans := []spanRec{
		{Name: "op", Start: 0, End: 100 * ms},
		{Name: "workload.ReadJSON", Start: 0, End: 30 * ms},
		{Name: "advisor.recommend", Start: 30 * ms, End: 90 * ms},
		// two parallel cost rows overlapping each other
		{Name: "matrix.exec_stage", Start: 40 * ms, End: 70 * ms},
		{Name: "matrix.exec_stage", Start: 50 * ms, End: 80 * ms},
		{Name: "setup", Start: 200 * ms, End: 300 * ms},
	}
	sum := summarizeTrace(spans, "op")
	if sum.ops != 1 || sum.opWall != 100*ms {
		t.Fatalf("ops %d wall %v", sum.ops, sum.opWall)
	}
	if sum.unattrib != 10*ms {
		t.Errorf("unattributed %v, want 10ms", sum.unattrib)
	}
	if got := sum.coverage(); math.Abs(got-0.9) > 1e-12 {
		t.Errorf("coverage %v, want 0.9", got)
	}
	if sum.self["workload"] != 30*ms {
		t.Errorf("workload self %v", sum.self["workload"])
	}
	// advisor.recommend covers 60 ms, 40 of it under the cost rows.
	if sum.self["advisor"] != 20*ms {
		t.Errorf("advisor self %v, want 20ms", sum.self["advisor"])
	}
	// Parallel rows are busy time: 30 + 30 ms.
	if sum.self["cost"] != 60*ms {
		t.Errorf("cost self %v, want 60ms", sum.self["cost"])
	}
}

// BENCHMARK.json must list exactly the metrics the benchmark reports,
// with the same units, and exactly the workloads it can run.
func TestBenchmarkSpecMatchesCode(t *testing.T) {
	b, err := os.ReadFile(filepath.Join("..", "BENCHMARK.json"))
	if err != nil {
		t.Skipf("no BENCHMARK.json beside the benchmark: %v", err)
	}
	var sp struct {
		Workloads []struct{ Name string }       `json:"workloads"`
		EndToEnd  []struct{ Name, Unit string } `json:"end_to_end"`
		PerLayer  []struct{ Name, Unit string } `json:"per_layer"`
	}
	if err := json.Unmarshal(b, &sp); err != nil {
		t.Fatal(err)
	}
	listed := map[string]bool{}
	for _, w := range sp.Workloads {
		listed[w.Name] = true
		if runners[w.Name] == nil {
			t.Errorf("BENCHMARK.json workload %q has no runner", w.Name)
		}
	}
	for name := range runners {
		if !listed[name] {
			t.Errorf("workload %q runs but BENCHMARK.json does not list it", name)
		}
	}
	same := func(kind string, spec []struct{ Name, Unit string }, code []struct{ name, unit string }) {
		if len(spec) != len(code) {
			t.Errorf("%s: BENCHMARK.json lists %d metrics, the code reports %d", kind, len(spec), len(code))
			return
		}
		for i := range spec {
			if spec[i].Name != code[i].name || spec[i].Unit != code[i].unit {
				t.Errorf("%s %d: BENCHMARK.json has %s [%s], the code %s [%s]",
					kind, i, spec[i].Name, spec[i].Unit, code[i].name, code[i].unit)
			}
		}
	}
	same("end_to_end", sp.EndToEnd, endToEnd)
	same("per_layer", sp.PerLayer, perLayer)
}

func TestLayerOf(t *testing.T) {
	for name, want := range map[string]string{
		"op":                     "bench",
		"engine.MeasureStmt":     "engine",
		"matrix.exec_stage":      "cost",
		"matrix.build":           "core",
		"kaware.sweep":           "core",
		"solve":                  "core",
		"advisor.problem":        "advisor",
		"advisor.explain":        "explain",
		"workload.Window.Append": "workload",
	} {
		if got := layerOf(name); got != want {
			t.Errorf("layerOf(%q) = %q, want %q", name, got, want)
		}
	}
}
