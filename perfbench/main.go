// Command perfbench is dyndesign's end-to-end benchmark. It drives the
// repository's three real paths as shipped — the one-shot advisor, the
// engine replay of a recommended design sequence, and the advisord
// service (driven by paper-w1's traced run) — on inputs generated from a
// seed, checks that their outputs are correct, and prints one JSON
// result line.
//
// Run it from the repository root through its wrapper, which builds it
// and cmd/advisord from source first:
//
//	bash perfbench/run.sh --workload paper-w1 --seed 1 --seconds 45 --trace 0
//
// With --trace 0 the result holds the end-to-end metrics; with --trace 1
// it holds the per-layer metrics of a separate traced run. README.md in
// this directory lists every metric and the workload it applies to.
package main

import (
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"math"
	"os"
	"path/filepath"
	"runtime"
	"sort"
	"strconv"
	"strings"
)

// metric is one reported value.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// result is the benchmark's output: the contract's four keys.
type result struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`

	errs  []string
	notes []string
}

// set records a metric value.
func (r *result) set(name, unit string, v float64) {
	if r.Metrics == nil {
		r.Metrics = map[string]metric{}
	}
	r.Metrics[name] = metric{Value: v, Unit: unit}
}

// check records a failed correctness check; any one fails the run.
func (r *result) check(ok bool, format string, args ...any) {
	if !ok {
		r.errs = append(r.errs, fmt.Sprintf(format, args...))
	}
}

// note adds a human-readable line (sample counts, percentiles used).
func (r *result) note(format string, args ...any) {
	r.notes = append(r.notes, fmt.Sprintf(format, args...))
}

// op counts one attempted operation and whether it failed.
func (r *result) op(err error) {
	r.Attempted++
	if err != nil {
		r.Failed++
		r.errs = append(r.errs, err.Error())
	}
}

// config is the run configuration shared by every workload.
type config struct {
	workload string
	seed     int64
	seconds  float64
	trace    bool
	advisord string // path of the advisord binary (paper-w1's traced run)
	outDir   string // directory for spans and service state, inside the checkout
}

// runners maps workload names to the functions that run them.
var runners = map[string]func(config, *result) error{
	"paper-w1": runPaperW1,
	"auto-rw":  runAutoRW,
}

func main() {
	var cfg config
	var traceFlag int
	flag.StringVar(&cfg.workload, "workload", "", "workload to run: paper-w1, auto-rw")
	flag.Int64Var(&cfg.seed, "seed", 1, "workload seed; the same seed gives the same inputs")
	flag.Float64Var(&cfg.seconds, "seconds", 45, "measurement time of the run")
	flag.IntVar(&traceFlag, "trace", 0, "1 reports per-layer metrics from a traced run instead of end-to-end ones")
	flag.StringVar(&cfg.advisord, "advisord", "", "advisord binary, driven by paper-w1's traced run")
	flag.StringVar(&cfg.outDir, "out", ".bench_build/perfbench", "directory for spans and service state")
	compare := flag.String("compare", "", "instead of running: compare two files of result lines, BASE,NEXT, against the bounds in -spec")
	spec := flag.String("spec", "BENCHMARK.json", "benchmark description holding the bounds (with -compare)")
	flag.Parse()
	if *compare != "" {
		base, next, ok := strings.Cut(*compare, ",")
		if !ok {
			fmt.Fprintln(os.Stderr, "perfbench: -compare takes BASE,NEXT")
			os.Exit(2)
		}
		if err := compareFiles(os.Stdout, *spec, base, next); err != nil {
			fmt.Fprintf(os.Stderr, "perfbench: %v\n", err)
			os.Exit(1)
		}
		return
	}
	cfg.trace = traceFlag == 1
	// The end-to-end run uses one processor: on a shared 2-vCPU machine,
	// bursts of CPU steal (up to 22%) slowed two-processor runs by up to
	// 70% at the tail, while one-processor runs interleaved with them
	// stayed within 5%. The program's parallel paths then run with one
	// worker. The traced run keeps the default processor count, the
	// configuration the program ships with, so the per-layer metrics
	// cover the worker pool of the matrix build and the ranking sweep.
	if !cfg.trace {
		runtime.GOMAXPROCS(1)
	}
	run, ok := runners[cfg.workload]
	if !ok {
		fmt.Fprintf(os.Stderr, "perfbench: unknown workload %q\n", cfg.workload)
		os.Exit(2)
	}
	if cfg.seconds <= 0 {
		fmt.Fprintln(os.Stderr, "perfbench: --seconds must be positive")
		os.Exit(2)
	}
	if err := os.MkdirAll(cfg.outDir, 0o755); err != nil {
		fmt.Fprintf(os.Stderr, "perfbench: %v\n", err)
		os.Exit(1)
	}
	res := &result{}
	if err := run(cfg, res); err != nil {
		fmt.Fprintf(os.Stderr, "perfbench: %s: %v\n", cfg.workload, err)
		os.Exit(1)
	}
	if err := keepReported(res, cfg.trace); err != nil {
		fmt.Fprintf(os.Stderr, "perfbench: %s: %v\n", cfg.workload, err)
		os.Exit(1)
	}
	res.Correct = len(res.errs) == 0
	for _, n := range res.notes {
		fmt.Println("#", n)
	}
	names := make([]string, 0, len(res.Metrics))
	for n := range res.Metrics {
		names = append(names, n)
	}
	sort.Strings(names)
	for _, n := range names {
		m := res.Metrics[n]
		fmt.Printf("%-32s %14s %s\n", n, strconv.FormatFloat(m.Value, 'g', 8, 64), m.Unit)
	}
	for _, e := range res.errs {
		fmt.Fprintf(os.Stderr, "perfbench: check failed: %s\n", e)
	}
	line, err := json.Marshal(res)
	if err != nil {
		fmt.Fprintf(os.Stderr, "perfbench: %v\n", err)
		os.Exit(1)
	}
	fmt.Println(string(line))
	if !res.Correct {
		os.Exit(1)
	}
}

// endToEnd lists the end-to-end metrics every workload reports with
// --trace 0; README.md defines each one per workload.
var endToEnd = []struct{ name, unit string }{
	{"setup_s", "s"},
	{"recommend_p50_ms", "ms"},
	{"request_p50_ms", "ms"},
	{"request_tail_ms", "ms"},
	{"design_cost_pages", "pages"},
	{"peak_rss_mb", "MB"},
}

// keepReported reduces the result to the metrics of the run's kind —
// end-to-end, or per-layer for a traced run — and fails when one is
// missing, not a finite number, or an end-to-end value that is not
// positive (every end-to-end metric measures something that happened).
func keepReported(res *result, traced bool) error {
	want := endToEnd
	if traced {
		want = perLayer
	}
	kept := map[string]metric{}
	for _, m := range want {
		v, ok := res.Metrics[m.name]
		if !ok || v.Unit != m.unit || math.IsNaN(v.Value) || math.IsInf(v.Value, 0) || (!traced && v.Value <= 0) {
			return fmt.Errorf("metric %s missing or invalid (%v)", m.name, v)
		}
		kept[m.name] = v
	}
	res.Metrics = kept
	return nil
}

// spansPath names the span file of one run.
func spansPath(cfg config) string {
	return filepath.Join(cfg.outDir, fmt.Sprintf("spans-%s-seed%d.jsonl", cfg.workload, cfg.seed))
}

// peakRSS reports this process's peak resident set (VmHWM) in MB.
func peakRSS(res *result) error {
	b, err := os.ReadFile("/proc/self/status")
	if err != nil {
		return err
	}
	for _, line := range strings.Split(string(b), "\n") {
		if rest, ok := strings.CutPrefix(line, "VmHWM:"); ok {
			kb, err := strconv.ParseFloat(strings.TrimSpace(strings.TrimSuffix(strings.TrimSpace(rest), "kB")), 64)
			if err != nil {
				return err
			}
			res.set("peak_rss_mb", "MB", kb/1024)
			return nil
		}
	}
	return errors.New("no VmHWM in /proc/self/status")
}
