package main

import (
	"bufio"
	"encoding/json"
	"os"
	"sort"
	"strings"
	"sync"
	"time"

	"dyndesign/internal/obs"
)

// Spans are kept in memory while the benchmark runs and written out at
// exit. Two sources feed one recorder: spans the benchmark opens around
// each call into a module's public functions (named after the module,
// e.g. "engine.MeasureStmt"), and the program's own obs spans
// (advisor.recommend, matrix.exec_stage, ...) delivered through an
// obs.Sink. Neither carries a parent identifier, so nesting is
// recovered from interval containment.

// spanRec is one finished span, times relative to the recorder's origin.
type spanRec struct {
	Name  string        `json:"name"`
	Start time.Duration `json:"start_ns"`
	End   time.Duration `json:"end_ns"`
	// Op numbers the measured operation the span belongs to (0 for
	// set-up), so spans of one operation share an identifier.
	Op int `json:"op"`
}

func (s spanRec) dur() time.Duration { return s.End - s.Start }

// recorder collects spans; the nil recorder records nothing, so the
// untraced run pays one nil check per call site.
type recorder struct {
	t0    time.Time
	mu    sync.Mutex
	op    int
	spans []spanRec
}

func newRecorder() *recorder { return &recorder{t0: time.Now()} }

// begin opens a benchmark-side span; the returned function closes it.
func (r *recorder) begin(name string) func() {
	if r == nil {
		return func() {}
	}
	start := time.Since(r.t0)
	return func() { r.add(name, start, time.Since(r.t0)) }
}

func (r *recorder) add(name string, start, end time.Duration) {
	r.mu.Lock()
	r.spans = append(r.spans, spanRec{Name: name, Start: start, End: end, Op: r.op})
	r.mu.Unlock()
}

// setOp tags the spans recorded from now on with operation id op.
func (r *recorder) setOp(op int) {
	if r == nil {
		return
	}
	r.mu.Lock()
	r.op = op
	r.mu.Unlock()
}

// Emit implements obs.Sink for the program's own spans.
func (r *recorder) Emit(rec obs.SpanRecord) {
	start := rec.Start.Sub(r.t0)
	r.add(rec.Name, start, start+rec.Dur)
}

// tracer returns an obs tracer feeding the recorder, nil (the disabled
// tracer) for the nil recorder.
func (r *recorder) tracer() *obs.Tracer {
	if r == nil {
		return nil
	}
	return obs.NewTracer(r)
}

// write stores every span as one JSON line.
func (r *recorder) write(path string) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	w := bufio.NewWriter(f)
	enc := json.NewEncoder(w)
	r.mu.Lock()
	for _, s := range r.spans {
		if err := enc.Encode(s); err != nil {
			r.mu.Unlock()
			f.Close()
			return err
		}
	}
	r.mu.Unlock()
	if err := w.Flush(); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

// programLayer maps the program's own span names onto the module that
// does the work under them; every other program span belongs to core's
// solvers (see core's Span* names).
var programLayer = map[string]string{
	"advisor.recommend": "advisor",
	"advisor.problem":   "advisor",
	"advisor.explain":   "explain",
	"matrix.exec_stage": "cost", // a row of what-if EXEC costing
}

// coreSpanPrefixes are the families of core's solver spans.
var coreSpanPrefixes = map[string]bool{
	"solve": true, "matrix": true, "seqgraph": true, "kaware": true, "greedyseq": true,
	"ranking": true, "merge": true, "resilient": true, "partition": true,
}

// layerOf names the layer a span's time is charged to: the program's
// spans by programLayer and coreSpanPrefixes, the benchmark's by the
// module prefix of the function it wraps ("engine.MeasureStmt" is
// engine), and the operation root span ("op") to the benchmark's own
// glue.
func layerOf(name string) string {
	if l, ok := programLayer[name]; ok {
		return l
	}
	prefix, _, found := strings.Cut(name, ".")
	if !found {
		if coreSpanPrefixes[name] {
			return "core"
		}
		return "bench"
	}
	if coreSpanPrefixes[prefix] {
		return "core"
	}
	return prefix
}

// node is a span with its children, as recovered by containment.
type node struct {
	spanRec
	kids []*node
}

// buildForest nests spans by interval containment: a span's parent is
// the innermost span that started no later and ended no earlier. Spans
// from parallel workers that overlap without nesting become siblings.
func buildForest(spans []spanRec) []*node {
	nodes := make([]*node, len(spans))
	for i := range spans {
		nodes[i] = &node{spanRec: spans[i]}
	}
	sort.SliceStable(nodes, func(i, j int) bool {
		if nodes[i].Start != nodes[j].Start {
			return nodes[i].Start < nodes[j].Start
		}
		return nodes[i].End > nodes[j].End
	})
	var roots, stack []*node
	for _, n := range nodes {
		for len(stack) > 0 && stack[len(stack)-1].End < n.End {
			stack = stack[:len(stack)-1]
		}
		if len(stack) == 0 {
			roots = append(roots, n)
		} else {
			p := stack[len(stack)-1]
			p.kids = append(p.kids, n)
		}
		stack = append(stack, n)
	}
	return roots
}

// covered is the length of the union of the children's intervals.
func (n *node) covered() time.Duration {
	if len(n.kids) == 0 {
		return 0
	}
	iv := make([][2]time.Duration, len(n.kids))
	for i, k := range n.kids {
		iv[i] = [2]time.Duration{k.Start, k.End}
	}
	sort.Slice(iv, func(i, j int) bool { return iv[i][0] < iv[j][0] })
	var total time.Duration
	cur := iv[0]
	for _, x := range iv[1:] {
		if x[0] > cur[1] {
			total += cur[1] - cur[0]
			cur = x
			continue
		}
		if x[1] > cur[1] {
			cur[1] = x[1]
		}
	}
	return total + cur[1] - cur[0]
}

// selfTimes charges every span's self time (its duration minus the
// union of its children) to its layer, over the whole forest.
func selfTimes(roots []*node) map[string]time.Duration {
	out := map[string]time.Duration{}
	var walk func(n *node)
	walk = func(n *node) {
		self := n.dur() - n.covered()
		if self < 0 {
			self = 0
		}
		out[layerOf(n.Name)] += self
		for _, k := range n.kids {
			walk(k)
		}
	}
	for _, r := range roots {
		walk(r)
	}
	return out
}

// traceSummary is what the traced run reports about attribution.
type traceSummary struct {
	self     map[string]time.Duration // self time per layer, op spans only
	ops      int                      // operation root spans seen
	opWall   time.Duration            // summed duration of the op roots
	unattrib time.Duration            // op root self time: glue no layer span covers
}

// coverage is the share of the operations' wall time inside a named
// layer's span.
func (t traceSummary) coverage() float64 {
	if t.opWall == 0 {
		return 0
	}
	return 1 - float64(t.unattrib)/float64(t.opWall)
}

// summarize attributes the spans under every root named rootName.
func summarizeTrace(spans []spanRec, rootName string) traceSummary {
	sum := traceSummary{self: map[string]time.Duration{}}
	for _, r := range buildForest(spans) {
		if r.Name != rootName {
			continue
		}
		sum.ops++
		sum.opWall += r.dur()
		for l, d := range selfTimes([]*node{r}) {
			sum.self[l] += d
		}
	}
	sum.unattrib = sum.self["bench"]
	return sum
}

// spansNamed returns the durations in milliseconds of spans with a name.
func spansNamed(spans []spanRec, name string) []float64 {
	var out []float64
	for _, s := range spans {
		if s.Name == name {
			out = append(out, ms(s.dur()))
		}
	}
	return out
}

func ms(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }
func us(d time.Duration) float64 { return float64(d) / float64(time.Microsecond) }

// snapshotSpans copies the recorded spans.
func (r *recorder) snapshot() []spanRec {
	r.mu.Lock()
	defer r.mu.Unlock()
	return append([]spanRec(nil), r.spans...)
}
