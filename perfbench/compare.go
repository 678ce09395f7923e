package main

import (
	"bufio"
	"encoding/json"
	"fmt"
	"io"
	"os"
	"strings"
)

// spec is the part of BENCHMARK.json the comparison needs.
type spec struct {
	EndToEnd []struct {
		Name   string  `json:"name"`
		Unit   string  `json:"unit"`
		Better string  `json:"better"`
		Bound  float64 `json:"bound"`
	} `json:"end_to_end"`
}

// readResults collects the metric values of every result line in a
// file (lines that are not a result object, such as the human-readable
// report, are skipped).
func readResults(path string) (map[string][]float64, int, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, 0, err
	}
	defer f.Close()
	out := map[string][]float64{}
	runs := 0
	sc := bufio.NewScanner(f)
	sc.Buffer(make([]byte, 1<<20), 1<<24)
	for sc.Scan() {
		line := strings.TrimSpace(sc.Text())
		if !strings.HasPrefix(line, "{") {
			continue
		}
		var r result
		if err := json.Unmarshal([]byte(line), &r); err != nil || r.Metrics == nil {
			continue
		}
		runs++
		for k, m := range r.Metrics {
			out[k] = append(out[k], m.Value)
		}
	}
	return out, runs, sc.Err()
}

// compareFiles compares two sets of runs of one workload, metric by
// metric: each side's median and interquartile spread, and whether the
// second is worse than the first by more than the metric's bound.
func compareFiles(w io.Writer, specPath, basePath, nextPath string) error {
	b, err := os.ReadFile(specPath)
	if err != nil {
		return err
	}
	var sp spec
	if err := json.Unmarshal(b, &sp); err != nil {
		return fmt.Errorf("%s: %w", specPath, err)
	}
	base, nb, err := readResults(basePath)
	if err != nil {
		return err
	}
	next, nn, err := readResults(nextPath)
	if err != nil {
		return err
	}
	fmt.Fprintf(w, "%-22s %12s %7s %12s %7s %8s %6s  verdict\n", "metric", "base p50", "spread", "next p50", "spread", "worse", "bound")
	bad := 0
	for _, m := range sp.EndToEnd {
		bv, nv := base[m.Name], next[m.Name]
		if len(bv) == 0 || len(nv) == 0 {
			fmt.Fprintf(w, "%-22s missing (%d base, %d next values)\n", m.Name, len(bv), len(nv))
			bad++
			continue
		}
		by := worse(median(bv), median(nv), m.Better)
		verdict := "ok"
		switch {
		case regressed(median(bv), median(nv), m.Better, m.Bound):
			verdict = "REGRESSED"
			bad++
		case spread(bv) > m.Bound || spread(nv) > m.Bound:
			verdict = "unresolved: spread above bound"
		}
		fmt.Fprintf(w, "%-22s %12.6g %7.3f %12.6g %7.3f %+8.3f %6.2f  %s\n",
			m.Name, median(bv), spread(bv), median(nv), spread(nv), by, m.Bound, verdict)
	}
	fmt.Fprintf(w, "%d base runs, %d next runs\n", nb, nn)
	if bad > 0 {
		return fmt.Errorf("%d metric(s) regressed or missing", bad)
	}
	return nil
}
