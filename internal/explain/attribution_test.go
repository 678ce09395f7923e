package explain

import (
	"math/rand"
	"sort"
	"testing"
)

// TestKeepTopMatchesFullSort pins the bounded top-N selection of
// transitionFor against the full stable sort it replaced: on random
// deltas drawn from a small set (so ties are common) and stages in
// random order, keepTop must return exactly the first n entries of the
// sorted impacts, for n below, at, and above the impact count.
func TestKeepTopMatchesFullSort(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	for trial := 0; trial < 200; trial++ {
		count := rng.Intn(40)
		impacts := make([]StageImpact, count)
		for i, stage := range rng.Perm(count) {
			impacts[i] = StageImpact{Stage: stage, Statement: -1, Delta: float64(rng.Intn(7) - 3)}
		}
		sorted := append([]StageImpact(nil), impacts...)
		sort.SliceStable(sorted, func(a, b int) bool {
			if sorted[a].Delta != sorted[b].Delta {
				return sorted[a].Delta > sorted[b].Delta
			}
			return sorted[a].Stage < sorted[b].Stage
		})
		for _, n := range []int{1, 2, 3, 5, count, count + 3} {
			if n < 1 {
				continue
			}
			var top []StageImpact
			for _, im := range impacts {
				top = keepTop(top, im, n)
			}
			want := sorted[:min(n, count)]
			if len(top) != len(want) {
				t.Fatalf("trial %d n=%d: kept %d impacts, want %d", trial, n, len(top), len(want))
			}
			for j := range want {
				if top[j] != want[j] {
					t.Fatalf("trial %d n=%d: rank %d is %+v, want %+v", trial, n, j, top[j], want[j])
				}
			}
		}
	}
}
