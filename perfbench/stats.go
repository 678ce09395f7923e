package main

import (
	"math"
	"sort"
	"time"
)

// minBeyond is how many samples must lie beyond a reported tail
// percentile: a p99 over 200 samples rests on two observations and is
// noise, so the tail is only reported where the sample supports it.
const minBeyond = 10

// quantile returns the q-quantile (0 ≤ q ≤ 1) of xs by nearest rank on a
// sorted copy; 0 for an empty sample.
func quantile(xs []float64, q float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	i := int(math.Ceil(q*float64(len(s)))) - 1
	if i < 0 {
		i = 0
	}
	if i >= len(s) {
		i = len(s) - 1
	}
	return s[i]
}

// supports reports whether a sample of n values has at least minBeyond
// values beyond its q-quantile.
func supports(n int, q float64) bool {
	return float64(n)*(1-q) >= minBeyond-1e-9
}

// median is the middle value (mean of the two middle values for an even
// count), the statistic every reported timing is centred on.
func median(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	m := len(s) / 2
	if len(s)%2 == 1 {
		return s[m]
	}
	return (s[m-1] + s[m]) / 2
}

// mean is the arithmetic mean, 0 for an empty sample.
func mean(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	sum := 0.0
	for _, x := range xs {
		sum += x
	}
	return sum / float64(len(xs))
}

// maxOf returns the largest value, 0 for an empty sample.
func maxOf(xs []float64) float64 {
	m := 0.0
	for i, x := range xs {
		if i == 0 || x > m {
			m = x
		}
	}
	return m
}

// schedule is an open-loop arrival schedule: request i is due at
// start + i·interval whether or not earlier requests have completed.
type schedule struct {
	start    time.Time
	interval time.Duration
}

func (s schedule) due(i int) time.Time { return s.start.Add(time.Duration(i) * s.interval) }

// openLoopTiming is one open-loop request: when it was due, when the
// generator actually sent it, and when it was acknowledged.
type openLoopTiming struct {
	due, sent, acked time.Time
}

// latency is measured from the due time, so a stall that delays later
// sends is charged to every request it delayed.
func (t openLoopTiming) latency() time.Duration { return t.acked.Sub(t.due) }

// lateness is how far behind schedule the generator sent the request.
func (t openLoopTiming) lateness() time.Duration {
	if d := t.sent.Sub(t.due); d > 0 {
		return d
	}
	return 0
}

// backlogGrowing reports whether an open-loop run fell progressively
// behind: the median lateness of its last quarter exceeds that of its
// first quarter by more than slack. A run that keeps up shows a flat
// lateness; one offered more than it can serve shows lateness climbing
// with every request.
func backlogGrowing(late []float64, slack float64) bool {
	q := len(late) / 4
	if q == 0 {
		return false
	}
	return median(late[len(late)-q:])-median(late[:q]) > slack
}

// quartiles returns the first and third quartile the way Python's
// statistics.quantiles(xs, n=4) computes them (the "exclusive" method),
// so spreads computed here match the ones the acceptance check uses.
func quartiles(xs []float64) (q1, q3 float64) {
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	n := len(s)
	if n == 0 {
		return 0, 0
	}
	if n == 1 {
		return s[0], s[0]
	}
	m := n + 1
	at := func(i int) float64 {
		j := i * m / 4
		if j < 1 {
			j = 1
		}
		if j > n-1 {
			j = n - 1
		}
		delta := i*m - j*4
		return (s[j-1]*float64(4-delta) + s[j]*float64(delta)) / 4
	}
	return at(1), at(3)
}

// spread is the interquartile distance as a share of the median.
func spread(xs []float64) float64 {
	med := median(xs)
	if med == 0 {
		return 0
	}
	q1, q3 := quartiles(xs)
	return (q3 - q1) / math.Abs(med)
}

// worse reports by what share a metric's new median is worse than the
// base median, given its direction; negative means better.
func worse(base, next float64, better string) float64 {
	if base == 0 {
		return 0
	}
	if better == "higher" {
		return (base - next) / math.Abs(base)
	}
	return (next - base) / math.Abs(base)
}

// regressed reports whether next is worse than base by more than bound.
func regressed(base, next float64, better string, bound float64) bool {
	return worse(base, next, better) > bound
}
