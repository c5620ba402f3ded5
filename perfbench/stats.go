package main

import (
	"math"
	"regexp"
	"sort"
)

// minBeyond is the number of samples the percentile rule leaves above a
// reported point: a percentile is reported only when at least this many
// samples lie strictly beyond its rank, so a single outlier cannot set it.
const minBeyond = 10

// rank returns the nearest-rank index of quantile q in n sorted samples.
func rank(n int, q float64) int {
	i := int(math.Ceil(q*float64(n))) - 1
	if i < 0 {
		i = 0
	}
	if i > n-1 {
		i = n - 1
	}
	return i
}

// beyond reports how many of n samples lie strictly above quantile q's rank.
func beyond(n int, q float64) int { return n - 1 - rank(n, q) }

// tailQuantile returns the highest of the candidate quantiles (given in
// descending order) that leaves minBeyond samples beyond it, and false when
// none does.
func tailQuantile(n int, cands ...float64) (float64, bool) {
	for _, q := range cands {
		if beyond(n, q) >= minBeyond {
			return q, true
		}
	}
	return 0, false
}

// quantile returns the nearest-rank q-quantile of xs without reordering
// xs. Failed operations enter as +Inf, so they miss every latency limit.
func quantile(xs []float64, q float64) float64 {
	if len(xs) == 0 {
		return math.NaN()
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	return s[rank(len(s), q)]
}

func median(xs []float64) float64 {
	if len(xs) == 0 {
		return math.NaN()
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	n := len(s)
	if n%2 == 1 {
		return s[n/2]
	}
	return (s[n/2-1] + s[n/2]) / 2
}

func mean(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	var s float64
	for _, x := range xs {
		s += x
	}
	return s / float64(len(xs))
}

// ratio is a/b, or 0 when b is 0 (a layer the workload never reached).
func ratio(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}

// metric is one reported number with its unit and the number of samples
// behind it.
type metric struct {
	Value   float64
	Unit    string
	Samples int
}

var metricName = regexp.MustCompile(`^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$`)
