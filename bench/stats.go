package main

import (
	"fmt"
	"math"
	"sort"
)

// quantile returns the q-quantile of an ascending slice (nearest rank).
func quantile(sorted []int64, q float64) int64 {
	if len(sorted) == 0 {
		return 0
	}
	i := int(math.Ceil(q*float64(len(sorted)))) - 1
	if i < 0 {
		i = 0
	}
	return sorted[i]
}

// midmean is the interquartile mean of an ascending slice: the mean of the
// middle half. Where a latency distribution has two modes either side of
// its median — an LS read that finds the reactor idle, or behind a drain —
// the median jumps between them from run to run; the midmean moves with
// the share of each.
func midmean(sorted []int64) float64 {
	mid := sorted[len(sorted)/4 : len(sorted)-len(sorted)/4]
	if len(mid) == 0 {
		return 0
	}
	var sum int64
	for _, v := range mid {
		sum += v
	}
	return float64(sum) / float64(len(mid))
}

// topPercentile picks the highest of p99, p99.9, p99.99, p99.999 that
// still has at least ten samples beyond it, and its label; fewer than
// 1000 samples support none and it returns "".
func topPercentile(sorted []int64) (label string, v int64) {
	n := len(sorted)
	div := 100 // the percentile leaves n/div samples beyond it
	for _, l := range []string{"p99", "p99.9", "p99.99", "p99.999"} {
		if n < 10*div {
			break
		}
		label, v = l, sorted[n-n/div-1]
		div *= 10
	}
	return label, v
}

func median(v []float64) float64 {
	if len(v) == 0 {
		return 0
	}
	s := append([]float64(nil), v...)
	sort.Float64s(s)
	if n := len(s); n%2 == 1 {
		return s[n/2]
	} else {
		return (s[n/2-1] + s[n/2]) / 2
	}
}

// iqrShare is the distance between the first and third quartile as a
// share of the median, with the quartiles Python's
// statistics.quantiles(v, n=4) gives (exclusive method). Fewer than two
// values have no spread.
func iqrShare(v []float64) float64 {
	n := len(v)
	m := median(v)
	if n < 2 || m == 0 {
		return 0
	}
	s := append([]float64(nil), v...)
	sort.Float64s(s)
	at := func(i int) float64 {
		j := i * (n + 1) / 4
		if j < 1 {
			j = 1
		} else if j > n-1 {
			j = n - 1
		}
		delta := float64(i*(n+1) - j*4)
		return (s[j-1]*(4-delta) + s[j]*delta) / 4
	}
	return math.Abs(at(3)-at(1)) / math.Abs(m)
}

func us(ns int64) float64 { return float64(ns) / 1e3 }

func fmtVal(v float64) string { return fmt.Sprintf("%.6g", v) }
