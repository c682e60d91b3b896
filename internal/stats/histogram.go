// Package stats provides latency histograms, throughput counters, and
// table rendering used by the benchmark harness, the experiment runners
// and the live telemetry.
//
// The histogram is log-bucketed (HDR-style) so that recording is O(1) and
// allocation-free on the hot path while still resolving high percentiles
// (p99.99) with bounded relative error. This package is the only one that
// knows the bucket grid: Histogram is its plain view, AtomicHistogram its
// concurrent one, and everything else reaches a bucket through NumBuckets,
// BucketUpper and Histogram.Bucket.
package stats

import (
	"fmt"
	"math"
	"math/bits"
	"sort"
)

// subBucketBits controls histogram resolution: each power-of-two range is
// split into 2^subBucketBits linear sub-buckets, bounding relative error of
// any recorded value to 1/2^subBucketBits (~1.6% here).
const subBucketBits = 6

const subBuckets = 1 << subBucketBits

// maxExp is the number of power-of-two ranges tracked. 2^44 ns is about
// 4.8 hours, far beyond any latency this repo measures.
const maxExp = 44

// SubBucketBits tags the grid's geometry wherever bucket indices leave
// this package (a wire encoding of a delta, say): two sides whose tags
// differ cannot add their buckets.
const SubBucketBits = subBucketBits

// NumBuckets is the size of the bucket grid: every bucket index is in
// [0, NumBuckets).
const NumBuckets = maxExp * subBuckets

// Histogram is a log-bucketed histogram of non-negative int64 samples
// (nanoseconds by convention). The zero value is ready to use.
// Histogram is not safe for concurrent use; in the simulator every
// recording site runs on the single event-loop goroutine, and the TCP
// driver keeps one histogram per worker and merges at the end.
type Histogram struct {
	counts [NumBuckets]int64
	n      int64
	sum    int64
	min    int64
	max    int64
}

// bucketIndex maps a value to its bucket.
func bucketIndex(v int64) int {
	if v < 0 {
		v = 0
	}
	if v < subBuckets {
		return int(v)
	}
	// Position of the highest set bit, relative to the sub-bucket width.
	exp := bits.Len64(uint64(v)) - 1 - subBucketBits
	if exp >= maxExp-1 {
		exp = maxExp - 2
		return (exp+1)*subBuckets - 1 + subBuckets
	}
	sub := int(v >> uint(exp)) // in [subBuckets, 2*subBuckets)
	return (exp+1)*subBuckets + (sub - subBuckets)
}

// bucketLow returns the lowest value mapping to bucket i (inverse of
// bucketIndex, up to quantization).
func bucketLow(i int) int64 {
	if i < subBuckets {
		return int64(i)
	}
	exp := i/subBuckets - 1
	sub := i%subBuckets + subBuckets
	return int64(sub) << uint(exp)
}

// BucketUpper returns the largest value bucket i admits; the last bucket
// takes everything above its lower edge.
func BucketUpper(i int) int64 {
	if i >= NumBuckets-1 {
		return math.MaxInt64
	}
	return bucketLow(i+1) - 1
}

// Bucket returns how many samples lie in bucket i.
func (h *Histogram) Bucket(i int) int64 { return h.counts[i] }

// CumulativeLE returns how many samples lie in buckets whose upper bound
// is at most bound: the Prometheus histogram value for le=bound, exact
// when bound is some bucket's upper bound.
func (h *Histogram) CumulativeLE(bound int64) int64 {
	var n int64
	for i, c := range h.counts {
		if c != 0 && BucketUpper(i) <= bound {
			n += c
		}
	}
	return n
}

// Since returns the samples h holds beyond prev, an earlier copy of the
// same histogram: the interval between the two. Counts and sum are exact.
// The extremes of the interval are not kept, so they are bounded by the
// edges of its lowest and highest occupied buckets, within h's own.
func (h *Histogram) Since(prev *Histogram) *Histogram {
	d := &Histogram{n: h.n - prev.n, sum: h.sum - prev.sum}
	lo, hi := -1, -1
	for i := range h.counts {
		if c := h.counts[i] - prev.counts[i]; c > 0 {
			d.counts[i] = c
			if lo < 0 {
				lo = i
			}
			hi = i
		}
	}
	if lo >= 0 {
		d.min = max(bucketLow(lo), h.min)
		d.max = min(BucketUpper(hi), h.max)
	}
	return d
}

// Record adds one sample.
func (h *Histogram) Record(v int64) {
	if v < 0 {
		v = 0
	}
	h.counts[bucketIndex(v)]++
	h.n++
	h.sum += v
	if h.n == 1 || v < h.min {
		h.min = v
	}
	if v > h.max {
		h.max = v
	}
}

// RecordN adds the same sample n times.
func (h *Histogram) RecordN(v int64, n int64) {
	if n <= 0 {
		return
	}
	if v < 0 {
		v = 0
	}
	h.counts[bucketIndex(v)] += n
	h.n += n
	h.sum += v * n
	if h.n == n || v < h.min {
		h.min = v
	}
	if v > h.max {
		h.max = v
	}
}

// Merge adds all samples of o into h.
func (h *Histogram) Merge(o *Histogram) {
	if o == nil || o.n == 0 {
		return
	}
	for i, c := range o.counts {
		h.counts[i] += c
	}
	if h.n == 0 || o.min < h.min {
		h.min = o.min
	}
	if o.max > h.max {
		h.max = o.max
	}
	h.n += o.n
	h.sum += o.sum
}

// Reset clears the histogram.
func (h *Histogram) Reset() { *h = Histogram{} }

// Count returns the number of recorded samples.
func (h *Histogram) Count() int64 { return h.n }

// Sum returns the sum of all recorded samples.
func (h *Histogram) Sum() int64 { return h.sum }

// Min returns the smallest recorded sample (0 if empty).
func (h *Histogram) Min() int64 {
	if h.n == 0 {
		return 0
	}
	return h.min
}

// Max returns the largest recorded sample (0 if empty).
func (h *Histogram) Max() int64 {
	if h.n == 0 {
		return 0
	}
	return h.max
}

// Mean returns the arithmetic mean of recorded samples (0 if empty).
func (h *Histogram) Mean() float64 {
	if h.n == 0 {
		return 0
	}
	return float64(h.sum) / float64(h.n)
}

// Quantile returns an estimate of the q-quantile (q in [0,1]). For q=1 it
// returns Max(). Empty histograms return 0.
func (h *Histogram) Quantile(q float64) int64 {
	if h.n == 0 {
		return 0
	}
	if q <= 0 {
		return h.min
	}
	if q >= 1 {
		return h.max
	}
	rank := int64(math.Ceil(q * float64(h.n)))
	if rank < 1 {
		rank = 1
	}
	var cum int64
	for i, c := range h.counts {
		cum += c
		if cum >= rank {
			v := bucketLow(i)
			if v < h.min {
				v = h.min
			}
			if v > h.max {
				v = h.max
			}
			return v
		}
	}
	return h.max
}

// P50, P90, P99, P999, P9999 are convenience accessors for common tails.
func (h *Histogram) P50() int64   { return h.Quantile(0.50) }
func (h *Histogram) P90() int64   { return h.Quantile(0.90) }
func (h *Histogram) P99() int64   { return h.Quantile(0.99) }
func (h *Histogram) P999() int64  { return h.Quantile(0.999) }
func (h *Histogram) P9999() int64 { return h.Quantile(0.9999) }

// Tail returns the 99.99th percentile when at least minSamples samples are
// available to make it meaningful, otherwise it degrades to the highest
// percentile the sample count supports (p99.9, then p99, then max).
// The paper reports 99.99% tail latency; short simulations of LS tenants at
// QD=1 may not accumulate 10^4 samples, so experiments call Tail.
func (h *Histogram) Tail() int64 {
	switch {
	case h.n >= 10000:
		return h.P9999()
	case h.n >= 1000:
		return h.P999()
	case h.n >= 100:
		return h.P99()
	default:
		return h.Max()
	}
}

// String summarizes the histogram.
func (h *Histogram) String() string {
	return fmt.Sprintf("n=%d mean=%.1f p50=%d p99=%d p99.99=%d max=%d",
		h.n, h.Mean(), h.P50(), h.P99(), h.P9999(), h.max)
}

// ExactQuantile computes the q-quantile of raw samples; used by tests to
// validate Histogram against ground truth.
func ExactQuantile(samples []int64, q float64) int64 {
	s := append([]int64(nil), samples...)
	sort.Slice(s, func(i, j int) bool { return s[i] < s[j] })
	return NearestRank(s, q)
}

// NearestRank returns the q-quantile of already sorted samples by the
// nearest-rank rule: the sample of rank ceil(q*n), clamped to the first
// and last (0 when there are none).
func NearestRank(sorted []int64, q float64) int64 {
	if len(sorted) == 0 {
		return 0
	}
	rank := int(math.Ceil(q*float64(len(sorted)))) - 1
	rank = min(max(rank, 0), len(sorted)-1)
	return sorted[rank]
}

// FormatNanos renders a nanosecond count in a human unit.
func FormatNanos(ns int64) string {
	switch {
	case ns >= 1e9:
		return fmt.Sprintf("%.2fs", float64(ns)/1e9)
	case ns >= 1e6:
		return fmt.Sprintf("%.2fms", float64(ns)/1e6)
	case ns >= 1e3:
		return fmt.Sprintf("%.2fus", float64(ns)/1e3)
	default:
		return fmt.Sprintf("%dns", ns)
	}
}

// FormatBytesPerSec renders a byte rate.
func FormatBytesPerSec(bps float64) string {
	switch {
	case bps >= 1e9:
		return fmt.Sprintf("%.2fGB/s", bps/1e9)
	case bps >= 1e6:
		return fmt.Sprintf("%.2fMB/s", bps/1e6)
	case bps >= 1e3:
		return fmt.Sprintf("%.2fKB/s", bps/1e3)
	default:
		return fmt.Sprintf("%.0fB/s", bps)
	}
}
