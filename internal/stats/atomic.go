package stats

import (
	"math"
	"sync/atomic"
)

// AtomicCounter is the concurrency-safe sibling of Counter: Add may be
// called from any goroutine (one atomic add per field, no lock) and
// Snapshot returns a consistent-enough plain Counter for reporting. Use it
// where several reactors or workers feed one counter; keep plain Counter
// for single-goroutine hot loops, where the atomics would be pure cost.
type AtomicCounter struct {
	ops   atomic.Int64
	bytes atomic.Int64
}

// Add records n operations moving total bytes.
func (c *AtomicCounter) Add(ops, bytes int64) {
	c.ops.Add(ops)
	c.bytes.Add(bytes)
}

// Snapshot returns the current totals as a plain Counter. The two loads
// are individually atomic but not taken as a pair; between them a
// concurrent Add may land, so Ops and Bytes can be skewed by at most the
// in-flight operation — fine for monitoring, which is this type's job.
func (c *AtomicCounter) Snapshot() Counter {
	return Counter{Ops: c.ops.Load(), Bytes: c.bytes.Load()}
}

// AtomicHistogram is the concurrent view of Histogram's bucket grid:
// Record is lock-free and allocation-free from any goroutine, and readers
// take a Snapshot, a plain Histogram, so every quantile is computed by the
// one Histogram.Quantile. The zero value is ready to use; a nil
// *AtomicHistogram ignores Record and Merge and snapshots empty.
type AtomicHistogram struct {
	counts [NumBuckets]atomic.Int64
	sum    atomic.Int64
	// negMin holds MaxInt64 - min, so that the zero value means "no
	// minimum yet" and both extremes grow by the same CAS loop.
	negMin atomic.Int64
	max    atomic.Int64
}

// raise stores v in a if it is larger than what a holds.
func raise(a *atomic.Int64, v int64) {
	for {
		m := a.Load()
		if v <= m || a.CompareAndSwap(m, v) {
			return
		}
	}
}

// Record adds one sample (negative values clamp to 0).
func (h *AtomicHistogram) Record(v int64) {
	if h == nil {
		return
	}
	v = max(v, 0)
	h.add(bucketIndex(v), 1, v, v, v)
}

// add lands n samples in bucket i. The extremes and the sum move before
// the count, and Snapshot loads the counts first, so a snapshot never
// holds a sample whose extremes it has not seen.
func (h *AtomicHistogram) add(i int, n, sum, lo, hi int64) {
	raise(&h.negMin, math.MaxInt64-lo)
	raise(&h.max, hi)
	h.sum.Add(sum)
	h.counts[i].Add(n)
}

// Merge adds o's samples.
func (h *AtomicHistogram) Merge(o *Histogram) {
	if h == nil || o == nil || o.n == 0 {
		return
	}
	raise(&h.negMin, math.MaxInt64-o.min)
	h.MergeBuckets(func(add func(int, int64)) {
		for i, c := range o.counts {
			add(i, c)
		}
	}, o.sum, o.max)
}

// MergeBuckets adds samples known only the way a sparse encoding keeps
// them: each calls add(bucket, count), and sum and mx are exact. Their
// minimum is bounded by the lower edge of the lowest bucket. A bucket
// outside the grid is dropped.
func (h *AtomicHistogram) MergeBuckets(each func(add func(i int, n int64)), sum, mx int64) {
	raise(&h.max, mx)
	h.sum.Add(sum)
	each(func(i int, n int64) {
		if i >= 0 && i < NumBuckets && n > 0 {
			h.add(i, n, 0, bucketLow(i), 0)
		}
	})
}

// Snapshot copies the histogram into a plain one.
func (h *AtomicHistogram) Snapshot() *Histogram {
	s := &Histogram{}
	if h == nil {
		return s
	}
	for i := range h.counts {
		s.counts[i] = h.counts[i].Load()
		s.n += s.counts[i]
	}
	if s.n > 0 {
		s.sum = h.sum.Load()
		s.min = math.MaxInt64 - h.negMin.Load()
		s.max = h.max.Load()
	}
	return s
}
