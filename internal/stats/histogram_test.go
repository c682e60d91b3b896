package stats

import (
	"math"
	"math/rand"
	"testing"
	"testing/quick"
)

func TestHistogramEmpty(t *testing.T) {
	var h Histogram
	if h.Count() != 0 || h.Min() != 0 || h.Max() != 0 || h.Mean() != 0 {
		t.Fatalf("empty histogram not zeroed: %v", h.String())
	}
	if h.Quantile(0.99) != 0 {
		t.Fatalf("empty quantile = %d, want 0", h.Quantile(0.99))
	}
}

func TestHistogramSingle(t *testing.T) {
	var h Histogram
	h.Record(12345)
	if h.Count() != 1 {
		t.Fatalf("count = %d", h.Count())
	}
	for _, q := range []float64{0, 0.5, 0.99, 1} {
		got := h.Quantile(q)
		if got != 12345 {
			t.Errorf("Quantile(%v) = %d, want 12345", q, got)
		}
	}
}

func TestHistogramNegativeClamped(t *testing.T) {
	var h Histogram
	h.Record(-5)
	if h.Min() != 0 || h.Max() != 0 {
		t.Fatalf("negative sample not clamped: min=%d max=%d", h.Min(), h.Max())
	}
}

func TestHistogramMinMaxSumMean(t *testing.T) {
	var h Histogram
	vals := []int64{10, 20, 30, 40}
	for _, v := range vals {
		h.Record(v)
	}
	if h.Min() != 10 || h.Max() != 40 {
		t.Fatalf("min=%d max=%d", h.Min(), h.Max())
	}
	if h.Sum() != 100 {
		t.Fatalf("sum=%d", h.Sum())
	}
	if h.Mean() != 25 {
		t.Fatalf("mean=%v", h.Mean())
	}
}

func TestBucketIndexMonotonic(t *testing.T) {
	prev := -1
	for v := int64(0); v < 1<<20; v += 37 {
		i := bucketIndex(v)
		if i < prev {
			t.Fatalf("bucketIndex not monotonic at %d: %d < %d", v, i, prev)
		}
		prev = i
	}
}

func TestBucketLowInverse(t *testing.T) {
	// For every bucket, bucketIndex(bucketLow(i)) == i.
	for i := 0; i < maxExp*subBuckets-subBuckets; i++ {
		lo := bucketLow(i)
		if got := bucketIndex(lo); got != i {
			t.Fatalf("bucketIndex(bucketLow(%d)=%d) = %d", i, lo, got)
		}
	}
}

// TestQuantileRelativeError checks the histogram quantile against the exact
// quantile on random workload-like samples; the log bucketing bounds
// relative error to ~1/64 plus one bucket.
func TestQuantileRelativeError(t *testing.T) {
	rng := rand.New(rand.NewSource(42))
	var h Histogram
	samples := make([]int64, 0, 20000)
	for i := 0; i < 20000; i++ {
		// Mixture of a body (~100us) and a heavy tail (~10ms).
		var v int64
		if rng.Intn(100) < 97 {
			v = 50_000 + rng.Int63n(100_000)
		} else {
			v = 1_000_000 + rng.Int63n(20_000_000)
		}
		h.Record(v)
		samples = append(samples, v)
	}
	for _, q := range []float64{0.5, 0.9, 0.99, 0.999, 0.9999} {
		exact := ExactQuantile(samples, q)
		got := h.Quantile(q)
		relErr := float64(got-exact) / float64(exact)
		if relErr < 0 {
			relErr = -relErr
		}
		if relErr > 0.05 {
			t.Errorf("q=%v exact=%d got=%d relErr=%.3f", q, exact, got, relErr)
		}
	}
}

func TestHistogramMerge(t *testing.T) {
	var a, b, all Histogram
	rng := rand.New(rand.NewSource(7))
	for i := 0; i < 5000; i++ {
		v := rng.Int63n(1_000_000)
		if i%2 == 0 {
			a.Record(v)
		} else {
			b.Record(v)
		}
		all.Record(v)
	}
	a.Merge(&b)
	if a.Count() != all.Count() || a.Sum() != all.Sum() {
		t.Fatalf("merge count/sum mismatch: %d/%d vs %d/%d", a.Count(), a.Sum(), all.Count(), all.Sum())
	}
	if a.Min() != all.Min() || a.Max() != all.Max() {
		t.Fatalf("merge min/max mismatch")
	}
	for _, q := range []float64{0.5, 0.99} {
		if a.Quantile(q) != all.Quantile(q) {
			t.Fatalf("merge quantile mismatch at %v: %d vs %d", q, a.Quantile(q), all.Quantile(q))
		}
	}
}

func TestHistogramMergeEmpty(t *testing.T) {
	var a Histogram
	a.Record(5)
	a.Merge(nil)
	a.Merge(&Histogram{})
	if a.Count() != 1 || a.Min() != 5 {
		t.Fatalf("merge with empty perturbed state: %s", a.String())
	}
	var empty Histogram
	var src Histogram
	src.Record(9)
	empty.Merge(&src)
	if empty.Min() != 9 || empty.Max() != 9 || empty.Count() != 1 {
		t.Fatalf("merge into empty wrong: %s", empty.String())
	}
}

func TestRecordN(t *testing.T) {
	var h, ref Histogram
	h.RecordN(100, 5)
	for i := 0; i < 5; i++ {
		ref.Record(100)
	}
	if h.Count() != ref.Count() || h.Sum() != ref.Sum() || h.Min() != ref.Min() || h.Max() != ref.Max() {
		t.Fatalf("RecordN mismatch: %s vs %s", h.String(), ref.String())
	}
	h.RecordN(50, 0)
	h.RecordN(50, -3)
	if h.Count() != 5 {
		t.Fatalf("RecordN with n<=0 recorded something")
	}
}

func TestTailDegrades(t *testing.T) {
	var h Histogram
	for i := 0; i < 50; i++ {
		h.Record(int64(i))
	}
	if h.Tail() != h.Max() {
		t.Errorf("tiny sample Tail() should be max")
	}
	for i := 0; i < 1000; i++ {
		h.Record(int64(i))
	}
	if h.Tail() != h.P999() {
		t.Errorf("1k sample Tail() should be p99.9")
	}
	for i := 0; i < 10000; i++ {
		h.Record(int64(i))
	}
	if h.Tail() != h.P9999() {
		t.Errorf("10k sample Tail() should be p99.99")
	}
}

// Property: quantiles are monotone nondecreasing in q, and bounded by
// min/max, for arbitrary sample sets.
func TestQuantileMonotoneProperty(t *testing.T) {
	f := func(raw []uint32) bool {
		if len(raw) == 0 {
			return true
		}
		var h Histogram
		for _, r := range raw {
			h.Record(int64(r % 10_000_000))
		}
		prev := int64(-1)
		for q := 0.0; q <= 1.0; q += 0.05 {
			v := h.Quantile(q)
			if v < prev || v < h.Min() || v > h.Max() {
				return false
			}
			prev = v
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}

// Property: merging two histograms is equivalent to recording the
// concatenation of their samples.
func TestMergeEquivalenceProperty(t *testing.T) {
	f := func(xs, ys []uint16) bool {
		var a, b, all Histogram
		for _, x := range xs {
			a.Record(int64(x))
			all.Record(int64(x))
		}
		for _, y := range ys {
			b.Record(int64(y))
			all.Record(int64(y))
		}
		a.Merge(&b)
		if a.Count() != all.Count() || a.Sum() != all.Sum() {
			return false
		}
		for _, q := range []float64{0.25, 0.5, 0.75, 0.99} {
			if a.Quantile(q) != all.Quantile(q) {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Fatal(err)
	}
}

func TestFormatNanos(t *testing.T) {
	cases := map[int64]string{
		5:             "5ns",
		1500:          "1.50us",
		2_500_000:     "2.50ms",
		3_000_000_000: "3.00s",
	}
	for in, want := range cases {
		if got := FormatNanos(in); got != want {
			t.Errorf("FormatNanos(%d) = %q, want %q", in, got, want)
		}
	}
}

func TestFormatBytesPerSec(t *testing.T) {
	cases := map[float64]string{
		10:     "10B/s",
		1500:   "1.50KB/s",
		2.5e6:  "2.50MB/s",
		3.25e9: "3.25GB/s",
		12.5e9: "12.50GB/s",
	}
	for in, want := range cases {
		if got := FormatBytesPerSec(in); got != want {
			t.Errorf("FormatBytesPerSec(%v) = %q, want %q", in, got, want)
		}
	}
}

func TestHistogramReset(t *testing.T) {
	var h Histogram
	h.Record(10)
	h.Reset()
	if h.Count() != 0 || h.Max() != 0 {
		t.Fatal("reset did not clear histogram")
	}
}

// TestSinceIsTheInterval: the interval delta between two copies of one
// histogram holds exactly the samples recorded between them, so its p99
// is the interval's (what the adaptive controller judges a tenant by),
// not the lifetime's; its extremes stay within the interval's buckets.
func TestSinceIsTheInterval(t *testing.T) {
	var h, interval Histogram
	for i := 0; i < 50; i++ {
		h.Record(5_000_000) // slow history
	}
	before := h
	for i := 0; i < 100; i++ {
		v := int64(20_000 + 100*i)
		h.Record(v)
		interval.Record(v)
	}
	d := h.Since(&before)
	if d.Count() != 100 || d.Sum() != interval.Sum() {
		t.Fatalf("interval n=%d sum=%d, want n=100 sum=%d", d.Count(), d.Sum(), interval.Sum())
	}
	for i := 0; i < NumBuckets; i++ {
		if d.Bucket(i) != interval.Bucket(i) {
			t.Fatalf("bucket %d: %d, want %d", i, d.Bucket(i), interval.Bucket(i))
		}
	}
	if got, want := d.P99(), interval.P99(); got != want {
		t.Fatalf("interval p99 = %d, want %d (lifetime p99 %d)", got, want, h.P99())
	}
	if d.Min() > interval.Min() || d.Max() < interval.Max() || d.Max() >= 5_000_000 {
		t.Fatalf("interval extremes [%d, %d] do not bound [%d, %d] within its buckets",
			d.Min(), d.Max(), interval.Min(), interval.Max())
	}
	if e := h.Since(&h); e.Count() != 0 || e.P99() != 0 {
		t.Fatalf("empty interval: %v", e)
	}
}

// TestCumulativeLE: a bound that is a bucket's upper edge splits the
// samples exactly.
func TestCumulativeLE(t *testing.T) {
	var h Histogram
	for _, v := range []int64{10, 1023, 1024, 5000} {
		h.Record(v)
	}
	for bound, want := range map[int64]int64{9: 0, 10: 1, 1023: 2, 2047: 3, math.MaxInt64: 4} {
		if got := h.CumulativeLE(bound); got != want {
			t.Errorf("CumulativeLE(%d) = %d, want %d", bound, got, want)
		}
	}
}

func TestNearestRank(t *testing.T) {
	sorted := []int64{1, 2, 3, 4, 5, 6, 7, 8, 9, 10}
	for q, want := range map[float64]int64{-1: 1, 0: 1, 0.1: 1, 0.5: 5, 0.95: 10, 1: 10, 2: 10} {
		if got := NearestRank(sorted, q); got != want {
			t.Errorf("NearestRank(q=%v) = %d, want %d", q, got, want)
		}
	}
	if NearestRank(nil, 0.5) != 0 {
		t.Error("NearestRank of no samples not 0")
	}
}

// BenchmarkHistogramRecord measures the O(1) record of both views of the
// grid: the plain one the simulator and experiments use, and the
// concurrent one behind the live telemetry.
func BenchmarkHistogramRecord(b *testing.B) {
	b.Run("plain", func(b *testing.B) {
		var h Histogram
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			h.Record(int64(i%1_000_000 + 50_000))
		}
	})
	b.Run("atomic", func(b *testing.B) {
		var h AtomicHistogram
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			h.Record(int64(i%1_000_000 + 50_000))
		}
	})
}
