package stats

import (
	"math"
	"math/rand"
	"sync"
	"testing"
)

func TestAtomicCounterConcurrentAdds(t *testing.T) {
	const workers, perWorker = 8, 1000
	var c AtomicCounter
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < perWorker; i++ {
				c.Add(1, 4096)
			}
		}()
	}
	wg.Wait()
	snap := c.Snapshot()
	if snap.Ops != workers*perWorker {
		t.Fatalf("ops = %d, want %d", snap.Ops, workers*perWorker)
	}
	if snap.Bytes != workers*perWorker*4096 {
		t.Fatalf("bytes = %d, want %d", snap.Bytes, workers*perWorker*4096)
	}
	// The snapshot is a plain Counter: derived rates work on it directly.
	if iops := snap.IOPS(1e9); iops != workers*perWorker {
		t.Fatalf("IOPS over 1s = %v", iops)
	}
}

// TestHistBucketGeometry checks the invariants every quantile rests on:
// the buckets tile the non-negative int64 range without gaps, a value's
// bucket admits it, values below 64 are exact, and a bucket below the
// saturating top one is at most 1/64 of its lower edge wide.
func TestHistBucketGeometry(t *testing.T) {
	for i := 0; i < NumBuckets-1; i++ {
		if BucketUpper(i)+1 != bucketLow(i+1) {
			t.Fatalf("bucket %d upper %d, next bucket starts at %d", i, BucketUpper(i), bucketLow(i+1))
		}
	}
	if BucketUpper(NumBuckets-1) != math.MaxInt64 {
		t.Fatalf("top bucket upper %d, want MaxInt64", BucketUpper(NumBuckets-1))
	}
	check := func(v int64) {
		t.Helper()
		i := bucketIndex(v)
		lo, up := bucketLow(i), BucketUpper(i)
		if lo > v || up < v {
			t.Fatalf("value %d outside its bucket %d [%d, %d]", v, i, lo, up)
		}
		if v < subBuckets && (lo != v || up != v) {
			t.Fatalf("value %d below the sub-bucket range not exact: [%d, %d]", v, lo, up)
		}
		if i < NumBuckets-1 && (up-lo+1)*subBuckets > lo && v >= subBuckets {
			t.Fatalf("value %d: bucket [%d, %d] wider than lower/%d", v, lo, up, subBuckets)
		}
	}
	for v := int64(0); v < 1<<14; v++ {
		check(v)
	}
	for shift := 14; shift < 63; shift++ {
		base := int64(1) << shift
		for _, v := range []int64{base - 1, base, base + 1, base + base/3, base + base/2} {
			check(v)
		}
	}
	check(math.MaxInt64)
}

// TestHistQuantileErrorBounds records synthetic distributions through the
// concurrent view and checks every quantile of its snapshot sits at most
// one sub-bucket (1/64 relative) below the exact sample quantile and never
// above it, with the maximum exact.
func TestHistQuantileErrorBounds(t *testing.T) {
	rng := rand.New(rand.NewSource(42))
	distributions := map[string]func() int64{
		"uniform":  func() int64 { return rng.Int63n(1_000_000) },
		"exp-tail": func() int64 { return int64(1000 * (1 + rng.ExpFloat64()*50)) },
		"bimodal": func() int64 {
			if rng.Intn(10) == 0 {
				return 500_000 + rng.Int63n(1000)
			}
			return 2_000 + rng.Int63n(100)
		},
	}
	for name, draw := range distributions {
		h := &AtomicHistogram{}
		samples := make([]int64, 0, 20_000)
		for i := 0; i < 20_000; i++ {
			v := draw()
			h.Record(v)
			samples = append(samples, v)
		}
		hs := h.Snapshot()
		if hs.Count() != int64(len(samples)) {
			t.Fatalf("%s: count %d, want %d", name, hs.Count(), len(samples))
		}
		if want := ExactQuantile(samples, 1); hs.Max() != want || hs.Quantile(1) != want {
			t.Fatalf("%s: max %d / q1 %d, want exact %d", name, hs.Max(), hs.Quantile(1), want)
		}
		for _, q := range []float64{0.5, 0.9, 0.95, 0.99, 0.999} {
			got, exact := hs.Quantile(q), ExactQuantile(samples, q)
			if got > exact {
				t.Fatalf("%s: q%.3f = %d above exact %d", name, q, got, exact)
			}
			if (exact-got)*subBuckets > exact {
				t.Fatalf("%s: q%.3f = %d more than 1/%d below exact %d", name, q, got, subBuckets, exact)
			}
		}
	}
}

// TestHistMergeEqualsConcat: merging one histogram into the concurrent
// view must be indistinguishable from recording both sample streams into
// one.
func TestHistMergeEqualsConcat(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	a, b, concat := &AtomicHistogram{}, &AtomicHistogram{}, &AtomicHistogram{}
	for i := 0; i < 5000; i++ {
		v := rng.Int63n(1 << 30)
		a.Record(v)
		concat.Record(v)
	}
	for i := 0; i < 3000; i++ {
		v := rng.Int63n(1 << 10)
		b.Record(v)
		concat.Record(v)
	}
	a.Merge(b.Snapshot())
	if sa, sc := a.Snapshot(), concat.Snapshot(); *sa != *sc {
		t.Fatalf("merged %v, concatenated %v", sa, sc)
	}
}

// TestHistNilAndClamp covers the degenerate inputs the record path must
// absorb: nil receivers and negative samples.
func TestHistNilAndClamp(t *testing.T) {
	var h *AtomicHistogram
	h.Record(100)
	h.Merge(&Histogram{})
	(&AtomicHistogram{}).Merge(h.Snapshot())
	if s := h.Snapshot(); *s != (Histogram{}) {
		t.Fatalf("nil histogram snapshot not empty: %v", s)
	}

	g := &AtomicHistogram{}
	g.Record(-12345)
	if s := g.Snapshot(); s.Count() != 1 || s.Min() != 0 || s.Max() != 0 || s.Sum() != 0 {
		t.Fatalf("negative sample not clamped to 0: %v", s)
	}
}

// TestAtomicHistogramRecordZeroAllocs: the record path is atomic adds and
// two CAS loops for the extremes — never an allocation.
func TestAtomicHistogramRecordZeroAllocs(t *testing.T) {
	h := &AtomicHistogram{}
	v := int64(0)
	if allocs := testing.AllocsPerRun(1000, func() {
		v += 997
		h.Record(v)
	}); allocs != 0 {
		t.Fatalf("Record allocated %.1f allocs/op, want 0", allocs)
	}
}

// TestAtomicHistogramMatchesPlainModel: four goroutines record through the
// concurrent view while one plain histogram takes the same samples; the
// snapshot must equal the model field for field, so every quantile does.
func TestAtomicHistogramMatchesPlainModel(t *testing.T) {
	const workers, perWorker = 4, 5000
	rng := rand.New(rand.NewSource(3))
	var model Histogram
	streams := make([][]int64, workers)
	for w := range streams {
		for i := 0; i < perWorker; i++ {
			v := int64(1000 * (1 + rng.ExpFloat64()*20))
			streams[w] = append(streams[w], v)
			model.Record(v)
		}
	}
	h := &AtomicHistogram{}
	var wg sync.WaitGroup
	for _, s := range streams {
		wg.Add(1)
		go func(s []int64) {
			defer wg.Done()
			for _, v := range s {
				h.Record(v)
			}
		}(s)
	}
	wg.Wait()
	snap := h.Snapshot()
	if *snap != model {
		t.Fatalf("snapshot %v, model %v", snap, &model)
	}
	for _, q := range []float64{0.5, 0.99, 0.9999, 1} {
		if got, want := snap.Quantile(q), model.Quantile(q); got != want {
			t.Fatalf("q%v = %d, model %d", q, got, want)
		}
	}
}

// TestMergeBucketsKeepsSumAndMax: samples known only by bucket land in
// their buckets with the sum and maximum given, and a minimum no larger
// than any of them; indices outside the grid are dropped.
func TestMergeBucketsKeepsSumAndMax(t *testing.T) {
	var want Histogram
	for _, v := range []int64{70, 1_000, 1_001, 250_000} {
		want.Record(v)
	}
	h := &AtomicHistogram{}
	h.MergeBuckets(func(add func(int, int64)) {
		add(-1, 5)
		for i := 0; i < NumBuckets; i++ {
			add(i, want.Bucket(i))
		}
		add(NumBuckets, 5)
	}, want.Sum(), want.Max())
	got := h.Snapshot()
	for i := 0; i < NumBuckets; i++ {
		if got.Bucket(i) != want.Bucket(i) {
			t.Fatalf("bucket %d: %d, want %d", i, got.Bucket(i), want.Bucket(i))
		}
	}
	if got.Count() != 4 || got.Sum() != want.Sum() || got.Max() != want.Max() || got.Min() > want.Min() {
		t.Fatalf("merged %v, recorded %v", got, &want)
	}
}
