package main

import (
	"bytes"
	"encoding/json"
	"math"
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"testing"
)

func TestGeneratorDeterministicPerSeed(t *testing.T) {
	seq := func(seed uint64, stream int, s *streamSpec) []uint64 {
		out := make([]uint64, 512)
		for i := range out {
			out[i] = lbaAt(seed, stream, s, uint64(i))
		}
		return out
	}
	for _, w := range workloads {
		for i := range w.streams {
			s := &w.streams[i]
			a, b := seq(7, i, s), seq(7, i, s)
			if !reflect.DeepEqual(a, b) {
				t.Fatalf("%s stream %d: same seed gave different LBAs", w.name, i)
			}
			if reflect.DeepEqual(a, seq(8, i, s)) {
				t.Fatalf("%s stream %d: seeds 7 and 8 gave the same LBAs", w.name, i)
			}
			lo, hi := uint64(i)*regionBlocks, uint64(i+1)*regionBlocks
			for k, lba := range a {
				if lba < lo || lba+uint64(s.blocks) > hi || lba%uint64(s.blocks) != 0 {
					t.Fatalf("%s stream %d request %d: LBA %d outside region [%d,%d) or unaligned", w.name, i, k, lba, lo, hi)
				}
				if s.sequential && k > 0 && lba != lo+(a[k-1]-lo+uint64(s.blocks))%regionBlocks {
					t.Fatalf("%s stream %d request %d: not sequential", w.name, i, k)
				}
			}
		}
	}
}

func TestStampsCatchWrongBlockSeedAndTornTail(t *testing.T) {
	buf := make([]byte, 3*blockSize)
	stampBlocks(buf, 40, prefillTag(5))
	if !verifyBlocks(buf, 40, prefillTag(5)) {
		t.Fatal("fresh stamps do not verify")
	}
	if verifyBlocks(buf, 41, prefillTag(5)) || verifyBlocks(buf, 40, prefillTag(6)) || verifyBlocks(buf, 40, writeTag(5)) {
		t.Fatal("stamps verify under the wrong LBA, seed or tag")
	}
	buf[3*blockSize-1] ^= 1
	if verifyBlocks(buf, 40, prefillTag(5)) {
		t.Fatal("a torn tail verifies")
	}
	if verifyBlocks(buf[:100], 40, prefillTag(5)) {
		t.Fatal("a short buffer verifies")
	}
}

func TestTopPercentileNeedsTenSamplesBeyond(t *testing.T) {
	asc := func(n int) []int64 {
		v := make([]int64, n)
		for i := range v {
			v[i] = int64(i + 1)
		}
		return v
	}
	for _, c := range []struct {
		n     int
		label string
		value int64
	}{
		{999, "", 0},        // p99 would leave 9.99 samples beyond it
		{1000, "p99", 990},  // exactly ten beyond
		{9999, "p99", 9900}, // p99.9 would leave 9.999
		{10000, "p99.9", 9990},
		{100000, "p99.99", 99990},
		{2000000, "p99.999", 1999980},
	} {
		label, v := topPercentile(asc(c.n))
		if label != c.label || v != c.value {
			t.Errorf("n=%d: got %q %d, want %q %d", c.n, label, v, c.label, c.value)
		}
	}
	if q := quantile(asc(100), 0.5); q != 50 {
		t.Errorf("median of 1..100 = %d, want 50", q)
	}
}

// Python: statistics.quantiles([1, 2, 4, 7, 11, 16, 22, 29, 37, 46], n=4)
// gives [3.5, 13.5, 31.0] and the median is 13.5.
func TestIQRShareMatchesPythonQuantiles(t *testing.T) {
	got := iqrShare([]float64{46, 1, 2, 4, 7, 11, 16, 22, 29, 37})
	if want := (31.0 - 3.5) / 13.5; math.Abs(got-want) > 1e-12 {
		t.Fatalf("iqrShare = %v, want %v", got, want)
	}
	if iqrShare([]float64{5}) != 0 {
		t.Fatal("one value has a spread")
	}
}

func TestSpanSelfTime(t *testing.T) {
	tr := newTracer(8)
	// submit [0,100) > encode [10,30); handle [200,300) > read [210,250),
	// encode [260,280) — as the pipeline nests them.
	spans := []span{
		{Layer: layerSubmit, Parent: -1, Start: 0, End: 100},
		{Layer: layerEncode, Parent: 0, Start: 10, End: 30},
		{Layer: layerHandle, Parent: -1, Start: 200, End: 300},
		{Layer: layerRead, Parent: 2, Start: 210, End: 250},
		{Layer: layerEncode, Parent: 2, Start: 260, End: 280},
	}
	self := selfTimes(spans)
	want := map[int]int64{layerSubmit: 80, layerEncode: 40, layerHandle: 40, layerRead: 40}
	var sum int64
	for l, ns := range self {
		if ns != want[l] {
			t.Errorf("%s self = %d, want %d", layerNames[l], ns, want[l])
		}
		sum += ns
	}
	if sum != 200 { // self times partition the top-level spans
		t.Errorf("self times sum to %d, want 200", sum)
	}

	// begin/end keep the parent chain and hand the request down.
	a := tr.begin(layerSubmit, 9)
	b := tr.begin(layerEncode, -1)
	tr.end(b)
	tr.end(a)
	c := tr.begin(layerHandle, 3)
	tr.end(c)
	if got := tr.spans; got[b].Parent != a || got[b].Req != 9 || got[a].Parent != -1 || got[c].Parent != -1 || tr.cur != -1 {
		t.Fatalf("tracer nesting wrong: %+v", got)
	}
}

func TestPipelineCompletesAndVerifiesEveryWorkload(t *testing.T) {
	for i := range workloads {
		w := &workloads[i]
		r, err := runPipeline(w, 3, 256)
		if err != nil {
			t.Fatalf("%s: %v", w.name, err)
		}
		if r.failed != 0 || r.requests < 256 {
			t.Fatalf("%s: %d requests, %d failed", w.name, r.requests, r.failed)
		}
		if r.selfNS[layerSubmit] <= 0 || r.selfNS[layerHandle] <= 0 {
			t.Fatalf("%s: no self time recorded: %v", w.name, r.selfNS)
		}
	}
}

func writeResults(t *testing.T, name string, vals map[string][]float64) string {
	t.Helper()
	var rf resultFile
	for metric, vs := range vals {
		for i, v := range vs {
			rf.Runs = append(rf.Runs, recordedRun{runRecord: runRecord{
				Workload: "ls-alone", Seed: uint64(i),
				Metrics: map[string]metricValue{metric: {Value: v, Unit: "x"}},
			}})
		}
	}
	// A traced run's values must never reach a verdict.
	rf.Runs = append(rf.Runs, recordedRun{runRecord: runRecord{Workload: "ls-alone", Traced: true,
		Metrics: map[string]metricValue{"bulk_mbps": {Value: 1e9}}}})
	raw, err := json.Marshal(rf)
	if err != nil {
		t.Fatal(err)
	}
	path := filepath.Join(t.TempDir(), name)
	if err := os.WriteFile(path, raw, 0o644); err != nil {
		t.Fatal(err)
	}
	return path
}

func TestCheckVerdicts(t *testing.T) {
	bf := &benchmarkFile{
		EndToEnd: []metricDef{
			{Name: "bulk_mbps", Unit: "MB/s", Better: "higher", Bound: 0.1},
			{Name: "lat_mid_us", Unit: "us", Better: "lower", Bound: 0.1},
			{Name: "lat_tail_us", Unit: "us", Better: "lower", Bound: 0.1},
		},
	}
	bf.Workloads = append(bf.Workloads, struct {
		Name string `json:"name"`
		Why  string `json:"why"`
	}{Name: "ls-alone"})
	a := writeResults(t, "a.json", map[string][]float64{
		"bulk_mbps":   {100, 101, 99, 100, 100},
		"lat_mid_us":  {10, 10.1, 9.9, 10, 10},
		"lat_tail_us": {50, 80, 30, 60, 40},
	})
	b := writeResults(t, "b.json", map[string][]float64{
		"bulk_mbps":   {80, 81, 79, 80, 80},     // throughput fell 20 %
		"lat_mid_us":  {10.5, 10.4, 10.6, 10.5}, // 5 % slower: inside the bound
		"lat_tail_us": {55, 50, 52, 51, 53},     // A's own spread exceeds the bound
	})
	var out bytes.Buffer
	err := runCheck(&out, bf, a, b)
	if err == nil || !strings.Contains(err.Error(), "1 (metric, workload) pairs regressed") {
		t.Fatalf("runCheck error = %v, want one regression\n%s", err, out.String())
	}
	for metric, verdict := range map[string]string{
		"bulk_mbps": verdictRegressed, "lat_mid_us": verdictWithin, "lat_tail_us": verdictUnresolved,
	} {
		found := false
		for _, line := range strings.Split(out.String(), "\n") {
			if strings.Contains(line, metric) {
				found = true
				if !strings.HasSuffix(strings.TrimSpace(line), verdict) {
					t.Errorf("%s: row %q lacks verdict %q", metric, line, verdict)
				}
			}
		}
		if !found {
			t.Errorf("no row for %s:\n%s", metric, out.String())
		}
	}
	if err := runCheck(&out, bf, a, a); err != nil {
		t.Errorf("a file against itself: %v", err)
	}
}

func TestBenchmarkFileListsWhatTheBinaryEmits(t *testing.T) {
	bf, _, err := loadBenchmarkFile()
	if err != nil {
		t.Fatal(err)
	}
	if len(bf.Workloads) != len(workloads) {
		t.Fatalf("BENCHMARK.json has %d workloads, the binary %d", len(bf.Workloads), len(workloads))
	}
	for i, w := range workloads {
		if bf.Workloads[i].Name != w.name || bf.Workloads[i].Why != w.why {
			t.Errorf("workload %d: BENCHMARK.json has %q, the binary %q (or their why differs)", i, bf.Workloads[i].Name, w.name)
		}
	}
	same := func(kind string, file, bin []metricDef, bounded bool) {
		if len(file) != len(bin) {
			t.Fatalf("%s: BENCHMARK.json lists %d metrics, the binary emits %d", kind, len(file), len(bin))
		}
		for i, m := range bin {
			f := file[i]
			if f.Name != m.Name || f.Unit != m.Unit || f.Better != m.Better {
				t.Errorf("%s %d: BENCHMARK.json has %+v, the binary %+v", kind, i, f, m)
			}
			if bounded && (f.Bound <= 0 || f.Bound > 0.25) {
				t.Errorf("%s %s: bound %v outside (0, 0.25]", kind, f.Name, f.Bound)
			}
		}
	}
	same("end_to_end", bf.EndToEnd, endToEnd, true)
	same("per_layer", bf.PerLayer, perLayer, false)

	// A run record carries exactly the listed names.
	rec := &runRecord{}
	rec.setMetrics(perLayer, map[string]float64{"proto.encode_ns_op": 1})
	if len(rec.Metrics) != len(perLayer) || rec.Metrics["proto.encode_ns_op"].Value != 1 {
		t.Errorf("setMetrics emitted %d of %d per-layer metrics", len(rec.Metrics), len(perLayer))
	}
}
