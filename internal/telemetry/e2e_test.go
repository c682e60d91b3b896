package telemetry

import (
	"math/rand"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"

	"nvmeopf/internal/proto"
	"nvmeopf/internal/stats"
)

// TestE2EAccumDeltaExactMerge pins the core contract of the feedback
// channel: seeded random latencies recorded on a host accumulator and
// shipped over several FillUpdate rounds merge at the target into the
// histogram a plain stats.Histogram of the same samples is — bucket for
// bucket, in count, in sum and in the maximum.
func TestE2EAccumDeltaExactMerge(t *testing.T) {
	acc := NewE2EAccum()
	reg := New()
	var want stats.Histogram
	rng := rand.New(rand.NewSource(11))
	for round := 0; round < 6; round++ {
		for i := rng.Intn(400); i > 0; i-- {
			lat := int64(5_000 * (1 + rng.ExpFloat64()*40))
			acc.Record(proto.PrioLatencySensitive, lat)
			want.Record(lat)
		}
		u := &proto.TelemetryUpdate{}
		acc.FillUpdate(u)
		if err := reg.MergeE2E(9, u); err != nil {
			t.Fatalf("round %d: MergeE2E: %v", round, err)
		}
	}

	got := reg.E2EHist(9, ClassLS).Snapshot()
	for i := 0; i < stats.NumBuckets; i++ {
		if got.Bucket(i) != want.Bucket(i) {
			t.Fatalf("bucket %d: merged %d, host %d", i, got.Bucket(i), want.Bucket(i))
		}
	}
	if got.Count() != want.Count() || got.Sum() != want.Sum() || got.Max() != want.Max() {
		t.Fatalf("n/sum/max: merged (%d, %d, %d), host (%d, %d, %d)",
			got.Count(), got.Sum(), got.Max(), want.Count(), want.Sum(), want.Max())
	}
	if q := got.P99(); q != want.P99() {
		t.Fatalf("p99: merged %d, host %d", q, want.P99())
	}
}

// TestE2EAccumDeltaIsDelta asserts the second FillUpdate carries only new
// samples, and a quiet accumulator yields an empty (not-fresh) update.
func TestE2EAccumDeltaIsDelta(t *testing.T) {
	acc := NewE2EAccum()
	acc.Record(proto.PrioThroughputCritical, 500)
	var u proto.TelemetryUpdate
	if !acc.FillUpdate(&u) {
		t.Fatal("first FillUpdate not fresh")
	}
	if len(u.Classes) != 1 || u.Classes[0].Class != proto.PrioThroughputCritical {
		t.Fatalf("classes = %+v", u.Classes)
	}
	var n int64
	for _, b := range u.Classes[0].Buckets {
		n += int64(b.Count)
	}
	if n != 1 || u.Classes[0].Sum != 500 {
		t.Fatalf("delta carries %d samples sum %d, want 1 sum 500", n, u.Classes[0].Sum)
	}
	if acc.FillUpdate(&u) {
		t.Fatal("quiet accumulator produced a fresh update")
	}
	if len(u.Classes) != 0 {
		t.Fatalf("quiet update still carries classes: %+v", u.Classes)
	}
	acc.Record(proto.PrioThroughputCritical, 501)
	if !acc.FillUpdate(&u) {
		t.Fatal("third FillUpdate not fresh")
	}
	n = 0
	for _, b := range u.Classes[0].Buckets {
		n += int64(b.Count)
	}
	if n != 1 || u.Classes[0].Sum != 501 {
		t.Fatalf("second delta carries %d samples sum %d, want 1 sum 501", n, u.Classes[0].Sum)
	}
}

// TestE2EAccumBusyRetries asserts the busy counter is reported-and-reset
// per update (a window counter, not a running total on the wire) and that
// the registry accumulates what peers report as a total. Nothing counts
// retries any more: the update's word for them is reserved.
func TestE2EAccumBusyRetries(t *testing.T) {
	acc := NewE2EAccum()
	acc.AddBusy()
	acc.AddBusy()
	var u proto.TelemetryUpdate
	if !acc.FillUpdate(&u) {
		t.Fatal("busy-only update not fresh")
	}
	if u.Busy != 2 {
		t.Fatalf("busy=%d, want 2", u.Busy)
	}
	acc.FillUpdate(&u)
	if u.Busy != 0 {
		t.Fatalf("busy counter not reset: %d", u.Busy)
	}

	reg := New()
	reg.MergeE2E(1, &proto.TelemetryUpdate{SubBits: stats.SubBucketBits, Busy: 2})
	reg.MergeE2E(1, &proto.TelemetryUpdate{SubBits: stats.SubBucketBits, Busy: 1, QueueDepth: 5})
	e2e := reg.E2E()
	if len(e2e) != 1 {
		t.Fatalf("e2e snapshots = %d, want 1", len(e2e))
	}
	s := e2e[0]
	if s.Updates != 2 || s.Busy != 3 || s.QueueDepth != 5 {
		t.Fatalf("snapshot %+v, want updates=2 busy=3 qd=5", s)
	}
}

// TestMergeE2EGeometryMismatch asserts a wrong sub-bucket tag is rejected
// before any state changes.
func TestMergeE2EGeometryMismatch(t *testing.T) {
	reg := New()
	u := &proto.TelemetryUpdate{
		SubBits: stats.SubBucketBits + 1,
		Classes: []proto.TelemetryClassDelta{{
			Class:   proto.PrioLatencySensitive,
			Sum:     100,
			Buckets: []proto.TelemetryBucket{{Index: 10, Count: 1}},
		}},
	}
	if err := reg.MergeE2E(4, u); err == nil {
		t.Fatal("geometry mismatch accepted")
	}
	if len(reg.E2E()) != 0 {
		t.Fatal("rejected update still created e2e state")
	}
	// Out-of-range bucket indices are dropped, not written out of bounds.
	ok := &proto.TelemetryUpdate{
		SubBits: stats.SubBucketBits,
		Classes: []proto.TelemetryClassDelta{{
			Class:   proto.PrioLatencySensitive,
			Buckets: []proto.TelemetryBucket{{Index: 65535, Count: 1}, {Index: 3, Count: 2}},
		}},
	}
	if err := reg.MergeE2E(4, ok); err != nil {
		t.Fatalf("valid update rejected: %v", err)
	}
	if n := reg.E2EHist(4, ClassLS).Snapshot().Count(); n != 2 {
		t.Fatalf("merged %d samples, want 2 (out-of-range bucket dropped)", n)
	}
}

func TestClassDeltaGoodBad(t *testing.T) {
	acc := NewE2EAccum()
	acc.Record(proto.PrioLatencySensitive, 1_000)   // well under
	acc.Record(proto.PrioLatencySensitive, 40_000)  // bucket upper 40447, still under
	acc.Record(proto.PrioLatencySensitive, 100_000) // over
	var u proto.TelemetryUpdate
	acc.FillUpdate(&u)
	good, bad := ClassDeltaGoodBad(&u.Classes[0], 50_000)
	if good != 2 || bad != 1 {
		t.Fatalf("good=%d bad=%d, want 2/1", good, bad)
	}
	// A corrupt out-of-range index contributes to neither side.
	cd := proto.TelemetryClassDelta{Buckets: []proto.TelemetryBucket{{Index: 65535, Count: 9}}}
	if g, b := ClassDeltaGoodBad(&cd, 50_000); g != 0 || b != 0 {
		t.Fatalf("out-of-range bucket judged: good=%d bad=%d", g, b)
	}
}

func TestResetE2EGauges(t *testing.T) {
	reg := New()
	reg.MergeE2E(7, &proto.TelemetryUpdate{SubBits: stats.SubBucketBits, QueueDepth: 42, Busy: 1})
	reg.ResetE2EGauges(7)
	s := reg.E2E()[0]
	if s.QueueDepth != 0 {
		t.Fatalf("queue depth %d after reset, want 0", s.QueueDepth)
	}
	if s.Busy != 1 || s.Updates != 1 {
		t.Fatalf("cumulative counters reset too: %+v", s)
	}
}

func TestClockReestimates(t *testing.T) {
	reg := New()
	if c, d := reg.ClockReestimates(3); c != 0 || d != 0 {
		t.Fatalf("fresh tenant reports (%d, %d)", c, d)
	}
	reg.RecordClockReestimate(3, 250)
	reg.RecordClockReestimate(3, -80)
	c, d := reg.ClockReestimates(3)
	if c != 2 || d != -80 {
		t.Fatalf("got (%d, %d), want (2, -80)", c, d)
	}
	var nilReg *Registry
	nilReg.RecordClockReestimate(3, 1) // must not panic
}

// e2eGoldenRegistry builds a deterministic registry with both the
// target-side service view and a merged host e2e view, via the real
// host-side accumulator.
func e2eGoldenRegistry(t *testing.T) *Registry {
	t.Helper()
	r := New()
	r.SetClass(2, 1) // latency-sensitive
	// Target-side service latencies: three LS completions at 40 µs.
	for i := 0; i < 3; i++ {
		r.IncCompleted(2, proto.PrioLatencySensitive, 40_000, 4096, true)
	}
	// Host-side: the same tenant saw 1 ms end to end, twice, plus busy
	// push-back — shipped through the real accumulator.
	acc := NewE2EAccum()
	acc.Record(proto.PrioLatencySensitive, 1_000_000)
	acc.Record(proto.PrioLatencySensitive, 1_000_000)
	acc.AddBusy()
	u := &proto.TelemetryUpdate{QueueDepth: 7}
	acc.FillUpdate(u)
	if err := r.MergeE2E(2, u); err != nil {
		t.Fatalf("MergeE2E: %v", err)
	}
	r.RecordClockReestimate(2, 1200)
	return r
}

// e2eGoldenJSON is the exact /debug/e2e body for e2eGoldenRegistry. The
// shape is a contract: opf-top parses it.
const e2eGoldenJSON = `{
  "tenants": [
    {
      "tenant": 2,
      "updates": 1,
      "queue_depth": 7,
      "busy": 1,
      "classes": [
        {
          "class": "ls",
          "samples": 2,
          "p50_ns": 999424,
          "p99_ns": 999424,
          "max_ns": 1000000,
          "service_p99_ns": 40000,
          "gap_p99_ns": 959424
        }
      ]
    }
  ]
}
`

func TestDebugE2EGolden(t *testing.T) {
	got := fetchJSON(t, e2eGoldenRegistry(t), "/debug/e2e")
	diffGolden(t, got, e2eGoldenJSON)
}

// e2ePromGolden is the exact nvmeopf_e2e_* section of the exposition for
// e2eGoldenRegistry.
const e2ePromGolden = `# HELP nvmeopf_e2e_latency_hist_ns Host-observed end-to-end latency histogram per class, merged from TelemetryUpdate deltas.
# TYPE nvmeopf_e2e_latency_hist_ns histogram
nvmeopf_e2e_latency_hist_ns_bucket{tenant="2",class="ls",le="1023"} 0
nvmeopf_e2e_latency_hist_ns_bucket{tenant="2",class="ls",le="2047"} 0
nvmeopf_e2e_latency_hist_ns_bucket{tenant="2",class="ls",le="4095"} 0
nvmeopf_e2e_latency_hist_ns_bucket{tenant="2",class="ls",le="8191"} 0
nvmeopf_e2e_latency_hist_ns_bucket{tenant="2",class="ls",le="16383"} 0
nvmeopf_e2e_latency_hist_ns_bucket{tenant="2",class="ls",le="32767"} 0
nvmeopf_e2e_latency_hist_ns_bucket{tenant="2",class="ls",le="65535"} 0
nvmeopf_e2e_latency_hist_ns_bucket{tenant="2",class="ls",le="131071"} 0
nvmeopf_e2e_latency_hist_ns_bucket{tenant="2",class="ls",le="262143"} 0
nvmeopf_e2e_latency_hist_ns_bucket{tenant="2",class="ls",le="524287"} 0
nvmeopf_e2e_latency_hist_ns_bucket{tenant="2",class="ls",le="1048575"} 2
nvmeopf_e2e_latency_hist_ns_bucket{tenant="2",class="ls",le="2097151"} 2
nvmeopf_e2e_latency_hist_ns_bucket{tenant="2",class="ls",le="4194303"} 2
nvmeopf_e2e_latency_hist_ns_bucket{tenant="2",class="ls",le="8388607"} 2
nvmeopf_e2e_latency_hist_ns_bucket{tenant="2",class="ls",le="16777215"} 2
nvmeopf_e2e_latency_hist_ns_bucket{tenant="2",class="ls",le="33554431"} 2
nvmeopf_e2e_latency_hist_ns_bucket{tenant="2",class="ls",le="67108863"} 2
nvmeopf_e2e_latency_hist_ns_bucket{tenant="2",class="ls",le="134217727"} 2
nvmeopf_e2e_latency_hist_ns_bucket{tenant="2",class="ls",le="268435455"} 2
nvmeopf_e2e_latency_hist_ns_bucket{tenant="2",class="ls",le="536870911"} 2
nvmeopf_e2e_latency_hist_ns_bucket{tenant="2",class="ls",le="1073741823"} 2
nvmeopf_e2e_latency_hist_ns_bucket{tenant="2",class="ls",le="+Inf"} 2
nvmeopf_e2e_latency_hist_ns_sum{tenant="2",class="ls"} 2000000
nvmeopf_e2e_latency_hist_ns_count{tenant="2",class="ls"} 2
`

func TestE2EPrometheusGolden(t *testing.T) {
	full := e2eGoldenRegistry(t).PrometheusText()
	i := strings.Index(full, "# HELP nvmeopf_e2e_latency_hist_ns ")
	if i < 0 {
		t.Fatalf("exposition has no e2e section:\n%s", full)
	}
	j := strings.Index(full, "# HELP nvmeopf_connections_total ")
	if j < 0 || j < i {
		t.Fatalf("exposition order broken")
	}
	diffGolden(t, full[i:j], e2ePromGolden)
}

// TestE2ESectionAbsentWhenUnused pins the disabled-is-invisible contract:
// a registry that never merged a TelemetryUpdate emits no nvmeopf_e2e_*
// series at all.
func TestE2ESectionAbsentWhenUnused(t *testing.T) {
	if text := goldenRegistry().PrometheusText(); strings.Contains(text, "nvmeopf_e2e_") {
		t.Fatal("idle registry exposes nvmeopf_e2e_ series")
	}
	if body := fetchJSON(t, goldenRegistry(), "/debug/e2e"); !strings.Contains(body, `"tenants": null`) {
		t.Fatalf("idle /debug/e2e body: %s", body)
	}
}

// TestDebugEndpointsRejectNonGET covers the read-only contract of every
// /debug JSON endpoint: POST is answered 405 with an Allow header, and
// GET responds with application/json.
func TestDebugEndpointsRejectNonGET(t *testing.T) {
	srv := httptest.NewServer(e2eGoldenRegistry(t).Handler())
	defer srv.Close()
	paths := []string{"/debug/tenants", "/debug/autotune", "/debug/e2e"}
	for _, p := range paths {
		resp, err := http.Post(srv.URL+p, "application/json", strings.NewReader("{}"))
		if err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
		if resp.StatusCode != http.StatusMethodNotAllowed {
			t.Errorf("POST %s = %d, want 405", p, resp.StatusCode)
		}
		if allow := resp.Header.Get("Allow"); allow != http.MethodGet {
			t.Errorf("POST %s Allow = %q, want GET", p, allow)
		}
		get, err := http.Get(srv.URL + p)
		if err != nil {
			t.Fatal(err)
		}
		get.Body.Close()
		if ct := get.Header.Get("Content-Type"); ct != "application/json" {
			t.Errorf("GET %s content type %q", p, ct)
		}
	}
	// /debug/trace is gated too (404 without a recorder, but never 200 on
	// POST).
	resp, err := http.Post(srv.URL+"/debug/trace", "application/json", nil)
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusMethodNotAllowed {
		t.Errorf("POST /debug/trace = %d, want 405", resp.StatusCode)
	}
}
