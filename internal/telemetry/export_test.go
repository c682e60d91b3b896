package telemetry

import (
	"encoding/json"
	"io"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"
)

// goldenRegistry builds a registry with fixed, deterministic contents.
func goldenRegistry() *Registry {
	r := New()
	r.SetClass(0, 1) // latency-sensitive
	r.IncSubmitted(0, 0)
	r.IncCompleted(0, 1, 1500, 4096, true)
	r.IncLSBypass(0)

	r.SetClass(3, 2) // throughput-critical
	for i := 0; i < 16; i++ {
		r.IncSubmitted(3, 4096)
		r.IncTCQueued(3)
	}
	for i := 0; i < 16; i++ {
		r.IncCompleted(3, 2, -1, 0, true) // no latency samples: deterministic
	}
	for i := 0; i < 15; i++ {
		r.IncSuppressed(3)
	}
	r.SetQueueDepth(3, 0)
	r.ObserveDrain(3, 16, false)
	r.IncResponse(3, true)
	for i := 0; i < 3; i++ {
		r.IncBusyRejection(3)
	}
	r.IncConnection()
	r.IncConnection()
	return r
}

// goldenText is the exact exposition the golden registry must render. The
// format is a contract: Prometheus scrapers parse it, so any change must
// be deliberate.
const goldenText = `# HELP nvmeopf_tenant_submitted_total Requests submitted.
# TYPE nvmeopf_tenant_submitted_total counter
nvmeopf_tenant_submitted_total{tenant="0"} 1
nvmeopf_tenant_submitted_total{tenant="3"} 16
# HELP nvmeopf_tenant_completed_total Application-visible completions.
# TYPE nvmeopf_tenant_completed_total counter
nvmeopf_tenant_completed_total{tenant="0"} 1
nvmeopf_tenant_completed_total{tenant="3"} 16
# HELP nvmeopf_tenant_errors_total Completions with a non-success status.
# TYPE nvmeopf_tenant_errors_total counter
nvmeopf_tenant_errors_total{tenant="0"} 0
nvmeopf_tenant_errors_total{tenant="3"} 0
# HELP nvmeopf_tenant_bytes_read_total Payload bytes read.
# TYPE nvmeopf_tenant_bytes_read_total counter
nvmeopf_tenant_bytes_read_total{tenant="0"} 4096
nvmeopf_tenant_bytes_read_total{tenant="3"} 0
# HELP nvmeopf_tenant_bytes_written_total Payload bytes written.
# TYPE nvmeopf_tenant_bytes_written_total counter
nvmeopf_tenant_bytes_written_total{tenant="0"} 0
nvmeopf_tenant_bytes_written_total{tenant="3"} 65536
# HELP nvmeopf_tenant_ls_bypass_total Latency-sensitive requests that bypassed the TC queues.
# TYPE nvmeopf_tenant_ls_bypass_total counter
nvmeopf_tenant_ls_bypass_total{tenant="0"} 1
nvmeopf_tenant_ls_bypass_total{tenant="3"} 0
# HELP nvmeopf_tenant_tc_queued_total Throughput-critical requests absorbed into the tenant queue.
# TYPE nvmeopf_tenant_tc_queued_total counter
nvmeopf_tenant_tc_queued_total{tenant="0"} 0
nvmeopf_tenant_tc_queued_total{tenant="3"} 16
# HELP nvmeopf_tenant_queue_depth Pending TC requests in the tenant queue.
# TYPE nvmeopf_tenant_queue_depth gauge
nvmeopf_tenant_queue_depth{tenant="0"} 0
nvmeopf_tenant_queue_depth{tenant="3"} 0
# HELP nvmeopf_tenant_drain_window Drain window size (chosen on the host, observed at the target).
# TYPE nvmeopf_tenant_drain_window gauge
nvmeopf_tenant_drain_window{tenant="0"} 0
nvmeopf_tenant_drain_window{tenant="3"} 16
# HELP nvmeopf_tenant_drains_total Windows released by a draining flag.
# TYPE nvmeopf_tenant_drains_total counter
nvmeopf_tenant_drains_total{tenant="0"} 0
nvmeopf_tenant_drains_total{tenant="3"} 1
# HELP nvmeopf_tenant_forced_drains_total Windows released by the safety valve.
# TYPE nvmeopf_tenant_forced_drains_total counter
nvmeopf_tenant_forced_drains_total{tenant="0"} 0
nvmeopf_tenant_forced_drains_total{tenant="3"} 0
# HELP nvmeopf_tenant_suppressed_total Device completions absorbed by coalescing.
# TYPE nvmeopf_tenant_suppressed_total counter
nvmeopf_tenant_suppressed_total{tenant="0"} 0
nvmeopf_tenant_suppressed_total{tenant="3"} 15
# HELP nvmeopf_tenant_responses_total Wire responses emitted.
# TYPE nvmeopf_tenant_responses_total counter
nvmeopf_tenant_responses_total{tenant="0"} 0
nvmeopf_tenant_responses_total{tenant="3"} 1
# HELP nvmeopf_tenant_coalesced_responses_total Wire responses covering a whole window.
# TYPE nvmeopf_tenant_coalesced_responses_total counter
nvmeopf_tenant_coalesced_responses_total{tenant="0"} 0
nvmeopf_tenant_coalesced_responses_total{tenant="3"} 1
# HELP nvmeopf_busy_rejections_total Requests refused admission with StatusBusy.
# TYPE nvmeopf_busy_rejections_total counter
nvmeopf_busy_rejections_total{tenant="0"} 0
nvmeopf_busy_rejections_total{tenant="3"} 3
# HELP nvmeopf_tenant_coalescing_ratio Completions per wire response (>1 means coalescing).
# TYPE nvmeopf_tenant_coalescing_ratio gauge
nvmeopf_tenant_coalescing_ratio{tenant="0"} 0.0000
nvmeopf_tenant_coalescing_ratio{tenant="3"} 16.0000
# HELP nvmeopf_tenant_latency_hist_ns End-to-end latency histogram per class (log-bucketed, ~1.6% relative error).
# TYPE nvmeopf_tenant_latency_hist_ns histogram
nvmeopf_tenant_latency_hist_ns_bucket{tenant="0",class="ls",le="1023"} 0
nvmeopf_tenant_latency_hist_ns_bucket{tenant="0",class="ls",le="2047"} 1
nvmeopf_tenant_latency_hist_ns_bucket{tenant="0",class="ls",le="4095"} 1
nvmeopf_tenant_latency_hist_ns_bucket{tenant="0",class="ls",le="8191"} 1
nvmeopf_tenant_latency_hist_ns_bucket{tenant="0",class="ls",le="16383"} 1
nvmeopf_tenant_latency_hist_ns_bucket{tenant="0",class="ls",le="32767"} 1
nvmeopf_tenant_latency_hist_ns_bucket{tenant="0",class="ls",le="65535"} 1
nvmeopf_tenant_latency_hist_ns_bucket{tenant="0",class="ls",le="131071"} 1
nvmeopf_tenant_latency_hist_ns_bucket{tenant="0",class="ls",le="262143"} 1
nvmeopf_tenant_latency_hist_ns_bucket{tenant="0",class="ls",le="524287"} 1
nvmeopf_tenant_latency_hist_ns_bucket{tenant="0",class="ls",le="1048575"} 1
nvmeopf_tenant_latency_hist_ns_bucket{tenant="0",class="ls",le="2097151"} 1
nvmeopf_tenant_latency_hist_ns_bucket{tenant="0",class="ls",le="4194303"} 1
nvmeopf_tenant_latency_hist_ns_bucket{tenant="0",class="ls",le="8388607"} 1
nvmeopf_tenant_latency_hist_ns_bucket{tenant="0",class="ls",le="16777215"} 1
nvmeopf_tenant_latency_hist_ns_bucket{tenant="0",class="ls",le="33554431"} 1
nvmeopf_tenant_latency_hist_ns_bucket{tenant="0",class="ls",le="67108863"} 1
nvmeopf_tenant_latency_hist_ns_bucket{tenant="0",class="ls",le="134217727"} 1
nvmeopf_tenant_latency_hist_ns_bucket{tenant="0",class="ls",le="268435455"} 1
nvmeopf_tenant_latency_hist_ns_bucket{tenant="0",class="ls",le="536870911"} 1
nvmeopf_tenant_latency_hist_ns_bucket{tenant="0",class="ls",le="1073741823"} 1
nvmeopf_tenant_latency_hist_ns_bucket{tenant="0",class="ls",le="+Inf"} 1
nvmeopf_tenant_latency_hist_ns_sum{tenant="0",class="ls"} 1500
nvmeopf_tenant_latency_hist_ns_count{tenant="0",class="ls"} 1
# HELP nvmeopf_connections_total Connections established.
# TYPE nvmeopf_connections_total counter
nvmeopf_connections_total 2
# HELP nvmeopf_transport_errors_total Transport-level failures.
# TYPE nvmeopf_transport_errors_total counter
nvmeopf_transport_errors_total 0
# HELP nvmeopf_disconnects_total Sessions torn down after their connection died.
# TYPE nvmeopf_disconnects_total counter
nvmeopf_disconnects_total 1
# HELP nvmeopf_teardown_dropped_total Queued requests discarded by session teardown.
# TYPE nvmeopf_teardown_dropped_total counter
nvmeopf_teardown_dropped_total 5
`

func TestPrometheusGolden(t *testing.T) {
	r := goldenRegistry()
	r.IncDisconnect()
	r.AddTeardownDrops(5)
	got := r.PrometheusText()
	if got != goldenText {
		// Report the first diverging line for a readable failure.
		gl, wl := strings.Split(got, "\n"), strings.Split(goldenText, "\n")
		for i := 0; i < len(gl) && i < len(wl); i++ {
			if gl[i] != wl[i] {
				t.Fatalf("exposition line %d:\n got: %q\nwant: %q", i+1, gl[i], wl[i])
			}
		}
		t.Fatalf("exposition length mismatch: got %d lines, want %d", len(gl), len(wl))
	}
}

func TestMetricsEndpoint(t *testing.T) {
	srv := httptest.NewServer(goldenRegistry().Handler())
	defer srv.Close()
	resp, err := http.Get(srv.URL + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if ct := resp.Header.Get("Content-Type"); !strings.HasPrefix(ct, "text/plain") {
		t.Fatalf("content type %q", ct)
	}
	body, _ := io.ReadAll(resp.Body)
	if !strings.Contains(string(body), `nvmeopf_tenant_submitted_total{tenant="3"} 16`) {
		t.Fatalf("metrics body missing expected series:\n%s", body)
	}
}

// TestDebugTenantsRoundTrip decodes /debug/tenants back into snapshot
// structs and checks the table matches the registry.
func TestDebugTenantsRoundTrip(t *testing.T) {
	r := goldenRegistry()
	srv := httptest.NewServer(r.Handler())
	defer srv.Close()
	resp, err := http.Get(srv.URL + "/debug/tenants")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if ct := resp.Header.Get("Content-Type"); ct != "application/json" {
		t.Fatalf("content type %q", ct)
	}
	var decoded struct {
		Global  GlobalSnapshot   `json:"global"`
		Tenants []TenantSnapshot `json:"tenants"`
	}
	if err := json.NewDecoder(resp.Body).Decode(&decoded); err != nil {
		t.Fatalf("decode: %v", err)
	}
	if decoded.Global.Connections != 2 {
		t.Fatalf("global connections = %d, want 2", decoded.Global.Connections)
	}
	want := r.Tenants()
	if len(decoded.Tenants) != len(want) {
		t.Fatalf("tenant count = %d, want %d", len(decoded.Tenants), len(want))
	}
	for i := range want {
		if decoded.Tenants[i] != want[i] {
			t.Fatalf("tenant %d round-trip mismatch:\n got %+v\nwant %+v", i, decoded.Tenants[i], want[i])
		}
	}
}

func TestServeAndClose(t *testing.T) {
	r := goldenRegistry()
	exp, err := r.Serve("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	resp, err := http.Get("http://" + exp.Addr() + "/metrics")
	if err != nil {
		t.Fatalf("get from live exporter: %v", err)
	}
	resp.Body.Close()
	if err := exp.Close(); err != nil {
		t.Fatalf("close: %v", err)
	}
	if err := exp.Close(); err != nil {
		t.Fatalf("double close: %v", err)
	}
}

// fetchJSON fetches one debug endpoint and returns the exact body.
func fetchJSON(t *testing.T, r *Registry, path string) string {
	t.Helper()
	srv := httptest.NewServer(r.Handler())
	defer srv.Close()
	resp, err := http.Get(srv.URL + path)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if ct := resp.Header.Get("Content-Type"); ct != "application/json" {
		t.Fatalf("content type %q", ct)
	}
	body, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	return string(body)
}

// diffGolden fails with the first diverging line of a golden comparison.
func diffGolden(t *testing.T, got, want string) {
	t.Helper()
	if got == want {
		return
	}
	gl, wl := strings.Split(got, "\n"), strings.Split(want, "\n")
	for i := 0; i < len(gl) && i < len(wl); i++ {
		if gl[i] != wl[i] {
			t.Fatalf("line %d:\n got: %q\nwant: %q", i+1, gl[i], wl[i])
		}
	}
	t.Fatalf("length mismatch: got %d lines, want %d", len(gl), len(wl))
}

// autotuneGoldenText is the exact /debug/autotune body for the decisions
// recorded in TestDebugAutotuneGolden: per-action counters in
// AutotuneActions order, tenants sorted, decisions oldest first.
const autotuneGoldenText = `{
  "actions": [
    "shrink",
    "grow",
    "hold",
    "cold"
  ],
  "tenants": [
    {
      "tenant": 3,
      "window": 16,
      "cap": 128,
      "decisions": [
        1,
        0,
        0,
        1
      ],
      "last": {
        "tenant": 3,
        "action": "shrink",
        "window": 16,
        "prev_window": 32,
        "cap": 128,
        "burn_rate": 2.5,
        "fill": 0.75,
        "samples": 64,
        "reason": "burn 2.50 > 1.00: multiplicative back-off",
        "at": 200,
        "seq": 2
      }
    },
    {
      "tenant": 5,
      "window": 12,
      "cap": 96,
      "decisions": [
        0,
        1,
        0,
        0
      ],
      "last": {
        "tenant": 5,
        "action": "grow",
        "window": 12,
        "prev_window": 8,
        "cap": 96,
        "burn_rate": 0.25,
        "fill": 1,
        "samples": 32,
        "reason": "burn 0.25 < 0.50, fill 1.00: additive grow",
        "at": 300,
        "seq": 3
      }
    }
  ],
  "decisions": [
    {
      "tenant": 3,
      "action": "cold",
      "window": 32,
      "prev_window": 32,
      "cap": 0,
      "burn_rate": -1,
      "fill": 0,
      "samples": 0,
      "reason": "interval samples 0 < 8: static bounds",
      "at": 100,
      "seq": 1
    },
    {
      "tenant": 3,
      "action": "shrink",
      "window": 16,
      "prev_window": 32,
      "cap": 128,
      "burn_rate": 2.5,
      "fill": 0.75,
      "samples": 64,
      "reason": "burn 2.50 > 1.00: multiplicative back-off",
      "at": 200,
      "seq": 2
    },
    {
      "tenant": 5,
      "action": "grow",
      "window": 12,
      "prev_window": 8,
      "cap": 96,
      "burn_rate": 0.25,
      "fill": 1,
      "samples": 32,
      "reason": "burn 0.25 < 0.50, fill 1.00: additive grow",
      "at": 300,
      "seq": 3
    }
  ]
}
`

func TestDebugAutotuneGolden(t *testing.T) {
	r := New()
	r.RecordAutotune(AutotuneDecision{
		Tenant: 3, Action: "cold", Window: 32, PrevWindow: 32, BurnRate: -1,
		Reason: "interval samples 0 < 8: static bounds", At: 100,
	})
	r.RecordAutotune(AutotuneDecision{
		Tenant: 3, Action: "shrink", Window: 16, PrevWindow: 32, Cap: 128,
		BurnRate: 2.5, Fill: 0.75, Samples: 64,
		Reason: "burn 2.50 > 1.00: multiplicative back-off", At: 200,
	})
	r.RecordAutotune(AutotuneDecision{
		Tenant: 5, Action: "grow", Window: 12, PrevWindow: 8, Cap: 96,
		BurnRate: 0.25, Fill: 1, Samples: 32,
		Reason: "burn 0.25 < 0.50, fill 1.00: additive grow", At: 300,
	})
	diffGolden(t, fetchJSON(t, r, "/debug/autotune"), autotuneGoldenText)
}

// TestAutotuneLogWraps overfills the decision ring and checks it keeps
// exactly the newest autotuneLogCap decisions, oldest first.
func TestAutotuneLogWraps(t *testing.T) {
	r := New()
	for i := 0; i < autotuneLogCap+5; i++ {
		r.RecordAutotune(AutotuneDecision{Tenant: 1, Action: "hold", At: int64(i)})
	}
	log := r.AutotuneLog()
	if len(log) != autotuneLogCap {
		t.Fatalf("log length = %d, want %d", len(log), autotuneLogCap)
	}
	if log[0].Seq != 6 || log[len(log)-1].Seq != uint64(autotuneLogCap+5) {
		t.Fatalf("wrap kept wrong range: first seq %d, last seq %d",
			log[0].Seq, log[len(log)-1].Seq)
	}
}

// TestHandlerServesOnlyReadSurfaces pins the audited surface (DESIGN.md,
// "Telemetry surfaces and their readers"): every route with a reader
// answers 200, every deleted route 404, and a registry with every
// instrument touched exports exactly the /metrics families that have a
// reader.
func TestHandlerServesOnlyReadSurfaces(t *testing.T) {
	r := e2eGoldenRegistry(t)
	for i := 0; i < 2; i++ {
		r.IncSubmitted(3, 4096)
		r.IncScavQueued(3)
		r.ObserveScavDrain(3, i == 0)
	}
	r.RecordAutotune(AutotuneDecision{Tenant: 3, Action: "shrink", Window: 8, PrevWindow: 16})
	r.SetShards(2)
	r.SetRecorder(NewRecorder(RecorderConfig{Role: "target"}))
	srv := httptest.NewServer(r.Handler())
	defer srv.Close()
	for path, want := range map[string]int{
		"/metrics":             http.StatusOK,
		"/debug/tenants":       http.StatusOK,
		"/debug/autotune":      http.StatusOK,
		"/debug/e2e":           http.StatusOK,
		"/debug/trace":         http.StatusOK,
		"/debug/windows":       http.StatusNotFound,
		"/debug/slo":           http.StatusNotFound,
		"/debug/pprof/":        http.StatusNotFound,
		"/debug/pprof/cmdline": http.StatusNotFound,
	} {
		resp, err := http.Get(srv.URL + path)
		if err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
		if resp.StatusCode != want {
			t.Errorf("GET %s = %d, want %d", path, resp.StatusCode, want)
		}
	}

	var families []string
	for _, line := range strings.Split(r.PrometheusText(), "\n") {
		if f := strings.Fields(line); len(f) == 4 && f[1] == "TYPE" {
			families = append(families, f[2])
		}
	}
	want := []string{
		"nvmeopf_tenant_submitted_total",
		"nvmeopf_tenant_completed_total",
		"nvmeopf_tenant_errors_total",
		"nvmeopf_tenant_bytes_read_total",
		"nvmeopf_tenant_bytes_written_total",
		"nvmeopf_tenant_ls_bypass_total",
		"nvmeopf_tenant_tc_queued_total",
		"nvmeopf_tenant_queue_depth",
		"nvmeopf_tenant_drain_window",
		"nvmeopf_tenant_drains_total",
		"nvmeopf_tenant_forced_drains_total",
		"nvmeopf_tenant_suppressed_total",
		"nvmeopf_tenant_responses_total",
		"nvmeopf_tenant_coalesced_responses_total",
		"nvmeopf_busy_rejections_total",
		"nvmeopf_scavenger_queued_total",
		"nvmeopf_scavenger_queue_depth",
		"nvmeopf_scavenger_drains_total",
		"nvmeopf_scavenger_aged_drains_total",
		"nvmeopf_tenant_coalescing_ratio",
		"nvmeopf_tenant_latency_hist_ns",
		"nvmeopf_e2e_latency_hist_ns",
		"nvmeopf_connections_total",
		"nvmeopf_transport_errors_total",
		"nvmeopf_disconnects_total",
		"nvmeopf_teardown_dropped_total",
		"nvmeopf_target_shards",
	}
	if strings.Join(families, "\n") != strings.Join(want, "\n") {
		t.Fatalf("exported families:\n%s\nwant:\n%s", strings.Join(families, "\n"), strings.Join(want, "\n"))
	}
}
