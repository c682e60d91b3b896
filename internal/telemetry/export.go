package telemetry

import (
	"encoding/json"
	"fmt"
	"net"
	"net/http"
	"strings"
	"sync"

	"nvmeopf/internal/proto"
	"nvmeopf/internal/stats"
)

// Handler returns an http.Handler exposing the registry:
//
//	/metrics        Prometheus text exposition (per-tenant counters and
//	                gauges, per-class latency histograms)
//	/debug/tenants  JSON: live per-tenant instrument table
//	/debug/autotune JSON: adaptive-controller state and decision log
//	/debug/e2e      JSON: host-reported end-to-end view per tenant
//	/debug/trace    JSONL: flight-recorder dump (when one is attached)
//
// Every route has a reader: opf-top polls the three JSON tables, opf-trace
// merges /debug/trace dumps, and DESIGN's telemetry table names the reader
// of each /metrics family. The handler only reads snapshots; it never
// blocks the record path. The /debug/* endpoints are read-only: non-GET
// requests are answered 405.
func (r *Registry) Handler() http.Handler {
	mux := http.NewServeMux()
	mux.HandleFunc("/metrics", func(w http.ResponseWriter, _ *http.Request) {
		w.Header().Set("Content-Type", "text/plain; version=0.0.4; charset=utf-8")
		fmt.Fprint(w, r.PrometheusText())
	})
	mux.HandleFunc("/debug/tenants", getOnly(func(w http.ResponseWriter) {
		writeJSON(w, struct {
			Global  GlobalSnapshot   `json:"global"`
			Tenants []TenantSnapshot `json:"tenants"`
		}{r.Global(), r.Tenants()})
	}))
	mux.HandleFunc("/debug/autotune", getOnly(func(w http.ResponseWriter) {
		writeJSON(w, struct {
			Actions   []string              `json:"actions"`
			Tenants   []AutotuneTenantState `json:"tenants"`
			Decisions []AutotuneDecision    `json:"decisions"`
		}{AutotuneActions, r.AutotuneStates(), r.AutotuneLog()})
	}))
	mux.HandleFunc("/debug/e2e", getOnly(func(w http.ResponseWriter) {
		writeJSON(w, struct {
			Tenants []E2ESnapshot `json:"tenants"`
		}{r.E2E()})
	}))
	mux.HandleFunc("/debug/trace", getOnly(func(w http.ResponseWriter) {
		rec := r.rec.Load()
		if rec == nil {
			http.Error(w, "no flight recorder attached", http.StatusNotFound)
			return
		}
		w.Header().Set("Content-Type", "application/x-ndjson")
		_ = rec.WriteJSONL(w)
	}))
	return mux
}

// getOnly gates a read-only debug endpoint: anything but GET is answered
// 405 with an Allow header, so accidental POSTs can't be mistaken for
// accepted input.
func getOnly(h func(http.ResponseWriter)) http.HandlerFunc {
	return func(w http.ResponseWriter, req *http.Request) {
		if req.Method != http.MethodGet {
			w.Header().Set("Allow", http.MethodGet)
			http.Error(w, "method not allowed", http.StatusMethodNotAllowed)
			return
		}
		h(w)
	}
}

func writeJSON(w http.ResponseWriter, v interface{}) {
	w.Header().Set("Content-Type", "application/json")
	enc := json.NewEncoder(w)
	enc.SetEscapeHTML(false) // debug payloads, not HTML: keep "<" and ">" readable
	enc.SetIndent("", "  ")
	_ = enc.Encode(v)
}

// histExportBounds are the bucket boundaries /metrics exposes: powers of
// two minus one from 1023ns (~1µs) to ~1.07s. Each is the exact upper
// bound of an internal bucket, so the cumulative counts are exact.
var histExportBounds = func() []int64 {
	var out []int64
	for k := 10; k <= 30; k++ {
		out = append(out, (int64(1)<<k)-1)
	}
	return out
}()

// metricDef maps one per-tenant instrument to a Prometheus series.
type metricDef struct {
	name  string
	kind  string // "counter" or "gauge"
	help  string
	value func(TenantSnapshot) int64
}

// tenantMetrics is emitted in this fixed order so the exposition is
// deterministic (golden-tested).
var tenantMetrics = []metricDef{
	{"nvmeopf_tenant_submitted_total", "counter", "Requests submitted.", func(t TenantSnapshot) int64 { return t.Submitted }},
	{"nvmeopf_tenant_completed_total", "counter", "Application-visible completions.", func(t TenantSnapshot) int64 { return t.Completed }},
	{"nvmeopf_tenant_errors_total", "counter", "Completions with a non-success status.", func(t TenantSnapshot) int64 { return t.Errors }},
	{"nvmeopf_tenant_bytes_read_total", "counter", "Payload bytes read.", func(t TenantSnapshot) int64 { return t.BytesRead }},
	{"nvmeopf_tenant_bytes_written_total", "counter", "Payload bytes written.", func(t TenantSnapshot) int64 { return t.BytesWritten }},
	{"nvmeopf_tenant_ls_bypass_total", "counter", "Latency-sensitive requests that bypassed the TC queues.", func(t TenantSnapshot) int64 { return t.LSBypassed }},
	{"nvmeopf_tenant_tc_queued_total", "counter", "Throughput-critical requests absorbed into the tenant queue.", func(t TenantSnapshot) int64 { return t.TCQueued }},
	{"nvmeopf_tenant_queue_depth", "gauge", "Pending TC requests in the tenant queue.", func(t TenantSnapshot) int64 { return t.QueueDepth }},
	{"nvmeopf_tenant_drain_window", "gauge", "Drain window size (chosen on the host, observed at the target).", func(t TenantSnapshot) int64 { return t.Window }},
	{"nvmeopf_tenant_drains_total", "counter", "Windows released by a draining flag.", func(t TenantSnapshot) int64 { return t.Drains }},
	{"nvmeopf_tenant_forced_drains_total", "counter", "Windows released by the safety valve.", func(t TenantSnapshot) int64 { return t.ForcedDrains }},
	{"nvmeopf_tenant_suppressed_total", "counter", "Device completions absorbed by coalescing.", func(t TenantSnapshot) int64 { return t.Suppressed }},
	{"nvmeopf_tenant_responses_total", "counter", "Wire responses emitted.", func(t TenantSnapshot) int64 { return t.Responses }},
	{"nvmeopf_tenant_coalesced_responses_total", "counter", "Wire responses covering a whole window.", func(t TenantSnapshot) int64 { return t.Coalesced }},
	{"nvmeopf_busy_rejections_total", "counter", "Requests refused admission with StatusBusy.", func(t TenantSnapshot) int64 { return t.BusyRejections }},
}

// PrometheusText renders the registry in the Prometheus text exposition
// format, deterministically: fixed metric order, tenants in ID order.
func (r *Registry) PrometheusText() string {
	var b strings.Builder
	if r == nil {
		b.WriteString("# telemetry disabled\n")
		return b.String()
	}
	tenants := r.Tenants()
	for _, m := range tenantMetrics {
		fmt.Fprintf(&b, "# HELP %s %s\n# TYPE %s %s\n", m.name, m.help, m.name, m.kind)
		for _, t := range tenants {
			fmt.Fprintf(&b, "%s{tenant=\"%d\"} %d\n", m.name, t.Tenant, m.value(t))
		}
	}
	// Scavenger instruments: emitted only for tenants that carried any
	// best-effort traffic, so scavenger-free deployments keep their
	// exposition byte-identical.
	emitScav := func(name, kind, help string, value func(TenantSnapshot) int64) {
		hdr := false
		for _, t := range tenants {
			if t.ScavQueued == 0 && t.ScavDrains == 0 {
				continue
			}
			if !hdr {
				fmt.Fprintf(&b, "# HELP %s %s\n# TYPE %s %s\n", name, help, name, kind)
				hdr = true
			}
			fmt.Fprintf(&b, "%s{tenant=\"%d\"} %d\n", name, t.Tenant, value(t))
		}
	}
	emitScav("nvmeopf_scavenger_queued_total", "counter", "Scavenger (best-effort) requests absorbed into queues.", func(t TenantSnapshot) int64 { return t.ScavQueued })
	emitScav("nvmeopf_scavenger_queue_depth", "gauge", "Parked scavenger requests awaiting leftover capacity.", func(t TenantSnapshot) int64 { return t.ScavQueueDepth })
	emitScav("nvmeopf_scavenger_drains_total", "counter", "Scavenger windows released (leftover capacity or aging).", func(t TenantSnapshot) int64 { return t.ScavDrains })
	emitScav("nvmeopf_scavenger_aged_drains_total", "counter", "Scavenger windows force-drained by the aging bound.", func(t TenantSnapshot) int64 { return t.ScavAgedDrains })

	b.WriteString("# HELP nvmeopf_tenant_coalescing_ratio Completions per wire response (>1 means coalescing).\n" +
		"# TYPE nvmeopf_tenant_coalescing_ratio gauge\n")
	for _, t := range tenants {
		fmt.Fprintf(&b, "nvmeopf_tenant_coalescing_ratio{tenant=\"%d\"} %.4f\n", t.Tenant, t.CoalescingRatio)
	}
	b.WriteString("# HELP nvmeopf_tenant_latency_hist_ns End-to-end latency histogram per class (log-bucketed, ~1.6% relative error).\n" +
		"# TYPE nvmeopf_tenant_latency_hist_ns histogram\n")
	for _, t := range tenants {
		for c := Class(0); c < numClasses; c++ {
			writeHist(&b, "nvmeopf_tenant_latency_hist_ns", t.Tenant, c, r.LatencyHist(proto.TenantID(t.Tenant), c))
		}
	}
	if e2e := r.E2E(); len(e2e) > 0 {
		b.WriteString("# HELP nvmeopf_e2e_latency_hist_ns Host-observed end-to-end latency histogram per class, merged from TelemetryUpdate deltas.\n" +
			"# TYPE nvmeopf_e2e_latency_hist_ns histogram\n")
		for _, s := range e2e {
			for c := Class(0); c < numClasses; c++ {
				writeHist(&b, "nvmeopf_e2e_latency_hist_ns", s.Tenant, c, r.E2EHist(proto.TenantID(s.Tenant), c))
			}
		}
	}
	g := r.Global()
	fmt.Fprintf(&b, "# HELP nvmeopf_connections_total Connections established.\n# TYPE nvmeopf_connections_total counter\nnvmeopf_connections_total %d\n", g.Connections)
	fmt.Fprintf(&b, "# HELP nvmeopf_transport_errors_total Transport-level failures.\n# TYPE nvmeopf_transport_errors_total counter\nnvmeopf_transport_errors_total %d\n", g.TransportErrors)
	fmt.Fprintf(&b, "# HELP nvmeopf_disconnects_total Sessions torn down after their connection died.\n# TYPE nvmeopf_disconnects_total counter\nnvmeopf_disconnects_total %d\n", g.Disconnects)
	fmt.Fprintf(&b, "# HELP nvmeopf_teardown_dropped_total Queued requests discarded by session teardown.\n# TYPE nvmeopf_teardown_dropped_total counter\nnvmeopf_teardown_dropped_total %d\n", g.TeardownDrops)
	if n := r.shards.Load(); n > 0 {
		fmt.Fprintf(&b, "# HELP nvmeopf_target_shards Reactor shards the target datapath runs.\n# TYPE nvmeopf_target_shards gauge\nnvmeopf_target_shards %d\n", n)
	}
	return b.String()
}

// writeHist renders one tenant-class histogram as a Prometheus histogram:
// cumulative buckets at histExportBounds, +Inf, sum and count. A class
// that recorded nothing renders no series.
func writeHist(b *strings.Builder, name string, tenant uint16, c Class, h *stats.AtomicHistogram) {
	if h == nil {
		return
	}
	hs := h.Snapshot()
	if hs.Count() == 0 {
		return
	}
	for _, le := range histExportBounds {
		fmt.Fprintf(b, "%s_bucket{tenant=\"%d\",class=\"%s\",le=\"%d\"} %d\n", name, tenant, c, le, hs.CumulativeLE(le))
	}
	fmt.Fprintf(b, "%s_bucket{tenant=\"%d\",class=\"%s\",le=\"+Inf\"} %d\n", name, tenant, c, hs.Count())
	fmt.Fprintf(b, "%s_sum{tenant=\"%d\",class=\"%s\"} %d\n", name, tenant, c, hs.Sum())
	fmt.Fprintf(b, "%s_count{tenant=\"%d\",class=\"%s\"} %d\n", name, tenant, c, hs.Count())
}

// Exporter is a running HTTP endpoint serving a registry.
type Exporter struct {
	ln   net.Listener
	srv  *http.Server
	once sync.Once
}

// Serve binds addr (e.g. "127.0.0.1:9464", ":0") and serves the
// registry's Handler until Close. It returns once the listener is bound,
// so Addr is immediately valid.
func (r *Registry) Serve(addr string) (*Exporter, error) {
	ln, err := net.Listen("tcp", addr)
	if err != nil {
		return nil, err
	}
	e := &Exporter{ln: ln, srv: &http.Server{Handler: r.Handler()}}
	go func() { _ = e.srv.Serve(ln) }()
	return e, nil
}

// Addr returns the bound address.
func (e *Exporter) Addr() string { return e.ln.Addr().String() }

// Close shuts the endpoint down.
func (e *Exporter) Close() error {
	var err error
	e.once.Do(func() { err = e.srv.Close() })
	return err
}
