package telemetry

import (
	"encoding/json"
	"fmt"
	"net"
	"net/http"
	"net/http/pprof"
	"sort"
	"strings"
	"sync"

	"nvmeopf/internal/proto"
)

// Handler returns an http.Handler exposing the registry:
//
//	/metrics        Prometheus text exposition (counters, gauges,
//	                per-class latency histograms, SLO burn rates)
//	/debug/tenants  JSON: live per-tenant instrument table
//	/debug/windows  JSON: recent window-optimizer decisions
//	/debug/slo      JSON: per-tenant SLO state and burn rates
//	/debug/autotune JSON: adaptive-controller state and decision log
//	/debug/e2e      JSON: host-reported end-to-end view per tenant
//	/debug/trace    JSONL: flight-recorder dump (when one is attached)
//	/debug/pprof/   net/http/pprof profiles from the live process
//
// The handler only reads snapshots; it never blocks the record path.
// Each /metrics scrape also checkpoints the SLO counters (TickSLO), so
// the multi-window burn rates advance at scrape cadence. The /debug/*
// endpoints are read-only: non-GET requests are answered 405.
func (r *Registry) Handler() http.Handler {
	mux := http.NewServeMux()
	mux.HandleFunc("/metrics", func(w http.ResponseWriter, _ *http.Request) {
		r.TickSLO(r.now())
		w.Header().Set("Content-Type", "text/plain; version=0.0.4; charset=utf-8")
		fmt.Fprint(w, r.PrometheusText())
	})
	mux.HandleFunc("/debug/tenants", getOnly(func(w http.ResponseWriter) {
		writeJSON(w, struct {
			Global  GlobalSnapshot   `json:"global"`
			Tenants []TenantSnapshot `json:"tenants"`
		}{r.Global(), r.Tenants()})
	}))
	mux.HandleFunc("/debug/windows", getOnly(func(w http.ResponseWriter) {
		writeJSON(w, struct {
			Windows []WindowDecision `json:"windows"`
		}{r.WindowLog()})
	}))
	mux.HandleFunc("/debug/slo", getOnly(func(w http.ResponseWriter) {
		writeJSON(w, struct {
			Windows []string      `json:"windows"`
			SLOs    []SLOSnapshot `json:"slos"`
		}{sloWindowNames(), r.SLOs(r.now())})
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
		rec := r.Recorder()
		if rec == nil {
			http.Error(w, "no flight recorder attached", http.StatusNotFound)
			return
		}
		w.Header().Set("Content-Type", "application/x-ndjson")
		_ = rec.WriteJSONL(w)
	}))
	mux.HandleFunc("/debug/pprof/", pprof.Index)
	mux.HandleFunc("/debug/pprof/cmdline", pprof.Cmdline)
	mux.HandleFunc("/debug/pprof/profile", pprof.Profile)
	mux.HandleFunc("/debug/pprof/symbol", pprof.Symbol)
	mux.HandleFunc("/debug/pprof/trace", pprof.Trace)
	return mux
}

func sloWindowNames() []string {
	names := make([]string, 0, len(SLOBurnWindows)+1)
	for _, w := range SLOBurnWindows {
		names = append(names, w.Name)
	}
	return append(names, "total")
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
	{"nvmeopf_replayed_requests_total", "counter", "Requests resubmitted by host-side recovery.", func(t TenantSnapshot) int64 { return t.Replayed }},
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
	// exposition byte-identical (the same gating the cluster instruments
	// use).
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
	b.WriteString("# HELP nvmeopf_tenant_latency_ns End-to-end latency quantiles from the log-bucketed histograms.\n" +
		"# TYPE nvmeopf_tenant_latency_ns gauge\n")
	for _, t := range tenants {
		if t.LatencySamples == 0 {
			continue
		}
		fmt.Fprintf(&b, "nvmeopf_tenant_latency_ns{tenant=\"%d\",quantile=\"0.5\"} %d\n", t.Tenant, t.LatencyP50)
		fmt.Fprintf(&b, "nvmeopf_tenant_latency_ns{tenant=\"%d\",quantile=\"0.95\"} %d\n", t.Tenant, t.LatencyP95)
		fmt.Fprintf(&b, "nvmeopf_tenant_latency_ns{tenant=\"%d\",quantile=\"0.99\"} %d\n", t.Tenant, t.LatencyP99)
		fmt.Fprintf(&b, "nvmeopf_tenant_latency_ns{tenant=\"%d\",quantile=\"0.999\"} %d\n", t.Tenant, t.LatencyP999)
		fmt.Fprintf(&b, "nvmeopf_tenant_latency_ns{tenant=\"%d\",quantile=\"1\"} %d\n", t.Tenant, t.LatencyMax)
	}
	b.WriteString("# HELP nvmeopf_tenant_latency_hist_ns End-to-end latency histogram per class (log-bucketed, ~1.6% relative error).\n" +
		"# TYPE nvmeopf_tenant_latency_hist_ns histogram\n")
	for _, t := range tenants {
		for c := Class(0); c < numClasses; c++ {
			h := r.LatencyHist(proto.TenantID(t.Tenant), c)
			if h == nil {
				continue
			}
			hs := h.Snapshot()
			if hs.Count() == 0 {
				continue
			}
			for _, le := range histExportBounds {
				fmt.Fprintf(&b, "nvmeopf_tenant_latency_hist_ns_bucket{tenant=\"%d\",class=\"%s\",le=\"%d\"} %d\n",
					t.Tenant, c, le, hs.CumulativeLE(le))
			}
			fmt.Fprintf(&b, "nvmeopf_tenant_latency_hist_ns_bucket{tenant=\"%d\",class=\"%s\",le=\"+Inf\"} %d\n",
				t.Tenant, c, hs.Count())
			fmt.Fprintf(&b, "nvmeopf_tenant_latency_hist_ns_sum{tenant=\"%d\",class=\"%s\"} %d\n", t.Tenant, c, hs.Sum())
			fmt.Fprintf(&b, "nvmeopf_tenant_latency_hist_ns_count{tenant=\"%d\",class=\"%s\"} %d\n", t.Tenant, c, hs.Count())
		}
	}
	if slos := r.SLOs(r.now()); len(slos) > 0 {
		b.WriteString("# HELP nvmeopf_tenant_slo_objective_ns Declared per-tenant latency objective.\n" +
			"# TYPE nvmeopf_tenant_slo_objective_ns gauge\n")
		for _, s := range slos {
			fmt.Fprintf(&b, "nvmeopf_tenant_slo_objective_ns{tenant=\"%d\"} %d\n", s.Tenant, s.ObjectiveNS)
		}
		b.WriteString("# HELP nvmeopf_tenant_slo_good_total Completions within the latency objective.\n" +
			"# TYPE nvmeopf_tenant_slo_good_total counter\n")
		for _, s := range slos {
			fmt.Fprintf(&b, "nvmeopf_tenant_slo_good_total{tenant=\"%d\"} %d\n", s.Tenant, s.Good)
		}
		b.WriteString("# HELP nvmeopf_tenant_slo_violations_total Completions slower than the objective.\n" +
			"# TYPE nvmeopf_tenant_slo_violations_total counter\n")
		for _, s := range slos {
			fmt.Fprintf(&b, "nvmeopf_tenant_slo_violations_total{tenant=\"%d\"} %d\n", s.Tenant, s.Violations)
		}
		b.WriteString("# HELP nvmeopf_tenant_slo_burn_rate Error-budget burn rate per trailing window (1 = consuming exactly the budget).\n" +
			"# TYPE nvmeopf_tenant_slo_burn_rate gauge\n")
		for _, s := range slos {
			for w, win := range SLOBurnWindows {
				if s.BurnRate[w] >= 0 {
					fmt.Fprintf(&b, "nvmeopf_tenant_slo_burn_rate{tenant=\"%d\",window=\"%s\"} %.4f\n", s.Tenant, win.Name, s.BurnRate[w])
				}
			}
			if s.BurnTotal >= 0 {
				fmt.Fprintf(&b, "nvmeopf_tenant_slo_burn_rate{tenant=\"%d\",window=\"total\"} %.4f\n", s.Tenant, s.BurnTotal)
			}
		}
	}
	if states := r.AutotuneStates(); len(states) > 0 {
		b.WriteString("# HELP nvmeopf_autotune_window Adaptive drain-window controller's current window per tenant.\n" +
			"# TYPE nvmeopf_autotune_window gauge\n")
		for _, s := range states {
			fmt.Fprintf(&b, "nvmeopf_autotune_window{tenant=\"%d\"} %d\n", s.Tenant, s.Window)
		}
		b.WriteString("# HELP nvmeopf_autotune_cap Admission cap set by the adaptive controller (0: cleared).\n" +
			"# TYPE nvmeopf_autotune_cap gauge\n")
		for _, s := range states {
			fmt.Fprintf(&b, "nvmeopf_autotune_cap{tenant=\"%d\"} %d\n", s.Tenant, s.Cap)
		}
		b.WriteString("# HELP nvmeopf_autotune_burn_rate Interval LS burn rate at the last controller decision.\n" +
			"# TYPE nvmeopf_autotune_burn_rate gauge\n")
		for _, s := range states {
			fmt.Fprintf(&b, "nvmeopf_autotune_burn_rate{tenant=\"%d\"} %.4f\n", s.Tenant, s.Last.BurnRate)
		}
		b.WriteString("# HELP nvmeopf_autotune_decisions_total Controller decisions by action.\n" +
			"# TYPE nvmeopf_autotune_decisions_total counter\n")
		for _, s := range states {
			for i, a := range AutotuneActions {
				fmt.Fprintf(&b, "nvmeopf_autotune_decisions_total{tenant=\"%d\",action=\"%s\"} %d\n", s.Tenant, a, s.Decisions[i])
			}
		}
	}
	if e2e := r.E2E(); len(e2e) > 0 {
		b.WriteString("# HELP nvmeopf_e2e_latency_hist_ns Host-observed end-to-end latency histogram per class, merged from TelemetryUpdate deltas.\n" +
			"# TYPE nvmeopf_e2e_latency_hist_ns histogram\n")
		for _, s := range e2e {
			for c := Class(0); c < numClasses; c++ {
				h := r.E2EHist(proto.TenantID(s.Tenant), c)
				if h == nil {
					continue
				}
				hs := h.Snapshot()
				if hs.Count() == 0 {
					continue
				}
				for _, le := range histExportBounds {
					fmt.Fprintf(&b, "nvmeopf_e2e_latency_hist_ns_bucket{tenant=\"%d\",class=\"%s\",le=\"%d\"} %d\n",
						s.Tenant, c, le, hs.CumulativeLE(le))
				}
				fmt.Fprintf(&b, "nvmeopf_e2e_latency_hist_ns_bucket{tenant=\"%d\",class=\"%s\",le=\"+Inf\"} %d\n",
					s.Tenant, c, hs.Count())
				fmt.Fprintf(&b, "nvmeopf_e2e_latency_hist_ns_sum{tenant=\"%d\",class=\"%s\"} %d\n", s.Tenant, c, hs.Sum())
				fmt.Fprintf(&b, "nvmeopf_e2e_latency_hist_ns_count{tenant=\"%d\",class=\"%s\"} %d\n", s.Tenant, c, hs.Count())
			}
		}
		b.WriteString("# HELP nvmeopf_e2e_gap_ns Egress gap: host-observed e2e p99 minus target-side service p99.\n" +
			"# TYPE nvmeopf_e2e_gap_ns gauge\n")
		for _, s := range e2e {
			for _, cs := range s.Classes {
				fmt.Fprintf(&b, "nvmeopf_e2e_gap_ns{tenant=\"%d\",class=\"%s\"} %d\n", s.Tenant, cs.Class, cs.GapP99NS)
			}
		}
		b.WriteString("# HELP nvmeopf_e2e_updates_total TelemetryUpdate PDUs merged from hosts.\n" +
			"# TYPE nvmeopf_e2e_updates_total counter\n")
		for _, s := range e2e {
			fmt.Fprintf(&b, "nvmeopf_e2e_updates_total{tenant=\"%d\"} %d\n", s.Tenant, s.Updates)
		}
		b.WriteString("# HELP nvmeopf_e2e_host_queue_depth Host-side outstanding commands at the last update.\n" +
			"# TYPE nvmeopf_e2e_host_queue_depth gauge\n")
		for _, s := range e2e {
			fmt.Fprintf(&b, "nvmeopf_e2e_host_queue_depth{tenant=\"%d\"} %d\n", s.Tenant, s.QueueDepth)
		}
		b.WriteString("# HELP nvmeopf_e2e_busy_total Host-observed StatusBusy completions.\n" +
			"# TYPE nvmeopf_e2e_busy_total counter\n")
		for _, s := range e2e {
			fmt.Fprintf(&b, "nvmeopf_e2e_busy_total{tenant=\"%d\"} %d\n", s.Tenant, s.Busy)
		}
		b.WriteString("# HELP nvmeopf_e2e_retries_total Host-side resubmissions reported over the feedback channel.\n" +
			"# TYPE nvmeopf_e2e_retries_total counter\n")
		for _, s := range e2e {
			fmt.Fprintf(&b, "nvmeopf_e2e_retries_total{tenant=\"%d\"} %d\n", s.Tenant, s.Retries)
		}
	}
	var clockHdr bool
	r.eachTouched(func(i int, s *tenantSlot) {
		if s.clockReest.Load() == 0 {
			return
		}
		if !clockHdr {
			b.WriteString("# HELP nvmeopf_clock_reestimate_delta_ns Last periodic clock-offset re-estimate minus the previous estimate.\n" +
				"# TYPE nvmeopf_clock_reestimate_delta_ns gauge\n")
			clockHdr = true
		}
		fmt.Fprintf(&b, "nvmeopf_clock_reestimate_delta_ns{tenant=\"%d\"} %d\n", i, s.clockReestDelta.Load())
	})
	clockHdr = false
	r.eachTouched(func(i int, s *tenantSlot) {
		if s.clockReest.Load() == 0 {
			return
		}
		if !clockHdr {
			b.WriteString("# HELP nvmeopf_clock_reestimates_total Periodic clock-offset re-estimates performed.\n" +
				"# TYPE nvmeopf_clock_reestimates_total counter\n")
			clockHdr = true
		}
		fmt.Fprintf(&b, "nvmeopf_clock_reestimates_total{tenant=\"%d\"} %d\n", i, s.clockReest.Load())
	})
	g := r.Global()
	fmt.Fprintf(&b, "# HELP nvmeopf_connections_total Connections established.\n# TYPE nvmeopf_connections_total counter\nnvmeopf_connections_total %d\n", g.Connections)
	fmt.Fprintf(&b, "# HELP nvmeopf_reconnects_total Connections re-established after failure.\n# TYPE nvmeopf_reconnects_total counter\nnvmeopf_reconnects_total %d\n", g.Reconnects)
	fmt.Fprintf(&b, "# HELP nvmeopf_transport_errors_total Transport-level failures.\n# TYPE nvmeopf_transport_errors_total counter\nnvmeopf_transport_errors_total %d\n", g.TransportErrors)
	fmt.Fprintf(&b, "# HELP nvmeopf_disconnects_total Sessions torn down after their connection died.\n# TYPE nvmeopf_disconnects_total counter\nnvmeopf_disconnects_total %d\n", g.Disconnects)
	fmt.Fprintf(&b, "# HELP nvmeopf_teardown_dropped_total Queued requests discarded by session teardown.\n# TYPE nvmeopf_teardown_dropped_total counter\nnvmeopf_teardown_dropped_total %d\n", g.TeardownDrops)
	if n := r.Shards(); n > 0 {
		fmt.Fprintf(&b, "# HELP nvmeopf_target_shards Reactor shards the target datapath runs.\n# TYPE nvmeopf_target_shards gauge\nnvmeopf_target_shards %d\n", n)
	}
	// Cluster instruments: emitted only once any of them was touched, so
	// single-target deployments keep their exposition byte-identical.
	if g.Failovers != 0 || g.StaleEpochs != 0 || g.DiscoveryExpired != 0 || g.ClusterEpoch != 0 || g.ClusterDegraded != 0 {
		fmt.Fprintf(&b, "# HELP nvmeopf_failovers_total Shard primaries re-targeted after a target death.\n# TYPE nvmeopf_failovers_total counter\nnvmeopf_failovers_total %d\n", g.Failovers)
		fmt.Fprintf(&b, "# HELP nvmeopf_stale_epoch_rejections_total Cluster maps or registrations rejected for a stale epoch.\n# TYPE nvmeopf_stale_epoch_rejections_total counter\nnvmeopf_stale_epoch_rejections_total %d\n", g.StaleEpochs)
		fmt.Fprintf(&b, "# HELP nvmeopf_discovery_expired_total Discovery registrations expired by TTL without a keep-alive.\n# TYPE nvmeopf_discovery_expired_total counter\nnvmeopf_discovery_expired_total %d\n", g.DiscoveryExpired)
		fmt.Fprintf(&b, "# HELP nvmeopf_cluster_epoch Newest cluster-map epoch observed.\n# TYPE nvmeopf_cluster_epoch gauge\nnvmeopf_cluster_epoch %d\n", g.ClusterEpoch)
		fmt.Fprintf(&b, "# HELP nvmeopf_cluster_degraded 1 while writes are refused because the shard has no live replica.\n# TYPE nvmeopf_cluster_degraded gauge\nnvmeopf_cluster_degraded %d\n", g.ClusterDegraded)
	}
	return b.String()
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

// SnapshotTable renders the per-tenant table as fixed-width text for
// terminal reports (examples and CLI tools).
func (r *Registry) SnapshotTable() string {
	if r == nil {
		return "telemetry disabled\n"
	}
	tenants := r.Tenants()
	sort.Slice(tenants, func(i, j int) bool { return tenants[i].Tenant < tenants[j].Tenant })
	var b strings.Builder
	fmt.Fprintf(&b, "%-7s %-28s %10s %10s %6s %8s %7s %9s\n",
		"tenant", "class", "submitted", "completed", "depth", "window", "drains", "coalesce")
	for _, t := range tenants {
		fmt.Fprintf(&b, "%-7d %-28s %10d %10d %6d %8d %7d %8.2fx\n",
			t.Tenant, t.Class, t.Submitted, t.Completed, t.QueueDepth, t.Window,
			t.Drains+t.ForcedDrains, t.CoalescingRatio)
	}
	return b.String()
}
