package telemetry

import (
	"testing"

	"nvmeopf/internal/proto"
)

// TestNilRegistrySafe drives every method on a nil receiver: all must be
// no-ops, none may panic — nil is the "telemetry disabled" value the
// datapath is wired with by default.
func TestNilRegistrySafe(t *testing.T) {
	var r *Registry
	r.SetClass(1, proto.PrioThroughputCritical)
	r.IncSubmitted(1, 4096)
	r.IncCompleted(1, proto.PrioThroughputCritical, 100, 4096, true)
	r.IncLSBypass(1)
	r.IncTCQueued(1)
	r.SetQueueDepth(1, 5)
	r.SetWindow(1, 32)
	r.ObserveDrain(1, 16, false)
	r.IncSuppressed(1)
	r.IncResponse(1, true)
	r.IncConnection()
	r.IncTransportError()
	r.SetRecorder(nil)
	if got := r.LatencyHist(1, ClassTC); got != nil {
		t.Fatalf("nil registry LatencyHist() = %v, want nil", got)
	}
	if got := r.Tenants(); got != nil {
		t.Fatalf("nil registry Tenants() = %v, want nil", got)
	}
	if g := r.Global(); g != (GlobalSnapshot{}) {
		t.Fatalf("nil registry Global() = %+v, want zero", g)
	}
	if r.PrometheusText() == "" {
		t.Fatal("nil registry PrometheusText() empty")
	}
}

func TestTenantCountersAndSnapshot(t *testing.T) {
	r := New()
	const tid proto.TenantID = 7
	r.SetClass(tid, proto.PrioThroughputCritical)
	for i := 0; i < 32; i++ {
		r.IncSubmitted(tid, 4096)
	}
	for i := 0; i < 32; i++ {
		r.IncCompleted(tid, proto.PrioThroughputCritical, int64(1000*(i+1)), 0, i != 0) // one error
	}
	r.IncTCQueued(tid)
	r.SetQueueDepth(tid, 3)
	r.ObserveDrain(tid, 16, false)
	r.ObserveDrain(tid, 16, true)
	for i := 0; i < 30; i++ {
		r.IncSuppressed(tid)
	}
	r.IncResponse(tid, true)
	r.IncResponse(tid, false)

	snaps := r.Tenants()
	if len(snaps) != 1 {
		t.Fatalf("Tenants() returned %d snapshots, want 1", len(snaps))
	}
	s := snaps[0]
	if s.Tenant != 7 || s.Class != "throughput-critical" {
		t.Fatalf("snapshot identity wrong: %+v", s)
	}
	if s.Submitted != 32 || s.Completed != 32 || s.Errors != 1 {
		t.Fatalf("request counters wrong: %+v", s)
	}
	if s.BytesWritten != 32*4096 {
		t.Fatalf("bytes written = %d, want %d", s.BytesWritten, 32*4096)
	}
	if s.QueueDepth != 3 || s.Window != 16 {
		t.Fatalf("gauges wrong: depth=%d window=%d", s.QueueDepth, s.Window)
	}
	if s.Drains != 1 || s.ForcedDrains != 1 || s.Suppressed != 30 {
		t.Fatalf("drain counters wrong: %+v", s)
	}
	if s.Responses != 2 || s.Coalesced != 1 {
		t.Fatalf("response counters wrong: %+v", s)
	}
	// 32 completions over 2 responses: the live Fig. 6(c) ratio.
	if s.CoalescingRatio != 16 {
		t.Fatalf("coalescing ratio = %v, want 16", s.CoalescingRatio)
	}
	if s.LatencySamples != 32 || s.LatencyP50 == 0 || s.LatencyMax != 32000 {
		t.Fatalf("latency snapshot wrong: %+v", s)
	}
	if s.LatencyP99 < s.LatencyP50 || s.LatencyMax < s.LatencyP99 {
		t.Fatalf("latency quantiles out of order: %+v", s)
	}
}

// TestLatencyHistogramUnbounded: the log-bucketed histograms count every
// sample (unlike the fixed sample rings they replaced) and still report
// exact quantiles for a single-valued distribution.
func TestLatencyHistogramUnbounded(t *testing.T) {
	r := New()
	const tid proto.TenantID = 1
	const n = 100_000
	for i := 0; i < n; i++ {
		r.IncCompleted(tid, proto.PrioLatencySensitive, 500, 0, true)
	}
	s := r.Tenants()[0]
	if s.LatencySamples != n {
		t.Fatalf("samples = %d, want %d", s.LatencySamples, n)
	}
	if s.LatencyP50 != 500 || s.LatencyMax != 500 {
		t.Fatalf("single-valued quantiles wrong: %+v", s)
	}
	if c := r.LatencyHist(tid, ClassLS).Snapshot().Count(); c != n {
		t.Fatalf("LS hist count = %d, want %d", c, n)
	}
	if h := r.LatencyHist(tid, ClassTC); h != nil {
		t.Fatalf("TC hist installed without TC samples")
	}
}

func TestUntouchedTenantsSkipped(t *testing.T) {
	r := New()
	r.IncSubmitted(0, 0)
	r.IncSubmitted(255, 0)
	snaps := r.Tenants()
	if len(snaps) != 2 || snaps[0].Tenant != 0 || snaps[1].Tenant != 255 {
		t.Fatalf("expected exactly tenants 0 and 255, got %+v", snaps)
	}
}
