package simcluster

import (
	"sort"
	"strings"
	"testing"

	"nvmeopf/internal/hostqp"
	"nvmeopf/internal/nvme"
	"nvmeopf/internal/proto"
	"nvmeopf/internal/targetqp"
	"nvmeopf/internal/telemetry"
)

// TestClusterTelemetryInstruments runs 1 LS + 1 TC tenant against an oPF
// target with a live registry attached to both sides, and asserts the
// instruments the exporter serves: per-tenant submitted/completed, LS
// bypass, queue/drain activity, a coalescing ratio > 1 for the TC tenant,
// and virtual-clock latency samples. Deterministic: fixed seed, fixed
// request counts.
func TestClusterTelemetryInstruments(t *testing.T) {
	prof, err := ProfileFor(100)
	if err != nil {
		t.Fatal(err)
	}
	targetTel := telemetry.New()
	hostTel := telemetry.New()
	c := New(Options{Profile: prof, Mode: targetqp.ModeOPF, Seed: 42, Telemetry: targetTel})
	if c.Telemetry() != targetTel {
		t.Fatal("Telemetry() accessor does not return the wired registry")
	}
	tn, err := c.NewTargetNode("tgt0", false)
	if err != nil {
		t.Fatal(err)
	}
	in := c.NewInitiatorNode("ini0", tn)

	const window = 8
	tc, err := in.Connect(hostqp.Config{
		Class: proto.PrioThroughputCritical, Window: window, QueueDepth: 32, NSID: 1,
		Telemetry: hostTel,
	})
	if err != nil {
		t.Fatal(err)
	}
	ls, err := in.Connect(hostqp.Config{
		Class: proto.PrioLatencySensitive, Window: 1, QueueDepth: 1, NSID: 1,
		Telemetry: hostTel,
	})
	if err != nil {
		t.Fatal(err)
	}
	c.Run()

	const tcReqs = 4 * window // four full windows
	done := 0
	tc.Session.OnConnect(func() {
		for i := 0; i < tcReqs; i++ {
			if err := tc.Session.Submit(hostqp.IO{
				Op: nvme.OpRead, LBA: uint64(i), Blocks: 1,
				Done: func(hostqp.Result) { done++ },
			}); err != nil {
				t.Errorf("tc submit %d: %v", i, err)
			}
		}
	})
	lsDone := 0
	ls.Session.OnConnect(func() {
		var issue func()
		issue = func() {
			if lsDone >= 4 {
				return
			}
			_ = ls.Session.Submit(hostqp.IO{
				Op: nvme.OpRead, LBA: 9000, Blocks: 1,
				Done: func(hostqp.Result) { lsDone++; issue() },
			})
		}
		issue()
	})
	c.Run()
	if err := c.CheckHealthy(); err != nil {
		t.Fatal(err)
	}
	if done != tcReqs || lsDone != 4 {
		t.Fatalf("completions: tc=%d/%d ls=%d/4", done, tcReqs, lsDone)
	}

	tcID, lsID := tc.Session.Tenant(), ls.Session.Tenant()

	// Target-side instruments.
	byTenant := map[uint16]telemetry.TenantSnapshot{}
	for _, s := range targetTel.Tenants() {
		byTenant[s.Tenant] = s
	}
	ts, ok := byTenant[uint16(tcID)]
	if !ok {
		t.Fatalf("target registry has no snapshot for TC tenant %d", tcID)
	}
	if ts.Submitted != tcReqs || ts.Completed != tcReqs {
		t.Fatalf("TC target counters: submitted=%d completed=%d want %d", ts.Submitted, ts.Completed, tcReqs)
	}
	// Each window's draining request takes the drain path instead of
	// enqueuing, so queued = requests minus one per window.
	if ts.TCQueued != tcReqs-tcReqs/window {
		t.Fatalf("TC queued = %d, want %d", ts.TCQueued, tcReqs-tcReqs/window)
	}
	if ts.Drains != tcReqs/window {
		t.Fatalf("drains = %d, want %d", ts.Drains, tcReqs/window)
	}
	if ts.Window != window {
		t.Fatalf("observed drain window = %d, want %d", ts.Window, window)
	}
	if ts.QueueDepth != 0 {
		t.Fatalf("queue depth after drain = %d, want 0", ts.QueueDepth)
	}
	// One coalesced response per window: ratio == window size.
	if ts.CoalescingRatio <= 1 {
		t.Fatalf("coalescing ratio = %v, want > 1", ts.CoalescingRatio)
	}
	if ts.CoalescingRatio != float64(window) {
		t.Fatalf("coalescing ratio = %v, want exactly %d (one response per full window)", ts.CoalescingRatio, window)
	}
	if ts.Suppressed != tcReqs-tcReqs/window {
		t.Fatalf("suppressed = %d, want %d", ts.Suppressed, tcReqs-tcReqs/window)
	}
	if ts.LatencySamples == 0 || ts.LatencyP50 <= 0 {
		t.Fatalf("target service-latency samples missing: %+v", ts)
	}

	lss, ok := byTenant[uint16(lsID)]
	if !ok {
		t.Fatalf("target registry has no snapshot for LS tenant %d", lsID)
	}
	if lss.LSBypassed != 4 {
		t.Fatalf("LS bypass = %d, want 4", lss.LSBypassed)
	}
	if lss.Responses != 4 || lss.Coalesced != 0 {
		t.Fatalf("LS responses = %d coalesced = %d, want 4/0", lss.Responses, lss.Coalesced)
	}

	// Host-side instruments live in the host registry.
	hostBy := map[uint16]telemetry.TenantSnapshot{}
	for _, s := range hostTel.Tenants() {
		hostBy[s.Tenant] = s
	}
	hts := hostBy[uint16(tcID)]
	if hts.Submitted != tcReqs || hts.Completed != tcReqs {
		t.Fatalf("host TC counters: %+v", hts)
	}
	if hts.Class != "throughput-critical" {
		t.Fatalf("host TC class = %q", hts.Class)
	}
	if hts.Window != window {
		t.Fatalf("host window gauge = %d, want %d", hts.Window, window)
	}
	if hts.LatencyP50 <= 0 {
		t.Fatalf("host end-to-end latency samples missing: %+v", hts)
	}
	if hls := hostBy[uint16(lsID)]; hls.Class != "latency-sensitive" {
		t.Fatalf("host LS class = %q (the PM always runs TC-mode; the class must come from the session config)", hls.Class)
	}
	if g := hostTel.Global(); g.Connections != 2 {
		t.Fatalf("host connections = %d, want 2", g.Connections)
	}

	// The exporter renders the same signal.
	text := targetTel.PrometheusText()
	if !strings.Contains(text, "nvmeopf_tenant_submitted_total") {
		t.Fatalf("prometheus text missing series:\n%s", text)
	}
}

// TestClusterTraceTimeline attaches flight recorders to both sides and
// reconstructs one TC window's lifecycle: every stage must appear, in
// causal order, for the drain request.
func TestClusterTraceTimeline(t *testing.T) {
	prof, err := ProfileFor(100)
	if err != nil {
		t.Fatal(err)
	}
	c := New(Options{Profile: prof, Mode: targetqp.ModeOPF, Seed: 7})
	hostRec, targetRec := c.AttachFlightRecorders(telemetry.RecorderConfig{})
	tn, err := c.NewTargetNode("tgt0", false)
	if err != nil {
		t.Fatal(err)
	}
	in := c.NewInitiatorNode("ini0", tn)
	const window = 4
	ini, err := in.Connect(hostqp.Config{
		Class: proto.PrioThroughputCritical, Window: window, QueueDepth: 16, NSID: 1,
	})
	if err != nil {
		t.Fatal(err)
	}
	c.Run()
	ini.Session.OnConnect(func() {
		for i := 0; i < window; i++ {
			_ = ini.Session.Submit(hostqp.IO{Op: nvme.OpRead, LBA: uint64(i), Blocks: 1, Done: func(hostqp.Result) {}})
		}
	})
	c.Run()
	if err := c.CheckHealthy(); err != nil {
		t.Fatal(err)
	}

	// Both recorders stamp the one virtual clock, so the two sides merge
	// onto one timeline; a PDU hop takes time, so no cause shares its
	// stamp with an effect on the other side.
	events := append(hostRec.Events(), targetRec.Events()...)
	sort.SliceStable(events, func(i, j int) bool { return events[i].TS < events[j].TS })
	count := map[telemetry.Stage]int{}
	firstIdx := map[telemetry.Stage]int{}
	for i, e := range events {
		st := telemetry.Stage(e.Stage)
		count[st]++
		if _, seen := firstIdx[st]; !seen {
			firstIdx[st] = i
		}
	}
	if count[telemetry.StageSubmit] != window {
		t.Fatalf("submit events = %d, want %d", count[telemetry.StageSubmit], window)
	}
	if count[telemetry.StageDrainMark] != 1 {
		t.Fatalf("drain-mark events = %d, want 1", count[telemetry.StageDrainMark])
	}
	// The window's first window-1 requests enqueue; the draining request
	// releases them.
	if count[telemetry.StageEnqueue] != window-1 {
		t.Fatalf("enqueue events = %d, want %d", count[telemetry.StageEnqueue], window-1)
	}
	if count[telemetry.StageDrainStart] != 1 {
		t.Fatalf("drain-start events = %d, want 1", count[telemetry.StageDrainStart])
	}
	if count[telemetry.StageDeviceComplete] != window {
		t.Fatalf("device-complete events = %d, want %d", count[telemetry.StageDeviceComplete], window)
	}
	if count[telemetry.StageCoalescedNotify] != 1 {
		t.Fatalf("coalesced-notify events = %d, want 1", count[telemetry.StageCoalescedNotify])
	}
	if count[telemetry.StageReplay] != window {
		t.Fatalf("replay events = %d, want %d", count[telemetry.StageReplay], window)
	}
	// Causal order across the timeline.
	order := []telemetry.Stage{
		telemetry.StageSubmit, telemetry.StageEnqueue, telemetry.StageDrainStart,
		telemetry.StageDeviceComplete, telemetry.StageCoalescedNotify, telemetry.StageReplay,
	}
	for i := 1; i < len(order); i++ {
		if firstIdx[order[i]] < firstIdx[order[i-1]] {
			t.Fatalf("stage %v first seen at %d, before %v at %d",
				order[i], firstIdx[order[i]], order[i-1], firstIdx[order[i-1]])
		}
	}
	// The drain-start event names the draining CID and the full batch.
	ds := events[firstIdx[telemetry.StageDrainStart]]
	if ds.Aux != window {
		t.Fatalf("drain-start batch size = %d, want %d", ds.Aux, window)
	}
	cn := events[firstIdx[telemetry.StageCoalescedNotify]]
	if cn.Aux != window || cn.CID != ds.CID {
		t.Fatalf("coalesced-notify (cid=%d aux=%d) does not match drain (cid=%d window=%d)",
			cn.CID, cn.Aux, ds.CID, window)
	}
}
