package core

// Admission-control and drain-watchdog unit tests for the target PM:
// per-tenant and global pending caps with LS headroom (StatusBusy
// push-back), and ExpireStale force-draining parked TC queues on a fake
// clock.

import (
	"testing"

	"nvmeopf/internal/nvme"
	"nvmeopf/internal/proto"
	"nvmeopf/internal/telemetry"
)

func TestAdmitPerTenantCap(t *testing.T) {
	pm := NewTargetPM(TargetPMConfig{Isolated: true, MaxPendingPerTenant: 2})
	for i := 0; i < 2; i++ {
		if !pm.Admit(1, proto.PrioNormal) {
			t.Fatalf("request %d refused below the cap", i)
		}
	}
	if pm.Admit(1, proto.PrioNormal) {
		t.Fatal("request admitted past the per-tenant cap")
	}
	if got := pm.Stats().BusyRejections; got != 1 {
		t.Fatalf("BusyRejections = %d, want 1", got)
	}
	// Another tenant is unaffected by tenant 1's saturation.
	if !pm.Admit(2, proto.PrioNormal) {
		t.Fatal("independent tenant refused")
	}
	if pm.PendingRequests(1) != 2 || pm.PendingRequests(2) != 1 || pm.PendingTotal() != 3 {
		t.Fatalf("pending accounting: t1=%d t2=%d total=%d",
			pm.PendingRequests(1), pm.PendingRequests(2), pm.PendingTotal())
	}
	// Release opens exactly one slot.
	pm.Release(1, proto.PrioNormal)
	if !pm.Admit(1, proto.PrioNormal) {
		t.Fatal("request refused after Release opened a slot")
	}
	if pm.Admit(1, proto.PrioNormal) {
		t.Fatal("cap not re-enforced after refill")
	}
}

func TestAdmitGlobalCapReservesLSHeadroom(t *testing.T) {
	pm := NewTargetPM(TargetPMConfig{Isolated: true, MaxPendingGlobal: 4, LSHeadroom: 2})
	// Non-LS admission stops LSHeadroom slots early.
	if !pm.Admit(1, proto.PrioThroughputCritical) || !pm.Admit(2, proto.PrioThroughputCritical) {
		t.Fatal("TC refused below the non-LS limit")
	}
	if pm.Admit(3, proto.PrioThroughputCritical) {
		t.Fatal("TC admitted into the LS headroom")
	}
	if pm.Admit(3, proto.PrioNormal) {
		t.Fatal("normal-class admitted into the LS headroom")
	}
	// LS still admits, up to the full global cap.
	if !pm.Admit(3, proto.PrioLatencySensitive) || !pm.Admit(4, proto.PrioLatencySensitive) {
		t.Fatal("LS refused inside its reserved headroom")
	}
	if pm.Admit(5, proto.PrioLatencySensitive) {
		t.Fatal("LS admitted past the global cap")
	}
	if got := pm.Stats().BusyRejections; got != 3 {
		t.Fatalf("BusyRejections = %d, want 3", got)
	}
	// A completion frees a slot for LS but the non-LS limit still binds.
	pm.Release(1, proto.PrioNormal)
	if pm.Admit(1, proto.PrioThroughputCritical) {
		t.Fatal("TC admitted while at the non-LS limit")
	}
	if !pm.Admit(1, proto.PrioLatencySensitive) {
		t.Fatal("LS refused with a free slot")
	}
}

func TestAdmitDrainingAlwaysAdmitted(t *testing.T) {
	// Rejecting a drain would wedge the tenant's already-parked window
	// forever, so draining requests bypass every cap.
	pm := NewTargetPM(TargetPMConfig{Isolated: true, MaxPendingPerTenant: 1, MaxPendingGlobal: 2, LSHeadroom: 1})
	if !pm.Admit(1, proto.PrioThroughputCritical) {
		t.Fatal("first TC refused")
	}
	if pm.Admit(1, proto.PrioThroughputCritical) {
		t.Fatal("second TC admitted past both caps")
	}
	if !pm.Admit(1, proto.PrioTCDraining) {
		t.Fatal("draining request refused: parked window wedged")
	}
	if pm.PendingRequests(1) != 2 {
		t.Fatalf("pending = %d, want 2 (drain still charged)", pm.PendingRequests(1))
	}
}

func TestReleaseFloorsAtZero(t *testing.T) {
	pm := NewTargetPM(TargetPMConfig{Isolated: true})
	pm.Release(9, proto.PrioNormal) // never admitted: must not underflow
	if pm.PendingRequests(9) != 0 || pm.PendingTotal() != 0 {
		t.Fatalf("pending went negative: t=%d total=%d", pm.PendingRequests(9), pm.PendingTotal())
	}
}

// watchdogPM builds a PM with a settable fake clock.
func watchdogPM(deadline int64) (*TargetPM, *int64) {
	now := new(int64)
	pm := NewTargetPM(TargetPMConfig{
		Isolated:   true,
		MaxPending: 256,
		Clock:      func() int64 { return *now },
		WatchdogNS: deadline,
	})
	return pm, now
}

func TestExpireStaleForceDrainsParkedQueue(t *testing.T) {
	pm, now := watchdogPM(100)
	var events []telemetry.Event
	pm.SetTrace(func(e telemetry.Event) { events = append(events, e) })

	*now = 10
	for cid := nvme.CID(1); cid <= 3; cid++ {
		if d, _ := pm.OnCommand(1, cid, proto.PrioThroughputCritical); d != DispositionQueued {
			t.Fatalf("CID %d: disposition %v, want queued", cid, d)
		}
	}
	// Before the deadline (anchored at first enqueue, clock=10): no-op.
	if got := pm.ExpireStale(109); got != nil {
		t.Fatalf("ExpireStale fired %d batches before the deadline", len(got))
	}
	batches := pm.ExpireStale(110)
	if len(batches) != 1 || len(batches[0]) != 3 {
		t.Fatalf("ExpireStale = %v, want one batch of 3", batches)
	}
	if pm.QueueDepth(1) != 0 {
		t.Fatalf("queue depth %d after force-drain", pm.QueueDepth(1))
	}
	st := pm.Stats()
	if st.ForcedDrains != 1 || st.WatchdogDrains != 1 {
		t.Fatalf("ForcedDrains=%d WatchdogDrains=%d, want 1/1", st.ForcedDrains, st.WatchdogDrains)
	}
	var sawForced bool
	for _, e := range events {
		if e.Stage == telemetry.StageForcedDrain {
			sawForced = true
			if e.Aux != 3 {
				t.Fatalf("StageForcedDrain Aux = %d, want batch size 3", e.Aux)
			}
		}
	}
	if !sawForced {
		t.Fatal("no StageForcedDrain event traced")
	}
	// The batch behaves exactly like a drain-triggered one: suppressed
	// members, then one coalesced response carried by the last parked CID.
	for cid := nvme.CID(1); cid <= 2; cid++ {
		rds := pm.OnDeviceCompletion(1, cid, nvme.StatusSuccess)
		if len(rds) != 1 || rds[0].Send {
			t.Fatalf("CID %d: member not suppressed: %v", cid, rds)
		}
	}
	rds := pm.OnDeviceCompletion(1, 3, nvme.StatusSuccess)
	if len(rds) != 1 || !rds[0].Send || !rds[0].Coalesced || rds[0].CID != 3 {
		t.Fatalf("coalesced release = %v, want coalesced CID 3", rds)
	}
}

func TestExpireStaleDeadlineRestartsPerWindow(t *testing.T) {
	pm, now := watchdogPM(100)
	*now = 10
	pm.OnCommand(1, 1, proto.PrioThroughputCritical)
	// A real drain arrives in time: the parked window flushes and the
	// watchdog anchor resets.
	if d, _ := pm.OnCommand(1, 2, proto.PrioTCDraining); d != DispositionDrainBatch {
		t.Fatalf("drain disposition %v", d)
	}
	if got := pm.ExpireStale(500); got != nil {
		t.Fatalf("watchdog fired on an empty queue: %v", got)
	}
	// The next window's deadline anchors at its own first enqueue.
	*now = 400
	pm.OnCommand(1, 3, proto.PrioThroughputCritical)
	if got := pm.ExpireStale(499); got != nil {
		t.Fatal("watchdog fired before the new window's deadline")
	}
	if got := pm.ExpireStale(500); len(got) != 1 || len(got[0]) != 1 {
		t.Fatalf("watchdog missed the new window: %v", got)
	}
}

func TestExpireStaleDisabledWithoutClockOrDeadline(t *testing.T) {
	noClock := NewTargetPM(TargetPMConfig{Isolated: true, WatchdogNS: 1})
	noClock.OnCommand(1, 1, proto.PrioThroughputCritical)
	if got := noClock.ExpireStale(1 << 60); got != nil {
		t.Fatal("watchdog ran without a clock")
	}
	pm, now := watchdogPM(0)
	*now = 10
	pm.OnCommand(1, 1, proto.PrioThroughputCritical)
	if got := pm.ExpireStale(1 << 60); got != nil {
		t.Fatal("watchdog ran with a zero deadline")
	}
}

// TestExpireStaleReleasesOldestFirst: when one watchdog sweep finds several
// stale queues, their windows come back oldest first, tenant ID breaking
// ties — the order they then reach the device must not vary run to run.
// Fifty fresh PMs, because an order that merely happens to come out right
// (map iteration) does so one time in six.
func TestExpireStaleReleasesOldestFirst(t *testing.T) {
	for run := 0; run < 50; run++ {
		pm, now := watchdogPM(100)
		*now = 10
		pm.OnCommand(9, 1, proto.PrioThroughputCritical)
		*now = 20
		pm.OnCommand(5, 1, proto.PrioThroughputCritical)
		pm.OnCommand(3, 1, proto.PrioThroughputCritical) // same age as tenant 5's
		pm.OnCommand(3, 2, proto.PrioThroughputCritical)
		*now = 150
		pm.OnCommand(4, 1, proto.PrioThroughputCritical) // not stale yet
		batches := pm.ExpireStale(150)
		var order []proto.TenantID
		for _, b := range batches {
			order = append(order, b[0].Tenant)
		}
		if want := []proto.TenantID{9, 3, 5}; len(order) != 3 || order[0] != want[0] || order[1] != want[1] || order[2] != want[2] {
			t.Fatalf("run %d: stale windows released for tenants %v, want %v", run, order, want)
		}
		if len(batches[1]) != 2 || pm.QueueDepth(4) != 1 {
			t.Fatalf("run %d: tenant 3's window has %d members, tenant 4 has %d parked", run, len(batches[1]), pm.QueueDepth(4))
		}
	}
}
