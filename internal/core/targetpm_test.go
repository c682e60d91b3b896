package core

import (
	"testing"

	"nvmeopf/internal/nvme"
	"nvmeopf/internal/proto"
)

func isolatedPM() *TargetPM {
	return NewTargetPM(TargetPMConfig{Isolated: true, MaxPending: 256})
}

func TestLSBypassesQueue(t *testing.T) {
	pm := isolatedPM()
	// Deep TC backlog for tenant 1.
	for i := 0; i < 20; i++ {
		d, _ := pm.OnCommand(1, nvme.CID(i), proto.PrioThroughputCritical)
		if d != DispositionQueued {
			t.Fatalf("TC request %d disposition = %v", i, d)
		}
	}
	// LS request from tenant 2 executes immediately.
	d, batch := pm.OnCommand(2, 100, proto.PrioLatencySensitive)
	if d != DispositionExecute || batch != nil {
		t.Fatalf("LS disposition = %v, batch = %v", d, batch)
	}
	// And so does an LS request from tenant 1 itself, despite its own queue.
	d, _ = pm.OnCommand(1, 101, proto.PrioLatencySensitive)
	if d != DispositionExecute {
		t.Fatalf("same-tenant LS disposition = %v", d)
	}
	if pm.QueueDepth(1) != 20 {
		t.Fatalf("LS perturbed TC queue: %d", pm.QueueDepth(1))
	}
	if pm.Stats().LSBypassed != 2 {
		t.Fatalf("LSBypassed = %d", pm.Stats().LSBypassed)
	}
}

func TestNormalExecutesImmediately(t *testing.T) {
	pm := isolatedPM()
	d, _ := pm.OnCommand(1, 5, proto.PrioNormal)
	if d != DispositionExecute {
		t.Fatalf("normal disposition = %v", d)
	}
}

func TestDrainFlushesWholeWindow(t *testing.T) {
	pm := isolatedPM()
	for i := 0; i < 3; i++ {
		pm.OnCommand(1, nvme.CID(i), proto.PrioThroughputCritical)
	}
	d, batch := pm.OnCommand(1, 3, proto.PrioTCDraining)
	if d != DispositionDrainBatch {
		t.Fatalf("disposition = %v", d)
	}
	if len(batch) != 4 {
		t.Fatalf("batch = %v", batch)
	}
	for i, m := range batch {
		if m.CID != nvme.CID(i) || m.Tenant != 1 {
			t.Fatalf("batch order/owner broken: %v", batch)
		}
	}
	if pm.QueueDepth(1) != 0 {
		t.Fatal("queue not flushed")
	}
}

func TestCoalescedCompletionOnlyAfterWholeBatch(t *testing.T) {
	pm := isolatedPM()
	for i := 0; i < 3; i++ {
		pm.OnCommand(1, nvme.CID(i), proto.PrioThroughputCritical)
	}
	_, batch := pm.OnCommand(1, 3, proto.PrioTCDraining)
	if len(batch) != 4 {
		t.Fatal("bad batch")
	}
	// Complete out of order: 2, 0, 3 (drain), 1.
	order := []nvme.CID{2, 0, 3, 1}
	var sent []RespDecision
	for _, cid := range order {
		for _, rd := range pm.OnDeviceCompletion(1, cid, nvme.StatusSuccess) {
			if rd.Send {
				sent = append(sent, rd)
			}
		}
	}
	if len(sent) != 1 {
		t.Fatalf("responses = %+v, want exactly 1", sent)
	}
	rd := sent[0]
	if !rd.Coalesced || rd.CID != 3 || rd.Tenant != 1 || !rd.Status.OK() {
		t.Fatalf("coalesced response wrong: %+v", rd)
	}
	if pm.OutstandingBatchCIDs() != 0 {
		t.Fatal("batch tracking leaked")
	}
	st := pm.Stats()
	if st.RespsSuppressed != 3 || st.RespsSent != 1 {
		t.Fatalf("suppressed=%d sent=%d", st.RespsSuppressed, st.RespsSent)
	}
}

func TestDrainCompletingEarlyStillWaits(t *testing.T) {
	pm := isolatedPM()
	pm.OnCommand(1, 0, proto.PrioThroughputCritical)
	pm.OnCommand(1, 1, proto.PrioTCDraining)
	// Device finishes the drain request first (out of order).
	rds := pm.OnDeviceCompletion(1, 1, nvme.StatusSuccess)
	if len(rds) != 1 || rds[0].Send {
		t.Fatalf("early drain completion should be suppressed: %+v", rds)
	}
	rds = pm.OnDeviceCompletion(1, 0, nvme.StatusSuccess)
	if len(rds) != 1 || !rds[0].Send || !rds[0].Coalesced || rds[0].CID != 1 {
		t.Fatalf("final completion wrong: %+v", rds)
	}
}

func TestBatchErrorStatusPropagates(t *testing.T) {
	pm := isolatedPM()
	pm.OnCommand(1, 0, proto.PrioThroughputCritical)
	pm.OnCommand(1, 1, proto.PrioTCDraining)
	pm.OnDeviceCompletion(1, 0, nvme.StatusLBAOutOfRange)
	rds := pm.OnDeviceCompletion(1, 1, nvme.StatusSuccess)
	if len(rds) != 1 || !rds[0].Send {
		t.Fatal("no final response")
	}
	if rds[0].Status != nvme.StatusLBAOutOfRange {
		t.Fatalf("batch status = %v, want first member error", rds[0].Status)
	}
}

func TestLSCompletionAlwaysResponds(t *testing.T) {
	pm := isolatedPM()
	pm.OnCommand(1, 7, proto.PrioLatencySensitive)
	rds := pm.OnDeviceCompletion(1, 7, nvme.StatusSuccess)
	if len(rds) != 1 || !rds[0].Send || rds[0].Coalesced || rds[0].CID != 7 {
		t.Fatalf("LS response wrong: %+v", rds)
	}
}

func TestTenantIsolation(t *testing.T) {
	pm := isolatedPM()
	// Tenant 1 and tenant 2 queue TC requests; tenant 2's drain must not
	// flush tenant 1's queue (§IV-A: isolated queues).
	for i := 0; i < 5; i++ {
		pm.OnCommand(1, nvme.CID(i), proto.PrioThroughputCritical)
		pm.OnCommand(2, nvme.CID(i), proto.PrioThroughputCritical)
	}
	_, batch := pm.OnCommand(2, 5, proto.PrioTCDraining)
	if len(batch) != 6 {
		t.Fatalf("tenant 2 batch = %d, want its own 6", len(batch))
	}
	for _, m := range batch {
		if m.Tenant != 2 {
			t.Fatalf("foreign CID in isolated batch: %+v", m)
		}
	}
	if pm.QueueDepth(1) != 5 {
		t.Fatalf("tenant 1 queue flushed by tenant 2's drain: depth %d", pm.QueueDepth(1))
	}
	if pm.Stats().PrematureFlush != 0 {
		t.Fatal("premature flush counted in isolated mode")
	}
}

func TestSameCIDDifferentTenants(t *testing.T) {
	pm := isolatedPM()
	// CIDs are per-connection; both tenants use CID 0 concurrently.
	pm.OnCommand(1, 0, proto.PrioTCDraining)
	pm.OnCommand(2, 0, proto.PrioTCDraining)
	// The decisions are the PM's scratch: read before the next completion.
	rd1 := pm.OnDeviceCompletion(1, 0, nvme.StatusSuccess)
	if !rd1[0].Send || rd1[0].Tenant != 1 {
		t.Fatalf("tenant 1 response: %+v", rd1)
	}
	rd2 := pm.OnDeviceCompletion(2, 0, nvme.StatusSuccess)
	if !rd2[0].Send || rd2[0].Tenant != 2 {
		t.Fatalf("tenant 2 response: %+v", rd2)
	}
}

func TestSharedQueuePrematureFlush(t *testing.T) {
	pm := NewTargetPM(TargetPMConfig{Isolated: false, MaxPending: 256})
	// Tenant 1 queues 3 TC requests; tenant 2's drain flushes them too.
	for i := 0; i < 3; i++ {
		pm.OnCommand(1, nvme.CID(i), proto.PrioThroughputCritical)
	}
	_, batch := pm.OnCommand(2, 50, proto.PrioTCDraining)
	if len(batch) != 4 {
		t.Fatalf("shared batch = %d", len(batch))
	}
	if pm.Stats().PrematureFlush != 3 {
		t.Fatalf("premature flush = %d, want 3", pm.Stats().PrematureFlush)
	}
	// Shared-queue batches mix tenants, so no coalesced response can be
	// ordered safely: every member answers individually (§IV-A made
	// executable) — the hazard costs the design its coalescing benefit.
	var toT1, toT2, coalesced int
	for _, m := range batch {
		for _, rd := range pm.OnDeviceCompletion(m.Tenant, m.CID, nvme.StatusSuccess) {
			if !rd.Send {
				continue
			}
			if rd.Coalesced {
				coalesced++
			}
			switch rd.Tenant {
			case 1:
				toT1++
			case 2:
				toT2++
			}
			if rd.CID != m.CID {
				t.Fatalf("response renamed: %+v for member %+v", rd, m)
			}
		}
	}
	if coalesced != 0 {
		t.Fatalf("coalesced responses in shared mode: %d", coalesced)
	}
	if toT1 != 3 || toT2 != 1 {
		t.Fatalf("responses: tenant1=%d tenant2=%d", toT1, toT2)
	}
}

func TestForcedDrainSafetyValve(t *testing.T) {
	pm := NewTargetPM(TargetPMConfig{Isolated: true, MaxPending: 4})
	var batch []TaggedCID
	for i := 0; i < 4; i++ {
		d, b := pm.OnCommand(1, nvme.CID(i), proto.PrioThroughputCritical)
		if i < 3 && d != DispositionQueued {
			t.Fatalf("request %d disposition = %v", i, d)
		}
		if i == 3 {
			if d != DispositionDrainBatch {
				t.Fatalf("valve did not trip: %v", d)
			}
			batch = b
		}
	}
	if len(batch) != 4 {
		t.Fatalf("forced batch = %d", len(batch))
	}
	if pm.Stats().ForcedDrains != 1 {
		t.Fatalf("forced drains = %d", pm.Stats().ForcedDrains)
	}
	// The forced batch still coalesces into one response named after its
	// last member.
	var sent int
	for _, m := range batch {
		for _, rd := range pm.OnDeviceCompletion(1, m.CID, nvme.StatusSuccess) {
			if rd.Send {
				sent++
				if !rd.Coalesced || rd.CID != 3 {
					t.Fatalf("forced drain response wrong: %+v", rd)
				}
			}
		}
	}
	if sent != 1 {
		t.Fatalf("sent = %d", sent)
	}
}

func TestValveDisabled(t *testing.T) {
	pm := NewTargetPM(TargetPMConfig{Isolated: true, MaxPending: 0})
	for i := 0; i < 1000; i++ {
		d, _ := pm.OnCommand(1, nvme.CID(i), proto.PrioThroughputCritical)
		if d != DispositionQueued {
			t.Fatalf("request %d disposition = %v with valve off", i, d)
		}
	}
	if pm.QueueDepth(1) != 1000 {
		t.Fatalf("depth = %d", pm.QueueDepth(1))
	}
}

func TestDispositionStrings(t *testing.T) {
	for _, d := range []Disposition{DispositionExecute, DispositionQueued, DispositionDrainBatch, Disposition(9)} {
		if d.String() == "" {
			t.Errorf("empty string for %d", int(d))
		}
	}
}

func TestMultipleConcurrentBatchesPerTenant(t *testing.T) {
	pm := isolatedPM()
	// Window 1: CIDs 0,1 (drain 1). Window 2: CIDs 2,3 (drain 3). Both
	// execute before either completes (QD > window).
	pm.OnCommand(1, 0, proto.PrioThroughputCritical)
	pm.OnCommand(1, 1, proto.PrioTCDraining)
	pm.OnCommand(1, 2, proto.PrioThroughputCritical)
	pm.OnCommand(1, 3, proto.PrioTCDraining)
	// Complete window 2 first (device reordering across batches).
	var sent []RespDecision
	for _, cid := range []nvme.CID{3, 2, 1, 0} {
		for _, rd := range pm.OnDeviceCompletion(1, cid, nvme.StatusSuccess) {
			if rd.Send {
				sent = append(sent, rd)
			}
		}
	}
	if len(sent) != 2 {
		t.Fatalf("responses = %+v", sent)
	}
	// Window 2 finished first at the device, but responses must be
	// released in window order (1 before 3): the host replays its pending
	// queue prefix per coalesced response.
	if sent[0].CID != 1 || sent[1].CID != 3 {
		t.Fatalf("batch responses out of window order: %+v", sent)
	}
}

func TestCrossWindowResponseOrdering(t *testing.T) {
	pm := isolatedPM()
	// Three windows of 2; the device completes them in reverse.
	for w := 0; w < 3; w++ {
		pm.OnCommand(1, nvme.CID(2*w), proto.PrioThroughputCritical)
		pm.OnCommand(1, nvme.CID(2*w+1), proto.PrioTCDraining)
	}
	var sent []nvme.CID
	complete := func(cid nvme.CID) {
		for _, rd := range pm.OnDeviceCompletion(1, cid, nvme.StatusSuccess) {
			if rd.Send {
				sent = append(sent, rd.CID)
			}
		}
	}
	// Finish window 3, then 2: nothing may be announced yet.
	complete(5)
	complete(4)
	complete(3)
	complete(2)
	if len(sent) != 0 {
		t.Fatalf("later windows announced before window 1: %v", sent)
	}
	// Window 1 completes: all three drain responses release, in order.
	complete(1)
	complete(0)
	want := []nvme.CID{1, 3, 5}
	if len(sent) != 3 || sent[0] != want[0] || sent[1] != want[1] || sent[2] != want[2] {
		t.Fatalf("release order = %v, want %v", sent, want)
	}
}

func TestDropTenantIsolatedDropsOnlyThatTenant(t *testing.T) {
	pm := isolatedPM()
	for i := 0; i < 3; i++ {
		pm.OnCommand(1, nvme.CID(i), proto.PrioThroughputCritical)
	}
	pm.OnCommand(2, 100, proto.PrioThroughputCritical)
	dropped := pm.DropTenant(1)
	if len(dropped) != 3 {
		t.Fatalf("dropped = %v, want 3 CIDs", dropped)
	}
	for i, cid := range dropped {
		if cid != nvme.CID(i) {
			t.Fatalf("dropped order broken: %v", dropped)
		}
	}
	if pm.QueueDepth(1) != 0 {
		t.Fatalf("tenant 1 queue depth = %d after drop", pm.QueueDepth(1))
	}
	if pm.QueueDepth(2) != 1 {
		t.Fatalf("tenant 2 queue perturbed: depth = %d", pm.QueueDepth(2))
	}
	if pm.Stats().TeardownDrops != 3 {
		t.Fatalf("TeardownDrops = %d", pm.Stats().TeardownDrops)
	}
	// Survivor still drains normally.
	d, batch := pm.OnCommand(2, 101, proto.PrioTCDraining)
	if d != DispositionDrainBatch || len(batch) != 2 {
		t.Fatalf("survivor drain broken: %v %v", d, batch)
	}
}

func TestDropTenantSharedKeepsOthersFIFO(t *testing.T) {
	pm := NewTargetPM(TargetPMConfig{Isolated: false, MaxPending: 256})
	// Interleave two tenants in the shared queue.
	pm.OnCommand(1, 0, proto.PrioThroughputCritical)
	pm.OnCommand(2, 10, proto.PrioThroughputCritical)
	pm.OnCommand(1, 1, proto.PrioThroughputCritical)
	pm.OnCommand(2, 11, proto.PrioThroughputCritical)
	dropped := pm.DropTenant(1)
	if len(dropped) != 2 || dropped[0] != 0 || dropped[1] != 1 {
		t.Fatalf("dropped = %v, want [0 1]", dropped)
	}
	// A draining request flushes the shared queue; only tenant 2's
	// survivors should be in the batch, in arrival order.
	_, batch := pm.OnCommand(2, 12, proto.PrioTCDraining)
	if len(batch) != 3 {
		t.Fatalf("batch = %v", batch)
	}
	want := []nvme.CID{10, 11, 12}
	for i, m := range batch {
		if m.Tenant != 2 || m.CID != want[i] {
			t.Fatalf("survivor FIFO broken: %v", batch)
		}
	}
}

func TestDropTenantEmptyAndExecutingUntouched(t *testing.T) {
	pm := isolatedPM()
	if dropped := pm.DropTenant(7); dropped != nil {
		t.Fatalf("drop of idle tenant = %v", dropped)
	}
	// An executing batch is not queued: DropTenant must leave it alone so
	// its completions still account.
	pm.OnCommand(1, 0, proto.PrioThroughputCritical)
	pm.OnCommand(1, 1, proto.PrioTCDraining)
	if dropped := pm.DropTenant(1); dropped != nil {
		t.Fatalf("drop reached executing batch: %v", dropped)
	}
	pm.OnDeviceCompletion(1, 0, nvme.StatusSuccess)
	rds := pm.OnDeviceCompletion(1, 1, nvme.StatusSuccess)
	if len(rds) != 1 || !rds[0].Send || !rds[0].Coalesced {
		t.Fatalf("batch completion broken after drop: %+v", rds)
	}
	if pm.OutstandingBatchCIDs() != 0 {
		t.Fatal("batch tracking leaked")
	}
}
