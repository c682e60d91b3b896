package core

// Scavenger (best-effort) class unit tests for the target PM — the
// leftover-capacity drain condition, the aging bound, admission yielding
// its global slots before the LSHeadroom check — plus the two bugfix
// regressions that shipped with the class: tenant IDs >= 256 through the
// paged override storage, and Release's pinned
// sum(pending) == pendingTotal invariant.

import (
	"testing"

	"nvmeopf/internal/nvme"
	"nvmeopf/internal/proto"
	"nvmeopf/internal/telemetry"
)

func TestScavengerParksWhileLSPending(t *testing.T) {
	pm := NewTargetPM(TargetPMConfig{Isolated: true})
	if !pm.Admit(1, proto.PrioLatencySensitive) {
		t.Fatal("LS refused")
	}
	if d, _ := pm.OnCommand(1, 1, proto.PrioLatencySensitive); d != DispositionExecute {
		t.Fatalf("LS disposition %v", d)
	}
	if !pm.Admit(2, proto.PrioScavenger) {
		t.Fatal("scavenger refused")
	}
	if d, _ := pm.OnCommand(2, 10, proto.PrioScavenger); d != DispositionQueued {
		t.Fatalf("scavenger disposition %v", d)
	}
	if pm.ScavQueueDepth(2) != 1 {
		t.Fatalf("scavenger queue depth %d", pm.ScavQueueDepth(2))
	}
	// The LS request is still pending: no leftover capacity, no drain.
	if got := pm.PollScavenger(0); got != nil {
		t.Fatalf("scavenger drained with an LS request pending: %v", got)
	}
	// The LS completion frees the capacity.
	pm.Release(1, proto.PrioLatencySensitive)
	batches := pm.PollScavenger(0)
	if len(batches) != 1 || len(batches[0]) != 1 || batches[0][0].CID != 10 {
		t.Fatalf("PollScavenger = %v, want one batch [CID 10]", batches)
	}
	if pm.ScavQueueDepth(2) != 0 {
		t.Fatalf("queue depth %d after drain", pm.ScavQueueDepth(2))
	}
	st := pm.Stats()
	if st.ScavQueued != 1 || st.ScavDrains != 1 || st.ScavAgedDrains != 0 {
		t.Fatalf("ScavQueued=%d ScavDrains=%d ScavAgedDrains=%d, want 1/1/0",
			st.ScavQueued, st.ScavDrains, st.ScavAgedDrains)
	}
	// The batch completes like any drain window: one coalesced response.
	rds := pm.OnDeviceCompletion(2, 10, nvme.StatusSuccess)
	if len(rds) != 1 || !rds[0].Send || !rds[0].Coalesced || rds[0].CID != 10 {
		t.Fatalf("scavenger completion = %v, want coalesced CID 10", rds)
	}
}

func TestScavengerParksBehindUndrainedTCWindow(t *testing.T) {
	pm := NewTargetPM(TargetPMConfig{Isolated: true})
	pm.OnCommand(2, 10, proto.PrioScavenger)
	pm.OnCommand(1, 1, proto.PrioThroughputCritical)
	if pm.TCParked() != 1 {
		t.Fatalf("TCParked = %d, want 1", pm.TCParked())
	}
	// A parked (un-drained) TC window blocks the scavenger drain.
	if got := pm.PollScavenger(0); got != nil {
		t.Fatalf("scavenger drained behind a parked TC window: %v", got)
	}
	// The drain releases the TC window; an *executing* window does not
	// block — scavengers only wait for parked foreground work.
	if d, _ := pm.OnCommand(1, 2, proto.PrioTCDraining); d != DispositionDrainBatch {
		t.Fatal("TC drain did not release")
	}
	if pm.TCParked() != 0 {
		t.Fatalf("TCParked = %d after drain, want 0", pm.TCParked())
	}
	if got := pm.PollScavenger(0); len(got) != 1 || len(got[0]) != 1 {
		t.Fatalf("PollScavenger = %v after TC drained, want one batch of 1", got)
	}
}

func TestScavengerAgingForceDrains(t *testing.T) {
	now := new(int64)
	pm := NewTargetPM(TargetPMConfig{
		Isolated:         true,
		Clock:            func() int64 { return *now },
		ScavengerAgingNS: 100,
	})
	var forced []telemetry.Event
	pm.SetTrace(func(e telemetry.Event) {
		if e.Stage == telemetry.StageForcedDrain {
			forced = append(forced, e)
		}
	})
	// Continuous foreground load: an LS request stays pending throughout.
	pm.Admit(1, proto.PrioLatencySensitive)
	*now = 10
	pm.OnCommand(2, 10, proto.PrioScavenger)
	pm.OnCommand(2, 11, proto.PrioScavenger)
	if got := pm.PollScavenger(109); got != nil {
		t.Fatalf("scavenger force-drained before the aging bound: %v", got)
	}
	// firstAt=10, bound 100: at now=110 the window has aged out.
	batches := pm.PollScavenger(110)
	if len(batches) != 1 || len(batches[0]) != 2 {
		t.Fatalf("PollScavenger = %v, want one batch of 2", batches)
	}
	st := pm.Stats()
	if st.ScavDrains != 1 || st.ScavAgedDrains != 1 {
		t.Fatalf("ScavDrains=%d ScavAgedDrains=%d, want 1/1", st.ScavDrains, st.ScavAgedDrains)
	}
	if len(forced) != 1 || forced[0].Prio != proto.PrioScavenger || forced[0].Aux != 2 {
		t.Fatalf("forced-drain trace = %+v, want one scavenger event of batch size 2", forced)
	}
}

func TestScavengerIdleDrainNotCountedAsAged(t *testing.T) {
	now := new(int64)
	pm := NewTargetPM(TargetPMConfig{
		Isolated:         true,
		Clock:            func() int64 { return *now },
		ScavengerAgingNS: 1 << 40,
	})
	pm.OnCommand(2, 10, proto.PrioScavenger)
	// No foreground work at all: the idle path drains immediately, and it
	// is a normal drain, not an aged one.
	if got := pm.PollScavenger(0); len(got) != 1 {
		t.Fatalf("idle scavenger drain missing: %v", got)
	}
	st := pm.Stats()
	if st.ScavDrains != 1 || st.ScavAgedDrains != 0 {
		t.Fatalf("ScavDrains=%d ScavAgedDrains=%d, want 1/0", st.ScavDrains, st.ScavAgedDrains)
	}
}

func TestScavengerAgingAnchorResetsPerWindow(t *testing.T) {
	now := new(int64)
	pm := NewTargetPM(TargetPMConfig{
		Isolated:         true,
		Clock:            func() int64 { return *now },
		ScavengerAgingNS: 100,
	})
	pm.Admit(1, proto.PrioLatencySensitive) // keep the target busy
	*now = 10
	pm.OnCommand(2, 10, proto.PrioScavenger)
	if got := pm.PollScavenger(110); len(got) != 1 {
		t.Fatalf("first window did not age out: %v", got)
	}
	// The next window's deadline anchors at its own first enqueue.
	*now = 400
	pm.OnCommand(2, 11, proto.PrioScavenger)
	if got := pm.PollScavenger(499); got != nil {
		t.Fatalf("second window aged out early: %v", got)
	}
	if got := pm.PollScavenger(500); len(got) != 1 {
		t.Fatal("second window missed its own deadline")
	}
}

// TestScavengerDrainsInChunks pins the drain batch bound: leftover capacity
// is consumed in DefaultScavengerChunk-sized nibbles, never as one deep backlog
// dump that the next LS arrival would queue behind inside the device. Under
// continuous foreground load, each aged chunk restarts the remainder's
// aging anchor.
func TestScavengerDrainsInChunks(t *testing.T) {
	pm := NewTargetPM(TargetPMConfig{Isolated: true})
	for cid := nvme.CID(1); cid <= 10; cid++ {
		pm.OnCommand(7, cid, proto.PrioScavenger)
	}
	for want := 10; want > 0; want -= DefaultScavengerChunk {
		n := DefaultScavengerChunk
		if want < n {
			n = want
		}
		got := pm.PollScavenger(0)
		if len(got) != 1 || len(got[0]) != n {
			t.Fatalf("with %d parked: PollScavenger = %v, want one chunk of %d", want, got, n)
		}
		if d := pm.ScavQueueDepth(7); d != want-n {
			t.Fatalf("depth after chunk = %d, want %d", d, want-n)
		}
		// While the chunk is in service at the device, re-polls release
		// nothing more — background work never stacks past one chunk.
		if extra := pm.PollScavenger(0); extra != nil {
			t.Fatalf("second chunk released with one already in service: %v", extra)
		}
		for _, m := range got[0] {
			pm.OnDeviceCompletion(m.Tenant, m.CID, nvme.StatusSuccess)
		}
	}

	// Aged path: the remainder's deadline restarts at the chunk drain.
	const chunk = DefaultScavengerChunk
	now := new(int64)
	pm = NewTargetPM(TargetPMConfig{
		Isolated:         true,
		Clock:            func() int64 { return *now },
		ScavengerAgingNS: 100,
	})
	pm.Admit(1, proto.PrioLatencySensitive) // foreground stays busy
	*now = 10
	for cid := nvme.CID(1); cid <= 2*chunk+1; cid++ {
		pm.OnCommand(7, cid, proto.PrioScavenger)
	}
	if got := pm.PollScavenger(110); len(got) != 1 || len(got[0]) != chunk || got[0][0].CID != 1 {
		t.Fatalf("first aged chunk = %v, want CIDs 1-%d", got, chunk)
	}
	if got := pm.PollScavenger(209); got != nil {
		t.Fatalf("remainder aged out before its restarted deadline: %v", got)
	}
	if got := pm.PollScavenger(210); len(got) != 1 || len(got[0]) != chunk || got[0][0].CID != chunk+1 {
		t.Fatalf("second aged chunk = %v, want CIDs %d-%d", got, chunk+1, 2*chunk)
	}
	if st := pm.Stats(); st.ScavDrains != 2 || st.ScavAgedDrains != 2 {
		t.Fatalf("ScavDrains=%d ScavAgedDrains=%d, want 2/2", st.ScavDrains, st.ScavAgedDrains)
	}
}

func TestScavengerAdmissionYieldsBeforeLSHeadroom(t *testing.T) {
	pm := NewTargetPM(TargetPMConfig{
		Isolated:          true,
		MaxPendingGlobal:  6,
		LSHeadroom:        2,
		ScavengerHeadroom: 2,
	})
	// Scavenger stops LSHeadroom+ScavengerHeadroom slots early: 2 of 6.
	if !pm.Admit(1, proto.PrioScavenger) || !pm.Admit(1, proto.PrioScavenger) {
		t.Fatal("scavenger refused below its limit")
	}
	if pm.Admit(1, proto.PrioScavenger) {
		t.Fatal("scavenger admitted into the TC/LS reserve")
	}
	// TC still admits up to the LSHeadroom boundary: 4 of 6.
	if !pm.Admit(2, proto.PrioThroughputCritical) || !pm.Admit(2, proto.PrioThroughputCritical) {
		t.Fatal("TC refused inside the slots scavengers yielded")
	}
	if pm.Admit(2, proto.PrioThroughputCritical) {
		t.Fatal("TC admitted into the LS headroom")
	}
	// LS admits to the full global cap.
	if !pm.Admit(3, proto.PrioLatencySensitive) || !pm.Admit(3, proto.PrioLatencySensitive) {
		t.Fatal("LS refused inside its reserved headroom")
	}
	if pm.Admit(3, proto.PrioLatencySensitive) {
		t.Fatal("LS admitted past the global cap")
	}
}

// TestTenantIDOver256FullCycle is the regression for the reactor panic:
// the per-tenant window/cap overrides were stored in [256]int32 arrays
// indexed by the uint16 tenant ID, so the 257th initiator (tenant 256)
// crashed the shard on its first override/valveFor touch. The
// paged tenantVals storage must carry the full admit/queue/drain/release
// cycle for any ID in 0..65535.
func TestTenantIDOver256FullCycle(t *testing.T) {
	pm := NewTargetPM(TargetPMConfig{Isolated: true, MaxPending: 8})
	for _, tenant := range []proto.TenantID{256, 300, 4096, 65535} {
		pm.SetTenantLimit(tenant, 4)
		if got := pm.TenantLimit(tenant); got != 4 {
			t.Fatalf("tenant %d: TenantLimit = %d, want 4", tenant, got)
		}
		// Full TC cycle: admit, park, drain, complete, release.
		for cid := nvme.CID(1); cid <= 2; cid++ {
			if !pm.Admit(tenant, proto.PrioThroughputCritical) {
				t.Fatalf("tenant %d: TC admit refused", tenant)
			}
			if d, _ := pm.OnCommand(tenant, cid, proto.PrioThroughputCritical); d != DispositionQueued {
				t.Fatalf("tenant %d: disposition %v", tenant, d)
			}
		}
		pm.Admit(tenant, proto.PrioTCDraining)
		d, batch := pm.OnCommand(tenant, 3, proto.PrioTCDraining)
		if d != DispositionDrainBatch || len(batch) != 3 {
			t.Fatalf("tenant %d: drain = %v/%d members", tenant, d, len(batch))
		}
		for cid := nvme.CID(1); cid <= 3; cid++ {
			pm.OnDeviceCompletion(tenant, cid, nvme.StatusSuccess)
			pm.Release(tenant, proto.PrioThroughputCritical)
		}
		// Scavenger cycle on the same ID.
		pm.Admit(tenant, proto.PrioScavenger)
		pm.OnCommand(tenant, 9, proto.PrioScavenger)
		if got := pm.PollScavenger(0); len(got) != 1 {
			t.Fatalf("tenant %d: scavenger drain = %v", tenant, got)
		}
		pm.OnDeviceCompletion(tenant, 9, nvme.StatusSuccess)
		pm.Release(tenant, proto.PrioScavenger)
		if pm.PendingRequests(tenant) != 0 {
			t.Fatalf("tenant %d: %d pending after full cycle", tenant, pm.PendingRequests(tenant))
		}
		pm.SetTenantLimit(tenant, 0)
		if pm.TenantLimit(tenant) != 0 {
			t.Fatalf("tenant %d: limit survives a clear", tenant)
		}
	}
	// Reading an ID whose page was never allocated is a zero, not a panic,
	// and writing zero to it must not allocate the page.
	if pm.TenantLimit(50000) != 0 {
		t.Fatal("unset limit not zero")
	}
	seen := len(pm.all)
	pm.SetTenantLimit(50000, 0)
	if pm.TenantLimit(50000) != 0 {
		t.Fatal("zero write changed an unset limit")
	}
	if pm.tenants.pages[50000>>8] != nil || len(pm.all) != seen {
		t.Fatalf("clearing an unseen tenant's limit allocated its page or record (%d records, was %d)", len(pm.all), seen)
	}
}

// TestReleasePinsSumInvariant is the regression for the double-release
// accounting bug: Release used to decrement pendingTotal even when the
// tenant's own count was already zero, so sum(pending) drifted away from
// pendingTotal and the global admission limit silently loosened.
func TestReleasePinsSumInvariant(t *testing.T) {
	pm := NewTargetPM(TargetPMConfig{Isolated: true})
	pm.Admit(1, proto.PrioNormal)
	pm.Admit(1, proto.PrioNormal)
	pm.Admit(2, proto.PrioNormal)
	sum := func() int {
		return pm.PendingRequests(1) + pm.PendingRequests(2) + pm.PendingRequests(3)
	}
	// Two legitimate releases and two spurious ones for tenant 1, plus one
	// for a tenant that never admitted anything.
	for i := 0; i < 4; i++ {
		pm.Release(1, proto.PrioNormal)
		if sum() != pm.PendingTotal() {
			t.Fatalf("release %d: sum(pending)=%d != pendingTotal=%d", i, sum(), pm.PendingTotal())
		}
	}
	pm.Release(3, proto.PrioNormal)
	if pm.PendingRequests(1) != 0 || pm.PendingRequests(2) != 1 || pm.PendingTotal() != 1 {
		t.Fatalf("after spurious releases: t1=%d t2=%d total=%d, want 0/1/1",
			pm.PendingRequests(1), pm.PendingRequests(2), pm.PendingTotal())
	}
	// LS accounting floors the same way.
	pm.Admit(4, proto.PrioLatencySensitive)
	pm.Release(4, proto.PrioLatencySensitive)
	pm.Release(4, proto.PrioLatencySensitive)
	if pm.LSPending() != 0 {
		t.Fatalf("LSPending = %d after double LS release", pm.LSPending())
	}
}

func TestDropTenantDropsScavengerQueue(t *testing.T) {
	pm := NewTargetPM(TargetPMConfig{Isolated: true})
	pm.OnCommand(1, 1, proto.PrioThroughputCritical)
	pm.OnCommand(1, 10, proto.PrioScavenger)
	pm.OnCommand(1, 11, proto.PrioScavenger)
	pm.OnCommand(2, 20, proto.PrioScavenger)
	dropped := pm.DropTenant(1)
	if len(dropped) != 3 {
		t.Fatalf("DropTenant dropped %v, want 3 CIDs", dropped)
	}
	if pm.QueueDepth(1) != 0 || pm.ScavQueueDepth(1) != 0 {
		t.Fatalf("queues not empty after drop: tc=%d scav=%d", pm.QueueDepth(1), pm.ScavQueueDepth(1))
	}
	if pm.TCParked() != 0 {
		t.Fatalf("TCParked = %d after drop", pm.TCParked())
	}
	// The other tenant's parked scavenger work is untouched and still
	// drains.
	if pm.ScavQueueDepth(2) != 1 {
		t.Fatalf("tenant 2 scavenger depth %d", pm.ScavQueueDepth(2))
	}
	if got := pm.PollScavenger(0); len(got) != 1 || got[0][0].CID != 20 {
		t.Fatalf("tenant 2 drain = %v", got)
	}
	if got := pm.Stats().TeardownDrops; got != 3 {
		t.Fatalf("TeardownDrops = %d, want 3", got)
	}
}

func TestHostPMTrackKeepsWindowUntouched(t *testing.T) {
	h := NewHostPM(proto.PrioThroughputCritical, 4)
	for i := 0; i < 10; i++ {
		if p := h.Track(nvme.CID(i)); p != proto.PrioScavenger {
			t.Fatalf("Track stamp = %v, want scavenger", p)
		}
	}
	if h.Pending() != 10 {
		t.Fatalf("Pending = %d, want 10", h.Pending())
	}
	// No draining flags, no partial window: the idle-drain machinery must
	// see nothing to flush.
	if h.SinceDrain() != 0 {
		t.Fatalf("SinceDrain = %d, want 0", h.SinceDrain())
	}
	st := h.Stats()
	if st.Sent != 10 || st.DrainsInserted != 0 {
		t.Fatalf("Sent=%d DrainsInserted=%d, want 10/0", st.Sent, st.DrainsInserted)
	}
	// A target-driven coalesced drain replays the queue in order.
	done, err := h.OnResponse(9, true)
	if err != nil || len(done) != 10 {
		t.Fatalf("coalesced replay = %v, %v", done, err)
	}
	for i, cid := range done {
		if cid != nvme.CID(i) {
			t.Fatalf("replay out of order: %v", done)
		}
	}
}

// TestSetWindowUpdatesTelemetryGauge is the regression for the stale
// drain-window gauge: SetWindow changed the live window but the gauge
// kept the SetTelemetry-time value until the next dynamic-tuner decision.
func TestSetWindowUpdatesTelemetryGauge(t *testing.T) {
	tel := telemetry.New()
	h := NewHostPM(proto.PrioThroughputCritical, 4)
	h.SetTelemetry(5, tel)
	window := func() int64 {
		for _, s := range tel.Tenants() {
			if s.Tenant == 5 {
				return s.Window
			}
		}
		return -1
	}
	if got := window(); got != 4 {
		t.Fatalf("gauge after SetTelemetry = %d, want 4", got)
	}
	h.SetWindow(16)
	if got := window(); got != 16 {
		t.Fatalf("gauge after SetWindow = %d, want 16", got)
	}
	// Clamped values report the clamped window, and a detached PM does not
	// panic.
	h.SetWindow(-1)
	if got := window(); got != 1 {
		t.Fatalf("gauge after clamped SetWindow = %d, want 1", got)
	}
	NewHostPM(proto.PrioThroughputCritical, 2).SetWindow(8)
}

// TestScavengerDrainAllocatesNothing pins the scavenger poll at zero
// allocations per drain once the PM is warm: two scavenger tenants park a
// chunk each, one poll past the aging bound releases both (the result is
// the PM's scratch, not a fresh slice per call), and every member
// completes and is released.
func TestScavengerDrainAllocatesNothing(t *testing.T) {
	if raceEnabled {
		t.Skip("the race detector allocates on its own")
	}
	var now int64
	pm := NewTargetPM(TargetPMConfig{
		Isolated:         true,
		Clock:            func() int64 { return now },
		ScavengerAgingNS: 100,
	})
	tenants := []proto.TenantID{1, 2}
	drained := 0
	round := func() {
		now += 1000
		for _, tn := range tenants {
			for k := 0; k < DefaultScavengerChunk; k++ {
				if !pm.Admit(tn, proto.PrioScavenger) {
					t.Fatal("scavenger refused with no cap configured")
				}
				if d, _ := pm.OnCommand(tn, nvme.CID(k), proto.PrioScavenger); d != DispositionQueued {
					t.Fatalf("scavenger disposition %v, want queued", d)
				}
			}
		}
		now += 100
		batches := pm.PollScavenger(now)
		if len(batches) != len(tenants) {
			t.Fatalf("PollScavenger released %d batches, want %d", len(batches), len(tenants))
		}
		for _, batch := range batches {
			for _, m := range batch {
				pm.OnDeviceCompletion(m.Tenant, m.CID, nvme.StatusSuccess)
				pm.Release(m.Tenant, proto.PrioScavenger)
			}
		}
		drained += len(batches)
	}
	round() // warm the batch records and the scratch
	drained = 0
	const rounds = 200
	if allocs := testing.AllocsPerRun(rounds, round); allocs != 0 {
		t.Errorf("a poll draining %d scavenger queues makes %.1f allocations, want 0", len(tenants), allocs)
	}
	if want := (rounds + 1) * len(tenants); drained != want { // AllocsPerRun runs one more, unmeasured
		t.Errorf("%d batches drained, want %d", drained, want)
	}
}
