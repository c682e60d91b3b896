package core

import (
	"testing"

	"nvmeopf/internal/nvme"
	"nvmeopf/internal/proto"
)

// The tests below pin the controller-facing PM surface added for
// internal/autotune: the per-tenant limit, which binds as both the
// force-drain valve and the admission cap, and the drain hook.

func TestTenantWindowValveForcesDrain(t *testing.T) {
	pm := isolatedPM() // MaxPending 256
	pm.SetTenantLimit(1, 4)
	if pm.TenantLimit(1) != 4 {
		t.Fatalf("TenantLimit = %d, want 4", pm.TenantLimit(1))
	}
	for i := 0; i < 3; i++ {
		d, _ := pm.OnCommand(1, nvme.CID(i), proto.PrioThroughputCritical)
		if d != DispositionQueued {
			t.Fatalf("request %d disposition = %v, want queued", i, d)
		}
	}
	d, batch := pm.OnCommand(1, 3, proto.PrioThroughputCritical)
	if d != DispositionDrainBatch || len(batch) != 4 {
		t.Fatalf("valve drain: disposition = %v, batch = %v", d, batch)
	}
	if pm.Stats().ForcedDrains != 1 {
		t.Fatalf("ForcedDrains = %d, want 1", pm.Stats().ForcedDrains)
	}
	// Other tenants are untouched by tenant 1's limit.
	for i := 0; i < 10; i++ {
		if d, _ := pm.OnCommand(2, nvme.CID(100+i), proto.PrioThroughputCritical); d != DispositionQueued {
			t.Fatalf("tenant 2 request %d disposition = %v", i, d)
		}
	}
}

func TestTenantWindowOverrideOnlyTightens(t *testing.T) {
	pm := NewTargetPM(TargetPMConfig{Isolated: true, MaxPending: 4})
	// A limit looser than the configured valve must not loosen it.
	pm.SetTenantLimit(1, 1000)
	for i := 0; i < 3; i++ {
		pm.OnCommand(1, nvme.CID(i), proto.PrioThroughputCritical)
	}
	d, batch := pm.OnCommand(1, 3, proto.PrioThroughputCritical)
	if d != DispositionDrainBatch || len(batch) != 4 {
		t.Fatalf("configured valve ignored: disposition = %v, batch = %v", d, batch)
	}
}

func TestTenantWindowOverrideClears(t *testing.T) {
	pm := isolatedPM()
	pm.SetTenantLimit(1, 2)
	pm.SetTenantLimit(1, 0)
	for i := 0; i < 8; i++ {
		if d, _ := pm.OnCommand(1, nvme.CID(i), proto.PrioThroughputCritical); d != DispositionQueued {
			t.Fatalf("request %d disposition = %v after clear, want queued", i, d)
		}
	}
	// Negative is normalized to "no limit".
	pm.SetTenantLimit(1, -5)
	if pm.TenantLimit(1) != 0 {
		t.Fatalf("TenantLimit after negative set = %d, want 0", pm.TenantLimit(1))
	}
}

func TestTenantCapOverrideAdmission(t *testing.T) {
	pm := isolatedPM() // MaxPendingPerTenant 0 (off)
	pm.SetTenantLimit(1, 2)
	if !pm.Admit(1, proto.PrioThroughputCritical) || !pm.Admit(1, proto.PrioThroughputCritical) {
		t.Fatal("first two admissions refused")
	}
	if pm.Admit(1, proto.PrioThroughputCritical) {
		t.Fatal("third admission allowed past the limit")
	}
	// Draining requests are always admitted — rejecting one would wedge
	// the parked window.
	if !pm.Admit(1, proto.PrioTCDraining) {
		t.Fatal("draining admission refused")
	}
	// Other tenants are not capped.
	if !pm.Admit(2, proto.PrioThroughputCritical) {
		t.Fatal("tenant 2 admission refused")
	}
	// Release frees the slot.
	pm.Release(1, proto.PrioThroughputCritical)
	pm.Release(1, proto.PrioTCDraining) // the drain's slot
	if !pm.Admit(1, proto.PrioThroughputCritical) {
		t.Fatal("admission refused after release")
	}
}

func TestTenantCapOverrideOnlyTightens(t *testing.T) {
	pm := NewTargetPM(TargetPMConfig{Isolated: true, MaxPending: 256, MaxPendingPerTenant: 2})
	pm.SetTenantLimit(1, 50) // looser than configured: configured wins
	pm.Admit(1, proto.PrioThroughputCritical)
	pm.Admit(1, proto.PrioThroughputCritical)
	if pm.Admit(1, proto.PrioThroughputCritical) {
		t.Fatal("configured per-tenant cap ignored")
	}
}

// TestTenantLimitBindsValveAndCap: one limit n is both bounds at once. The
// tenant's queue force-drains at depth n, and with n requests admitted the
// next non-draining one is refused.
func TestTenantLimitBindsValveAndCap(t *testing.T) {
	pm := isolatedPM() // MaxPending 256, MaxPendingPerTenant 0 (off)
	pm.SetTenantLimit(1, 3)
	for i := 0; i < 3; i++ {
		if !pm.Admit(1, proto.PrioThroughputCritical) {
			t.Fatalf("admission %d refused under a limit of 3", i)
		}
		d, batch := pm.OnCommand(1, nvme.CID(i), proto.PrioThroughputCritical)
		if want := i == 2; (d == DispositionDrainBatch) != want {
			t.Fatalf("request %d disposition = %v (batch %v), want force-drain only at depth 3", i, d, batch)
		}
	}
	if pm.Admit(1, proto.PrioThroughputCritical) {
		t.Fatal("fourth admission allowed past a limit of 3")
	}
	if pm.Stats().ForcedDrains != 1 || pm.Stats().BusyRejections != 1 {
		t.Fatalf("stats = %+v, want one forced drain and one rejection", pm.Stats())
	}
}

func TestDrainHookFiresOnCoalescedRelease(t *testing.T) {
	pm := isolatedPM()
	var got []DrainCompletion
	pm.SetDrainHook(func(dc DrainCompletion) { got = append(got, dc) })
	for i := 0; i < 3; i++ {
		pm.OnCommand(1, nvme.CID(i), proto.PrioThroughputCritical)
	}
	pm.OnCommand(1, 3, proto.PrioTCDraining)
	if len(got) != 0 {
		t.Fatalf("hook fired at drain start: %+v", got)
	}
	for cid := 0; cid < 4; cid++ {
		pm.OnDeviceCompletion(1, nvme.CID(cid), nvme.StatusSuccess)
	}
	if len(got) != 1 {
		t.Fatalf("hook fired %d times, want 1", len(got))
	}
	dc := got[0]
	if dc.Tenant != 1 || dc.Window != 4 || dc.Scavenger {
		t.Fatalf("completion = %+v, want tenant 1 window 4", dc)
	}
}

func TestDrainHookForcedWindow(t *testing.T) {
	pm := NewTargetPM(TargetPMConfig{Isolated: true, MaxPending: 2})
	var got []DrainCompletion
	pm.SetDrainHook(func(dc DrainCompletion) { got = append(got, dc) })
	pm.OnCommand(1, 0, proto.PrioThroughputCritical)
	d, batch := pm.OnCommand(1, 1, proto.PrioThroughputCritical) // valve at 2
	if d != DispositionDrainBatch {
		t.Fatalf("disposition = %v, want valve drain", d)
	}
	for _, m := range batch {
		pm.OnDeviceCompletion(m.Tenant, m.CID, nvme.StatusSuccess)
	}
	if len(got) != 1 || got[0].Window != 2 {
		t.Fatalf("completions = %+v, want one window of 2", got)
	}
}

func TestDrainHookWindowOrderAcrossBatches(t *testing.T) {
	pm := isolatedPM()
	var got []DrainCompletion
	pm.SetDrainHook(func(dc DrainCompletion) { got = append(got, dc) })
	// Window A: CIDs 0,1 — window B: CIDs 2,3.
	pm.OnCommand(1, 0, proto.PrioThroughputCritical)
	pm.OnCommand(1, 1, proto.PrioTCDraining)
	pm.OnCommand(1, 2, proto.PrioThroughputCritical)
	pm.OnCommand(1, 3, proto.PrioTCDraining)
	// Window B finishes first: its hook must wait for A's release.
	pm.OnDeviceCompletion(1, 2, nvme.StatusSuccess)
	pm.OnDeviceCompletion(1, 3, nvme.StatusSuccess)
	if len(got) != 0 {
		t.Fatalf("hook fired out of window order: %+v", got)
	}
	pm.OnDeviceCompletion(1, 0, nvme.StatusSuccess)
	pm.OnDeviceCompletion(1, 1, nvme.StatusSuccess)
	if len(got) != 2 {
		t.Fatalf("hook fired %d times, want 2", len(got))
	}
	if got[0].Window != 2 || got[1].Window != 2 {
		t.Fatalf("windows = %+v, want both 2", got)
	}
}

func TestDrainHookReentrantControl(t *testing.T) {
	// The hook is documented to allow re-entrant SetTenantLimit calls —
	// the controller actuates from inside it.
	pm := isolatedPM()
	pm.SetDrainHook(func(dc DrainCompletion) { pm.SetTenantLimit(dc.Tenant, 2) })
	pm.OnCommand(1, 0, proto.PrioThroughputCritical)
	pm.OnCommand(1, 1, proto.PrioTCDraining)
	pm.OnDeviceCompletion(1, 0, nvme.StatusSuccess)
	pm.OnDeviceCompletion(1, 1, nvme.StatusSuccess)
	if pm.TenantLimit(1) != 2 {
		t.Fatalf("re-entrant limit = %d, want 2", pm.TenantLimit(1))
	}
	// And the limit takes effect on the very next window.
	pm.OnCommand(1, 10, proto.PrioThroughputCritical)
	d, batch := pm.OnCommand(1, 11, proto.PrioThroughputCritical)
	if d != DispositionDrainBatch || len(batch) != 2 {
		t.Fatalf("post-hook valve: disposition = %v, batch = %v", d, batch)
	}
}
