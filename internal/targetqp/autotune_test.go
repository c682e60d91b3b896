package targetqp

import (
	"testing"

	"nvmeopf/internal/autotune"
	"nvmeopf/internal/hostqp"
	"nvmeopf/internal/nvme"
	"nvmeopf/internal/telemetry"
)

// TestAutotuneWiring drives a real target with the adaptive controller
// attached and checks every wire: the controller NewTarget builds, bound
// to the PM with its drain hook, LS completions feeding the signal,
// decisions actuating PM overrides, and Forget on session teardown.
func TestAutotuneWiring(t *testing.T) {
	be := newFakeBackend(t, true)
	now := int64(0)
	clock := func() int64 { now += 1000; return now }
	reg := telemetry.New()
	tgt, err := NewTarget(Config{
		Mode: ModeOPF, MaxPending: 256,
		Clock: clock, Telemetry: reg,
		Autotune: &autotune.Config{
			// A 1ns objective with the clock advancing 1000ns per reading
			// makes every LS completion a violation: pure pain on the
			// signal.
			ObjectiveNS: 1, BudgetPPM: 100_000,
			MinWindow: 1, MaxWindow: 16,
		},
	}, be)
	if err != nil {
		t.Fatal(err)
	}
	ctrl := tgt.at

	tc, tcSess := pair(t, tgt, tcCfg(4, 16))
	ls, _ := pair(t, tgt, lsCfg())
	tenant := tc.Tenant()

	// drain completes one window; interval the 8 a decision takes.
	drain := func() {
		t.Helper()
		for i := 0; i < 4; i++ {
			err := tc.Submit(hostqp.IO{
				Op: nvme.OpWrite, LBA: uint64(i), Blocks: 1, Data: make([]byte, 512),
				Done: func(hostqp.Result) {},
			})
			if err != nil {
				t.Fatal(err)
			}
		}
	}
	interval := func() {
		t.Helper()
		for i := 0; i < 8; i++ {
			drain()
		}
	}

	// The first drain primes the tenant, so its first verdict is always
	// cold (the interval holds no samples) and leaves no overrides.
	interval()
	if w := tgt.pm.TenantWindow(tenant); w != 0 {
		t.Fatalf("override after cold verdict = %d, want none", w)
	}

	// LS traffic lands on the controller's signal — and only LS traffic:
	// the TC drain above completed 4 writes without touching it.
	for i := 0; i < 8; i++ {
		err := ls.Submit(hostqp.IO{
			Op: nvme.OpRead, LBA: 0, Blocks: 1,
			Done: func(hostqp.Result) {},
		})
		if err != nil {
			t.Fatal(err)
		}
	}
	if good, bad := ctrl.Signal().Counts(); good != 0 || bad != 8 {
		t.Fatalf("LS signal = (%d good, %d bad), want (0, 8)", good, bad)
	}

	// The next interval sees burn 10x the budget: multiplicative back-off
	// from the static bound, actuated as PM valve + admission cap.
	interval()
	if w := ctrl.WindowFor(tenant); w != 8 {
		t.Fatalf("controller window = %d, want 8 (16 halved)", w)
	}
	if w := tgt.pm.TenantWindow(tenant); w != 8 {
		t.Fatalf("PM valve override = %d, want 8", w)
	}
	if limit := tgt.pm.TenantCap(tenant); limit != 8 {
		t.Fatalf("PM admission cap = %d, want 8 (the window)", limit)
	}
	if n := len(reg.AutotuneLog()); n != 2 {
		t.Fatalf("decision log has %d entries, want 2 (cold, shrink)", n)
	}

	// Teardown forgets the tenant: the recycled ID's next owner must not
	// inherit a window shrunk for this one's behavior.
	tgt.CloseSession(tcSess)
	if w := ctrl.WindowFor(tenant); w != 16 {
		t.Fatalf("controller window after Forget = %d, want MaxWindow 16", w)
	}
	if w, limit := tgt.pm.TenantWindow(tenant), tgt.pm.TenantCap(tenant); w != 0 || limit != 0 {
		t.Fatalf("PM overrides after Forget = (%d, %d), want cleared", w, limit)
	}
}

// TestAutotuneRunsOnTheTargetClock: NewTarget builds the controller on its
// own Clock — the decisions it records carry that clock's readings — and
// refuses Autotune without one, since the grow-quiet rule spaces grows in
// time.
func TestAutotuneRunsOnTheTargetClock(t *testing.T) {
	at := &autotune.Config{ObjectiveNS: 1_000_000, MaxWindow: 16}
	if _, err := NewTarget(Config{Mode: ModeOPF, Autotune: at}, newFakeBackend(t, true)); err == nil {
		t.Fatal("NewTarget accepted Autotune without a Clock")
	}

	const base = int64(5_000_000_000)
	now := base
	clock := func() int64 { now++; return now }
	reg := telemetry.New()
	tgt, err := NewTarget(Config{
		Mode: ModeOPF, MaxPending: 256, Clock: clock, Telemetry: reg, Autotune: at,
	}, newFakeBackend(t, true))
	if err != nil {
		t.Fatal(err)
	}
	tc, _ := pair(t, tgt, tcCfg(4, 16))
	for i := 0; i < 8*4; i++ { // 8 windows of 4: one decision
		err := tc.Submit(hostqp.IO{
			Op: nvme.OpWrite, LBA: uint64(i), Blocks: 1, Data: make([]byte, 512),
			Done: func(hostqp.Result) {},
		})
		if err != nil {
			t.Fatal(err)
		}
	}
	log := reg.AutotuneLog()
	if len(log) != 1 {
		t.Fatalf("decision log has %d entries, want 1", len(log))
	}
	if d := log[0]; d.At <= base || d.At > now {
		t.Fatalf("decision stamped %d, want a reading of the target's clock in (%d, %d]", d.At, base, now)
	}
}
