package targetqp

import (
	"testing"

	"nvmeopf/internal/autotune"
	"nvmeopf/internal/hostqp"
	"nvmeopf/internal/nvme"
	"nvmeopf/internal/proto"
	"nvmeopf/internal/telemetry"
)

// TestAutotuneWiring drives a real target with the adaptive controller
// attached and checks every wire: the controller NewTarget builds, bound
// to the PM with its drain hook, LS completions feeding the signal,
// decisions actuating the PM limit, and Forget on session teardown.
func TestAutotuneWiring(t *testing.T) {
	be := newFakeBackend(t, true)
	now := int64(0)
	clock := func() int64 { now += 1000; return now }
	reg := telemetry.New()
	tgt, err := NewTarget(Config{
		Mode:  ModeOPF,
		Clock: clock, Telemetry: reg,
		Autotune: &autotune.Config{
			// A 1ns objective with the clock advancing 1000ns per reading
			// makes every LS completion a violation: pure pain on the
			// signal.
			ObjectiveNS: 1, BudgetPPM: 100_000,
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
	// cold (the interval holds no samples) and leaves no limit.
	interval()
	if n := tgt.pm.TenantLimit(tenant); n != 0 {
		t.Fatalf("limit after cold verdict = %d, want none", n)
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
	// from the window the host declared, actuated as the PM limit (valve
	// and admission cap at once).
	interval()
	if w := ctrl.WindowFor(tenant); w != 2 {
		t.Fatalf("controller window = %d, want 2 (the declared 4 halved)", w)
	}
	if n := tgt.pm.TenantLimit(tenant); n != 2 {
		t.Fatalf("PM limit = %d, want 2 (the window)", n)
	}
	if n := len(reg.AutotuneLog()); n != 2 {
		t.Fatalf("decision log has %d entries, want 2 (cold, shrink)", n)
	}

	// Teardown forgets the tenant: the recycled ID's next owner must not
	// inherit a window shrunk for this one's behavior.
	tgt.CloseSession(tcSess)
	if w := ctrl.WindowFor(tenant); w != 0 {
		t.Fatalf("controller window after Forget = %d, want 0 (not controlled)", w)
	}
	if n := tgt.pm.TenantLimit(tenant); n != 0 {
		t.Fatalf("PM limit after Forget = %d, want cleared", n)
	}
}

// TestAutotuneRunsOnTheTargetClock: NewTarget builds the controller on its
// own Clock — the decisions it records carry that clock's readings.
func TestAutotuneRunsOnTheTargetClock(t *testing.T) {
	at := &autotune.Config{ObjectiveNS: 1_000_000}
	const base = int64(5_000_000_000)
	now := base
	clock := func() int64 { now++; return now }
	reg := telemetry.New()
	tgt, err := NewTarget(Config{
		Mode: ModeOPF, Clock: clock, Telemetry: reg, Autotune: at,
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

// TestDeclaredWindowReachesTheController: the window a host declares in
// its ICReq becomes the controller's bound for its tenant, and a peer that
// declares none (window 0) is left alone however much LS pain there is.
func TestDeclaredWindowReachesTheController(t *testing.T) {
	now := int64(0)
	clock := func() int64 { now += 1000; return now }
	tgt, err := NewTarget(Config{
		Mode: ModeOPF, Clock: clock,
		Autotune: &autotune.Config{ObjectiveNS: 1, BudgetPPM: 100_000},
	}, newFakeBackend(t, true))
	if err != nil {
		t.Fatal(err)
	}
	ctrl := tgt.at
	tc, _ := pair(t, tgt, tcCfg(8, 16))
	if w := ctrl.WindowFor(tc.Tenant()); w != 8 {
		t.Fatalf("controller window = %d, want the declared 8", w)
	}

	// A raw peer: its ICReq carries no window, and it stamps its own
	// draining flag on every 4th write.
	raw, err := tgt.NewSession(func(proto.PDU) {})
	if err != nil {
		t.Fatal(err)
	}
	if err := raw.HandlePDU(&proto.ICReq{PFV: ProtocolVersion, QueueDepth: 16, Prio: proto.PrioThroughputCritical}); err != nil {
		t.Fatal(err)
	}
	ls, _ := pair(t, tgt, lsCfg())
	for round := 0; round < 3; round++ {
		for i := 0; i < 8; i++ {
			if err := ls.Submit(hostqp.IO{Op: nvme.OpRead, LBA: 0, Blocks: 1, Done: func(hostqp.Result) {}}); err != nil {
				t.Fatal(err)
			}
		}
		for d := 0; d < 8; d++ {
			for i := 0; i < 4; i++ {
				prio := proto.PrioThroughputCritical
				if i == 3 {
					prio = proto.PrioTCDraining
				}
				err := raw.HandlePDU(&proto.CapsuleCmd{
					Cmd:  nvme.Command{Opcode: nvme.OpWrite, CID: nvme.CID(i), NSID: 1, SLBA: uint64(i)},
					Prio: prio, Data: make([]byte, 512),
				})
				if err != nil {
					t.Fatal(err)
				}
			}
		}
	}
	if w := ctrl.WindowFor(raw.Tenant()); w != 0 {
		t.Fatalf("controller window for the raw peer = %d, want 0 (not controlled)", w)
	}
	if n := tgt.pm.TenantLimit(raw.Tenant()); n != 0 {
		t.Fatalf("PM limit for the raw peer = %d, want none", n)
	}
	if good, bad := ctrl.Signal().Counts(); bad == 0 {
		t.Fatalf("LS signal = (%d good, %d bad), want the pain the raw peer ignored", good, bad)
	}
}
