package autotune

import (
	"testing"

	"nvmeopf/internal/core"
	"nvmeopf/internal/proto"
	"nvmeopf/internal/telemetry"
)

// fakeClock is a hand-advanced nanosecond clock.
type fakeClock struct{ t int64 }

func (c *fakeClock) now() int64 { return c.t }

// fakeAct records the controller's last limit per tenant and counts its
// calls: one per actuation.
type fakeAct struct {
	limits map[proto.TenantID]int
	calls  int
}

func newFakeAct() *fakeAct { return &fakeAct{limits: map[proto.TenantID]int{}} }

func (a *fakeAct) SetTenantLimit(t proto.TenantID, n int) { a.limits[t] = n; a.calls++ }

// testController builds a controller with test-friendly deployment values:
// objective 1µs, 10% error budget (burn = violFrac/0.1), window floor 1,
// decisions recorded in reg (may be nil). The law's constants are the
// production ones. Tests open their tenants at a declared window of 16
// unless they say otherwise.
func testController(t *testing.T, e2e bool, reg *telemetry.Registry) (*Controller, *fakeAct, *fakeClock) {
	t.Helper()
	clk := &fakeClock{}
	act := newFakeAct()
	c, err := New(Config{
		ObjectiveNS: 1000,
		BudgetPPM:   100_000,
		MinWindow:   1,
		E2E:         e2e,
	}, act, clk.now, reg)
	if err != nil {
		t.Fatalf("New: %v", err)
	}
	return c, act, clk
}

// observe feeds good samples at half the objective and bad at double it.
func observe(c *Controller, good, bad int) {
	for i := 0; i < good; i++ {
		c.ObserveLS(500)
	}
	for i := 0; i < bad; i++ {
		c.ObserveLS(2000)
	}
}

// drain feeds n drain completions of the given achieved batch size.
func drain(c *Controller, tenant proto.TenantID, n, window int) {
	for i := 0; i < n; i++ {
		c.OnDrainComplete(core.DrainCompletion{Tenant: tenant, Window: window})
	}
}

// interval feeds one decision interval — 8 drain completions — of the
// given achieved batch size. A tenant's first interval only primes it: its
// first drain baselines the signal, so the verdict is cold.
func interval(c *Controller, tenant proto.TenantID, window int) {
	drain(c, tenant, 8, window)
}

// shrunkTo8 opens tenant at window 16, primes it and shrinks it to 8.
func shrunkTo8(t *testing.T, c *Controller, tenant proto.TenantID) {
	t.Helper()
	c.Open(tenant, 16)
	interval(c, tenant, 16) // prime
	observe(c, 0, 8)
	interval(c, tenant, 16)
	if w := c.WindowFor(tenant); w != 8 {
		t.Fatalf("precondition: window = %d, want 8", w)
	}
}

// e2eUpdate builds a host TelemetryUpdate whose LS class holds good samples
// at half the 1µs objective and bad at double it, plus TC samples (all
// over the objective) that the e2e term must ignore.
func e2eUpdate(good, bad int) *proto.TelemetryUpdate {
	acc := telemetry.NewE2EAccum()
	for i := 0; i < good; i++ {
		acc.Record(proto.PrioLatencySensitive, 500)
	}
	for i := 0; i < bad; i++ {
		acc.Record(proto.PrioLatencySensitive, 2000)
	}
	for i := 0; i < 50; i++ {
		acc.Record(proto.PrioThroughputCritical, 1_000_000)
	}
	u := &proto.TelemetryUpdate{}
	acc.FillUpdate(u)
	return u
}

func TestNewValidation(t *testing.T) {
	clk, act := &fakeClock{}, newFakeAct()
	if _, err := New(Config{}, act, clk.now, nil); err == nil {
		t.Fatal("want error for zero objective")
	}
	if _, err := New(Config{ObjectiveNS: 1000}, nil, clk.now, nil); err == nil {
		t.Fatal("want error for a nil actuator")
	}
	if _, err := New(Config{ObjectiveNS: 1000}, act, nil, nil); err == nil {
		t.Fatal("want error for a nil clock (grow-quiet needs one)")
	}
	c, err := New(Config{ObjectiveNS: 1000}, act, clk.now, nil)
	if err != nil {
		t.Fatalf("New: %v", err)
	}
	if c.Signal() == nil {
		t.Fatal("want a private signal by default")
	}
}

func TestColdStartHoldsStaticBounds(t *testing.T) {
	c, act, _ := testController(t, false, nil)
	c.Open(7, 16)
	// The first drain primes; the decision at the 8th sees no samples.
	interval(c, 7, 16)
	if w := c.WindowFor(7); w != 16 {
		t.Fatalf("cold window = %d, want the declared bound 16", w)
	}
	// Hands-off at the bound: the limit cleared, not set to 16.
	if act.limits[7] != 0 {
		t.Fatalf("cold limit = %d, want cleared 0", act.limits[7])
	}
}

// TestShrinkOnBurn: a host that declared 16 has its first shrink land on
// 8, a limit below the window it runs, so the shrink binds.
func TestShrinkOnBurn(t *testing.T) {
	c, act, _ := testController(t, false, nil)
	c.Open(3, 16)
	if w := c.WindowFor(3); w != 16 {
		t.Fatalf("opened window = %d, want the declared 16", w)
	}
	interval(c, 3, 16) // prime
	observe(c, 8, 8)   // violFrac 0.5 → burn 5.0
	interval(c, 3, 16)
	if w := c.WindowFor(3); w != 8 {
		t.Fatalf("window after burn = %d, want 8 (halved)", w)
	}
	if act.limits[3] != 8 {
		t.Fatalf("actuated limit = %d, want 8", act.limits[3])
	}
	if act.calls != 2 {
		t.Fatalf("actuator calls = %d, want 2: one per decision (cold, shrink)", act.calls)
	}
}

// TestTenantsHoldTheirOwnBounds: two tenants on one controller declare 8
// and 32. Shared pain halves each from its own window, and each releases
// to, and clears its limit at, its own bound.
func TestTenantsHoldTheirOwnBounds(t *testing.T) {
	c, act, clk := testController(t, false, nil)
	c.Open(3, 8)
	c.Open(9, 32)
	interval(c, 3, 8) // prime
	interval(c, 9, 32)
	observe(c, 0, 8)
	interval(c, 3, 8)
	interval(c, 9, 32)
	if w3, w9 := c.WindowFor(3), c.WindowFor(9); w3 != 4 || w9 != 16 {
		t.Fatalf("windows after shared burn = (%d, %d), want (4, 16)", w3, w9)
	}
	if act.limits[3] != 4 || act.limits[9] != 16 {
		t.Fatalf("actuated limits = (%d, %d), want (4, 16)", act.limits[3], act.limits[9])
	}
	for i := 0; i < 4; i++ {
		observe(c, 8, 0)
		interval(c, 3, 4)
		interval(c, 9, 16)
	}
	clk.t += 20_000_000 // past the grow-quiet period the first release opened
	observe(c, 8, 0)
	interval(c, 9, 16)
	if w3, w9 := c.WindowFor(3), c.WindowFor(9); w3 != 8 || w9 != 32 {
		t.Fatalf("windows after release = (%d, %d), want their bounds (8, 32)", w3, w9)
	}
	for _, tn := range []proto.TenantID{3, 9} {
		if act.limits[tn] != 0 {
			t.Fatalf("tenant %d limit at its bound = %d, want cleared", tn, act.limits[tn])
		}
	}
}

// TestMinWindowAboveBoundClamps: a tenant that declares a window below
// MinWindow is floored at its own window, so burn never constrains it.
func TestMinWindowAboveBoundClamps(t *testing.T) {
	clk := &fakeClock{}
	act := newFakeAct()
	c, err := New(Config{ObjectiveNS: 1000, BudgetPPM: 100_000, MinWindow: 4}, act, clk.now, nil)
	if err != nil {
		t.Fatal(err)
	}
	c.Open(3, 2)
	interval(c, 3, 2) // prime
	for i := 0; i < 3; i++ {
		observe(c, 0, 8)
		interval(c, 3, 2)
	}
	if w := c.WindowFor(3); w != 2 {
		t.Fatalf("window = %d, want 2 (MinWindow 4 clamps to the bound)", w)
	}
	if act.limits[3] != 0 {
		t.Fatalf("limit = %d, want none at the bound", act.limits[3])
	}
}

// TestUndeclaredWindowNeverConstrained: a tenant whose host declared no
// window (a peer that predates the field) takes no decisions at all.
func TestUndeclaredWindowNeverConstrained(t *testing.T) {
	reg := telemetry.New()
	c, act, _ := testController(t, false, reg)
	c.Open(3, 0)
	interval(c, 3, 16)
	observe(c, 0, 8)
	interval(c, 3, 16)
	if w := c.WindowFor(3); w != 0 {
		t.Fatalf("window = %d, want 0 (not controlled)", w)
	}
	if _, ok := act.limits[3]; ok {
		t.Fatalf("actuated limit %d for a tenant that declared none", act.limits[3])
	}
	if n := len(reg.AutotuneLog()); n != 0 {
		t.Fatalf("decisions = %d, want none", n)
	}
}

func TestConvergenceToFloorUnderSustainedBurn(t *testing.T) {
	c, act, _ := testController(t, false, nil)
	c.Open(3, 16)
	interval(c, 3, 16) // prime
	for i := 0; i < 10; i++ {
		observe(c, 0, 8) // all bad, every interval
		interval(c, 3, c.WindowFor(3))
	}
	if w := c.WindowFor(3); w != 1 {
		t.Fatalf("window = %d, want the floor 1", w)
	}
	if act.limits[3] != 1 {
		t.Fatalf("limit = %d, want 1", act.limits[3])
	}
	// Further burn holds at the floor, it does not oscillate.
	observe(c, 0, 8)
	interval(c, 3, 1)
	if w := c.WindowFor(3); w != 1 {
		t.Fatalf("window after burn at floor = %d, want 1", w)
	}
}

// TestSparseIntervalHoldsActuation pins the 2-sample gate: one sample holds
// the current actuation, two are a verdict.
func TestSparseIntervalHoldsActuation(t *testing.T) {
	c, act, _ := testController(t, false, nil)
	shrunkTo8(t, c, 3)
	// One sample: the signal is alive but thin — back-off itself thinned
	// it — so the shrunk limit holds.
	observe(c, 0, 1)
	interval(c, 3, 8)
	if w := c.WindowFor(3); w != 8 {
		t.Fatalf("window after a 1-sample interval = %d, want 8 held", w)
	}
	if act.limits[3] != 8 {
		t.Fatalf("limit after sparse interval = %d, want kept 8", act.limits[3])
	}
	// Two samples, both bad: a verdict, and it shrinks.
	observe(c, 0, 2)
	interval(c, 3, 8)
	if w := c.WindowFor(3); w != 4 {
		t.Fatalf("window after a 2-sample burning interval = %d, want 4", w)
	}
}

func TestDryStreakReleasesToStaticBounds(t *testing.T) {
	c, act, _ := testController(t, false, nil)
	shrunkTo8(t, c, 3)
	// Two zero-sample intervals hold; the third (dryIntervals 3) proves
	// the LS signal is gone and releases to the declared bound.
	interval(c, 3, 8)
	interval(c, 3, 8)
	if w := c.WindowFor(3); w != 8 {
		t.Fatalf("window after 2 dry intervals = %d, want 8 held", w)
	}
	if act.limits[3] != 8 {
		t.Fatalf("limit after 2 dry intervals = %d, want kept", act.limits[3])
	}
	interval(c, 3, 8)
	if w := c.WindowFor(3); w != 16 {
		t.Fatalf("window after dry streak = %d, want released to 16", w)
	}
	if act.limits[3] != 0 {
		t.Fatalf("limit after release = %d, want cleared", act.limits[3])
	}
}

func TestDryStreakResetBySparseSamples(t *testing.T) {
	c, _, _ := testController(t, false, nil)
	shrunkTo8(t, c, 3)
	interval(c, 3, 8) // dry 1/3
	interval(c, 3, 8) // dry 2/3
	observe(c, 1, 0)  // one live sample resets the streak …
	interval(c, 3, 8)
	interval(c, 3, 8) // … so two more dry intervals still hold
	interval(c, 3, 8)
	if w := c.WindowFor(3); w != 8 {
		t.Fatalf("window = %d, want 8 (dry streak was reset)", w)
	}
}

// TestGrowBackWithHeadroomAndFill pins the release: after four healthy,
// full intervals a window shrunk to 4 goes straight back to its declared 16 and
// the limit clears.
func TestGrowBackWithHeadroomAndFill(t *testing.T) {
	c, act, _ := testController(t, false, nil)
	shrunkTo8(t, c, 3)
	observe(c, 0, 8)
	interval(c, 3, 8) // 8 → 4
	if w := c.WindowFor(3); w != 4 {
		t.Fatalf("window = %d, want 4", w)
	}
	for i := 0; i < 4; i++ {
		observe(c, 8, 0) // burn 0
		interval(c, 3, 4)
	}
	if w := c.WindowFor(3); w != 16 {
		t.Fatalf("window = %d, want 16 (released to the declared bound)", w)
	}
	if act.limits[3] != 0 {
		t.Fatalf("limit at the bound = %d, want cleared", act.limits[3])
	}
}

// TestGrowPatienceRequiresHealthyStreak pins the 4-interval patience and
// its reset by a burning interval.
func TestGrowPatienceRequiresHealthyStreak(t *testing.T) {
	c, _, _ := testController(t, false, nil)
	shrunkTo8(t, c, 3)
	// Three healthy intervals: streak building, window held.
	for i := 0; i < 3; i++ {
		observe(c, 8, 0)
		interval(c, 3, 8)
		if w := c.WindowFor(3); w != 8 {
			t.Fatalf("window after %d healthy intervals = %d, want 8 held (patience 4)", i+1, w)
		}
	}
	// A burn interval resets the streak …
	observe(c, 0, 8)
	interval(c, 3, 8) // 8 → 4
	if w := c.WindowFor(3); w != 4 {
		t.Fatalf("window after burn = %d, want 4", w)
	}
	// … so three more healthy intervals still hold, and the fourth grows.
	for i := 0; i < 3; i++ {
		observe(c, 8, 0)
		interval(c, 3, 4)
		if w := c.WindowFor(3); w != 4 {
			t.Fatalf("window after reset + %d healthy = %d, want 4 held", i+1, w)
		}
	}
	observe(c, 8, 0)
	interval(c, 3, 4)
	if w := c.WindowFor(3); w != 16 {
		t.Fatalf("window after a full streak = %d, want 16 (released)", w)
	}
}

// TestGrowQuietSerializesRelease pins the 20 ms controller-wide spacing
// between grows.
func TestGrowQuietSerializesRelease(t *testing.T) {
	c, _, clk := testController(t, false, nil)
	c.Open(3, 16)
	c.Open(9, 16)
	// Two tenants, both shrunk by shared pain.
	interval(c, 3, 16) // prime
	interval(c, 9, 16)
	observe(c, 0, 8)
	interval(c, 3, 16)
	interval(c, 9, 16)
	if w3, w9 := c.WindowFor(3), c.WindowFor(9); w3 != 8 || w9 != 8 {
		t.Fatalf("windows = (%d, %d), want both 8", w3, w9)
	}
	// Shared calm: both complete their streak in the same round; the first
	// to decide grows, the second is inside the quiet period and holds.
	for i := 0; i < 4; i++ {
		observe(c, 8, 0)
		interval(c, 3, 8)
		interval(c, 9, 8)
	}
	if w := c.WindowFor(3); w != 16 {
		t.Fatalf("first tenant = %d, want 16 (grew)", w)
	}
	if w := c.WindowFor(9); w != 8 {
		t.Fatalf("second tenant = %d, want 8 held inside grow-quiet", w)
	}
	// 1 ns short of 20 ms it still holds …
	clk.t += 20_000_000 - 1
	observe(c, 8, 0)
	interval(c, 9, 8)
	if w := c.WindowFor(9); w != 8 {
		t.Fatalf("second tenant at 20ms-1ns = %d, want 8 held", w)
	}
	// … and past the quiet period the held streak releases without
	// re-earning.
	clk.t++
	observe(c, 8, 0)
	interval(c, 9, 8)
	if w := c.WindowFor(9); w != 16 {
		t.Fatalf("second tenant after quiet = %d, want 16 (grew)", w)
	}
}

func TestGrowGatedOnFill(t *testing.T) {
	c, _, _ := testController(t, false, nil)
	shrunkTo8(t, c, 3)
	// Healthy burn but batches only 2/8 full: no growth earned, however
	// long the streak.
	for i := 0; i < 6; i++ {
		observe(c, 8, 0)
		interval(c, 3, 2)
	}
	if w := c.WindowFor(3); w != 8 {
		t.Fatalf("window = %d, want 8 held (fill 0.25 < 0.5)", w)
	}
}

func TestHysteresisBandHolds(t *testing.T) {
	c, _, _ := testController(t, false, nil)
	shrunkTo8(t, c, 3)
	// violFrac 0.08 → burn 0.8: inside [0.5, 1.0], full batches — hold.
	for i := 0; i < 6; i++ {
		observe(c, 92, 8)
		interval(c, 3, 8)
	}
	if w := c.WindowFor(3); w != 8 {
		t.Fatalf("window = %d, want 8 held inside the hysteresis band", w)
	}
}

// TestCooldownBatchesDecisions pins the decision interval: 8 drains.
func TestCooldownBatchesDecisions(t *testing.T) {
	reg := telemetry.New()
	c, _, _ := testController(t, false, reg)
	c.Open(3, 16)
	observe(c, 0, 8)
	drain(c, 3, 7, 16)
	if n := len(reg.AutotuneLog()); n != 0 {
		t.Fatalf("decisions after 7 drains = %d, want 0", n)
	}
	drain(c, 3, 1, 16)
	if n := len(reg.AutotuneLog()); n != 1 {
		t.Fatalf("decisions after 8 drains = %d, want 1", n)
	}
	// Priming happens on the first drain, after observe — so the samples
	// are pre-baseline and the first verdict is cold.
	if d := reg.AutotuneLog()[0]; d.Action != "cold" {
		t.Fatalf("first verdict = %q, want cold (samples predate priming)", d.Action)
	}
	drain(c, 3, 15, 16)
	if n := len(reg.AutotuneLog()); n != 2 {
		t.Fatalf("decisions after 23 drains = %d, want 2", n)
	}
}

func TestAntagonistSharedSignalFairness(t *testing.T) {
	// Two TC tenants share the signal. Under LS burn both back off (the
	// device and NIC are shared — per-tenant attribution is not
	// observable); in the healthy period only the full-batch tenant
	// regrows.
	c, _, _ := testController(t, false, nil)
	c.Open(3, 16)
	c.Open(9, 16)
	interval(c, 3, 16) // prime heavy
	interval(c, 9, 16) // prime light
	observe(c, 0, 8)   // one shared burst of LS pain …
	interval(c, 3, 16) // … judged by both tenants' next decisions
	interval(c, 9, 16)
	if w3, w9 := c.WindowFor(3), c.WindowFor(9); w3 != 8 || w9 != 8 {
		t.Fatalf("windows = (%d, %d), want both 8 after shared burn", w3, w9)
	}
	for i := 0; i < 4; i++ {
		observe(c, 8, 0)  // shared healthy intervals
		interval(c, 3, 8) // heavy: full batches → grows
		interval(c, 9, 2) // light: 25% fill → holds
	}
	if w := c.WindowFor(3); w != 16 {
		t.Fatalf("heavy tenant window = %d, want 16", w)
	}
	if w := c.WindowFor(9); w != 8 {
		t.Fatalf("light tenant window = %d, want 8 held", w)
	}
}

func TestForgetClearsStateAndOverrides(t *testing.T) {
	c, act, _ := testController(t, false, nil)
	shrunkTo8(t, c, 3)
	if act.limits[3] != 8 {
		t.Fatalf("precondition: actuated limit = %d, want 8", act.limits[3])
	}
	c.Forget(3)
	if act.limits[3] != 0 {
		t.Fatalf("limit after Forget = %d, want cleared", act.limits[3])
	}
	if w := c.WindowFor(3); w != 0 {
		t.Fatalf("window after Forget = %d, want 0 (no longer controlled)", w)
	}
	// Drains of a forgotten tenant take no decisions until it opens again.
	observe(c, 0, 8)
	interval(c, 3, 8)
	interval(c, 3, 8)
	if act.limits[3] != 0 {
		t.Fatalf("limit after drains of a forgotten tenant = %d, want none", act.limits[3])
	}
}

func TestDecisionTelemetry(t *testing.T) {
	reg := telemetry.New()
	c, _, clk := testController(t, false, reg)
	c.Open(3, 16)
	clk.t = 42
	interval(c, 3, 16) // prime + cold decision
	observe(c, 8, 8)
	interval(c, 3, 16) // shrink decision
	states := reg.AutotuneStates()
	if len(states) != 1 {
		t.Fatalf("states = %d, want 1", len(states))
	}
	st := states[0]
	if st.Tenant != 3 || st.Window != 8 || st.Cap != 8 {
		t.Fatalf("state = %+v, want tenant 3 window 8 cap 8", st)
	}
	last := st.Last
	if last.Action != "shrink" || last.PrevWindow != 16 || last.At != 42 {
		t.Fatalf("last = %+v, want shrink 16→8 at t=42", last)
	}
	if last.BurnRate < 4.9 || last.BurnRate > 5.1 {
		t.Fatalf("burn = %v, want ≈5.0", last.BurnRate)
	}
	if last.Samples != 16 {
		t.Fatalf("samples = %d, want 16", last.Samples)
	}
	if got := reg.AutotuneLog(); len(got) != 2 || got[0].Action != "cold" {
		t.Fatalf("log = %+v, want [cold, shrink]", got)
	}
}

func TestIntervalBurnUsesOnlyNewSamples(t *testing.T) {
	reg := telemetry.New()
	c, _, _ := testController(t, false, reg)
	c.Open(3, 16)
	interval(c, 3, 16) // prime
	// Interval 1: slow samples.
	observe(c, 0, 8)
	interval(c, 3, 16)
	// Interval 2: all fast — the burn must reflect only these, not history.
	observe(c, 8, 0)
	interval(c, 3, 8)
	log := reg.AutotuneLog()
	last := log[len(log)-1]
	if last.BurnRate != 0 || last.Samples != 8 {
		t.Fatalf("interval burn %v over %d samples, want 0 over 8 (interval had only fast samples)", last.BurnRate, last.Samples)
	}
}

func TestBudgetPPMForTarget(t *testing.T) {
	cases := []struct {
		target float64
		want   int64
	}{
		{0.999, 1000},
		{0.99, 10000},
		{0.9, 100000},
		{0, 1000},        // out of range → default
		{1, 1000},        // out of range → default
		{-0.5, 1000},     // out of range → default
		{0.9999999, 1},   // floors at 1 ppm
		{0.99999, 10},    // 1e-5 → 10 ppm (within integer truncation)
		{0.5, 500000},    //
		{1.000001, 1000}, // out of range → default
	}
	for _, tc := range cases {
		got := BudgetPPMForTarget(tc.target)
		// Floating-point truncation may land one off for awkward targets.
		if got != tc.want && got != tc.want-1 && got != tc.want+1 {
			t.Errorf("BudgetPPMForTarget(%v) = %d, want ≈%d", tc.target, got, tc.want)
		}
	}
}

func TestSharedSignalAcrossControllers(t *testing.T) {
	// Two per-shard controllers on one signal: LS pain observed via shard
	// A's controller shrinks a tenant decided by shard B's.
	sig := NewSignal(1000)
	clk := &fakeClock{}
	mk := func() *Controller {
		c, err := New(Config{ObjectiveNS: 1000, BudgetPPM: 100_000, Signal: sig}, newFakeAct(), clk.now, nil)
		if err != nil {
			t.Fatalf("New: %v", err)
		}
		return c
	}
	a, b := mk(), mk()
	b.Open(5, 16)
	interval(b, 5, 16) // prime b's tenant
	for i := 0; i < 8; i++ {
		a.ObserveLS(2000) // pain lands via shard A
	}
	interval(b, 5, 16)
	if w := b.WindowFor(5); w != 8 {
		t.Fatalf("shard-B window = %d, want 8 (shrunk by shard-A pain)", w)
	}
}

// TestE2ETermIgnoredWhenDisabled pins the off-is-bit-identical contract:
// a controller built without Config.E2E drops host updates, and e2e pain
// that reaches its signal anyway (a shared signal) moves no decision.
func TestE2ETermIgnoredWhenDisabled(t *testing.T) {
	c, act, _ := testController(t, false, nil)
	c.Open(5, 16)
	interval(c, 5, 16) // prime
	observe(c, 8, 0)   // healthy service signal
	c.ObserveE2E(e2eUpdate(0, 100))
	if good, bad := c.Signal().E2ECounts(); good != 0 || bad != 0 {
		t.Fatalf("e2e counts = (%d, %d) with the term off, want none", good, bad)
	}
	c.Signal().ObserveE2E(0, 100)
	interval(c, 5, 16)
	if w := c.WindowFor(5); w != 16 {
		t.Fatalf("window = %d after ignored e2e pain, want 16", w)
	}
	if act.limits[5] != 0 {
		t.Fatalf("limit = %d, want cleared", act.limits[5])
	}
}

// TestE2ETermTriggersBackoff is the egress-bottleneck shape: the service
// signal is healthy (the target finishes fast) while the host sees e2e
// violations — only the e2e term can justify back-off.
func TestE2ETermTriggersBackoff(t *testing.T) {
	c, act, _ := testController(t, true, nil)
	c.Open(5, 16)
	interval(c, 5, 16) // prime
	observe(c, 8, 0)   // service side: all good
	c.ObserveE2E(e2eUpdate(0, 100))
	interval(c, 5, 16)
	if w := c.WindowFor(5); w != 8 {
		t.Fatalf("window = %d, want 8 (halved on e2e burn)", w)
	}
	if act.limits[5] != 8 {
		t.Fatalf("actuated limit = %d, want 8", act.limits[5])
	}
}

// TestE2ETermCarriesSampleGate asserts e2e samples alone satisfy the
// cold-interval gate: a tenant whose service signal is empty still gets a
// verdict from host observations.
func TestE2ETermCarriesSampleGate(t *testing.T) {
	c, _, _ := testController(t, true, nil)
	c.Open(5, 16)
	interval(c, 5, 16) // prime
	c.ObserveE2E(e2eUpdate(0, 100))
	interval(c, 5, 16)
	if w := c.WindowFor(5); w != 8 {
		t.Fatalf("window = %d, want 8 (e2e-only interval must decide)", w)
	}
}

// TestE2EHealthyDoesNotShrink: a healthy e2e stream must not override a
// healthy service stream into back-off.
func TestE2EHealthyDoesNotShrink(t *testing.T) {
	c, _, _ := testController(t, true, nil)
	c.Open(5, 16)
	interval(c, 5, 16)
	observe(c, 8, 0)
	c.ObserveE2E(e2eUpdate(100, 0))
	interval(c, 5, 16)
	if w := c.WindowFor(5); w != 16 {
		t.Fatalf("window = %d, want 16 (both signals healthy)", w)
	}
}

// TestE2ETermJudgedAgainstObjective: host-reported LS samples are split at
// ObjectiveNS — the one objective both terms share — and the TC classes of
// the same update never reach the signal.
func TestE2ETermJudgedAgainstObjective(t *testing.T) {
	c, _, _ := testController(t, true, nil)
	c.ObserveE2E(e2eUpdate(3, 5))
	if good, bad := c.Signal().E2ECounts(); good != 3 || bad != 5 {
		t.Fatalf("e2e counts = (%d good, %d bad), want (3, 5) judged at the 1µs objective", good, bad)
	}
}
