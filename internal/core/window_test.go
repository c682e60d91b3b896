package core

import (
	"testing"

	"nvmeopf/internal/proto"
)

func TestOptimalWindowPaperFindings(t *testing.T) {
	// Fig. 6(a): 32 is the peak at 25/100 Gbps reads.
	if w := OptimalWindow(WorkloadRead, 100, 1, 128); w != 32 {
		t.Errorf("read@100G window = %d, want 32", w)
	}
	if w := OptimalWindow(WorkloadRead, 25, 1, 128); w != 32 {
		t.Errorf("read@25G window = %d, want 32", w)
	}
	// Fig. 6(b): big windows hurt on a saturated 10G link for writes.
	if w := OptimalWindow(WorkloadWrite, 10, 1, 128); w >= 32 {
		t.Errorf("write@10G window = %d, want < 32", w)
	}
	// Writes use smaller windows than reads at any speed.
	if rw, ww := OptimalWindow(WorkloadRead, 100, 1, 128), OptimalWindow(WorkloadWrite, 100, 1, 128); ww >= rw {
		t.Errorf("write window %d >= read window %d", ww, rw)
	}
}

// TestOptimalWindowPerWorkloadKind pins the window each workload kind gets
// for one tenant at QD 128 on 100 Gbps (Fig. 6: read 32, write 16), and a
// mixed workload on a shallow queue staying within its depth.
func TestOptimalWindowPerWorkloadKind(t *testing.T) {
	if w := OptimalWindow(WorkloadRead, 100, 1, 128); w != 32 {
		t.Errorf("read window = %d, want 32", w)
	}
	if w := OptimalWindow(WorkloadWrite, 100, 1, 128); w != 16 {
		t.Errorf("write window = %d, want 16", w)
	}
	if w := OptimalWindow(WorkloadMixed, 25, 1, 8); w > 8 {
		t.Errorf("mixed window %d exceeds QD 8", w)
	}
}

func TestOptimalWindowNeverExceedsQD(t *testing.T) {
	for _, qd := range []int{1, 4, 16, 128} {
		for _, kind := range []WorkloadKind{WorkloadRead, WorkloadWrite, WorkloadMixed} {
			for _, gbps := range []float64{10, 25, 100} {
				w := OptimalWindow(kind, gbps, 2, qd)
				if w > qd {
					t.Errorf("window %d > QD %d (%v, %vG)", w, qd, kind, gbps)
				}
				if w < 1 {
					t.Errorf("window %d < 1", w)
				}
			}
		}
	}
}

func TestOptimalWindowShrinksUnderHeavyTenancy(t *testing.T) {
	few := OptimalWindow(WorkloadRead, 100, 2, 128)
	many := OptimalWindow(WorkloadRead, 100, 8, 128)
	if many >= few {
		t.Errorf("heavy tenancy window %d >= light %d", many, few)
	}
}

func TestWorkloadKindString(t *testing.T) {
	for _, k := range []WorkloadKind{WorkloadRead, WorkloadWrite, WorkloadMixed, WorkloadKind(9)} {
		if k.String() == "" {
			t.Errorf("empty string for %d", int(k))
		}
	}
}

func TestDynamicWindowClimbsTowardBetterThroughput(t *testing.T) {
	// Simulated environment: throughput grows with window up to 32, then
	// degrades (the Fig. 6(a) shape). The tuner should settle near 32.
	reward := func(w int) float64 {
		if w <= 32 {
			return float64(w)
		}
		return 64.0 - float64(w)
	}
	d := NewDynamicWindow(2, 64, 4)
	now := int64(0)
	for epoch := 0; epoch < 60; epoch++ {
		w := d.Window()
		// Simulate an epoch of 4 drains at this window's throughput:
		// bytes per drain proportional to reward, fixed epoch duration.
		for i := 0; i < 4; i++ {
			now += 1_000_000
			d.Observe(int64(reward(w)*1000), now)
		}
	}
	got := d.Window()
	if got < 16 || got > 64 {
		t.Fatalf("dynamic window settled at %d, want near 32", got)
	}
}

func TestDynamicWindowBounds(t *testing.T) {
	d := NewDynamicWindow(0, 0, 0) // degenerate inputs all clamp
	if d.Window() != 1 {
		t.Fatalf("window = %d", d.Window())
	}
	// Never exceeds max or drops below 1 over arbitrary observations.
	d = NewDynamicWindow(4, 16, 1)
	now := int64(0)
	for i := 0; i < 200; i++ {
		now += 1_000
		w := d.Observe(int64(i%7)*100, now)
		if w < 1 || w > 16 {
			t.Fatalf("window %d out of bounds", w)
		}
	}
}

func TestHostPMDynamicIntegration(t *testing.T) {
	h := NewHostPM(proto.PrioThroughputCritical, 8)
	d := NewDynamicWindow(8, 64, 1)
	h.EnableDynamicWindow(d)
	if h.Window() != 8 {
		t.Fatalf("window = %d", h.Window())
	}
	now := int64(0)
	prev := h.Window()
	changed := false
	for i := 0; i < 10; i++ {
		now += 1_000_000
		w := h.OnDrainCompleted(1<<20, now)
		if w != h.Window() {
			t.Fatal("OnDrainCompleted out of sync with Window()")
		}
		if w != prev {
			changed = true
		}
		prev = w
	}
	if !changed {
		t.Fatal("dynamic tuner never adjusted the window")
	}
	// Disabled tuner keeps the window fixed.
	h2 := NewHostPM(proto.PrioThroughputCritical, 8)
	if w := h2.OnDrainCompleted(1<<20, 5); w != 8 {
		t.Fatalf("static window moved to %d", w)
	}
}

// TestOptimalWindowEdgeTable pins the static formula across the edge
// cases a feedback controller's clamp bounds must survive: degenerate
// queue depths, zero/negative line rates, tenancy boundaries, and
// LS-only / TC-only extremes. Hosts that auto-select their window use
// OptimalWindow and declare it in the handshake, where it becomes the
// adaptive controller's (internal/autotune) bound; these values changing
// silently would move its bounds.
func TestOptimalWindowEdgeTable(t *testing.T) {
	cases := []struct {
		name         string
		kind         WorkloadKind
		gbps         float64
		tcInitiators int
		qd           int
		want         int
	}{
		// Degenerate queue depths: qd <= 0 means "unknown", no clamp.
		{"qd zero means unknown", WorkloadRead, 100, 1, 0, 32},
		{"qd negative means unknown", WorkloadRead, 100, 1, -7, 32},
		{"qd one clamps to one", WorkloadRead, 100, 1, 1, 1},
		// Zero/negative line rate falls into the congested (<=10G) branch
		// rather than dividing by or comparing garbage.
		{"zero rate read", WorkloadRead, 0, 1, 128, 32},
		{"zero rate write", WorkloadWrite, 0, 1, 128, 16},
		{"negative rate mixed", WorkloadMixed, -25, 1, 128, 16},
		// Tenancy boundary: the halving starts strictly above 4.
		{"four tenants keep full window", WorkloadRead, 100, 4, 128, 32},
		{"five tenants halve", WorkloadRead, 100, 5, 128, 16},
		{"zero tenants (LS-only target)", WorkloadRead, 100, 0, 128, 32},
		{"negative tenants", WorkloadRead, 100, -3, 128, 32},
		// Extreme ratio: many TC tenants at a small QD — both shrink
		// paths compose and the floor holds.
		{"heavy tenancy small qd", WorkloadWrite, 10, 100, 2, 2},
		{"heavy tenancy qd one", WorkloadWrite, 10, 100, 1, 1},
		// Unknown workload kind behaves like the default (read-ish) case.
		{"unknown kind", WorkloadKind(42), 100, 1, 128, 32},
	}
	for _, tc := range cases {
		if got := OptimalWindow(tc.kind, tc.gbps, tc.tcInitiators, tc.qd); got != tc.want {
			t.Errorf("%s: OptimalWindow(%v, %v, %d, %d) = %d, want %d",
				tc.name, tc.kind, tc.gbps, tc.tcInitiators, tc.qd, got, tc.want)
		}
	}
}

// TestOptimalWindowSizedBoundaries pins the exact I/O-size thresholds.
func TestOptimalWindowSizedBoundaries(t *testing.T) {
	cases := []struct {
		ioBytes int
		want    int
	}{
		{0, 32},            // degenerate size: no cap
		{-4096, 32},        // negative size: no cap
		{16<<10 - 1, 32},   // just under 16K
		{16 << 10, 16},     // at 16K
		{64<<10 - 1, 16},   // just under 64K
		{64 << 10, 8},      // at 64K
		{256<<10 - 1, 8},   // just under 256K
		{256 << 10, 4},     // at 256K
		{1 << 30, 4},       // huge I/O still floors at 4
		{1<<62 + 1<<61, 4}, // near-overflow sizes do not wrap
	}
	for _, tc := range cases {
		if got := OptimalWindowSized(WorkloadRead, 100, 1, 128, tc.ioBytes); got != tc.want {
			t.Errorf("OptimalWindowSized(ioBytes=%d) = %d, want %d", tc.ioBytes, got, tc.want)
		}
	}
	// The size cap composes with the QD clamp: the tighter bound wins.
	if got := OptimalWindowSized(WorkloadRead, 100, 1, 2, 256<<10); got != 2 {
		t.Errorf("sized window with qd 2 = %d, want 2", got)
	}
}

// TestDynamicWindowZeroRate drives the tuner through intervals with no
// bytes moved and no elapsed time — the zero-rate/zero-elapsed edge cases
// of the rate division — and checks it stays on the ladder.
func TestDynamicWindowZeroRate(t *testing.T) {
	d := NewDynamicWindow(4, 64, 2)
	// Epoch with zero elapsed time: two observations at the same instant.
	d.Observe(1000, 5)
	d.Observe(1000, 5)
	if w := d.Window(); w < 1 || w > 64 {
		t.Fatalf("window %d off the ladder after zero-elapsed epoch", w)
	}
	// Epochs with zero bytes: rate 0 forever must not wedge or escape.
	now := int64(5)
	for i := 0; i < 50; i++ {
		now += 1000
		if w := d.Observe(0, now); w < 1 || w > 64 {
			t.Fatalf("window %d off the ladder on zero-byte epoch %d", w, i)
		}
	}
}

// TestDynamicWindowRateOverflow feeds byte counts near int64 max; the
// float64 rate math must not produce NaN/negative windows.
func TestDynamicWindowRateOverflow(t *testing.T) {
	d := NewDynamicWindow(8, 64, 1)
	now := int64(0)
	for i := 0; i < 20; i++ {
		now += 1 // tiny elapsed: enormous rate
		if w := d.Observe(int64(1)<<62, now); w < 1 || w > 64 {
			t.Fatalf("window %d out of bounds under overflow-scale rates", w)
		}
	}
}

// TestDynamicWindowConstructorClamps pins the documented input clamps.
func TestDynamicWindowConstructorClamps(t *testing.T) {
	cases := []struct {
		start, max, epoch int
		wantStart         int
	}{
		{0, 0, 0, 1},    // everything degenerate
		{-5, -5, -5, 1}, // negative everything
		{8, 4, 1, 8},    // max below start: raised to start
		{3, 64, 1, 3},   // off-ladder start is accepted as-is
	}
	for _, tc := range cases {
		d := NewDynamicWindow(tc.start, tc.max, tc.epoch)
		if d.Window() != tc.wantStart {
			t.Errorf("NewDynamicWindow(%d, %d, %d).Window() = %d, want %d",
				tc.start, tc.max, tc.epoch, d.Window(), tc.wantStart)
		}
	}
}

func TestOptimalWindowSized(t *testing.T) {
	base := OptimalWindow(WorkloadRead, 100, 1, 128)
	if w := OptimalWindowSized(WorkloadRead, 100, 1, 128, 4096); w != base {
		t.Errorf("4K window = %d, want base %d", w, base)
	}
	w16 := OptimalWindowSized(WorkloadRead, 100, 1, 128, 16<<10)
	w64 := OptimalWindowSized(WorkloadRead, 100, 1, 128, 64<<10)
	w256 := OptimalWindowSized(WorkloadRead, 100, 1, 128, 256<<10)
	if !(w256 <= w64 && w64 <= w16 && w16 <= base) {
		t.Errorf("windows not monotone in size: %d %d %d %d", base, w16, w64, w256)
	}
	if w256 < 1 {
		t.Errorf("window below 1")
	}
}
