package experiments

import (
	"fmt"
	"testing"

	"nvmeopf/internal/simcluster"
	"nvmeopf/internal/telemetry"
)

// shiftCfg is the reference configuration for the acceptance claim: long
// enough that the controller's cold-start transient (it begins at the
// static bound and must discover the overload) amortizes within phase A.
func shiftCfg() Config {
	return Config{SimMillis: 200, WarmupMillis: 10, Seed: 1}
}

// TestShiftMixNoStaticWindowMeetsSLO pins the premise: every static drain
// window — the paper's formula choice (32), a mid-size compromise (8), and
// the most LS-protective choice possible (1) — violates the LS error
// budget in phase A. Window size does not control admission pressure, so
// the 9-TC cohort's outstanding reads queue ahead of the lone LS tenant
// on the egress NIC regardless of how the target batches them.
func TestShiftMixNoStaticWindowMeetsSLO(t *testing.T) {
	for _, w := range []int{1, 8, shiftWindowMax} {
		r, err := RunShiftMix(shiftCfg(), "static", w, nil)
		if err != nil {
			t.Fatalf("static w=%d: %v", w, err)
		}
		if r.A.LSBurn <= 1 {
			t.Errorf("static w=%d phase-A burn = %.2f, want > 1 (no static window should hold the SLO)", w, r.A.LSBurn)
		}
		if r.A.LSSamples == 0 || r.B.LSSamples == 0 {
			t.Errorf("static w=%d samples = (%d, %d), want both phases measured", w, r.A.LSSamples, r.B.LSSamples)
		}
	}
}

// TestShiftMixAdaptiveHoldsSLOAcrossShift is the acceptance claim: the
// closed-loop controller keeps the LS error-budget burn below 1 in both
// phases of a mix shift that defeats every static window, while beating
// the most protective static choice (w=1) on TC throughput in both
// phases. It must do so by actually deciding — shrinking into phase A's
// overload and growing back for phase B's survivor. The claim holds at
// more than one seed, so it cannot rest on one lucky arrival sequence.
func TestShiftMixAdaptiveHoldsSLOAcrossShift(t *testing.T) {
	for _, seed := range []uint64{1, 7, 42} {
		t.Run(fmt.Sprintf("seed=%d", seed), func(t *testing.T) {
			cfg := shiftCfg()
			cfg.Seed = seed
			var reg *telemetry.Registry
			cfg.OnCluster = func(cl *simcluster.Cluster) { reg = cl.Telemetry() }
			r, err := RunShiftMix(cfg, "adaptive", shiftWindowMax, shiftAutotune())
			if err != nil {
				t.Fatalf("adaptive: %v", err)
			}
			if r.A.LSBurn < 0 || r.A.LSBurn >= 1 {
				t.Errorf("phase-A burn = %.2f, want in [0, 1) (SLO held under 1 LS : 9 TC)", r.A.LSBurn)
			}
			if r.B.LSBurn < 0 || r.B.LSBurn >= 1 {
				t.Errorf("phase-B burn = %.2f, want in [0, 1) (SLO held under 9 LS : 1 TC)", r.B.LSBurn)
			}
			if r.Shrinks == 0 {
				t.Error("no shrink decisions: the controller never engaged")
			}
			if r.Grows == 0 {
				t.Error("no grow decisions: the controller never released its back-off")
			}

			// Dominance over the most protective static window: w=1
			// sacrifices the most TC throughput and still burns 20x in
			// phase A; the controller must beat it on throughput in both
			// phases while being the only variant inside budget.
			s1cfg := shiftCfg()
			s1cfg.Seed = seed
			s1, err := RunShiftMix(s1cfg, "static", 1, nil)
			if err != nil {
				t.Fatalf("static w=1: %v", err)
			}
			if r.A.TCBps <= s1.A.TCBps {
				t.Errorf("phase-A TC = %.0f MB/s, want > static w=1's %.0f MB/s", r.A.TCBps/1e6, s1.A.TCBps/1e6)
			}
			if r.B.TCBps <= s1.B.TCBps {
				t.Errorf("phase-B TC = %.0f MB/s, want > static w=1's %.0f MB/s", r.B.TCBps/1e6, s1.B.TCBps/1e6)
			}

			// The decisions are visible: the target's registry, which the
			// controller records into, holds per-tenant controller state
			// and a decision log.
			if len(reg.AutotuneStates()) == 0 {
				t.Error("no controller state exported to telemetry")
			}
			if len(reg.AutotuneLog()) == 0 {
				t.Error("empty decision log")
			}
		})
	}
}

// TestShiftMixReport smoke-runs the registered experiment end to end at a
// short horizon: four variants, a fully-populated table, and the claim
// notes.
func TestShiftMixReport(t *testing.T) {
	rep, err := ShiftMix(Config{SimMillis: 40, WarmupMillis: 5, Seed: 1})
	if err != nil {
		t.Fatalf("ShiftMix: %v", err)
	}
	if got := len(rep.Table.Rows); got != 4 {
		t.Fatalf("rows = %d, want 4 (three statics + adaptive)", got)
	}
	for _, row := range rep.Table.Rows {
		if len(row) != len(rep.Table.Header) {
			t.Fatalf("row %v has %d cells, want %d", row, len(row), len(rep.Table.Header))
		}
	}
	if len(rep.Notes) == 0 {
		t.Fatal("report has no notes")
	}
}
