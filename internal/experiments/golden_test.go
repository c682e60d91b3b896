package experiments

import (
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"nvmeopf/internal/targetqp"
)

var updateGolden = flag.Bool("update-golden", false, "rewrite testdata/golden_*.txt from this build")

// h5Quick is the quick Fig. 9 case (one pair, three ranks, backed SSD) in
// both modes, rendered with every digit the result carries. It and fig9
// were written by the file-format kernel that h5Rank replaced.
func h5Quick(cfg Config) (*Report, error) {
	rep := &Report{ID: "h5quick", Title: "quick Fig. 9 case", Table: newFigTable("design", "result")}
	for _, mode := range []targetqp.Mode{targetqp.ModeBaseline, targetqp.ModeOPF} {
		r, err := runH5Case(cfg, mode, 1, 3, 128*1024)
		if err != nil {
			return nil, err
		}
		rep.Table.AddRow(designName(mode), fmt.Sprintf("%+v", r))
	}
	return rep, nil
}

// at120ms runs r at 120 ms measured after 10 ms of warmup, whatever scale
// it is handed.
func at120ms(r Runner) Runner {
	return func(cfg Config) (*Report, error) {
		cfg.SimMillis, cfg.WarmupMillis = 120, 10
		return r(cfg)
	}
}

// TestReportsMatchGolden pins the simulator's virtual-time decisions. A
// report is a function of the sequence of Engine.At calls and nothing
// else, so a byte-identical report for three seeds shows that a change
// underneath (indexed slots and a per-turn clock stamp in PR 18; the typed
// event heap, the transit and device-op records in PR 19) moved no event in
// time or order. fig6a/fig7/fig8p1 were written by the commit before PR 18,
// the other families by the commit before PR 19: they add the write and
// mixed paths, multi-pair topologies, the shared-queue and no-bypass
// ablations, autotune with the telemetry cadence (shiftmix, e2egap: the
// Pending() > telTicks liveness check) and a backed SSD under the Fig. 9
// ranks. fig6c (whose write-mix rows run the write path) and tableI close
// the set: every report the registry makes is pinned. tableI draws no
// random numbers, so it has one file and no seed.
//
// At that scale the adaptive controller barely acts (no e2egap variant
// moves a window once), so shiftmix and e2egap are pinned a second time at
// 120/10 ms (at120ms), long enough for the law's shrinks and grows, and the
// e2e term behind them, to show in every file.
func TestReportsMatchGolden(t *testing.T) {
	seeds := []uint64{1, 7, 42}
	figs := []struct {
		name  string
		run   Runner
		seeds []uint64 // {0}: one unseeded report
	}{
		{"fig6a", Fig6a, seeds}, {"fig7", Fig7, seeds}, {"fig8p1", Fig8Pattern1, seeds},
		{"fig6b", Fig6b, seeds}, {"fig8p2", Fig8Pattern2, seeds}, {"ablations", Ablations, seeds},
		{"shiftmix", ShiftMix, seeds}, {"e2egap", E2EGap, seeds}, {"h5quick", h5Quick, seeds},
		{"fig9", Fig9, seeds}, {"fig6c", Fig6c, seeds}, {"tableI", TableI, []uint64{0}},
		{"shiftmix120ms", at120ms(ShiftMix), seeds}, {"e2egap120ms", at120ms(E2EGap), seeds},
	}
	for _, f := range figs {
		for _, seed := range f.seeds {
			name := f.name
			if seed != 0 {
				name = fmt.Sprintf("%s/seed%d", f.name, seed)
			}
			file := "golden_" + strings.ReplaceAll(name, "/", "_") + ".txt"
			t.Run(name, func(t *testing.T) {
				t.Parallel()
				// A quarter of QuickConfig: the reports only have to be
				// compared, not read, and each still covers tens of
				// thousands of PM decisions.
				cfg := Config{SimMillis: 10, WarmupMillis: 5, Seed: seed}
				r, err := f.run(cfg)
				if err != nil {
					t.Fatal(err)
				}
				got := []byte(r.String())
				path := filepath.Join("testdata", file)
				if *updateGolden {
					if err := os.MkdirAll("testdata", 0o755); err != nil {
						t.Fatal(err)
					}
					if err := os.WriteFile(path, got, 0o644); err != nil {
						t.Fatal(err)
					}
					return
				}
				want, err := os.ReadFile(path)
				if err != nil {
					t.Fatal(err)
				}
				if string(got) != string(want) {
					t.Fatalf("report differs from the golden:\n--- got:\n%s--- want:\n%s", got, want)
				}
			})
		}
	}
}
