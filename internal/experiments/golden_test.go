package experiments

import (
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"testing"
)

var updateGolden = flag.Bool("update-golden", false, "rewrite testdata/golden_*.txt from this build")

// TestReportsMatchGolden pins the simulator's virtual-time decisions: the
// golden files were written by the commit that still kept the target's
// request, batch and tenant state in Go maps and read the clock per
// request, so a byte-identical report for three seeds shows that indexed
// slots and a per-turn clock stamp changed no decision the PM makes.
func TestReportsMatchGolden(t *testing.T) {
	figs := []struct {
		name string
		run  Runner
	}{{"fig6a", Fig6a}, {"fig7", Fig7}, {"fig8p1", Fig8Pattern1}}
	for _, f := range figs {
		for _, seed := range []uint64{1, 7, 42} {
			t.Run(fmt.Sprintf("%s/seed%d", f.name, seed), func(t *testing.T) {
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
				path := filepath.Join("testdata", fmt.Sprintf("golden_%s_seed%d.txt", f.name, seed))
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
