package experiments

import (
	"strconv"
	"strings"
	"testing"
)

// TestEveryExperimentRuns executes every registered experiment at a tiny
// scale and sanity-checks the report structure. This is the harness's own
// integration test: a regression anywhere in the stack (protocol, PM,
// simulator, workload) usually surfaces here first.
func TestEveryExperimentRuns(t *testing.T) {
	if testing.Short() {
		t.Skip("full experiment sweep")
	}
	cfg := Config{SimMillis: 6, WarmupMillis: 2, Seed: 3}
	for _, name := range Names() {
		name := name
		t.Run(name, func(t *testing.T) {
			rep, err := ByName(name, cfg)
			if err != nil {
				t.Fatal(err)
			}
			if rep.ID != name {
				t.Errorf("report ID %q != experiment %q", rep.ID, name)
			}
			if len(rep.Table.Rows) == 0 {
				t.Fatal("no rows")
			}
			for i, row := range rep.Table.Rows {
				if len(row) != len(rep.Table.Header) {
					t.Errorf("row %d has %d cells for %d columns", i, len(row), len(rep.Table.Header))
				}
			}
			// Rendering never fails and includes the title.
			if !strings.Contains(rep.String(), rep.Title) {
				t.Error("String() missing title")
			}
			_ = rep.Plot() // must not panic even without a spec
		})
	}
}

// TestFig7SummaryRatiosPositive checks the digest experiment emits sane
// ratios at quick scale.
func TestFig7SummaryRatiosPositive(t *testing.T) {
	if testing.Short() {
		t.Skip("multi-case sweep")
	}
	rep, err := Fig7Summary(Config{SimMillis: 10, WarmupMillis: 3, Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	if len(rep.Table.Rows) != 9 { // 3 workloads x 3 speeds
		t.Fatalf("rows = %d", len(rep.Table.Rows))
	}
	for _, row := range rep.Table.Rows {
		ratio, err := strconv.ParseFloat(row[2], 64)
		if err != nil || ratio <= 0 {
			t.Errorf("ratio cell %q invalid", row[2])
		}
	}
	// The read@10G ratio is the headline: must clearly exceed 1 even at
	// quick scale.
	for _, row := range rep.Table.Rows {
		if row[0] == "read" && row[1] == "10" {
			ratio, _ := strconv.ParseFloat(row[2], 64)
			if ratio < 1.5 {
				t.Errorf("read@10G ratio = %v at quick scale", ratio)
			}
		}
	}
}

// TestIOSizeSweepTrend verifies the extension experiment's monotone gain
// decay with I/O size.
func TestIOSizeSweepTrend(t *testing.T) {
	if testing.Short() {
		t.Skip("multi-case sweep")
	}
	rep, err := IOSizeSweep(Config{SimMillis: 20, WarmupMillis: 5, Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	var gains []float64
	for _, row := range rep.Table.Rows {
		g, err := strconv.ParseFloat(row[4], 64)
		if err != nil {
			t.Fatalf("gain cell %q", row[4])
		}
		gains = append(gains, g)
	}
	if len(gains) != 4 {
		t.Fatalf("gains = %v", gains)
	}
	if gains[0] < 50 {
		t.Errorf("4K gain = %.1f%%, want large", gains[0])
	}
	if gains[len(gains)-1] > 15 {
		t.Errorf("256K gain = %.1f%%, want near zero", gains[len(gains)-1])
	}
	if gains[0] <= gains[len(gains)-1] {
		t.Errorf("gain did not decay with I/O size: %v", gains)
	}
}

// TestChecksPassAtQuickScale runs the regression gate itself.
func TestChecksPassAtQuickScale(t *testing.T) {
	if testing.Short() {
		t.Skip("multi-case sweep")
	}
	rep, err := Checks(Config{SimMillis: 30, WarmupMillis: 8, Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	for _, row := range rep.Table.Rows {
		if row[3] != "PASS" {
			t.Errorf("check %q: %s (%s)", row[0], row[3], row[2])
		}
	}
}
