package experiments

import (
	"slices"
	"strings"
	"testing"

	"nvmeopf/internal/targetqp"
	"nvmeopf/internal/workload"
)

func TestCaseNormalize(t *testing.T) {
	cs := Case{Gbps: 100, Mix: workload.ReadOnly, TCPerNode: 1}.normalize()
	if cs.Pairs != 1 || cs.QDTC != 128 || cs.QDLS != 1 {
		t.Fatalf("defaults wrong: %+v", cs)
	}
	if cs.Window != 32 {
		t.Fatalf("auto window = %d, want OptimalWindow read@100G = 32", cs.Window)
	}
	wr := Case{Gbps: 100, Mix: workload.WriteOnly, TCPerNode: 1}.normalize()
	if wr.Window != 16 {
		t.Fatalf("auto write window = %d", wr.Window)
	}
	fixed := Case{Gbps: 100, Window: 7, TCPerNode: 1}.normalize()
	if fixed.Window != 7 {
		t.Fatal("explicit window overridden")
	}
}

func TestRunSingleCase(t *testing.T) {
	r, err := Run(QuickConfig(), Case{
		Gbps: 100, Mode: targetqp.ModeOPF, Mix: workload.ReadOnly,
		FanIn: true, LSPerNode: 1, TCPerNode: 1,
	})
	if err != nil {
		t.Fatal(err)
	}
	if r.TCIOPS <= 0 || r.TCBps <= 0 {
		t.Fatalf("no TC throughput: %+v", r)
	}
	if r.LSSamples <= 0 || r.LSTail <= 0 {
		t.Fatalf("no LS samples: %+v", r)
	}
	if r.RespPDUs <= 0 || r.CmdPDUs <= 0 {
		t.Fatalf("no PDU accounting: %+v", r)
	}
}

func TestRunRejectsUnknownSpeed(t *testing.T) {
	if _, err := Run(QuickConfig(), Case{Gbps: 40, TCPerNode: 1}); err == nil {
		t.Fatal("40G accepted")
	}
}

func TestOPFThroughputAdvantageHolds(t *testing.T) {
	cfg := QuickConfig()
	base, err := Run(cfg, Case{Gbps: 10, Mode: targetqp.ModeBaseline, Mix: workload.ReadOnly, FanIn: true, LSPerNode: 1, TCPerNode: 4})
	if err != nil {
		t.Fatal(err)
	}
	opf, err := Run(cfg, Case{Gbps: 10, Mode: targetqp.ModeOPF, Mix: workload.ReadOnly, FanIn: true, LSPerNode: 1, TCPerNode: 4})
	if err != nil {
		t.Fatal(err)
	}
	ratio := ratioOf(opf.TCBps, base.TCBps)
	if ratio < 1.5 {
		t.Fatalf("read@10G 1:4 ratio = %.2f, want solidly > 1.5 (paper: 2.94)", ratio)
	}
	if opf.LSTail >= base.LSTail {
		t.Fatalf("oPF tail %d >= SPDK tail %d", opf.LSTail, base.LSTail)
	}
	t.Logf("quick 1:4 read@10G: ratio %.2fx, tails %d vs %d us", ratio, base.LSTail/1000, opf.LSTail/1000)
}

func TestTableIExperiment(t *testing.T) {
	rep, err := ByName("tableI", QuickConfig())
	if err != nil {
		t.Fatal(err)
	}
	out := rep.String()
	for _, want := range []string{"CC-10G", "CC-25G", "CL-100G"} {
		if !strings.Contains(out, want) {
			t.Errorf("tableI missing %s:\n%s", want, out)
		}
	}
}

func TestFig6cCountsPer100k(t *testing.T) {
	rep, err := Fig6c(QuickConfig())
	if err != nil {
		t.Fatal(err)
	}
	if len(rep.Table.Rows) != 10 { // 5 variants x 2 workloads
		t.Fatalf("rows = %d", len(rep.Table.Rows))
	}
	// SPDK rows must report ~100k responses per 100k commands.
	for _, row := range rep.Table.Rows {
		if row[0] == "spdk" && !strings.HasPrefix(row[4], "10") {
			t.Errorf("spdk responses per 100k = %s, want ~100000", row[4])
		}
	}
}

func TestAblationsRun(t *testing.T) {
	rep, err := Ablations(QuickConfig())
	if err != nil {
		t.Fatal(err)
	}
	if len(rep.Table.Rows) != 5 {
		t.Fatalf("rows = %d", len(rep.Table.Rows))
	}
	// The shared-queue ablation must show premature flushes; the default
	// must not.
	var sharedPrem, isoPrem string
	for _, row := range rep.Table.Rows {
		switch row[0] {
		case "shared-tc-queue":
			sharedPrem = row[4]
		case "opf (isolated,static32,bypass)":
			isoPrem = row[4]
		}
	}
	if isoPrem != "0" {
		t.Errorf("isolated design shows premature flushes: %s", isoPrem)
	}
	if sharedPrem == "0" {
		t.Error("shared-queue ablation shows no premature flushes")
	}
}

func TestByNameUnknown(t *testing.T) {
	if _, err := ByName("nope", QuickConfig()); err == nil {
		t.Fatal("unknown experiment accepted")
	}
	if len(Names()) < 8 {
		t.Fatalf("registry too small: %v", Names())
	}
}

// TestRegistryListsEveryExperiment pins the IDs opf-bench -exp accepts,
// each registered in registry.go's one map literal.
func TestRegistryListsEveryExperiment(t *testing.T) {
	want := []string{"ablations", "checks", "e2egap", "fig6a", "fig6b", "fig6c", "fig7", "fig7sum",
		"fig8p1", "fig8p2", "fig9", "iosize", "shiftmix", "summary", "tableI", "tailcdf"}
	if got := Names(); !slices.Equal(got, want) {
		t.Fatalf("registry = %v, want %v", got, want)
	}
}

// TestDefaultConfigOutscalesQuick pins the two scales opf-bench offers:
// the EXPERIMENTS.md runs simulate longer than the smoke runs.
func TestDefaultConfigOutscalesQuick(t *testing.T) {
	d, q := DefaultConfig(), QuickConfig()
	if d.SimMillis <= q.SimMillis || d.WarmupMillis <= q.WarmupMillis {
		t.Fatalf("default %+v does not outscale quick %+v", d, q)
	}
}
