package main

import (
	"bytes"
	"flag"
	"os"
	"path/filepath"
	"testing"

	"nvmeopf/internal/hostqp"
	"nvmeopf/internal/nvme"
	"nvmeopf/internal/proto"
	"nvmeopf/internal/simcluster"
	"nvmeopf/internal/targetqp"
	"nvmeopf/internal/telemetry"
)

var update = flag.Bool("update", false, "regenerate testdata dumps and the golden report")

// generateDumps runs a small deterministic two-tenant simulation (one TC
// tenant with a window of 8, one LS tenant) with flight recorders on both
// sides and returns the serialized host and target dumps. The simulator's
// virtual clock makes the byte output reproducible, which is what lets the
// report golden below be exact.
func generateDumps(t *testing.T) (hostJSONL, targetJSONL []byte) {
	t.Helper()
	prof, err := simcluster.ProfileFor(100)
	if err != nil {
		t.Fatal(err)
	}
	c := simcluster.New(simcluster.Options{Profile: prof, Mode: targetqp.ModeOPF, Seed: 7})
	c.AttachFlightRecorders(telemetry.RecorderConfig{})
	tn, err := c.NewTargetNode("tgt0", false)
	if err != nil {
		t.Fatal(err)
	}
	in := c.NewInitiatorNode("ini0", tn)
	tc, err := in.Connect(hostqp.Config{
		Class: proto.PrioThroughputCritical, Window: 8, QueueDepth: 16, NSID: 1,
	})
	if err != nil {
		t.Fatal(err)
	}
	ls, err := in.Connect(hostqp.Config{
		Class: proto.PrioLatencySensitive, Window: 1, QueueDepth: 1, NSID: 1,
	})
	if err != nil {
		t.Fatal(err)
	}
	c.Run()

	const tcReqs, lsReqs = 24, 4
	issued := 0
	tc.Session.OnConnect(func() {
		var submit func()
		submit = func() {
			i := issued
			issued++
			if err := tc.Session.Submit(hostqp.IO{
				Op: nvme.OpRead, LBA: uint64(i), Blocks: 1,
				Done: func(hostqp.Result) {
					if issued < tcReqs {
						submit()
					}
				},
			}); err != nil {
				t.Errorf("tc submit %d: %v", i, err)
			}
		}
		for issued < tcReqs && issued < 12 {
			submit()
		}
	})
	lsDone := 0
	ls.Session.OnConnect(func() {
		var issue func()
		issue = func() {
			if lsDone >= lsReqs {
				return
			}
			_ = ls.Session.Submit(hostqp.IO{
				Op: nvme.OpRead, LBA: 9000, Blocks: 1,
				Done: func(hostqp.Result) { lsDone++; issue() },
			})
		}
		issue()
	})
	c.Run()
	if err := c.CheckHealthy(); err != nil {
		t.Fatal(err)
	}

	render := func(rec *telemetry.Recorder) []byte {
		var buf bytes.Buffer
		if err := rec.WriteJSONL(&buf); err != nil {
			t.Fatal(err)
		}
		return buf.Bytes()
	}
	return render(c.HostRecorder()), render(c.TargetRecorder())
}

// TestGoldenReport drives the exact pipeline main() runs — readDump on the
// checked-in JSONL fixtures, Correlate, Analyze with the CLI's default
// options, WriteText — and compares against the golden report. Run with
// -update to regenerate testdata after an intentional format change.
func TestGoldenReport(t *testing.T) {
	hostPath := filepath.Join("testdata", "host.jsonl")
	targetPath := filepath.Join("testdata", "target.jsonl")
	goldenPath := filepath.Join("testdata", "report.golden")

	if *update {
		hostJSONL, targetJSONL := generateDumps(t)
		if err := os.MkdirAll("testdata", 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(hostPath, hostJSONL, 0o644); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(targetPath, targetJSONL, 0o644); err != nil {
			t.Fatal(err)
		}
	}

	host, err := readDump(hostPath)
	if err != nil {
		t.Fatal(err)
	}
	target, err := readDump(targetPath)
	if err != nil {
		t.Fatal(err)
	}
	if host.Meta.Role != "host" || target.Meta.Role != "target" {
		t.Fatalf("fixture roles: %q / %q", host.Meta.Role, target.Meta.Role)
	}

	corr := telemetry.Correlate(host, target)
	report := telemetry.Analyze(corr, telemetry.AnalyzeOptions{Top: 5})
	if r := report.ReconstructionRatio(); r < 0.99 {
		t.Fatalf("fixture reconstruction ratio %.3f < 0.99", r)
	}
	var buf bytes.Buffer
	if err := report.WriteText(&buf); err != nil {
		t.Fatal(err)
	}

	if *update {
		if err := os.WriteFile(goldenPath, buf.Bytes(), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	golden, err := os.ReadFile(goldenPath)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(buf.Bytes(), golden) {
		t.Fatalf("report drifted from golden (rerun with -update if intentional):\n--- got:\n%s\n--- want:\n%s", buf.Bytes(), golden)
	}
}

// TestGoldenMatchesFreshSimulation guards the -update path itself: the
// checked-in fixtures must be exactly what generateDumps produces today, so
// the golden can never silently describe a stale simulator.
func TestGoldenMatchesFreshSimulation(t *testing.T) {
	hostJSONL, targetJSONL := generateDumps(t)
	for _, f := range []struct {
		path string
		want []byte
	}{
		{filepath.Join("testdata", "host.jsonl"), hostJSONL},
		{filepath.Join("testdata", "target.jsonl"), targetJSONL},
	} {
		got, err := os.ReadFile(f.path)
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(got, f.want) {
			t.Fatalf("%s is stale: regenerate with go test ./cmd/opf-trace -update", f.path)
		}
	}
}
