package nvmeopf

import (
	"bytes"
	"strings"
	"testing"
)

func TestPublicTCPQuickstart(t *testing.T) {
	srv, err := ListenMemory("127.0.0.1:0", ModeOPF, 4096, 4096)
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()
	conn, err := Dial(srv.Addr(), InitiatorConfig{
		Class: LatencySensitive, Window: 1, QueueDepth: 2, NSID: 1,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Close()
	payload := bytes.Repeat([]byte{0xA5}, 4096)
	if err := conn.Write(7, payload, 0); err != nil {
		t.Fatal(err)
	}
	got, err := conn.Read(7, 1, 0)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, payload) {
		t.Fatal("round trip mismatch")
	}
	// Per-request class override.
	if err := conn.Write(8, payload, ThroughputCritical); err != nil {
		t.Fatal(err)
	}
}

func TestPublicSimCluster(t *testing.T) {
	prof, err := SimProfileFor(25)
	if err != nil {
		t.Fatal(err)
	}
	cl := NewSimCluster(SimOptions{Profile: prof, Mode: ModeOPF, Seed: 1})
	tgt, err := cl.NewTargetNode("t", true)
	if err != nil {
		t.Fatal(err)
	}
	node := cl.NewInitiatorNode("i", tgt)
	ini, err := node.Connect(InitiatorConfig{Class: LatencySensitive, Window: 1, QueueDepth: 1, NSID: 1})
	if err != nil {
		t.Fatal(err)
	}
	done := false
	ini.Session.OnConnect(func() {
		_ = ini.Session.Submit(IO{
			Op: OpWrite, LBA: 1, Blocks: 1, Data: make([]byte, 4096),
			Done: func(r Result) { done = r.Status.OK() },
		})
	})
	cl.Run()
	if !done {
		t.Fatal("simulated write never completed")
	}
	if err := cl.CheckHealthy(); err != nil {
		t.Fatal(err)
	}
}

func TestPublicExperimentRegistry(t *testing.T) {
	names := Experiments()
	if len(names) < 10 {
		t.Fatalf("experiments = %v", names)
	}
	rep, err := RunExperiment("tableI", QuickExperimentConfig())
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(rep.String(), "CL-100G") {
		t.Fatalf("tableI output missing platform:\n%s", rep.String())
	}
	if _, err := RunExperiment("bogus", QuickExperimentConfig()); err == nil {
		t.Fatal("bogus experiment accepted")
	}
}

func TestPublicOptimalWindow(t *testing.T) {
	if w := OptimalWindow("read", 100, 1, 128); w != 32 {
		t.Fatalf("read window = %d", w)
	}
	if w := OptimalWindow("write", 100, 1, 128); w != 16 {
		t.Fatalf("write window = %d", w)
	}
	if w := OptimalWindow("mixed", 25, 1, 8); w > 8 {
		t.Fatalf("window %d exceeds QD", w)
	}
}

func TestPublicExperimentConfigs(t *testing.T) {
	d, q := DefaultExperimentConfig(), QuickExperimentConfig()
	if d.SimMillis <= q.SimMillis {
		t.Fatalf("default (%d) should exceed quick (%d)", d.SimMillis, q.SimMillis)
	}
}
