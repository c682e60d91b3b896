package ssdsim_test

import (
	"slices"
	"testing"

	"nvmeopf/internal/experiments"
	"nvmeopf/internal/hostqp"
	"nvmeopf/internal/nvme"
	"nvmeopf/internal/proto"
	"nvmeopf/internal/simcluster"
	"nvmeopf/internal/ssdsim"
	"nvmeopf/internal/targetqp"
	"nvmeopf/internal/workload"
)

// TestSharedZeroViewStaysZero: a timing-only device answers every read
// with a view of one process-wide zero buffer, and a host session without
// a read sink keeps such a payload as the read's Result.Data, uncopied, so
// the same bytes reach every simulation in the process. A read shows the
// alias; the Fig. 7 case in both modes then runs the whole stack over it,
// and the buffer must still be all zero afterwards: nothing between the
// device and the workload wrote into a read's data.
func TestSharedZeroViewStaysZero(t *testing.T) {
	prof, err := simcluster.ProfileFor(100)
	if err != nil {
		t.Fatal(err)
	}
	c := simcluster.New(simcluster.Options{Profile: prof, Mode: targetqp.ModeOPF, Seed: 1})
	tn, err := c.NewTargetNode("tgt0", false)
	if err != nil {
		t.Fatal(err)
	}
	ini, err := c.NewInitiatorNode("ini0", tn).Connect(hostqp.Config{Class: proto.PrioLatencySensitive, Window: 1, QueueDepth: 1, NSID: 1})
	if err != nil {
		t.Fatal(err)
	}
	c.Run()
	var got []byte
	if err := ini.Session.Submit(hostqp.IO{Op: nvme.OpRead, Blocks: 2, Done: func(r hostqp.Result) { got = r.Data }}); err != nil {
		t.Fatal(err)
	}
	c.Run()
	if len(got) != 8192 || &got[0] != &ssdsim.ZeroView[0] {
		t.Fatalf("a timing-only read returned %d bytes outside the shared zero view", len(got))
	}

	for _, mode := range []targetqp.Mode{targetqp.ModeOPF, targetqp.ModeBaseline} {
		_, err := experiments.Run(experiments.Config{SimMillis: 5, WarmupMillis: 2, Seed: 1},
			experiments.Case{Gbps: 100, Mode: mode, Mix: workload.ReadOnly, FanIn: true, LSPerNode: 1, TCPerNode: 3})
		if err != nil {
			t.Fatal(err)
		}
	}
	if i := slices.IndexFunc(ssdsim.ZeroView, func(b byte) bool { return b != 0 }); i >= 0 {
		t.Fatalf("the shared zero view holds a non-zero byte at %d", i)
	}
}
