package workload

import (
	"testing"

	"nvmeopf/internal/bdev"
	"nvmeopf/internal/hostqp"
	"nvmeopf/internal/nvme"
	"nvmeopf/internal/proto"
	"nvmeopf/internal/targetqp"
)

// loopback wires a host session to an in-process oPF target with an
// immediate-completion backend and a manually advanced clock.
type loopback struct {
	host  *hostqp.Session
	clock int64
}

type instantBackend struct {
	ns    nvme.Namespace
	store *bdev.Memory
}

func (b *instantBackend) Namespace() nvme.Namespace { return b.ns }
func (b *instantBackend) Submit(cmd nvme.Command, data []byte, high bool, done func(nvme.Completion, []byte)) {
	cpl := nvme.Completion{CID: cmd.CID, Status: b.ns.CheckRange(cmd.SLBA, cmd.Blocks())}
	var out []byte
	if cpl.Status.OK() {
		switch cmd.Opcode {
		case nvme.OpRead:
			out = make([]byte, b.ns.Bytes(cmd.Blocks()))
			_ = b.store.ReadBlocks(out, cmd.SLBA)
		case nvme.OpWrite:
			_ = b.store.WriteBlocks(data, cmd.SLBA)
		}
	}
	done(cpl, out)
}

func newLoopback(t *testing.T, class proto.Priority, window, qd int) *loopback {
	t.Helper()
	ns := nvme.Namespace{ID: 1, BlockSize: 4096, Capacity: 1 << 20}
	store, err := bdev.NewMemory(ns.BlockSize, ns.Capacity)
	if err != nil {
		t.Fatal(err)
	}
	lb := &loopback{}
	tgt, err := targetqp.NewTarget(targetqp.Config{Mode: targetqp.ModeOPF, Clock: func() int64 { return lb.clock }},
		&instantBackend{ns: ns, store: store})
	if err != nil {
		t.Fatal(err)
	}
	var tsess *targetqp.Session
	tsess, err = tgt.NewSession(func(p proto.PDU) {
		if herr := lb.host.HandlePDU(p); herr != nil {
			t.Fatalf("host: %v", herr)
		}
	})
	if err != nil {
		t.Fatal(err)
	}
	lb.host, err = hostqp.New(hostqp.Config{Class: class, Window: window, QueueDepth: qd, NSID: 1},
		func(p proto.PDU) {
			lb.clock += 1000 // 1us per PDU hop: latency accrues
			if terr := tsess.HandlePDU(p); terr != nil {
				t.Fatalf("target: %v", terr)
			}
		},
		func() int64 { return lb.clock },
	)
	if err != nil {
		t.Fatal(err)
	}
	lb.host.Start()
	return lb
}

func TestSpecValidate(t *testing.T) {
	good := Spec{Mix: ReadOnly, Blocks: 1, QueueDepth: 4, RegionBlocks: 100, StopAt: 10, WarmupUntil: 1}
	if err := good.Validate(); err != nil {
		t.Fatal(err)
	}
	bad := []Spec{
		{Blocks: 1, QueueDepth: 0, RegionBlocks: 10, StopAt: 10},
		{Blocks: 0, QueueDepth: 1, RegionBlocks: 10, StopAt: 10},
		{Blocks: 4, QueueDepth: 1, RegionBlocks: 2, StopAt: 10},
		{Blocks: 1, QueueDepth: 1, RegionBlocks: 10, StopAt: 0, WarmupUntil: 0},
	}
	for i, s := range bad {
		if err := s.Validate(); err == nil {
			t.Errorf("bad spec %d accepted", i)
		}
	}
}

func TestMixString(t *testing.T) {
	for _, m := range []Mix{ReadOnly, WriteOnly, Mixed5050, Mix(9)} {
		if m.String() == "" {
			t.Errorf("empty string for mix %d", int(m))
		}
	}
}

func TestClosedLoopCompletesAndRecords(t *testing.T) {
	lb := newLoopback(t, proto.PrioThroughputCritical, 4, 16)
	r, err := NewRunner(lb.host, func() int64 { return lb.clock }, Spec{
		Mix: WriteOnly, Pattern: Sequential, Blocks: 1, QueueDepth: 16,
		RegionStart: 0, RegionBlocks: 4096,
		WarmupUntil: 0, StopAt: 2_000_000, Seed: 1,
	})
	if err != nil {
		t.Fatal(err)
	}
	r.Kick()
	// The loopback is synchronous: Kick drives the whole run to
	// completion because each completion immediately submits the next.
	res := r.Result()
	if res.Completed == 0 {
		t.Fatal("nothing completed")
	}
	if res.Submitted != res.Completed {
		t.Fatalf("submitted %d != completed %d after drain", res.Submitted, res.Completed)
	}
	if res.Errors != 0 {
		t.Fatalf("errors = %d", res.Errors)
	}
	// Tail-window requests complete after StopAt and are excluded from
	// the measurement window; everything else is recorded.
	if res.Recorded.Ops > res.Completed || res.Recorded.Ops < res.Completed-16 {
		t.Fatalf("recorded %d vs completed %d with zero warmup", res.Recorded.Ops, res.Completed)
	}
	if res.Recorded.Bytes != res.Recorded.Ops*4096 {
		t.Fatalf("bytes accounting wrong: %d", res.Recorded.Bytes)
	}
	if res.Latency.Count() != res.Recorded.Ops { // histogram matches recorded set
		t.Fatalf("latency samples %d != ops %d", res.Latency.Count(), res.Recorded.Ops)
	}
	if !r.Done() {
		t.Fatal("runner not done after StopAt")
	}
}

func TestWarmupExcludesEarlyCompletions(t *testing.T) {
	lb := newLoopback(t, proto.PrioThroughputCritical, 1, 4)
	r, err := NewRunner(lb.host, func() int64 { return lb.clock }, Spec{
		Mix: ReadOnly, Pattern: Sequential, Blocks: 1, QueueDepth: 4,
		RegionStart: 0, RegionBlocks: 4096,
		WarmupUntil: 500_000, StopAt: 1_000_000, Seed: 1,
	})
	if err != nil {
		t.Fatal(err)
	}
	r.Kick()
	res := r.Result()
	if res.Completed <= res.Recorded.Ops {
		t.Fatalf("warmup excluded nothing: completed %d recorded %d", res.Completed, res.Recorded.Ops)
	}
}

func TestSequentialAddressesWrapWithinRegion(t *testing.T) {
	lb := newLoopback(t, proto.PrioThroughputCritical, 1, 1)
	spec := Spec{
		Mix: WriteOnly, Pattern: Sequential, Blocks: 1, QueueDepth: 1,
		RegionStart: 100, RegionBlocks: 8,
		WarmupUntil: 0, StopAt: 100_000, Seed: 1,
	}
	r, err := NewRunner(lb.host, func() int64 { return lb.clock }, spec)
	if err != nil {
		t.Fatal(err)
	}
	// Drive pickLBA directly for determinism.
	seen := map[uint64]bool{}
	for i := 0; i < 32; i++ {
		lba := r.pickLBA()
		if lba < 100 || lba >= 108 {
			t.Fatalf("LBA %d outside region", lba)
		}
		seen[lba] = true
	}
	if len(seen) < 7 {
		t.Fatalf("sequential pattern covered only %d slots", len(seen))
	}
}

func TestRandomAddressesStayInRegion(t *testing.T) {
	lb := newLoopback(t, proto.PrioThroughputCritical, 1, 1)
	r, err := NewRunner(lb.host, func() int64 { return lb.clock }, Spec{
		Mix: ReadOnly, Pattern: Random, Blocks: 4, QueueDepth: 1,
		RegionStart: 64, RegionBlocks: 64,
		WarmupUntil: 0, StopAt: 100_000, Seed: 9,
	})
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 1000; i++ {
		lba := r.pickLBA()
		if lba < 64 || lba+4 > 128 {
			t.Fatalf("random LBA %d violates region", lba)
		}
		if (lba-64)%4 != 0 {
			t.Fatalf("random LBA %d not IO-aligned", lba)
		}
	}
}

func TestMixedProducesBothOps(t *testing.T) {
	lb := newLoopback(t, proto.PrioThroughputCritical, 1, 1)
	r, err := NewRunner(lb.host, func() int64 { return lb.clock }, Spec{
		Mix: Mixed5050, Pattern: Sequential, Blocks: 1, QueueDepth: 1,
		RegionStart: 0, RegionBlocks: 4096,
		WarmupUntil: 0, StopAt: 100_000, Seed: 77,
	})
	if err != nil {
		t.Fatal(err)
	}
	reads, writes := 0, 0
	for i := 0; i < 1000; i++ {
		if r.pickOp() == nvme.OpRead {
			reads++
		} else {
			writes++
		}
	}
	if reads < 400 || writes < 400 {
		t.Fatalf("mix skewed: %d reads, %d writes", reads, writes)
	}
}
