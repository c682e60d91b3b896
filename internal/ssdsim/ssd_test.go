package ssdsim

import (
	"bytes"
	"slices"
	"testing"

	"nvmeopf/internal/nvme"
	"nvmeopf/internal/simnet"
)

func testCfg(backed bool) Config {
	return Config{
		Namespace:     nvme.Namespace{ID: 1, BlockSize: 4096, Capacity: 1 << 20},
		Channels:      4,
		ReadBase:      50_000,
		ReadJitter:    10_000,
		WriteBase:     120_000,
		WriteJitter:   30_000,
		FlushLatency:  200_000,
		PerBlockExtra: 2_000,
		Seed:          1,
		Backed:        backed,
	}
}

func newSSD(t *testing.T, eng *simnet.Engine, backed bool) *SSD {
	t.Helper()
	s, err := New(eng, testCfg(backed))
	if err != nil {
		t.Fatal(err)
	}
	return s
}

func TestConfigValidate(t *testing.T) {
	good := testCfg(false)
	if err := good.Validate(); err != nil {
		t.Fatal(err)
	}
	cases := []func(*Config){
		func(c *Config) { c.Namespace.ID = 0 },
		func(c *Config) { c.Channels = 0 },
		func(c *Config) { c.ReadBase = 0 },
		func(c *Config) { c.WriteBase = -1 },
		func(c *Config) { c.ReadJitter = -1 },
		func(c *Config) { c.PerBlockExtra = -1 },
	}
	for i, mutate := range cases {
		c := testCfg(false)
		mutate(&c)
		if err := c.Validate(); err == nil {
			t.Errorf("bad config %d accepted", i)
		}
	}
}

func TestSubmitWithoutDonePanics(t *testing.T) {
	eng := simnet.NewEngine()
	s := newSSD(t, eng, false)
	defer func() {
		if recover() == nil {
			t.Fatal("want panic")
		}
	}()
	s.Submit(Request{Cmd: nvme.Command{Opcode: nvme.OpRead}}, false)
}

func TestReadAfterWriteIntegrity(t *testing.T) {
	eng := simnet.NewEngine()
	s := newSSD(t, eng, true)
	payload := bytes.Repeat([]byte{0xC3}, 4096)
	var readBack []byte
	s.Submit(Request{
		Cmd:  nvme.Command{Opcode: nvme.OpWrite, CID: 1, NSID: 1, SLBA: 7, NLB: 0},
		Data: payload,
		Done: func(cpl nvme.Completion, _ []byte) {
			if !cpl.Status.OK() {
				t.Errorf("write failed: %v", cpl.Status)
			}
			s.Submit(Request{
				Cmd: nvme.Command{Opcode: nvme.OpRead, CID: 2, NSID: 1, SLBA: 7, NLB: 0},
				Done: func(cpl nvme.Completion, data []byte) {
					if !cpl.Status.OK() {
						t.Errorf("read failed: %v", cpl.Status)
					}
					readBack = data
				},
			}, false)
		},
	}, false)
	eng.Run()
	if !bytes.Equal(readBack, payload) {
		t.Fatal("read-after-write mismatch")
	}
}

// TestReadInLaterRunSeesCompletedWrite: a write that completed in one run
// of the engine is what a read of the same block returns in the next run.
func TestReadInLaterRunSeesCompletedWrite(t *testing.T) {
	eng := simnet.NewEngine()
	s := newSSD(t, eng, true)
	payload := bytes.Repeat([]byte{0x5D}, 4096)
	wrote := false
	s.Submit(Request{
		Cmd:  nvme.Command{Opcode: nvme.OpWrite, CID: 1, NSID: 1, SLBA: 9, NLB: 0},
		Data: payload,
		Done: func(cpl nvme.Completion, _ []byte) { wrote = cpl.Status.OK() },
	}, false)
	eng.Run()
	if !wrote {
		t.Fatal("write did not complete OK")
	}
	var readBack []byte
	s.Submit(Request{
		Cmd:  nvme.Command{Opcode: nvme.OpRead, CID: 2, NSID: 1, SLBA: 9, NLB: 0},
		Done: func(_ nvme.Completion, data []byte) { readBack = data },
	}, false)
	eng.Run()
	if !bytes.Equal(readBack, payload) {
		t.Fatal("read in the next run did not return the written block")
	}
}

func TestServiceTimesReadFasterThanWrite(t *testing.T) {
	eng := simnet.NewEngine()
	s := newSSD(t, eng, false)
	var readDone, writeDone simnet.Time
	s.Submit(Request{
		Cmd:  nvme.Command{Opcode: nvme.OpRead, CID: 1, NSID: 1, NLB: 0},
		Done: func(nvme.Completion, []byte) { readDone = eng.Now() },
	}, false)
	s.Submit(Request{
		Cmd:  nvme.Command{Opcode: nvme.OpWrite, CID: 2, NSID: 1, NLB: 0, SLBA: 1},
		Done: func(nvme.Completion, []byte) { writeDone = eng.Now() },
	}, false)
	eng.Run()
	if readDone >= writeDone {
		t.Fatalf("read (%d) should finish before write (%d) on parallel channels", readDone, writeDone)
	}
	// Bounds: read in [40us, 60us], write in [90us, 150us].
	if readDone < 40_000 || readDone > 60_000 {
		t.Errorf("read service %d out of range", readDone)
	}
	if writeDone < 90_000 || writeDone > 150_000 {
		t.Errorf("write service %d out of range", writeDone)
	}
}

func TestChannelParallelism(t *testing.T) {
	eng := simnet.NewEngine()
	cfg := testCfg(false)
	cfg.ReadJitter = 0 // deterministic service
	s, _ := New(eng, cfg)
	n := 8 // 2x channels
	var last simnet.Time
	for i := 0; i < n; i++ {
		s.Submit(Request{
			Cmd:  nvme.Command{Opcode: nvme.OpRead, CID: nvme.CID(i), NSID: 1},
			Done: func(nvme.Completion, []byte) { last = eng.Now() },
		}, false)
	}
	eng.Run()
	// 8 reads at 50us on 4 channels = 2 waves = 100us.
	if last != 100_000 {
		t.Fatalf("makespan = %d, want 100000", last)
	}
}

func TestOutOfOrderCompletions(t *testing.T) {
	eng := simnet.NewEngine()
	s := newSSD(t, eng, false)
	var order []nvme.CID
	// More requests than channels with jittered service: completion order
	// must differ from submission order at least once across the batch.
	for i := 0; i < 32; i++ {
		cid := nvme.CID(i)
		s.Submit(Request{
			Cmd:  nvme.Command{Opcode: nvme.OpRead, CID: cid, NSID: 1, SLBA: uint64(i)},
			Done: func(cpl nvme.Completion, _ []byte) { order = append(order, cpl.CID) },
		}, false)
	}
	eng.Run()
	if len(order) != 32 {
		t.Fatalf("completed %d/32", len(order))
	}
	inOrder := true
	for i := 1; i < len(order); i++ {
		if order[i] < order[i-1] {
			inOrder = false
			break
		}
	}
	if inOrder {
		t.Fatal("jittered channels produced perfectly ordered completions; OOO path untested")
	}
}

// TestEveryCIDCompletesOnceOutOfOrder: 64 jittered reads, 16 per channel,
// each complete OK exactly once, and not in the order they were submitted.
func TestEveryCIDCompletesOnceOutOfOrder(t *testing.T) {
	eng := simnet.NewEngine()
	s := newSSD(t, eng, false)
	const n = 64
	seen := make([]int, n)
	var order []nvme.CID
	for i := 0; i < n; i++ {
		s.Submit(Request{
			Cmd: nvme.Command{Opcode: nvme.OpRead, CID: nvme.CID(i), NSID: 1, SLBA: uint64(i)},
			Done: func(cpl nvme.Completion, _ []byte) {
				if !cpl.Status.OK() {
					t.Errorf("CID %d: %v", cpl.CID, cpl.Status)
				}
				seen[cpl.CID]++
				order = append(order, cpl.CID)
			},
		}, false)
	}
	eng.Run()
	for cid, k := range seen {
		if k != 1 {
			t.Fatalf("CID %d completed %d times", cid, k)
		}
	}
	if slices.IsSorted(order) {
		t.Fatal("jittered device completed 64 reads in submission order")
	}
}

// TestBackToBackSubmitsAllComplete: sixteen reads submitted in one go, with
// no engine step between them, all complete and leave the device empty.
func TestBackToBackSubmitsAllComplete(t *testing.T) {
	eng := simnet.NewEngine()
	s := newSSD(t, eng, false)
	done := 0
	for i := 0; i < 16; i++ {
		s.Submit(Request{
			Cmd:  nvme.Command{Opcode: nvme.OpRead, CID: nvme.CID(i), NSID: 1},
			Done: func(nvme.Completion, []byte) { done++ },
		}, false)
	}
	eng.Run()
	if done != 16 || s.QueueDepth() != 0 {
		t.Fatalf("done = %d, %d still queued", done, s.QueueDepth())
	}
}

func TestHighPriorityBypassesBacklog(t *testing.T) {
	eng := simnet.NewEngine()
	cfg := testCfg(false)
	cfg.Channels = 1
	cfg.ReadJitter = 0
	s, _ := New(eng, cfg)
	// Deep normal backlog.
	for i := 0; i < 100; i++ {
		s.Submit(Request{
			Cmd:  nvme.Command{Opcode: nvme.OpRead, CID: nvme.CID(i), NSID: 1},
			Done: func(nvme.Completion, []byte) {},
		}, false)
	}
	var hiDone simnet.Time
	s.Submit(Request{
		Cmd:  nvme.Command{Opcode: nvme.OpRead, CID: 500, NSID: 1},
		Done: func(nvme.Completion, []byte) { hiDone = eng.Now() },
	}, true)
	eng.Run()
	// High-priority request waits only for the in-service command plus its
	// own service: <= 2 * 50us. Behind the FIFO it would be ~101 * 50us.
	if hiDone > 100_000 {
		t.Fatalf("high-priority completion at %d; bypass broken", hiDone)
	}
}

// With one channel, normal requests complete in submission order — also
// when submissions arrive in rounds faster than the channel drains them, so
// the admission ring wraps and grows with its head mid-array.
func TestNormalFIFOOrderOnSingleChannel(t *testing.T) {
	eng := simnet.NewEngine()
	cfg := testCfg(false)
	cfg.Channels = 1
	cfg.ReadJitter = 0
	s, _ := New(eng, cfg)
	var order []nvme.CID
	next := nvme.CID(0)
	for round := 0; round < 12; round++ {
		for i := 0; i < 5+round*3; i++ {
			s.Submit(Request{
				Cmd:  nvme.Command{Opcode: nvme.OpRead, CID: next, NSID: 1},
				Done: func(cpl nvme.Completion, _ []byte) { order = append(order, cpl.CID) },
			}, false)
			next++
		}
		eng.RunUntil(eng.Now() + 400_000) // completes 8: the backlog keeps growing
	}
	eng.Run()
	if len(order) != int(next) {
		t.Fatalf("completed %d of %d", len(order), next)
	}
	for i, cid := range order {
		if cid != nvme.CID(i) {
			t.Fatalf("single-channel FIFO violated at completion %d: CID %d", i, cid)
		}
	}
}

func TestErrorStatuses(t *testing.T) {
	eng := simnet.NewEngine()
	s := newSSD(t, eng, true)
	var stats []nvme.Status
	record := func(cpl nvme.Completion, _ []byte) { stats = append(stats, cpl.Status) }
	// LBA out of range.
	s.Submit(Request{Cmd: nvme.Command{Opcode: nvme.OpRead, CID: 1, NSID: 1, SLBA: 1 << 20}, Done: record}, false)
	// Write with short payload.
	s.Submit(Request{Cmd: nvme.Command{Opcode: nvme.OpWrite, CID: 2, NSID: 1, SLBA: 0, NLB: 1}, Data: make([]byte, 4096), Done: record}, false)
	// Unknown opcode.
	s.Submit(Request{Cmd: nvme.Command{Opcode: 0x55, CID: 3, NSID: 1}, Done: record}, false)
	// Flush succeeds.
	s.Submit(Request{Cmd: nvme.Command{Opcode: nvme.OpFlush, CID: 4, NSID: 1}, Done: record}, false)
	eng.Run()
	if len(stats) != 4 {
		t.Fatalf("completions = %d", len(stats))
	}
	want := []nvme.Status{nvme.StatusLBAOutOfRange, nvme.StatusDataXferError, nvme.StatusInvalidOpcode, nvme.StatusSuccess}
	// Completion order is by service time, not submission; sort by
	// checking membership instead.
	seen := map[nvme.Status]int{}
	for _, s := range stats {
		seen[s]++
	}
	for _, w := range want {
		if seen[w] == 0 {
			t.Errorf("missing status %v in %v", w, stats)
		}
	}
	if s.Stats().Errors != 3 {
		t.Errorf("errors = %d, want 3", s.Stats().Errors)
	}
}

func TestStatsAccounting(t *testing.T) {
	eng := simnet.NewEngine()
	s := newSSD(t, eng, false)
	done := 0
	for i := 0; i < 10; i++ {
		op := nvme.OpRead
		if i%2 == 1 {
			op = nvme.OpWrite
		}
		s.Submit(Request{
			Cmd:  nvme.Command{Opcode: op, CID: nvme.CID(i), NSID: 1, SLBA: uint64(i)},
			Done: func(nvme.Completion, []byte) { done++ },
		}, false)
	}
	eng.Run()
	st := s.Stats()
	if st.Submitted != 10 || st.Completed != 10 || done != 10 {
		t.Fatalf("submitted=%d completed=%d done=%d", st.Submitted, st.Completed, done)
	}
	if st.Reads != 5 || st.Writes != 5 {
		t.Fatalf("reads=%d writes=%d", st.Reads, st.Writes)
	}
	if st.MaxQueue < 6 {
		t.Errorf("max queue = %d, want >= 6 (10 submits on 4 channels)", st.MaxQueue)
	}
	if st.BusyTime <= 0 {
		t.Error("no busy time recorded")
	}
}

func TestLargeIOCostsMore(t *testing.T) {
	eng := simnet.NewEngine()
	cfg := testCfg(false)
	cfg.ReadJitter = 0
	s, _ := New(eng, cfg)
	var small, large simnet.Time
	s.Submit(Request{
		Cmd:  nvme.Command{Opcode: nvme.OpRead, CID: 1, NSID: 1, NLB: 0},
		Done: func(nvme.Completion, []byte) { small = eng.Now() },
	}, false)
	s.Submit(Request{
		Cmd:  nvme.Command{Opcode: nvme.OpRead, CID: 2, NSID: 1, NLB: 31}, // 128K
		Done: func(nvme.Completion, []byte) { large = eng.Now() },
	}, false)
	eng.Run()
	if large-small != 31*2_000 {
		t.Fatalf("large I/O extra = %d, want %d", large-small, 31*2_000)
	}
}

func TestDefaultConfigSaturation(t *testing.T) {
	// Closed-loop saturation check: default device should deliver roughly
	// Channels/ReadBase IOPS for reads.
	eng := simnet.NewEngine()
	cfg := DefaultConfig(3, false)
	s, _ := New(eng, cfg)
	completed := 0
	var submit func(cid int)
	submit = func(cid int) {
		s.Submit(Request{
			Cmd: nvme.Command{Opcode: nvme.OpRead, CID: nvme.CID(cid % 65536), NSID: 1},
			Done: func(nvme.Completion, []byte) {
				completed++
				if eng.Now() < 100_000_000 { // 100ms
					submit(cid + 1)
				}
			},
		}, false)
	}
	for i := 0; i < 64; i++ { // QD 64
		submit(i)
	}
	eng.Run()
	iops := float64(completed) / 0.1
	// 16 channels / 52us = ~308K IOPS.
	if iops < 250_000 || iops > 350_000 {
		t.Fatalf("default device read IOPS = %.0f, want ~308K", iops)
	}
}

// TestDrainedQueuesHoldNoRequests: a drained device references no request
// or write payload: the admission rings are simnet.Rings, which clear each
// slot as it is popped (TestRingFIFOAcrossWrapAndGrowth), and the pooled op
// records let go of their last request.
func TestDrainedQueuesHoldNoRequests(t *testing.T) {
	eng := simnet.NewEngine()
	s := newSSD(t, eng, true)
	cid := nvme.CID(0)
	submit := func(high bool) {
		c := cid
		cid++
		s.Submit(Request{
			Cmd:  nvme.Command{Opcode: nvme.OpWrite, CID: c, NSID: 1, SLBA: uint64(c)},
			Data: make([]byte, 4096),
			Done: func(nvme.Completion, []byte) {},
		}, high)
	}
	// Bursts deeper than the rings' first allocation, each submitted while
	// the previous one is still draining, so the heads sit mid-ring when
	// the rings wrap and grow.
	for burst := 0; burst < 6; burst++ {
		for i := 0; i < 60; i++ {
			submit(i%2 == 0)
		}
		eng.RunUntil(eng.Now() + 600_000)
	}
	eng.Run()
	if st := s.Stats(); st.Completed != int64(cid) || s.QueueDepth() != 0 {
		t.Fatalf("completed %d of %d, %d still queued", st.Completed, cid, s.QueueDepth())
	}
	for o := s.freeOps; o != nil; o = o.next {
		if o.req.Done != nil || o.req.Data != nil {
			t.Fatal("a pooled op record still references its last request")
		}
	}
}
