package tcptrans

// Sharded-datapath tests: tenant-ID striding across shards, correctness
// of the pipelined inbound path with a connection's reader pinned at the
// run queue's bound, aggregate stats across shards, and a multi-connection
// chaos run where one tenant dies mid-window while survivors on every
// shard keep meeting their drain windows. Run with -race.

import (
	"bytes"
	"fmt"
	"net"
	"runtime"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"nvmeopf/internal/hostqp"
	"nvmeopf/internal/nvme"
	"nvmeopf/internal/proto"
	"nvmeopf/internal/targetqp"
	"nvmeopf/internal/telemetry"
)

// TestShardedTenantIDsUnique dials more connections than shards and
// checks the striding invariant: every session gets a globally unique
// tenant ID, and with serial dials the round-robin assignment still
// hands out 0..N-1 (shard i strides i, i+S, i+2S, …).
func TestShardedTenantIDsUnique(t *testing.T) {
	srv, err := Listen("127.0.0.1:0", ServerConfig{
		Mode: targetqp.ModeOPF, Device: newMemoryDevice(512, 1024), Shards: 4,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()
	if srv.Shards() != 4 {
		t.Fatalf("Shards() = %d, want 4", srv.Shards())
	}

	const n = 10
	seen := make(map[proto.TenantID]bool)
	var conns []*Conn
	defer func() {
		for _, c := range conns {
			c.Close()
		}
	}()
	for i := 0; i < n; i++ {
		c, err := Dial(srv.Addr(), hostqp.Config{Window: 2, QueueDepth: 4, NSID: 1})
		if err != nil {
			t.Fatalf("dial %d: %v", i, err)
		}
		conns = append(conns, c)
		id := c.Tenant()
		if seen[id] {
			t.Fatalf("tenant ID %d assigned twice", id)
		}
		seen[id] = true
	}
	// Serial dials hit shards round-robin, so striding preserves the
	// sequential numbering the single-reactor target used to produce.
	for i := 0; i < n; i++ {
		if !seen[proto.TenantID(i)] {
			t.Errorf("tenant ID %d never assigned; got %v", i, seen)
		}
	}
	if got := srv.ActiveSessions(); got != n {
		t.Errorf("ActiveSessions = %d, want %d", got, n)
	}
	if st := srv.Stats(); st.Connections != n {
		t.Errorf("aggregated Connections = %d, want %d", st.Connections, n)
	}
}

// TestRoundTripAtThePipeliningBound pins the tightest pipelining the
// transport imposes (the job TestInflightPerConnOne did while the bound was
// a ServerConfig field): the owning reactor is held until the connection's
// reader sits at maxQueuedPerConn with more commands waiting in the socket,
// so everything after that flows reader→reactor under the bound, a credit
// at a time. On the executor-pool path, at one shard and at four, every
// write must complete and a latency-sensitive read must see its bytes.
func TestRoundTripAtThePipeliningBound(t *testing.T) {
	for _, shards := range []int{1, 4} {
		t.Run(fmt.Sprintf("shards=%d", shards), func(t *testing.T) {
			srv, err := Listen("127.0.0.1:0", ServerConfig{
				Mode: targetqp.ModeOPF, Device: newMemoryDevice(4096, 1<<12), Shards: shards,
			})
			if err != nil {
				t.Fatal(err)
			}
			defer srv.Close()
			const writes = 4 * maxQueuedPerConn
			c, err := Dial(srv.Addr(), hostqp.Config{Class: proto.PrioThroughputCritical, Window: 4, QueueDepth: writes, NSID: 1})
			if err != nil {
				t.Fatal(err)
			}
			defer c.Close()

			sh := srv.shards[0] // the first connection's shard
			held, gate := make(chan struct{}), make(chan struct{})
			sh.post(func() { close(held); <-gate })
			<-held
			want := bytes.Repeat([]byte{0x5A}, 4096)
			var wg sync.WaitGroup
			var failed atomic.Int32
			for i := 0; i < writes; i++ {
				wg.Add(1)
				err := c.Submit(hostqp.IO{Op: nvme.OpWrite, LBA: uint64(i % 8), Blocks: 1, Data: want, Done: func(r hostqp.Result) {
					if !r.Status.OK() {
						failed.Add(1)
					}
					wg.Done()
				}})
				if err != nil {
					t.Fatal(err)
				}
			}
			queued := func() int {
				sh.q.mu.Lock()
				defer sh.q.mu.Unlock()
				return len(sh.q.lanes[laneNormal])
			}
			waitFor(t, "the reader to reach the bound", func() bool { return queued() >= maxQueuedPerConn })
			time.Sleep(20 * time.Millisecond)
			if got := queued(); got >= maxQueuedPerConn+maxBurst {
				t.Errorf("%d PDUs queued with the reactor held, bound is %d plus one burst of %d", got, maxQueuedPerConn, maxBurst)
			}
			close(gate)
			wg.Wait()
			if n := failed.Load(); n != 0 {
				t.Fatalf("%d of %d writes failed", n, writes)
			}
			got, err := c.Read(3, 1, proto.PrioLatencySensitive)
			if err != nil {
				t.Fatal(err)
			}
			if !bytes.Equal(got, want) {
				t.Error("read returned wrong bytes")
			}
		})
	}
}

// TestShardedChaosVictimDiesMidWindow is the sharded concurrent-load
// acceptance test: eight tenants spread round-robin over four shards —
// LS and TC survivors on every shard — while one TC victim on a faultnet
// socket is killed mid-window, twice. Survivors' synchronous TC writes
// (each needs a full drain round trip on its own shard) must keep
// completing, the victim's parked window must be dropped, and teardown
// must leave no sessions and no goroutines behind.
func TestShardedChaosVictimDiesMidWindow(t *testing.T) {
	base := runtime.NumGoroutine()
	reg := telemetry.New()
	srv, err := Listen("127.0.0.1:0", ServerConfig{
		Mode: targetqp.ModeOPF, Device: newMemoryDevice(4096, 1<<14),
		Shards: 4, Telemetry: reg, WriteLatency: 50 * time.Microsecond,
	})
	if err != nil {
		t.Fatal(err)
	}

	stop := make(chan struct{})
	var wg sync.WaitGroup
	var survivorOps [7]atomic.Int64

	// Seven survivors: alternating LS and TC, landing on all four shards.
	var survivors []*Conn
	for i := 0; i < 7; i++ {
		cfg := hostqp.Config{Class: proto.PrioLatencySensitive, Window: 1, QueueDepth: 4, NSID: 1}
		if i%2 == 1 {
			cfg = hostqp.Config{Class: proto.PrioThroughputCritical, Window: 4, QueueDepth: 8, NSID: 1}
		}
		c, err := Dial(srv.Addr(), cfg)
		if err != nil {
			t.Fatal(err)
		}
		survivors = append(survivors, c)
		wg.Add(1)
		go func() {
			defer wg.Done()
			buf := make([]byte, 4096)
			lba := uint64(8 * (i + 1))
			for {
				select {
				case <-stop:
					return
				default:
				}
				if err := c.Write(lba, buf, 0); err != nil {
					t.Errorf("survivor %d write failed: %v", i, err)
					return
				}
				survivorOps[i].Add(1)
			}
		}()
	}

	// Victim: driven with raw PDUs (a real Conn's idle-drain timer would
	// flush the partial window) — handshake, park 5 of an 8-wide TC
	// window on its shard, then die abruptly. The in-order FIN guarantees
	// every parked command reaches the shard before the teardown does.
	raw, err := net.Dial("tcp", srv.Addr())
	if err != nil {
		t.Fatal(err)
	}
	if err := proto.WritePDU(raw, &proto.ICReq{PFV: 1, QueueDepth: 32,
		Prio: proto.PrioThroughputCritical, NSID: 1}); err != nil {
		t.Fatal(err)
	}
	icr, err := proto.ReadPDU(raw)
	if err != nil {
		t.Fatal(err)
	}
	victimTenant := icr.(*proto.ICResp).Tenant
	const parked = 5
	for i := 0; i < parked; i++ {
		err := proto.WritePDU(raw, &proto.CapsuleCmd{
			Cmd:  nvme.Command{Opcode: nvme.OpWrite, CID: nvme.CID(i), NSID: 1, SLBA: uint64(i)},
			Prio: proto.PrioThroughputCritical, Tenant: victimTenant,
			Data: make([]byte, 4096),
		})
		if err != nil {
			t.Fatal(err)
		}
	}
	raw.Close() // die mid-window, without teardown

	// Survivors must keep closing drain windows while the victim dies.
	time.Sleep(150 * time.Millisecond)
	close(stop)
	wg.Wait()
	for _, c := range survivors {
		c.Close()
	}

	for i := range survivorOps {
		if survivorOps[i].Load() == 0 {
			t.Errorf("survivor %d made no progress", i)
		}
	}
	waitFor(t, "all sessions torn down", func() bool {
		return srv.ActiveSessions() == 0
	})
	st := srv.Stats()
	if st.Disconnects == 0 {
		t.Error("no disconnects recorded")
	}
	if st.TeardownDrops != parked {
		t.Errorf("TeardownDrops = %d, want %d: victim's parked window not dropped", st.TeardownDrops, parked)
	}
	if g := reg.Global(); g.Disconnects == 0 {
		t.Error("telemetry saw no disconnects")
	}
	srv.Close()
	waitGoroutines(t, base)
}
