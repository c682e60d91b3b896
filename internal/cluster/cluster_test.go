package cluster

// Cluster chaos harness: replicated namespaces over real TCP targets with
// a live discovery control plane, run under -race. The invariants:
//
//   - zero lost acknowledged writes: every write the cluster client acked
//     before, during, or after a primary kill reads back byte-exact after
//     failover to the promoted replica;
//   - survivors keep meeting drain windows: a throughput-critical
//     workload on the untouched shard makes steady synchronous progress
//     (each write needs a full drain round trip) throughout the kill;
//   - split-brain protection: a discovery map older than the held epoch
//     is rejected by the host, and counted;
//   - graceful degradation: a shard with no live replica refuses writes
//     with ErrReadOnly and keeps serving reads;
//   - a host↔discovery partition degrades nothing that is already
//     connected: I/O continues on the held map until the partition heals.

import (
	"encoding/binary"
	"errors"
	"fmt"
	"net"
	"runtime"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"nvmeopf/internal/bdev"
	"nvmeopf/internal/faultnet"
	"nvmeopf/internal/hostqp"
	"nvmeopf/internal/proto"
	"nvmeopf/internal/targetqp"
	"nvmeopf/internal/tcptrans"
	"nvmeopf/internal/telemetry"
)

func waitFor(t *testing.T, what string, cond func() bool) {
	t.Helper()
	deadline := time.Now().Add(10 * time.Second)
	for time.Now().Before(deadline) {
		if cond() {
			return
		}
		time.Sleep(5 * time.Millisecond)
	}
	t.Fatalf("timed out waiting for %s", what)
}

func waitGoroutines(t *testing.T, base int) {
	t.Helper()
	const slack = 4
	deadline := time.Now().Add(10 * time.Second)
	for time.Now().Before(deadline) {
		if runtime.NumGoroutine() <= base+slack {
			return
		}
		time.Sleep(10 * time.Millisecond)
	}
	buf := make([]byte, 1<<16)
	n := runtime.Stack(buf, true)
	t.Fatalf("goroutines leaked: %d > %d+%d\n%s", runtime.NumGoroutine(), base, slack, buf[:n])
}

// target is one live cluster member: an OPF target server plus the
// keep-alive registrar that keeps it in the discovery map.
type target struct {
	nqn string
	srv *tcptrans.Server
	reg *Registrar
}

// startTarget boots a target and registers it with a fast heartbeat
// (50ms interval, 150ms TTL) claiming the given shards.
func startTarget(t *testing.T, discAddr, nqn string, shards []uint32) *target {
	t.Helper()
	dev, err := bdev.NewMemory(4096, 1<<14)
	if err != nil {
		t.Fatal(err)
	}
	srv, err := tcptrans.Listen("127.0.0.1:0", tcptrans.ServerConfig{
		Mode: targetqp.ModeOPF, Device: dev,
	})
	if err != nil {
		t.Fatal(err)
	}
	reg, err := StartRegistrar(RegistrarConfig{
		DiscoveryAddr: discAddr,
		NQN:           nqn,
		Addr:          srv.Addr(),
		Mode:          uint8(targetqp.ModeOPF),
		Shards:        shards,
		Interval:      50 * time.Millisecond,
		TTL:           150 * time.Millisecond,
	})
	if err != nil {
		srv.Close()
		t.Fatal(err)
	}
	return &target{nqn: nqn, srv: srv, reg: reg}
}

// kill is an abrupt target death: heartbeat stops, live sockets die.
func (tg *target) kill() {
	tg.reg.Stop()
	tg.srv.Close()
}

func (tg *target) stop() { tg.kill() }

// stamp builds one 4 KiB block whose content encodes its sequence number
// in every 8-byte word, so a torn or lost write cannot read back clean.
func stamp(seq uint64) []byte {
	buf := make([]byte, 4096)
	for off := 0; off+8 <= len(buf); off += 8 {
		binary.LittleEndian.PutUint64(buf[off:], seq)
	}
	return buf
}

func checkStamp(data []byte, seq uint64) error {
	for off := 0; off+8 <= len(data); off += 8 {
		if got := binary.LittleEndian.Uint64(data[off:]); got != seq {
			return fmt.Errorf("word at %d = %d, want %d", off, got, seq)
		}
	}
	return nil
}

// TestClusterFailoverMidWindowNoLostAcks is the acceptance chaos test:
// two shards across three targets, closed-loop writers on both shards,
// and the shard-0 primary killed mid-drain-window (its sockets cut by
// the fault injector with writes in flight). Afterward every acknowledged
// shard-0 write must read back from the promoted replica, and the
// survivor shard's throughput-critical writer must have kept completing
// drain windows throughout.
func TestClusterFailoverMidWindowNoLostAcks(t *testing.T) {
	base := runtime.NumGoroutine()
	hostReg := telemetry.New()
	discReg := telemetry.New()
	disc, err := ListenDiscovery("127.0.0.1:0", DiscoveryConfig{
		Telemetry: discReg, SweepInterval: 10 * time.Millisecond,
	})
	if err != nil {
		t.Fatal(err)
	}

	// Shard 0: primary t1, replica t2 (t3 claims it too — the standby
	// that backfills the replica role after the failover).
	// Shard 1: primary t2, replica t3 — untouched by the kill.
	t1 := startTarget(t, disc.Addr(), "nqn.cluster.a", []uint32{0})
	t2 := startTarget(t, disc.Addr(), "nqn.cluster.b", []uint32{0, 1})
	t3 := startTarget(t, disc.Addr(), "nqn.cluster.c", []uint32{0, 1})
	waitFor(t, "initial map", func() bool {
		as := disc.snapshot().Assignments
		return len(as) == 2 && as[0].Primary == t1.nqn && as[0].Replica == t2.nqn &&
			as[1].Primary == t2.nqn && as[1].Replica == t3.nqn
	})

	// Victim sockets (host → t1) run through the fault injector so the
	// kill severs them mid-flight; every other dial is clean.
	inj := faultnet.NewInjector(7)
	victimAddr := t1.srv.Addr()
	victimDial := faultnet.Dialer(inj)
	dial := func(network, addr string) (net.Conn, error) {
		if addr == victimAddr {
			return victimDial(network, addr)
		}
		return net.Dial(network, addr)
	}

	cc, err := Dial(Config{
		DiscoveryAddr: disc.Addr(),
		Conn:          hostqp.Config{Class: proto.PrioThroughputCritical, Window: 8, QueueDepth: 16, NSID: 1},
		Dial: tcptrans.DialConfig{
			HandshakeTimeout: 5 * time.Second,
			RequestTimeout:   2 * time.Second,
			Dialer:           dial,
			Recovery: &tcptrans.RecoveryConfig{
				MaxAttempts: 30, Backoff: 10 * time.Millisecond,
				RequeueLS: true, RequeueTC: true,
			},
		},
		RefreshInterval: 20 * time.Millisecond,
		Telemetry:       hostReg,
	})
	if err != nil {
		t.Fatal(err)
	}

	type ack struct{ lba, seq uint64 }
	var ackMu sync.Mutex
	var acked []ack

	stop := make(chan struct{})
	var wg sync.WaitGroup
	var survivorOps atomic.Int64

	// Shard-0 writer: fresh LBA per write, record every acknowledgement.
	wg.Add(1)
	go func() {
		defer wg.Done()
		var seq uint64
		for {
			select {
			case <-stop:
				return
			default:
			}
			seq++
			lba := seq % (1 << 13)
			if err := cc.Write(1, lba, stamp(seq), 0, true); err == nil {
				ackMu.Lock()
				acked = append(acked, ack{lba, seq})
				ackMu.Unlock()
			}
			// Unacked writes are allowed during the failover window —
			// the invariant is acked ⇒ durable, not all-succeed.
		}
	}()

	// Shard-1 survivor: synchronous TC writes, each completing only once
	// its drain window closes. Its LBA lives outside the shard-0 writer's
	// range: shards sharing a target share that target's device, so the
	// workloads must not overlap block addresses.
	wg.Add(1)
	go func() {
		defer wg.Done()
		buf := stamp(0)
		for {
			select {
			case <-stop:
				return
			default:
			}
			if err := cc.Write(2, 12000, buf, 0, true); err != nil {
				t.Errorf("survivor shard write failed: %v", err)
				return
			}
			survivorOps.Add(1)
		}
	}()

	// Let both shards make real progress first.
	waitFor(t, "pre-kill progress on both shards", func() bool {
		ackMu.Lock()
		n := len(acked)
		ackMu.Unlock()
		return n >= 20 && survivorOps.Load() >= 20
	})

	// Kill the shard-0 primary mid-drain-window: cut its live sockets
	// (writes in flight die with them), stop its heartbeat, close it.
	preKillSurvivor := survivorOps.Load()
	inj.ResetAll()
	t1.kill()

	waitFor(t, "replica promoted", func() bool {
		as := disc.snapshot().Assignments
		return len(as) == 2 && as[0].Primary == t2.nqn && as[0].Replica == t3.nqn
	})
	// The writers must make post-failover progress on both shards.
	var postFailoverAcks int
	waitFor(t, "post-failover progress", func() bool {
		ackMu.Lock()
		n := len(acked)
		ackMu.Unlock()
		if postFailoverAcks == 0 {
			postFailoverAcks = n // first observation after promotion
			return false
		}
		return n > postFailoverAcks+20 && survivorOps.Load() > preKillSurvivor+20
	})
	close(stop)
	wg.Wait()

	if err := cc.Flush(1); err != nil {
		t.Fatalf("post-failover flush: %v", err)
	}

	// Zero lost acknowledged writes: every acked (lba, seq) — the last
	// ack per LBA — reads back byte-exact from the promoted topology.
	last := make(map[uint64]uint64)
	ackMu.Lock()
	for _, a := range acked {
		last[a.lba] = a.seq
	}
	total := len(acked)
	ackMu.Unlock()
	checked := 0
	for lba, seq := range last {
		data, err := cc.Read(1, lba, 1, 0)
		if err != nil {
			t.Fatalf("read back lba %d: %v", lba, err)
		}
		if err := checkStamp(data, seq); err != nil {
			t.Fatalf("acked write lost at lba %d (seq %d): %v", lba, seq, err)
		}
		checked++
	}
	if checked == 0 || total < 40 {
		t.Fatalf("workload too small to mean anything: %d acks, %d lbas", total, checked)
	}

	if hostReg.Global().Failovers == 0 {
		t.Error("host recorded no failover despite the promotion")
	}
	if discReg.Global().DiscoveryExpired == 0 {
		t.Error("control plane recorded no expiry despite the kill")
	}
	if cc.Epoch() == 0 {
		t.Error("client holds no epoch")
	}

	cc.Close()
	t2.stop()
	t3.stop()
	disc.Close()
	waitGoroutines(t, base)
}

// TestClusterStaleEpochMapRejected pins host-side split-brain protection:
// a discovery response carrying an epoch older than the held map is
// rejected, counted, and changes nothing.
func TestClusterStaleEpochMapRejected(t *testing.T) {
	hostReg := telemetry.New()
	disc, err := ListenDiscovery("127.0.0.1:0", DiscoveryConfig{})
	if err != nil {
		t.Fatal(err)
	}
	defer disc.Close()
	t1 := startTarget(t, disc.Addr(), "nqn.stale.a", []uint32{0})
	defer t1.stop()
	t2 := startTarget(t, disc.Addr(), "nqn.stale.b", []uint32{0})
	defer t2.stop()

	cc, err := Dial(Config{
		DiscoveryAddr:   disc.Addr(),
		Conn:            hostqp.Config{Class: proto.PrioLatencySensitive, Window: 1, QueueDepth: 4, NSID: 1},
		RefreshInterval: -1, // no background refresh: the test drives adoption
		Telemetry:       hostReg,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer cc.Close()

	held := cc.Epoch()
	if held < 2 {
		t.Fatalf("expected two joins to have bumped the epoch, held %d", held)
	}
	// A partitioned discovery replica serves yesterday's map.
	staleMap := &Map{
		Epoch:       held - 1,
		Members:     []Member{{NQN: "nqn.ghost", Addr: "10.9.9.9:1", Mode: 1}},
		Assignments: []ShardAssignment{{Shard: 0, Primary: "nqn.ghost"}},
	}
	if err := cc.adopt(staleMap); err == nil || !strings.Contains(err.Error(), "stale") {
		t.Fatalf("stale map not rejected: %v", err)
	}
	if got := cc.Epoch(); got != held {
		t.Fatalf("epoch moved on rejection: %d -> %d", held, got)
	}
	if n := hostReg.Global().StaleEpochs; n != 1 {
		t.Fatalf("stale-epoch counter = %d, want 1", n)
	}
	// The held (sane) map still routes I/O.
	if err := cc.Write(1, 0, stamp(1), 0, true); err != nil {
		t.Fatalf("write on held map: %v", err)
	}
}

// TestClusterDegradedReadOnly pins graceful degradation: when a shard's
// replica dies with no standby, writes fail with ErrReadOnly (an acked
// write must always be replicated) while reads keep being served.
func TestClusterDegradedReadOnly(t *testing.T) {
	disc, err := ListenDiscovery("127.0.0.1:0", DiscoveryConfig{
		SweepInterval: 10 * time.Millisecond,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer disc.Close()
	t1 := startTarget(t, disc.Addr(), "nqn.deg.a", []uint32{0})
	defer t1.stop()
	t2 := startTarget(t, disc.Addr(), "nqn.deg.b", []uint32{0})
	waitFor(t, "replicated map", func() bool {
		as := disc.snapshot().Assignments
		return len(as) == 1 && as[0].Primary == t1.nqn && as[0].Replica == t2.nqn
	})

	hostReg := telemetry.New()
	cc, err := Dial(Config{
		DiscoveryAddr:   disc.Addr(),
		Conn:            hostqp.Config{Class: proto.PrioLatencySensitive, Window: 1, QueueDepth: 4, NSID: 1},
		RefreshInterval: 20 * time.Millisecond,
		Telemetry:       hostReg,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer cc.Close()

	if err := cc.Write(1, 7, stamp(99), 0, true); err != nil {
		t.Fatalf("replicated write: %v", err)
	}
	if cc.Degraded(1) {
		t.Fatal("healthy shard reports degraded")
	}

	t2.kill()
	waitFor(t, "degraded map adopted", func() bool { return cc.Degraded(1) })

	err = cc.Write(1, 8, stamp(100), 0, true)
	if !errors.Is(err, ErrReadOnly) {
		t.Fatalf("write on degraded shard: %v, want ErrReadOnly", err)
	}
	data, err := cc.Read(1, 7, 1, 0)
	if err != nil {
		t.Fatalf("read on degraded shard: %v", err)
	}
	if err := checkStamp(data, 99); err != nil {
		t.Fatalf("degraded read corrupt: %v", err)
	}
	if hostReg.Global().ClusterDegraded != 1 {
		t.Error("degraded gauge not raised")
	}
}

// TestClusterDiscoveryPartitionTolerated pins that losing the control
// plane degrades nothing already established: with the host↔discovery
// path cut, I/O keeps flowing on the held map, and the client recovers
// its refresh loop when the partition heals.
func TestClusterDiscoveryPartitionTolerated(t *testing.T) {
	disc, err := ListenDiscovery("127.0.0.1:0", DiscoveryConfig{})
	if err != nil {
		t.Fatal(err)
	}
	defer disc.Close()
	t1 := startTarget(t, disc.Addr(), "nqn.part.a", []uint32{0})
	defer t1.stop()
	t2 := startTarget(t, disc.Addr(), "nqn.part.b", []uint32{0})
	defer t2.stop()

	inj := faultnet.NewInjector(11)
	var cut atomic.Bool
	fd := faultnet.Dialer(inj)
	discDial := func(network, addr string) (net.Conn, error) {
		if cut.Load() {
			return nil, errors.New("cluster_test: injected host<->discovery partition")
		}
		return fd(network, addr)
	}

	cc, err := Dial(Config{
		DiscoveryAddr:   disc.Addr(),
		Conn:            hostqp.Config{Class: proto.PrioThroughputCritical, Window: 4, QueueDepth: 8, NSID: 1},
		DiscoveryDialer: discDial,
		RefreshInterval: 10 * time.Millisecond,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer cc.Close()
	if err := cc.Write(1, 1, stamp(1), 0, true); err != nil {
		t.Fatal(err)
	}

	cut.Store(true)
	if err := cc.Refresh(); err == nil {
		t.Fatal("refresh succeeded across the partition")
	}
	// I/O rides the held map: the data path does not touch discovery.
	for seq := uint64(2); seq < 30; seq++ {
		if err := cc.Write(1, seq, stamp(seq), 0, true); err != nil {
			t.Fatalf("write during partition: %v", err)
		}
	}
	data, err := cc.Read(1, 5, 1, 0)
	if err != nil {
		t.Fatalf("read during partition: %v", err)
	}
	if err := checkStamp(data, 5); err != nil {
		t.Fatal(err)
	}

	cut.Store(false)
	if err := cc.Refresh(); err != nil {
		t.Fatalf("refresh after heal: %v", err)
	}
}

// TestClusterNonReplayableWriteSurfacesTransportError pins the replay
// gate end to end: when the only target dies mid-flight, a write that
// was NOT declared idempotent must fail with the original transport
// error rather than being silently replayed on reconnect.
func TestClusterNonReplayableWriteSurfacesTransportError(t *testing.T) {
	disc, err := ListenDiscovery("127.0.0.1:0", DiscoveryConfig{
		SweepInterval: 10 * time.Millisecond,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer disc.Close()
	t1 := startTarget(t, disc.Addr(), "nqn.nr.a", []uint32{0})

	cc, err := Dial(Config{
		DiscoveryAddr:     disc.Addr(),
		Conn:              hostqp.Config{Class: proto.PrioThroughputCritical, Window: 4, QueueDepth: 8, NSID: 1},
		RefreshInterval:   20 * time.Millisecond,
		AllowUnreplicated: true, // single target: the point is the replay gate
		Dial: tcptrans.DialConfig{
			RequestTimeout: time.Second,
			Recovery: &tcptrans.RecoveryConfig{
				MaxAttempts: 2, Backoff: 5 * time.Millisecond,
				RequeueLS: true, RequeueTC: true,
			},
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	defer cc.Close()
	if err := cc.Write(1, 0, stamp(1), 0, true); err != nil {
		t.Fatal(err)
	}

	// Saturate the queue with non-idempotent writes and kill the target:
	// at least one must be in flight when the socket dies.
	var wg sync.WaitGroup
	errsCh := make(chan error, 64)
	stop := make(chan struct{})
	wg.Add(1)
	go func() {
		defer wg.Done()
		for seq := uint64(2); ; seq++ {
			select {
			case <-stop:
				return
			default:
			}
			if err := cc.Write(1, seq%64, stamp(seq), 0, false); err != nil {
				errsCh <- err
				return
			}
		}
	}()
	time.Sleep(30 * time.Millisecond)
	t1.kill()
	select {
	case err := <-errsCh:
		if err == nil {
			t.Fatal("nil error surfaced")
		}
	case <-time.After(15 * time.Second):
		t.Fatal("non-replayable write neither failed nor completed")
	}
	close(stop)
	wg.Wait()
}

// TestClusterShardRouting pins the NSID→shard mapping and the no-shard
// dial failure.
func TestClusterShardRouting(t *testing.T) {
	disc, err := ListenDiscovery("127.0.0.1:0", DiscoveryConfig{})
	if err != nil {
		t.Fatal(err)
	}
	defer disc.Close()
	// No members yet: no shards, Dial must refuse.
	if _, err := Dial(Config{DiscoveryAddr: disc.Addr()}); err == nil {
		t.Fatal("dial succeeded against an empty map")
	}
	t1 := startTarget(t, disc.Addr(), "nqn.route.a", []uint32{0, 1, 2})
	defer t1.stop()
	t2 := startTarget(t, disc.Addr(), "nqn.route.b", []uint32{0, 1, 2})
	defer t2.stop()
	cc, err := Dial(Config{
		DiscoveryAddr:   disc.Addr(),
		Conn:            hostqp.Config{Class: proto.PrioLatencySensitive, Window: 1, QueueDepth: 2, NSID: 1},
		RefreshInterval: -1,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer cc.Close()
	if n := cc.NumShards(); n != 3 {
		t.Fatalf("NumShards = %d, want 3", n)
	}
	for _, tc := range []struct {
		nsid uint32
		want int
	}{{1, 0}, {2, 1}, {3, 2}, {4, 0}, {0, 0}} {
		if got := cc.Shard(tc.nsid); got != tc.want {
			t.Errorf("Shard(%d) = %d, want %d", tc.nsid, got, tc.want)
		}
	}
}
