package tcptrans

import (
	"net"
	"reflect"
	"strings"
	"sync"
	"testing"
	"time"

	"nvmeopf/internal/hostqp"
	"nvmeopf/internal/proto"
	"nvmeopf/internal/targetqp"
	"nvmeopf/internal/telemetry"
)

func TestDiscoveryRoundTrip(t *testing.T) {
	disc, err := ListenDiscovery("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer disc.Close()

	srv := startServer(t, targetqp.ModeOPF)
	if err := disc.Register("nqn.2024-01.io.nvmeopf:sub1", srv.Addr(), targetqp.ModeOPF); err != nil {
		t.Fatal(err)
	}
	if err := disc.Register("nqn.2024-01.io.nvmeopf:sub2", "10.0.0.9:4420", targetqp.ModeBaseline); err != nil {
		t.Fatal(err)
	}

	entries, err := discover(disc.Addr())
	if err != nil {
		t.Fatal(err)
	}
	want := disc.Entries()
	if !reflect.DeepEqual(entries, want) {
		t.Fatalf("discovered %+v, want %+v", entries, want)
	}
	if len(entries) != 2 || entries[0].NQN != "nqn.2024-01.io.nvmeopf:sub1" {
		t.Fatalf("entries = %+v", entries)
	}
	if entries[0].Mode != uint8(targetqp.ModeOPF) {
		t.Fatal("mode lost")
	}
}

func TestDiscoveryRegisterValidation(t *testing.T) {
	disc, err := ListenDiscovery("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer disc.Close()
	if err := disc.Register("", "addr:1", targetqp.ModeOPF); err == nil {
		t.Error("empty NQN accepted")
	}
	if err := disc.Register("nqn.x", "", targetqp.ModeOPF); err == nil {
		t.Error("empty address accepted")
	}
}

func TestDiscoveryUnregister(t *testing.T) {
	disc, _ := ListenDiscovery("127.0.0.1:0")
	defer disc.Close()
	_ = disc.Register("nqn.a", "x:1", targetqp.ModeOPF)
	disc.Unregister("nqn.a")
	entries, err := discover(disc.Addr())
	if err != nil {
		t.Fatal(err)
	}
	if len(entries) != 0 {
		t.Fatalf("entries = %+v", entries)
	}
}

func TestDialDiscovered(t *testing.T) {
	disc, _ := ListenDiscovery("127.0.0.1:0")
	defer disc.Close()
	srv := startServer(t, targetqp.ModeOPF)
	_ = disc.Register("nqn.sub", srv.Addr(), targetqp.ModeOPF)

	c, err := DialDiscovered(disc.Addr(), "nqn.sub", hostqp.Config{
		Class: proto.PrioLatencySensitive, Window: 1, QueueDepth: 1, NSID: 1,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	if err := c.Write(0, make([]byte, 4096), 0); err != nil {
		t.Fatal(err)
	}
	if _, err := DialDiscovered(disc.Addr(), "nqn.missing", hostqp.Config{
		Class: proto.PrioLatencySensitive, Window: 1, QueueDepth: 1, NSID: 1,
	}); err == nil {
		t.Fatal("missing NQN resolved")
	}
}

func TestDiscoveryRejectsNonDiscReq(t *testing.T) {
	disc, _ := ListenDiscovery("127.0.0.1:0")
	defer disc.Close()
	conn, err := net.Dial("tcp", disc.Addr())
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Close()
	if err := proto.WritePDU(conn, &proto.ICReq{PFV: 1}); err != nil {
		t.Fatal(err)
	}
	conn.SetReadDeadline(time.Now().Add(5 * time.Second))
	p, err := proto.ReadPDU(conn)
	if err != nil {
		t.Fatal(err)
	}
	if _, ok := p.(*proto.TermReq); !ok {
		t.Fatalf("want TermReq, got %v", p.PDUType())
	}
}

// discover returns a discovery endpoint's log.
func discover(addr string) ([]proto.DiscEntry, error) {
	resp, err := DiscoverCluster(addr, nil)
	if err != nil {
		return nil, err
	}
	return resp.Entries, nil
}

// registerRemote registers a subsystem with no TTL, as opf-target does
// when given -discovery and no keep-alive interval.
func registerRemote(discoveryAddr, nqn, addr string, mode targetqp.Mode) error {
	_, err := RegisterCluster(discoveryAddr, proto.DiscRegister{
		Entry: proto.DiscEntry{NQN: nqn, Addr: addr, Mode: uint8(mode)},
	}, nil)
	return err
}

func TestRegisterRemote(t *testing.T) {
	disc, err := ListenDiscovery("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer disc.Close()
	if err := registerRemote(disc.Addr(), "nqn.remote", "10.1.2.3:4420", targetqp.ModeOPF); err != nil {
		t.Fatal(err)
	}
	entries, err := discover(disc.Addr())
	if err != nil {
		t.Fatal(err)
	}
	if len(entries) != 1 || entries[0].NQN != "nqn.remote" || entries[0].Addr != "10.1.2.3:4420" {
		t.Fatalf("entries = %+v", entries)
	}
	// Re-registration updates in place.
	if err := registerRemote(disc.Addr(), "nqn.remote", "10.1.2.3:9999", targetqp.ModeBaseline); err != nil {
		t.Fatal(err)
	}
	entries, _ = discover(disc.Addr())
	if len(entries) != 1 || entries[0].Addr != "10.1.2.3:9999" {
		t.Fatalf("update failed: %+v", entries)
	}
	// Invalid registrations rejected locally.
	if err := registerRemote(disc.Addr(), "", "x:1", targetqp.ModeOPF); err == nil {
		t.Fatal("empty NQN registered")
	}
}

// fakeClock is an injectable discovery clock tests advance by hand.
type fakeClock struct {
	mu  sync.Mutex
	now time.Time
}

func newFakeClock() *fakeClock { return &fakeClock{now: time.Unix(1000, 0)} }
func (f *fakeClock) Now() time.Time {
	f.mu.Lock()
	defer f.mu.Unlock()
	return f.now
}
func (f *fakeClock) Advance(d time.Duration) {
	f.mu.Lock()
	f.now = f.now.Add(d)
	f.mu.Unlock()
}

// TestDiscoveryTTLExpiryAndKeepAlive pins the liveness contract: a TTL'd
// registration expires once its deadline passes (counted on telemetry),
// and a re-registration inside the TTL refreshes the deadline so the
// member survives past where the original deadline would have killed it.
func TestDiscoveryTTLExpiryAndKeepAlive(t *testing.T) {
	clk := newFakeClock()
	reg := telemetry.New()
	disc, err := ListenDiscoveryCluster("127.0.0.1:0", DiscoveryConfig{
		Telemetry:     reg,
		Clock:         clk.Now,
		SweepInterval: time.Hour, // expiry must work inline, without the sweeper
	})
	if err != nil {
		t.Fatal(err)
	}
	defer disc.Close()

	keep := proto.DiscRegister{
		Entry: proto.DiscEntry{NQN: "nqn.ka", Addr: "h:1", Mode: 1},
		TTLMs: 100,
	}
	if _, err := disc.register(&keep); err != nil {
		t.Fatal(err)
	}
	// 80ms in: still alive; the keep-alive pushes the deadline out.
	clk.Advance(80 * time.Millisecond)
	if _, err := disc.register(&keep); err != nil {
		t.Fatalf("keep-alive rejected: %v", err)
	}
	// 160ms in: past the ORIGINAL deadline — the refresh must have saved it.
	clk.Advance(80 * time.Millisecond)
	if got := disc.Entries(); len(got) != 1 {
		t.Fatalf("member expired despite keep-alive: %+v", got)
	}
	if n := reg.Global().DiscoveryExpired; n != 0 {
		t.Fatalf("spurious expiries: %d", n)
	}
	// 300ms in with no further keep-alive: expired and counted.
	clk.Advance(140 * time.Millisecond)
	if got := disc.Entries(); len(got) != 0 {
		t.Fatalf("member outlived its TTL: %+v", got)
	}
	if n := reg.Global().DiscoveryExpired; n != 1 {
		t.Fatalf("expired counter = %d, want 1", n)
	}
	// A TTL-less registration never expires.
	if _, err := disc.register(&proto.DiscRegister{
		Entry: proto.DiscEntry{NQN: "nqn.forever", Addr: "h:2", Mode: 1},
	}); err != nil {
		t.Fatal(err)
	}
	clk.Advance(24 * time.Hour)
	if got := disc.Entries(); len(got) != 1 || got[0].NQN != "nqn.forever" {
		t.Fatalf("TTL-less member expired: %+v", got)
	}
}

// TestDiscoveryPromotionAndZombieFence drives the control plane through a
// failover: primary expires, the replica is promoted (epoch bumps), and
// the dead ex-primary's re-registration carrying its stale epoch is
// rejected until it re-discovers the current map.
func TestDiscoveryPromotionAndZombieFence(t *testing.T) {
	clk := newFakeClock()
	reg := telemetry.New()
	disc, err := ListenDiscoveryCluster("127.0.0.1:0", DiscoveryConfig{
		Telemetry: reg, Clock: clk.Now, SweepInterval: time.Hour,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer disc.Close()

	resp, err := disc.register(&proto.DiscRegister{
		Entry: proto.DiscEntry{NQN: "nqn.a", Addr: "h:1", Mode: 1},
		TTLMs: 100, Shards: []uint32{0},
	})
	if err != nil {
		t.Fatal(err)
	}
	primaryEpoch := resp.Epoch
	if _, err := disc.register(&proto.DiscRegister{
		Entry: proto.DiscEntry{NQN: "nqn.b", Addr: "h:2", Mode: 1},
		TTLMs: 100, Shards: []uint32{0},
	}); err != nil {
		t.Fatal(err)
	}
	as := disc.Assignments()
	if len(as) != 1 || as[0].Primary != "nqn.a" || as[0].Replica != "nqn.b" {
		t.Fatalf("assignments = %+v", as)
	}

	// nqn.a goes silent; nqn.b keeps its heart beating.
	clk.Advance(80 * time.Millisecond)
	if _, err := disc.register(&proto.DiscRegister{
		Entry: proto.DiscEntry{NQN: "nqn.b", Addr: "h:2", Mode: 1},
		TTLMs: 100, Shards: []uint32{0},
	}); err != nil {
		t.Fatal(err)
	}
	clk.Advance(80 * time.Millisecond) // nqn.a past its deadline
	as = disc.Assignments()
	if len(as) != 1 || as[0].Primary != "nqn.b" || as[0].Replica != "" {
		t.Fatalf("replica not promoted: %+v", as)
	}
	cur := disc.Epoch()
	if cur <= primaryEpoch {
		t.Fatalf("epoch did not advance across failover: %d <= %d", cur, primaryEpoch)
	}

	// The zombie rejoins acting on the map it saw before it died: fenced.
	_, err = disc.register(&proto.DiscRegister{
		Entry: proto.DiscEntry{NQN: "nqn.a", Addr: "h:1", Mode: 1},
		TTLMs: 100, Epoch: primaryEpoch, Shards: []uint32{0},
	})
	if err == nil || !strings.Contains(err.Error(), "stale epoch") {
		t.Fatalf("stale rejoin not fenced: %v", err)
	}
	if n := reg.Global().StaleEpochs; n != 1 {
		t.Fatalf("stale-epoch counter = %d, want 1", n)
	}
	// After re-discovering the current epoch it may rejoin — as standby,
	// then replica (the promoted primary keeps its role).
	if _, err := disc.register(&proto.DiscRegister{
		Entry: proto.DiscEntry{NQN: "nqn.a", Addr: "h:1", Mode: 1},
		TTLMs: 100, Epoch: cur, Shards: []uint32{0},
	}); err != nil {
		t.Fatalf("fresh-epoch rejoin rejected: %v", err)
	}
	as = disc.Assignments()
	if len(as) != 1 || as[0].Primary != "nqn.b" || as[0].Replica != "nqn.a" {
		t.Fatalf("rejoined zombie stole a role: %+v", as)
	}
}

// TestDialDiscoveredEmptyAndStaleLog exercises resolution failure modes:
// an empty log, and a stale entry whose target is gone (the dial itself
// must fail, not hang).
func TestDialDiscoveredEmptyAndStaleLog(t *testing.T) {
	disc, _ := ListenDiscovery("127.0.0.1:0")
	defer disc.Close()
	cfg := hostqp.Config{Class: proto.PrioLatencySensitive, Window: 1, QueueDepth: 1, NSID: 1}
	if _, err := DialDiscovered(disc.Addr(), "nqn.any", cfg); err == nil {
		t.Fatal("resolved against an empty log")
	}
	// Stale entry: the registered target closed its listener.
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	dead := ln.Addr().String()
	ln.Close()
	_ = disc.Register("nqn.stale", dead, targetqp.ModeOPF)
	if _, err := DialDiscovered(disc.Addr(), "nqn.stale", cfg); err == nil {
		t.Fatal("dial against a dead target succeeded")
	}
}

// TestDiscoverMidResponseReset points Discover at an endpoint that resets
// the connection partway through its response: the client must surface an
// error, not hang or panic.
func TestDiscoverMidResponseReset(t *testing.T) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer ln.Close()
	go func() {
		conn, err := ln.Accept()
		if err != nil {
			return
		}
		if _, err := proto.ReadPDU(conn); err != nil {
			conn.Close()
			return
		}
		full := proto.Marshal(&proto.DiscResp{Entries: []proto.DiscEntry{
			{NQN: "nqn.cut", Addr: "h:1", Mode: 1},
		}})
		conn.Write(full[:len(full)/2]) // half a PDU, then a hard close
		if tc, ok := conn.(*net.TCPConn); ok {
			tc.SetLinger(0) // RST, not FIN
		}
		conn.Close()
	}()
	if _, err := discover(ln.Addr().String()); err == nil {
		t.Fatal("mid-response reset went unnoticed")
	}
}
