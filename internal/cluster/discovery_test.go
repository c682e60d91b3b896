package cluster

import (
	"bufio"
	"errors"
	"net"
	"net/http"
	"reflect"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"nvmeopf/internal/telemetry"
)

// fakeClock is an injectable control-plane clock tests advance by hand.
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

func listenDiscovery(t *testing.T, cfg DiscoveryConfig) *DiscoveryServer {
	t.Helper()
	d, err := ListenDiscovery("127.0.0.1:0", cfg)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { d.Close() })
	return d
}

// TestDiscoveryRoundTrip registers two targets over the wire and reads the
// map back: GET /cluster must return what the server holds, members sorted
// by NQN with their TTL and shards, and shard roles in join order.
func TestDiscoveryRoundTrip(t *testing.T) {
	d := listenDiscovery(t, DiscoveryConfig{})
	e := newEndpoint(d.Addr(), nil)
	for _, r := range []Registration{
		{NQN: "nqn.2024-01.io.nvmeopf:sub2", Addr: "10.0.0.9:4420", Mode: 0, TTLMs: 60_000, Shards: []uint32{0}},
		{NQN: "nqn.2024-01.io.nvmeopf:sub1", Addr: "10.0.0.1:4420", Mode: 1, TTLMs: 60_000, Shards: []uint32{0, 1}},
	} {
		m, err := e.register(r)
		if err != nil {
			t.Fatal(err)
		}
		if m.Members[len(m.Members)-1].NQN != "nqn.2024-01.io.nvmeopf:sub2" {
			t.Fatalf("members not sorted by NQN: %+v", m.Members)
		}
	}
	got, err := e.discover()
	if err != nil {
		t.Fatal(err)
	}
	if want := d.snapshot(); got.Epoch != want.Epoch || !reflect.DeepEqual(got.Assignments, want.Assignments) || len(got.Members) != len(want.Members) {
		t.Fatalf("discovered %+v, server holds %+v", got, want)
	}
	if got.Epoch != 2 || len(got.Members) != 2 {
		t.Fatalf("map = %+v", got)
	}
	m0 := got.Members[0]
	if m0.NQN != "nqn.2024-01.io.nvmeopf:sub1" || m0.Addr != "10.0.0.1:4420" || m0.Mode != 1 ||
		m0.TTLMs != 60_000 || m0.ExpiresInMs <= 0 || !reflect.DeepEqual(m0.Shards, []uint32{0, 1}) {
		t.Fatalf("member = %+v", m0)
	}
	// sub2 joined first and keeps shard 0's primary role.
	want := []ShardAssignment{
		{Shard: 0, Primary: "nqn.2024-01.io.nvmeopf:sub2", Replica: "nqn.2024-01.io.nvmeopf:sub1"},
		{Shard: 1, Primary: "nqn.2024-01.io.nvmeopf:sub1"},
	}
	if !reflect.DeepEqual(got.Assignments, want) || !got.Degraded {
		t.Fatalf("assignments %+v degraded=%v, want %+v degraded", got.Assignments, got.Degraded, want)
	}
}

// TestRegisterRemote: a target registered over HTTP is discoverable at
// the address and mode it gave; a re-registration with a new address and
// mode updates the same member in place and bumps the epoch once, while
// an unchanged keep-alive leaves the epoch alone; and an invalid
// registration is refused before it reaches the map.
func TestRegisterRemote(t *testing.T) {
	d := listenDiscovery(t, DiscoveryConfig{})
	e := newEndpoint(d.Addr(), nil)
	if _, err := e.register(Registration{NQN: "nqn.remote", Addr: "10.1.2.3:4420", Mode: 1, TTLMs: 60_000}); err != nil {
		t.Fatal(err)
	}
	m, err := e.discover()
	if err != nil {
		t.Fatal(err)
	}
	if len(m.Members) != 1 || m.Members[0].NQN != "nqn.remote" || m.Members[0].Addr != "10.1.2.3:4420" || m.Members[0].Mode != 1 {
		t.Fatalf("members = %+v", m.Members)
	}
	epoch := m.Epoch
	// Re-registration updates in place: same member, new address and mode.
	moved := Registration{NQN: "nqn.remote", Addr: "10.1.2.3:9999", Mode: 0, TTLMs: 60_000}
	if _, err := e.register(moved); err != nil {
		t.Fatal(err)
	}
	if m, err = e.discover(); err != nil {
		t.Fatal(err)
	}
	if len(m.Members) != 1 || m.Members[0].Addr != "10.1.2.3:9999" || m.Members[0].Mode != 0 || m.Epoch != epoch+1 {
		t.Fatalf("update failed: epoch %d (was %d), members %+v", m.Epoch, epoch, m.Members)
	}
	if m, err = e.register(moved); err != nil || m.Epoch != epoch+1 {
		t.Fatalf("unchanged keep-alive: map %+v, err %v; want epoch %d", m, err, epoch+1)
	}
	if _, err := e.register(Registration{NQN: "", Addr: "x:1", TTLMs: 60_000}); err == nil {
		t.Fatal("empty NQN registered")
	}
	if m := d.snapshot(); len(m.Members) != 1 {
		t.Fatalf("a refused registration reached the map: %+v", m.Members)
	}
}

// TestDiscEntryValidate pins the field bounds a registration is held to
// before the server looks at it: an NQN of 1..223 bytes, an address of
// 1..255 bytes, a positive TTL and shard claims below the map's bound.
func TestDiscEntryValidate(t *testing.T) {
	for _, good := range []Registration{
		{NQN: "nqn.x", Addr: "h:1", TTLMs: 1},
		{NQN: strings.Repeat("n", 223), Addr: strings.Repeat("a", 255), TTLMs: 100, Shards: []uint32{0, maxShards - 1}},
	} {
		if err := good.validate(); err != nil {
			t.Errorf("registration %.60q accepted as %v", good.NQN, err)
		}
	}
	for i, bad := range []Registration{
		{NQN: "", Addr: "h:1", TTLMs: 100},
		{NQN: strings.Repeat("n", 224), Addr: "h:1", TTLMs: 100},
		{NQN: "nqn.x", Addr: "", TTLMs: 100},
		{NQN: "nqn.x", Addr: strings.Repeat("a", 256), TTLMs: 100},
		{NQN: "nqn.x", Addr: "h:1", TTLMs: 0},
		{NQN: "nqn.x", Addr: "h:1", TTLMs: -1},
		{NQN: "nqn.x", Addr: "h:1", TTLMs: 100, Shards: []uint32{maxShards}},
	} {
		if err := bad.validate(); err == nil {
			t.Errorf("bad registration %d accepted: %.60q", i, bad.NQN)
		}
	}
}

// TestDiscoveryRegisterValidation: the control plane refuses over the
// wire, with 400 and not as a stale epoch, a registration without a name
// or address, one that would never expire and a shard claim past the
// map's bound; nothing refused reaches the map.
func TestDiscoveryRegisterValidation(t *testing.T) {
	d := listenDiscovery(t, DiscoveryConfig{})
	e := newEndpoint(d.Addr(), nil)
	for _, r := range []Registration{
		{NQN: "", Addr: "h:1", TTLMs: 100},
		{NQN: strings.Repeat("n", 224), Addr: "h:1", TTLMs: 100},
		{NQN: "nqn.x", Addr: "", TTLMs: 100},
		{NQN: "nqn.x", Addr: strings.Repeat("a", 256), TTLMs: 100},
		{NQN: "nqn.x", Addr: "h:1", TTLMs: 0},
		{NQN: "nqn.x", Addr: "h:1", TTLMs: -1},
		{NQN: "nqn.x", Addr: "h:1", TTLMs: 100, Shards: []uint32{maxShards}},
	} {
		_, err := e.register(r)
		if err == nil || !strings.Contains(err.Error(), "400") || errors.Is(err, ErrStaleEpoch) {
			t.Errorf("registration %.60q: err = %v, want a 400", r.NQN, err)
		}
	}
	if m := d.snapshot(); len(m.Members) != 0 || m.Epoch != 0 {
		t.Fatalf("a refused registration reached the map: %+v", m)
	}
}

// TestDiscoveryRejectsNonDiscReq: the control plane answers anything that
// is not a registration or a map read with an error status — 400 for a
// truncated, mistyped or oversized POST body, 405 for the wrong method on
// either route — and nothing it refused reaches the map.
func TestDiscoveryRejectsNonDiscReq(t *testing.T) {
	d := listenDiscovery(t, DiscoveryConfig{})
	e := newEndpoint(d.Addr(), nil)
	base := "http://" + d.Addr()
	for _, tc := range []struct {
		method, path, body string
		want               int
	}{
		{"POST", "/register", `{"nqn": "nqn.x", "addr": `, http.StatusBadRequest},
		{"POST", "/register", `[1, 2, 3]`, http.StatusBadRequest},
		{"POST", "/register", `{"nqn": "` + strings.Repeat("x", maxBodyBytes) + `"}`, http.StatusBadRequest},
		{"GET", "/register", "", http.StatusMethodNotAllowed},
		{"POST", "/cluster", `{}`, http.StatusMethodNotAllowed},
	} {
		req, err := http.NewRequest(tc.method, base+tc.path, strings.NewReader(tc.body))
		if err != nil {
			t.Fatal(err)
		}
		resp, err := e.hc.Do(req)
		if err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
		if resp.StatusCode != tc.want {
			t.Errorf("%s %s %.40q: %s, want %d", tc.method, tc.path, tc.body, resp.Status, tc.want)
		}
	}
	if m := d.snapshot(); len(m.Members) != 0 || m.Epoch != 0 {
		t.Fatalf("a refused request reached the map: %+v", m)
	}
}

// TestDiscoveryTTLExpiryAndKeepAlive pins the liveness contract: a
// registration expires once its deadline passes (counted on telemetry),
// and a re-registration inside the TTL refreshes the deadline so the
// member survives past where the original deadline would have killed it.
func TestDiscoveryTTLExpiryAndKeepAlive(t *testing.T) {
	clk := newFakeClock()
	reg := telemetry.New()
	d := listenDiscovery(t, DiscoveryConfig{
		Telemetry:     reg,
		Clock:         clk.Now,
		SweepInterval: time.Hour, // expiry must work inline, without the sweeper
	})
	keep := Registration{NQN: "nqn.ka", Addr: "h:1", Mode: 1, TTLMs: 100}
	if _, err := d.register(keep); err != nil {
		t.Fatal(err)
	}
	// 80ms in: still alive; the keep-alive pushes the deadline out.
	clk.Advance(80 * time.Millisecond)
	if _, err := d.register(keep); err != nil {
		t.Fatalf("keep-alive rejected: %v", err)
	}
	// 160ms in: past the ORIGINAL deadline — the refresh must have saved it.
	clk.Advance(80 * time.Millisecond)
	if got := d.snapshot().Members; len(got) != 1 || got[0].ExpiresInMs != 20 {
		t.Fatalf("member expired despite keep-alive: %+v", got)
	}
	if n := reg.Global().DiscoveryExpired; n != 0 {
		t.Fatalf("spurious expiries: %d", n)
	}
	// 300ms in with no further keep-alive: expired and counted.
	clk.Advance(140 * time.Millisecond)
	if got := d.snapshot().Members; len(got) != 0 {
		t.Fatalf("member outlived its TTL: %+v", got)
	}
	if n := reg.Global().DiscoveryExpired; n != 1 {
		t.Fatalf("expired counter = %d, want 1", n)
	}
}

// TestDiscoveryPromotionAndZombieFence drives the control plane through a
// failover over the wire: the primary expires, the replica is promoted
// (epoch bumps), and the dead ex-primary's registration carrying its
// stale epoch is answered 409 — ErrStaleEpoch to the caller — until it
// re-discovers the current map.
func TestDiscoveryPromotionAndZombieFence(t *testing.T) {
	clk := newFakeClock()
	reg := telemetry.New()
	d := listenDiscovery(t, DiscoveryConfig{Telemetry: reg, Clock: clk.Now, SweepInterval: time.Hour})
	e := newEndpoint(d.Addr(), nil)
	a := Registration{NQN: "nqn.a", Addr: "h:1", Mode: 1, TTLMs: 100, Shards: []uint32{0}}
	b := Registration{NQN: "nqn.b", Addr: "h:2", Mode: 1, TTLMs: 100, Shards: []uint32{0}}

	m, err := e.register(a)
	if err != nil {
		t.Fatal(err)
	}
	primaryEpoch := m.Epoch
	if m, err = e.register(b); err != nil {
		t.Fatal(err)
	}
	if as := m.Assignments; len(as) != 1 || as[0].Primary != "nqn.a" || as[0].Replica != "nqn.b" || m.Degraded {
		t.Fatalf("map = %+v", m)
	}

	// nqn.a goes silent; nqn.b keeps its heart beating.
	clk.Advance(80 * time.Millisecond)
	if _, err := e.register(b); err != nil {
		t.Fatal(err)
	}
	clk.Advance(80 * time.Millisecond) // nqn.a past its deadline
	m, err = e.discover()
	if err != nil {
		t.Fatal(err)
	}
	if as := m.Assignments; len(as) != 1 || as[0].Primary != "nqn.b" || as[0].Replica != "" || !m.Degraded {
		t.Fatalf("replica not promoted: %+v", m)
	}
	cur := m.Epoch
	if cur <= primaryEpoch {
		t.Fatalf("epoch did not advance across failover: %d <= %d", cur, primaryEpoch)
	}

	// The zombie rejoins acting on the map it saw before it died: fenced.
	a.Epoch = primaryEpoch
	if _, err := e.register(a); !errors.Is(err, ErrStaleEpoch) || !strings.Contains(err.Error(), "409") {
		t.Fatalf("stale rejoin not fenced with a 409: %v", err)
	}
	if n := reg.Global().StaleEpochs; n != 1 {
		t.Fatalf("stale-epoch counter = %d, want 1", n)
	}
	// After re-discovering the current epoch it may rejoin — as replica
	// (the promoted primary keeps its role).
	a.Epoch = cur
	if m, err = e.register(a); err != nil {
		t.Fatalf("fresh-epoch rejoin rejected: %v", err)
	}
	if as := m.Assignments; len(as) != 1 || as[0].Primary != "nqn.b" || as[0].Replica != "nqn.a" {
		t.Fatalf("rejoined zombie stole a role: %+v", as)
	}
}

// TestDiscoverMidResponseReset points a client at an endpoint that resets
// the connection partway through its response: the client must surface
// an error, not hang or panic.
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
		if _, err := http.ReadRequest(bufio.NewReader(conn)); err != nil {
			conn.Close()
			return
		}
		body := `{"epoch": 3, "members": [{"nqn": "nqn.cut", "addr": "h:1"}], "assignments": []}`
		conn.Write([]byte("HTTP/1.1 200 OK\r\nContent-Type: application/json\r\nContent-Length: 80\r\n\r\n" + body[:len(body)/2]))
		if tc, ok := conn.(*net.TCPConn); ok {
			tc.SetLinger(0) // RST, not FIN
		}
		conn.Close()
	}()
	if m, err := newEndpoint(ln.Addr().String(), nil).discover(); err == nil {
		t.Fatalf("mid-response reset went unnoticed: %+v", m)
	}
}

func TestDiscoverUnreachable(t *testing.T) {
	if _, err := newEndpoint("127.0.0.1:1", nil).discover(); err == nil {
		t.Fatal("unreachable discovery succeeded")
	}
}

// TestClusterRegistrarRejoinsAsReplica drives Registrar.loop's stale-epoch
// path end to end: a primary's registrar is partitioned from the control
// plane until its registration expires and its replica is promoted. When
// the partition heals, its first keep-alive carries the old epoch and is
// answered 409; the registrar must re-discover and rejoin — as replica,
// never as primary.
func TestClusterRegistrarRejoinsAsReplica(t *testing.T) {
	reg := telemetry.New()
	d := listenDiscovery(t, DiscoveryConfig{Telemetry: reg, SweepInterval: 5 * time.Millisecond})
	var cut atomic.Bool
	partitioned := func(network, addr string) (net.Conn, error) {
		if cut.Load() {
			return nil, errors.New("discovery_test: injected target<->discovery partition")
		}
		return net.Dial(network, addr)
	}
	start := func(nqn string, dial Dialer) *Registrar {
		r, err := StartRegistrar(RegistrarConfig{
			DiscoveryAddr: d.Addr(), NQN: nqn, Addr: nqn + ":4420", Mode: 1,
			Shards: []uint32{0}, Interval: 25 * time.Millisecond, TTL: 150 * time.Millisecond,
			Dialer: dial,
		})
		if err != nil {
			t.Fatal(err)
		}
		t.Cleanup(r.Stop)
		return r
	}
	start("nqn.rejoin.a", partitioned)
	start("nqn.rejoin.b", nil)
	roles := func() ShardAssignment {
		if as := d.snapshot().Assignments; len(as) == 1 {
			return as[0]
		}
		return ShardAssignment{}
	}
	waitFor(t, "a primary, b replica", func() bool {
		a := roles()
		return a.Primary == "nqn.rejoin.a" && a.Replica == "nqn.rejoin.b"
	})

	cut.Store(true)
	waitFor(t, "a expired, b promoted", func() bool {
		a := roles()
		return a.Primary == "nqn.rejoin.b" && a.Replica == ""
	})
	if n := reg.Global().StaleEpochs; n != 0 {
		t.Fatalf("stale epochs before the heal: %d", n)
	}

	cut.Store(false)
	waitFor(t, "a rejoined", func() bool { return roles().Replica == "nqn.rejoin.a" })
	if a := roles(); a.Primary != "nqn.rejoin.b" {
		t.Fatalf("rejoin moved the primary: %+v", a)
	}
	if n := reg.Global().StaleEpochs; n != 1 {
		t.Fatalf("stale-epoch rejections = %d, want exactly the one 409 before the rejoin", n)
	}
}

// TestRegistrarJoinsAPlaneThatStartsLater starts a target's registrar
// before its control plane listens: the first registration is refused a
// connection, and the keep-alive loop must register the target once the
// plane is up. A plane that answers and refuses the entry (an invalid
// NQN) still fails StartRegistrar at once.
func TestRegistrarJoinsAPlaneThatStartsLater(t *testing.T) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	addr := ln.Addr().String()
	ln.Close() // nothing listens here until the plane starts below
	r, err := StartRegistrar(RegistrarConfig{
		DiscoveryAddr: addr, NQN: "nqn.late.a", Addr: "nqn.late.a:4420", Mode: 1,
		Shards: []uint32{0}, Interval: 20 * time.Millisecond,
	})
	if err != nil {
		t.Fatalf("registrar gave up on a plane that is not up yet: %v", err)
	}
	t.Cleanup(r.Stop)
	time.Sleep(50 * time.Millisecond) // a few keep-alives find nobody
	d, err := ListenDiscovery(addr, DiscoveryConfig{})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { d.Close() })
	waitFor(t, "the late plane to list the target", func() bool {
		m := d.snapshot()
		return len(m.Members) == 1 && m.Members[0].NQN == "nqn.late.a"
	})

	start := time.Now()
	if _, err := StartRegistrar(RegistrarConfig{DiscoveryAddr: addr, NQN: "", Addr: "x:4420"}); err == nil {
		t.Fatal("registrar started with an empty NQN")
	} else if !strings.Contains(err.Error(), "400") {
		t.Fatalf("refusal = %v, want the plane's 400", err)
	}
	if el := time.Since(start); el > time.Second {
		t.Fatalf("refusal took %v, want fail-fast", el)
	}
}
