package tcptrans

import (
	"encoding/json"
	"errors"
	"fmt"
	"net"
	"net/http"
	"sort"
	"sync"
	"time"

	"nvmeopf/internal/proto"
	"nvmeopf/internal/targetqp"
	"nvmeopf/internal/telemetry"
)

// DiscoveryServer is the dialect's discovery controller grown into a
// health-tracking control plane: a well-known endpoint that answers
// "which NVMe-oPF subsystems exist and where?", tracks member liveness
// through TTL'd keep-alive registrations, and maintains the cluster map —
// shard → primary/replica assignments under a monotonic epoch. Targets
// register themselves (and re-register within their TTL to stay alive);
// hosts call Discover / DiscoverCluster.
//
// Epoch semantics: the epoch increments on every membership or role
// change (join, expiry, promotion). Keep-alives of live members refresh
// the deadline without an epoch check — the epoch fences *rejoins*, not
// heartbeats: a member that expired (or a newcomer) presenting a nonzero
// epoch older than the current map is a zombie acting on stale state and
// is rejected, so a partitioned ex-primary cannot reclaim its role after
// its replica was promoted.
type DiscoveryServer struct {
	ln     net.Listener
	cfg    DiscoveryConfig
	mu     sync.Mutex
	log    map[string]*member // NQN -> member
	epoch  uint64
	assign []proto.ShardAssignment // indexed by shard
	quit   chan struct{}
	wg     sync.WaitGroup
	closed bool
}

// member is one registered subsystem plus its liveness contract.
type member struct {
	entry    proto.DiscEntry
	deadline time.Time // zero = never expires (legacy registration)
	ttl      time.Duration
	shards   []uint32
}

// DiscoveryConfig tunes the control plane. The zero value is a plain
// discovery log: no shard map beyond what registrants claim, 25ms TTL
// sweep, no telemetry.
type DiscoveryConfig struct {
	// MinShards pre-sizes the shard map. The map also grows on demand to
	// cover the highest shard any member claims.
	MinShards int
	// SweepInterval is the TTL-expiry sweep cadence (default 25ms).
	// Expiry is also evaluated inline on every request, so the sweeper
	// only bounds how stale the map can get while the plane is idle.
	SweepInterval time.Duration
	// Telemetry, when set, receives expiry and stale-epoch counters and
	// the cluster epoch/degraded gauges.
	Telemetry *telemetry.Registry
	// Clock replaces time.Now for tests.
	Clock func() time.Time
}

func (c DiscoveryConfig) withDefaults() DiscoveryConfig {
	if c.SweepInterval <= 0 {
		c.SweepInterval = 25 * time.Millisecond
	}
	if c.Clock == nil {
		c.Clock = time.Now
	}
	return c
}

// ListenDiscovery starts a discovery endpoint on addr with default
// control-plane behaviour.
func ListenDiscovery(addr string) (*DiscoveryServer, error) {
	return ListenDiscoveryCluster(addr, DiscoveryConfig{})
}

// ListenDiscoveryCluster starts a discovery endpoint with explicit
// control-plane configuration.
func ListenDiscoveryCluster(addr string, cfg DiscoveryConfig) (*DiscoveryServer, error) {
	ln, err := net.Listen("tcp", addr)
	if err != nil {
		return nil, err
	}
	cfg = cfg.withDefaults()
	d := &DiscoveryServer{
		ln:   ln,
		cfg:  cfg,
		log:  make(map[string]*member),
		quit: make(chan struct{}),
	}
	d.growLocked(cfg.MinShards)
	d.wg.Add(1)
	go func() {
		defer d.wg.Done()
		for {
			conn, err := ln.Accept()
			if err != nil {
				return
			}
			d.wg.Add(1)
			go func() {
				defer d.wg.Done()
				d.serve(conn)
			}()
		}
	}()
	d.wg.Add(1)
	go d.sweep()
	return d, nil
}

// sweep expires overdue members even when no requests arrive.
func (d *DiscoveryServer) sweep() {
	defer d.wg.Done()
	t := time.NewTicker(d.cfg.SweepInterval)
	defer t.Stop()
	for {
		select {
		case <-d.quit:
			return
		case <-t.C:
			d.mu.Lock()
			d.expireLocked()
			d.mu.Unlock()
		}
	}
}

// Addr returns the bound address.
func (d *DiscoveryServer) Addr() string { return d.ln.Addr().String() }

// Epoch returns the current cluster-map epoch.
func (d *DiscoveryServer) Epoch() uint64 {
	d.mu.Lock()
	defer d.mu.Unlock()
	d.expireLocked()
	return d.epoch
}

// Register adds (or updates) one subsystem in the discovery log with no
// expiry (the legacy in-process path).
func (d *DiscoveryServer) Register(nqn, addr string, mode targetqp.Mode) error {
	_, err := d.register(&proto.DiscRegister{
		Entry: proto.DiscEntry{NQN: nqn, Addr: addr, Mode: uint8(mode)},
	})
	return err
}

// Unregister removes a subsystem (a clean goodbye: roles it held are
// reassigned immediately).
func (d *DiscoveryServer) Unregister(nqn string) {
	d.mu.Lock()
	defer d.mu.Unlock()
	if _, ok := d.log[nqn]; !ok {
		return
	}
	delete(d.log, nqn)
	d.rebuildLocked()
	d.bumpLocked()
}

// Entries snapshots the live log, sorted by NQN.
func (d *DiscoveryServer) Entries() []proto.DiscEntry {
	d.mu.Lock()
	defer d.mu.Unlock()
	d.expireLocked()
	out := make([]proto.DiscEntry, 0, len(d.log))
	for _, m := range d.log {
		out = append(out, m.entry)
	}
	sort.Slice(out, func(i, j int) bool { return out[i].NQN < out[j].NQN })
	return out
}

// Assignments snapshots the shard map.
func (d *DiscoveryServer) Assignments() []proto.ShardAssignment {
	d.mu.Lock()
	defer d.mu.Unlock()
	d.expireLocked()
	out := make([]proto.ShardAssignment, len(d.assign))
	copy(out, d.assign)
	return out
}

// respLocked builds the full cluster response.
func (d *DiscoveryServer) respLocked() *proto.DiscResp {
	resp := &proto.DiscResp{Epoch: d.epoch}
	for _, m := range d.log {
		resp.Entries = append(resp.Entries, m.entry)
	}
	sort.Slice(resp.Entries, func(i, j int) bool { return resp.Entries[i].NQN < resp.Entries[j].NQN })
	resp.Assignments = append(resp.Assignments, d.assign...)
	return resp
}

// expireLocked drops members past their deadline and reassigns their
// roles. Each expiry is one membership change: counted, map rebuilt,
// epoch bumped.
func (d *DiscoveryServer) expireLocked() {
	now := d.cfg.Clock()
	expired := false
	for nqn, m := range d.log {
		if m.deadline.IsZero() || now.Before(m.deadline) {
			continue
		}
		delete(d.log, nqn)
		expired = true
		if d.cfg.Telemetry != nil {
			d.cfg.Telemetry.IncDiscoveryExpired()
		}
	}
	if expired {
		d.rebuildLocked()
		d.bumpLocked()
	}
}

// bumpLocked advances the epoch and mirrors it to telemetry.
func (d *DiscoveryServer) bumpLocked() {
	d.epoch++
	if d.cfg.Telemetry != nil {
		d.cfg.Telemetry.SetClusterEpoch(d.epoch)
		degraded := false
		for _, a := range d.assign {
			if a.Primary == "" || a.Replica == "" {
				degraded = true
				break
			}
		}
		d.cfg.Telemetry.SetClusterDegraded(degraded)
	}
}

// growLocked widens the shard map to at least n shards.
func (d *DiscoveryServer) growLocked(n int) {
	for len(d.assign) < n {
		d.assign = append(d.assign, proto.ShardAssignment{Shard: uint32(len(d.assign))})
	}
}

// claims reports whether the live member claims the shard.
func (m *member) claims(shard uint32) bool {
	for _, s := range m.shards {
		if s == shard {
			return true
		}
	}
	return false
}

// rebuildLocked recomputes the shard map from live membership, keeping
// existing role holders in place (stability), promoting replicas into
// vacant primaries, and filling vacancies from standbys in NQN order
// (determinism).
func (d *DiscoveryServer) rebuildLocked() {
	names := make([]string, 0, len(d.log))
	for nqn := range d.log {
		names = append(names, nqn)
	}
	sort.Strings(names)
	holds := func(nqn string, shard uint32) bool {
		m, ok := d.log[nqn]
		return ok && m.claims(shard)
	}
	for i := range d.assign {
		a := &d.assign[i]
		if a.Primary != "" && !holds(a.Primary, a.Shard) {
			a.Primary = ""
		}
		if a.Replica != "" && !holds(a.Replica, a.Shard) {
			a.Replica = ""
		}
		if a.Primary == "" && a.Replica != "" {
			// Failover: the replica is promoted.
			a.Primary, a.Replica = a.Replica, ""
		}
		pick := func(exclude string) string {
			for _, nqn := range names {
				if nqn != exclude && nqn != a.Primary && nqn != a.Replica && holds(nqn, a.Shard) {
					return nqn
				}
			}
			return ""
		}
		if a.Primary == "" {
			a.Primary = pick("")
		}
		if a.Replica == "" {
			a.Replica = pick(a.Primary)
		}
	}
}

// register applies one DiscRegister (local or remote) and returns the
// resulting cluster map, or an error when the registration is rejected.
func (d *DiscoveryServer) register(p *proto.DiscRegister) (*proto.DiscResp, error) {
	if err := p.Entry.Validate(); err != nil {
		return nil, err
	}
	d.mu.Lock()
	defer d.mu.Unlock()
	d.expireLocked()
	now := d.cfg.Clock()
	var deadline time.Time
	ttl := time.Duration(p.TTLMs) * time.Millisecond
	if ttl > 0 {
		deadline = now.Add(ttl)
	}
	for _, s := range p.Shards {
		d.growLocked(int(s) + 1)
	}
	if m, live := d.log[p.Entry.NQN]; live {
		// Keep-alive: refresh the deadline. No epoch check — liveness
		// renewal is not a rejoin. Role changes only if the claims moved.
		changed := m.entry != p.Entry || !equalShards(m.shards, p.Shards)
		m.entry = p.Entry
		m.shards = p.Shards
		m.deadline = deadline
		m.ttl = ttl
		if changed {
			d.rebuildLocked()
			d.bumpLocked()
		}
		return d.respLocked(), nil
	}
	// New member or an expired one coming back: fence stale epochs so a
	// partitioned ex-primary cannot rejoin believing an old map.
	if p.Epoch != 0 && p.Epoch < d.epoch {
		if d.cfg.Telemetry != nil {
			d.cfg.Telemetry.IncStaleEpoch()
		}
		return nil, fmt.Errorf("stale epoch %d < %d: re-discover before rejoining", p.Epoch, d.epoch)
	}
	d.log[p.Entry.NQN] = &member{entry: p.Entry, deadline: deadline, ttl: ttl, shards: p.Shards}
	d.rebuildLocked()
	d.bumpLocked()
	return d.respLocked(), nil
}

func equalShards(a, b []uint32) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}

// serve answers one discovery request (or registration) per connection.
func (d *DiscoveryServer) serve(conn net.Conn) {
	defer conn.Close()
	conn.SetDeadline(time.Now().Add(10 * time.Second))
	p, err := proto.ReadPDU(conn)
	if err != nil {
		return
	}
	switch pdu := p.(type) {
	case *proto.DiscReq:
		d.mu.Lock()
		d.expireLocked()
		resp := d.respLocked()
		d.mu.Unlock()
		_ = proto.WritePDU(conn, resp)
	case *proto.DiscRegister:
		resp, err := d.register(pdu)
		if err != nil {
			_ = proto.WritePDU(conn, &proto.TermReq{
				Dir: proto.TypeC2HTermReq, FES: 4, Reason: err.Error(),
			})
			return
		}
		_ = proto.WritePDU(conn, resp)
	default:
		_ = proto.WritePDU(conn, &proto.TermReq{
			Dir: proto.TypeC2HTermReq, FES: 3, Reason: "expected DiscReq or DiscRegister",
		})
	}
}

// Close shuts down the endpoint.
func (d *DiscoveryServer) Close() error {
	d.mu.Lock()
	if d.closed {
		d.mu.Unlock()
		return nil
	}
	d.closed = true
	d.mu.Unlock()
	err := d.ln.Close()
	close(d.quit)
	d.wg.Wait()
	return err
}

// clusterMemberJSON is one member row on /debug/cluster.
type clusterMemberJSON struct {
	NQN         string   `json:"nqn"`
	Addr        string   `json:"addr"`
	Mode        uint8    `json:"mode"`
	TTLMs       int64    `json:"ttl_ms"`
	ExpiresInMs int64    `json:"expires_in_ms"` // -1 = never
	Shards      []uint32 `json:"shards,omitempty"`
}

// clusterJSON is the /debug/cluster document.
type clusterJSON struct {
	Epoch       uint64                  `json:"epoch"`
	Members     []clusterMemberJSON     `json:"members"`
	Assignments []proto.ShardAssignment `json:"assignments"`
	Degraded    bool                    `json:"degraded"`
}

// ClusterHandler serves live membership and the shard map as JSON
// (mounted at /debug/cluster by cmd/opf-discovery).
func (d *DiscoveryServer) ClusterHandler() http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		d.mu.Lock()
		d.expireLocked()
		now := d.cfg.Clock()
		doc := clusterJSON{Epoch: d.epoch, Members: []clusterMemberJSON{}}
		for _, m := range d.log {
			row := clusterMemberJSON{
				NQN:         m.entry.NQN,
				Addr:        m.entry.Addr,
				Mode:        m.entry.Mode,
				TTLMs:       m.ttl.Milliseconds(),
				ExpiresInMs: -1,
				Shards:      m.shards,
			}
			if !m.deadline.IsZero() {
				row.ExpiresInMs = m.deadline.Sub(now).Milliseconds()
			}
			doc.Members = append(doc.Members, row)
		}
		sort.Slice(doc.Members, func(i, j int) bool { return doc.Members[i].NQN < doc.Members[j].NQN })
		doc.Assignments = append(doc.Assignments, d.assign...)
		for _, a := range d.assign {
			if a.Primary == "" || a.Replica == "" {
				doc.Degraded = true
			}
		}
		d.mu.Unlock()
		w.Header().Set("Content-Type", "application/json")
		enc := json.NewEncoder(w)
		enc.SetIndent("", "  ")
		_ = enc.Encode(doc)
	})
}

// Dialer matches net.Dial's shape; faultnet injectors provide one to put
// host↔discovery traffic under fault control.
type Dialer = func(network, addr string) (net.Conn, error)

// DiscoverCluster queries a discovery endpoint through the given dialer
// (nil = net.Dial) and returns the full cluster map.
func DiscoverCluster(addr string, dial Dialer) (*proto.DiscResp, error) {
	conn, err := dialDiscovery(addr, dial)
	if err != nil {
		return nil, err
	}
	defer conn.Close()
	if err := proto.WritePDU(conn, &proto.DiscReq{}); err != nil {
		return nil, err
	}
	p, err := proto.ReadPDU(conn)
	if err != nil {
		return nil, err
	}
	switch resp := p.(type) {
	case *proto.DiscResp:
		return resp, nil
	case *proto.TermReq:
		return nil, fmt.Errorf("tcptrans: discovery refused: %s", resp.Reason)
	default:
		return nil, errors.New("tcptrans: unexpected discovery response")
	}
}

func dialDiscovery(addr string, dial Dialer) (net.Conn, error) {
	if dial == nil {
		dial = func(network, addr string) (net.Conn, error) { return net.DialTimeout(network, addr, 10*time.Second) }
	}
	conn, err := dial("tcp", addr)
	if err != nil {
		return nil, err
	}
	conn.SetDeadline(time.Now().Add(10 * time.Second))
	return conn, nil
}

// RegisterCluster performs one keep-alive registration carrying the
// cluster extension and returns the control plane's current map (so the
// registrant learns the epoch to echo on its next keep-alive).
func RegisterCluster(discoveryAddr string, reg proto.DiscRegister, dial Dialer) (*proto.DiscResp, error) {
	if err := reg.Entry.Validate(); err != nil {
		return nil, err
	}
	conn, err := dialDiscovery(discoveryAddr, dial)
	if err != nil {
		return nil, err
	}
	defer conn.Close()
	if err := proto.WritePDU(conn, &reg); err != nil {
		return nil, err
	}
	p, err := proto.ReadPDU(conn)
	if err != nil {
		return nil, err
	}
	switch resp := p.(type) {
	case *proto.DiscResp:
		for _, got := range resp.Entries {
			if got.NQN == reg.Entry.NQN {
				return resp, nil
			}
		}
		return nil, errors.New("tcptrans: registration not reflected in log")
	case *proto.TermReq:
		return nil, fmt.Errorf("tcptrans: registration refused: %s", resp.Reason)
	default:
		return nil, errors.New("tcptrans: unexpected registration response")
	}
}

// DialDiscovered resolves nqn through a discovery endpoint and connects.
func DialDiscovered(discoveryAddr, nqn string, cfg ConnConfig) (*Conn, error) {
	resp, err := DiscoverCluster(discoveryAddr, nil)
	if err != nil {
		return nil, err
	}
	for _, e := range resp.Entries {
		if e.NQN == nqn {
			return Dial(e.Addr, cfg)
		}
	}
	return nil, fmt.Errorf("tcptrans: subsystem %q not in discovery log", nqn)
}
