package cluster

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net"
	"net/http"
	"sort"
	"sync"
	"time"

	"nvmeopf/internal/telemetry"
)

// The control plane speaks one JSON document over HTTP:
//
//	GET  /cluster   the Map
//	POST /register  a Registration; answered with the Map, or 409 when
//	                the registration carries a stale epoch
//
// Each exchange is bounded by requestTimeout on both ends, and a request
// body may not exceed maxBodyBytes.
const (
	requestTimeout = 10 * time.Second
	maxBodyBytes   = 64 << 10
	// maxShards bounds a claimed shard index: the map grows to cover the
	// highest claim, so an unbounded one would size it from the peer.
	maxShards = 4096
)

// ErrStaleEpoch is returned by a registration the control plane refused
// because it carried an epoch older than the current map: the registrant
// expired and must re-discover before rejoining.
var ErrStaleEpoch = errors.New("cluster: stale epoch, re-discover before rejoining")

// Dialer matches net.Dial's shape; faultnet injectors provide one to put
// control-plane traffic under fault control.
type Dialer = func(network, addr string) (net.Conn, error)

// ShardAssignment names the targets serving one namespace shard. NQNs
// reference members of the same Map; an empty string means the role is
// unfilled (a shard with no Replica is running unreplicated, one with no
// Primary is down).
type ShardAssignment struct {
	Shard   uint32
	Primary string
	Replica string
}

// Member is one live target in the Map.
type Member struct {
	NQN         string   `json:"nqn"`
	Addr        string   `json:"addr"`
	Mode        uint8    `json:"mode"` // 0 baseline, 1 NVMe-oPF
	TTLMs       int64    `json:"ttl_ms"`
	ExpiresInMs int64    `json:"expires_in_ms"`
	Shards      []uint32 `json:"shards,omitempty"`
}

// Map is the control plane's one document: live members sorted by NQN,
// the shard → primary/replica assignments, and the monotonic epoch they
// hold at (bumped on every membership or role change).
type Map struct {
	Epoch       uint64            `json:"epoch"`
	Members     []Member          `json:"members"`
	Assignments []ShardAssignment `json:"assignments"`
	Degraded    bool              `json:"degraded"`
}

// Registration is one target's keep-alive: its address and mode, the
// TTL it promises to refresh within, the last map epoch it observed
// (0 = none), and the namespace shards it volunteers to serve.
type Registration struct {
	NQN    string   `json:"nqn"`
	Addr   string   `json:"addr"`
	Mode   uint8    `json:"mode"`
	TTLMs  int64    `json:"ttl_ms"`
	Epoch  uint64   `json:"epoch"`
	Shards []uint32 `json:"shards,omitempty"`
}

func (r *Registration) validate() error {
	if r.NQN == "" || len(r.NQN) > 223 { // NVMe NQN length bound
		return fmt.Errorf("NQN length %d out of range", len(r.NQN))
	}
	if r.Addr == "" || len(r.Addr) > 255 {
		return fmt.Errorf("address length %d out of range", len(r.Addr))
	}
	if r.TTLMs <= 0 {
		return fmt.Errorf("TTL %d ms: a registration must expire", r.TTLMs)
	}
	for _, s := range r.Shards {
		if s >= maxShards {
			return fmt.Errorf("shard %d out of range (max %d)", s, maxShards-1)
		}
	}
	return nil
}

// DiscoveryServer is the cluster control plane: it tracks member
// liveness through TTL'd keep-alive registrations and maintains the
// shard map under a monotonic epoch. Targets register through a
// Registrar; hosts read the map through a Client.
//
// Epoch semantics: the epoch increments on every membership or role
// change (join, expiry, promotion). Keep-alives of live members refresh
// the deadline without an epoch check — the epoch fences *rejoins*, not
// heartbeats: a member that expired (or a newcomer) presenting a nonzero
// epoch older than the current map is a zombie acting on stale state and
// is refused, so a partitioned ex-primary cannot reclaim its role after
// its replica was promoted.
type DiscoveryServer struct {
	ln     net.Listener
	hs     *http.Server
	cfg    DiscoveryConfig
	mu     sync.Mutex
	log    map[string]*member // NQN -> member
	epoch  uint64
	assign []ShardAssignment // indexed by shard
	quit   chan struct{}
	wg     sync.WaitGroup
	closed bool
}

// member is one registered target plus its liveness contract.
type member struct {
	reg      Registration
	deadline time.Time
}

// DiscoveryConfig tunes the control plane.
type DiscoveryConfig struct {
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

// ListenDiscovery starts the control plane on addr.
func ListenDiscovery(addr string, cfg DiscoveryConfig) (*DiscoveryServer, error) {
	if cfg.SweepInterval <= 0 {
		cfg.SweepInterval = 25 * time.Millisecond
	}
	if cfg.Clock == nil {
		cfg.Clock = time.Now
	}
	ln, err := net.Listen("tcp", addr)
	if err != nil {
		return nil, err
	}
	d := &DiscoveryServer{
		ln:   ln,
		cfg:  cfg,
		log:  make(map[string]*member),
		quit: make(chan struct{}),
	}
	mux := http.NewServeMux()
	mux.Handle("/cluster", d.ClusterHandler())
	mux.HandleFunc("/register", d.serveRegister)
	d.hs = &http.Server{Handler: mux, ReadTimeout: requestTimeout, WriteTimeout: requestTimeout}
	d.wg.Add(2)
	go func() {
		defer d.wg.Done()
		_ = d.hs.Serve(ln)
	}()
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

// snapshot returns the current document.
func (d *DiscoveryServer) snapshot() *Map {
	d.mu.Lock()
	defer d.mu.Unlock()
	d.expireLocked()
	return d.mapLocked()
}

func (d *DiscoveryServer) mapLocked() *Map {
	now := d.cfg.Clock()
	m := &Map{Epoch: d.epoch, Members: make([]Member, 0, len(d.log)), Degraded: d.degradedLocked()}
	for _, mb := range d.log {
		m.Members = append(m.Members, Member{
			NQN:         mb.reg.NQN,
			Addr:        mb.reg.Addr,
			Mode:        mb.reg.Mode,
			TTLMs:       mb.reg.TTLMs,
			ExpiresInMs: mb.deadline.Sub(now).Milliseconds(),
			Shards:      mb.reg.Shards,
		})
	}
	sort.Slice(m.Members, func(i, j int) bool { return m.Members[i].NQN < m.Members[j].NQN })
	m.Assignments = append([]ShardAssignment{}, d.assign...)
	return m
}

func (d *DiscoveryServer) degradedLocked() bool {
	for _, a := range d.assign {
		if a.Primary == "" || a.Replica == "" {
			return true
		}
	}
	return false
}

// expireLocked drops members past their deadline and reassigns their
// roles. Each expiry is one membership change: counted, map rebuilt,
// epoch bumped.
func (d *DiscoveryServer) expireLocked() {
	now := d.cfg.Clock()
	expired := false
	for nqn, m := range d.log {
		if now.Before(m.deadline) {
			continue
		}
		delete(d.log, nqn)
		expired = true
		d.cfg.Telemetry.IncDiscoveryExpired()
	}
	if expired {
		d.rebuildLocked()
		d.bumpLocked()
	}
}

// bumpLocked advances the epoch and mirrors it to telemetry.
func (d *DiscoveryServer) bumpLocked() {
	d.epoch++
	d.cfg.Telemetry.SetClusterEpoch(d.epoch)
	d.cfg.Telemetry.SetClusterDegraded(d.degradedLocked())
}

// claims reports whether the live member claims the shard.
func (m *member) claims(shard uint32) bool {
	for _, s := range m.reg.Shards {
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

// register applies one validated registration and returns the resulting
// map, or ErrStaleEpoch for a rejoin acting on an old map.
func (d *DiscoveryServer) register(r Registration) (*Map, error) {
	d.mu.Lock()
	defer d.mu.Unlock()
	d.expireLocked()
	deadline := d.cfg.Clock().Add(time.Duration(r.TTLMs) * time.Millisecond)
	for _, s := range r.Shards {
		for len(d.assign) <= int(s) {
			d.assign = append(d.assign, ShardAssignment{Shard: uint32(len(d.assign))})
		}
	}
	if m, live := d.log[r.NQN]; live {
		// Keep-alive: refresh the deadline. No epoch check — liveness
		// renewal is not a rejoin. Roles change only if the claims moved.
		changed := m.reg.Addr != r.Addr || m.reg.Mode != r.Mode || !equalShards(m.reg.Shards, r.Shards)
		m.reg, m.deadline = r, deadline
		if changed {
			d.rebuildLocked()
			d.bumpLocked()
		}
		return d.mapLocked(), nil
	}
	// New member or an expired one coming back: fence stale epochs so a
	// partitioned ex-primary cannot rejoin believing an old map.
	if r.Epoch != 0 && r.Epoch < d.epoch {
		d.cfg.Telemetry.IncStaleEpoch()
		return nil, fmt.Errorf("%w: epoch %d < %d", ErrStaleEpoch, r.Epoch, d.epoch)
	}
	d.log[r.NQN] = &member{reg: r, deadline: deadline}
	d.rebuildLocked()
	d.bumpLocked()
	return d.mapLocked(), nil
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

// ClusterHandler serves the Map on GET. The control plane mounts it at
// /cluster; cmd/opf-discovery mounts it again at /debug/cluster.
func (d *DiscoveryServer) ClusterHandler() http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if r.Method != http.MethodGet && r.Method != http.MethodHead {
			w.Header().Set("Allow", "GET")
			http.Error(w, "method not allowed", http.StatusMethodNotAllowed)
			return
		}
		writeMap(w, d.snapshot())
	})
}

func (d *DiscoveryServer) serveRegister(w http.ResponseWriter, r *http.Request) {
	if r.Method != http.MethodPost {
		w.Header().Set("Allow", "POST")
		http.Error(w, "method not allowed", http.StatusMethodNotAllowed)
		return
	}
	var reg Registration
	if err := json.NewDecoder(http.MaxBytesReader(w, r.Body, maxBodyBytes)).Decode(&reg); err != nil {
		http.Error(w, "malformed registration: "+err.Error(), http.StatusBadRequest)
		return
	}
	if err := reg.validate(); err != nil {
		http.Error(w, err.Error(), http.StatusBadRequest)
		return
	}
	m, err := d.register(reg)
	if err != nil {
		http.Error(w, err.Error(), http.StatusConflict)
		return
	}
	writeMap(w, m)
}

// writeMap encodes the document indented: operators and the CI failover
// smoke read it with grep.
func writeMap(w http.ResponseWriter, m *Map) {
	w.Header().Set("Content-Type", "application/json")
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	_ = enc.Encode(m)
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
	err := d.hs.Close()
	close(d.quit)
	d.wg.Wait()
	return err
}

// endpoint is a client of one control plane. Every call dials afresh
// through the Dialer (keep-alives off), so a fault injector behind it
// sees, and can cut, each exchange.
type endpoint struct {
	base string
	hc   *http.Client
}

func newEndpoint(addr string, dial Dialer) endpoint {
	if dial == nil {
		dial = func(network, addr string) (net.Conn, error) {
			return net.DialTimeout(network, addr, requestTimeout)
		}
	}
	return endpoint{
		base: "http://" + addr,
		hc: &http.Client{
			Timeout: requestTimeout,
			Transport: &http.Transport{
				DialContext: func(_ context.Context, network, addr string) (net.Conn, error) {
					return dial(network, addr)
				},
				DisableKeepAlives: true,
			},
		},
	}
}

// discover fetches the current map.
func (e endpoint) discover() (*Map, error) {
	resp, err := e.hc.Get(e.base + "/cluster")
	if err != nil {
		return nil, err
	}
	return decodeMap(resp)
}

// register sends one registration and returns the map it produced;
// errors.Is(err, ErrStaleEpoch) when the plane fenced it.
func (e endpoint) register(r Registration) (*Map, error) {
	body, err := json.Marshal(r)
	if err != nil {
		return nil, err
	}
	resp, err := e.hc.Post(e.base+"/register", "application/json", bytes.NewReader(body))
	if err != nil {
		return nil, err
	}
	return decodeMap(resp)
}

func decodeMap(resp *http.Response) (*Map, error) {
	defer resp.Body.Close()
	switch resp.StatusCode {
	case http.StatusOK:
	case http.StatusConflict:
		return nil, fmt.Errorf("%w (%s)", ErrStaleEpoch, resp.Status)
	default:
		msg, _ := io.ReadAll(io.LimitReader(resp.Body, 512))
		return nil, fmt.Errorf("cluster: control plane answered %s: %s", resp.Status, bytes.TrimSpace(msg))
	}
	m := new(Map)
	if err := json.NewDecoder(resp.Body).Decode(m); err != nil {
		return nil, fmt.Errorf("cluster: decoding map: %w", err)
	}
	return m, nil
}
