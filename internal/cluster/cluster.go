// Package cluster is the control plane of a replicated NVMe-oPF
// deployment and nothing of it is on the datapath: the DiscoveryServer
// that keeps membership and the shard map, the Registrar each target
// keeps itself in the map with, and the host-side Client that routes each
// I/O by namespace shard to the shard's primary target, mirrors writes to
// the replica, and fails over through the transport's
// reconnect-and-replay machinery when a target dies — re-pointed at the
// promoted replica by a resolver backed by the shard map.
//
// Consistency contract: a write is acknowledged only after both the
// primary and the replica persisted it (or after the primary alone when
// the shard is knowingly unreplicated and the caller opted in), so an
// acknowledged write survives the loss of either copy. A shard whose
// replica died degrades to read-only by default — refusing new writes is
// what keeps the "acked ⇒ replicated" invariant honest while the control
// plane finds a standby.
//
// Split-brain fencing: the discovery map carries a monotonic epoch. The
// client never adopts a map older than the one it holds (a partitioned
// discovery endpoint cannot roll the cluster backwards), and targets echo
// their last-seen epoch on re-registration so an expired ex-primary
// cannot rejoin acting on a stale map.
package cluster

import (
	"errors"
	"fmt"
	"sync"
	"time"

	"nvmeopf/internal/hostqp"
	"nvmeopf/internal/nvme"
	"nvmeopf/internal/proto"
	"nvmeopf/internal/tcptrans"
	"nvmeopf/internal/telemetry"
)

// ErrReadOnly is returned for writes to a shard that currently has no
// live replica (and the client did not opt into unreplicated writes).
var ErrReadOnly = errors.New("cluster: shard degraded to read-only (no live replica)")

// ErrNoPrimary is returned when a shard has no live primary at all.
var ErrNoPrimary = errors.New("cluster: shard has no live primary")

// Config configures a cluster Client.
type Config struct {
	// DiscoveryAddr is the control plane endpoint.
	DiscoveryAddr string
	// Conn is the per-target session configuration (class, window, queue
	// depth, telemetry); every primary and replica session uses it.
	Conn tcptrans.ConnConfig
	// Dial is the per-target dial/recovery template. Recovery may be nil:
	// the client then enables replay for both wire classes (failover is
	// the point). A caller-provided Recovery keeps its gates; only the
	// Resolver is overwritten — it belongs to the client.
	Dial tcptrans.DialConfig
	// DiscoveryDialer optionally replaces net.Dial for control-plane
	// traffic only (fault injection partitions host↔discovery here).
	DiscoveryDialer Dialer
	// RefreshInterval is the background map-refresh cadence (default
	// 100ms; 0 keeps the default, negative disables the loop).
	RefreshInterval time.Duration
	// AllowUnreplicated permits writes to a shard with no live replica.
	// Off by default: acknowledged writes are replicated writes.
	AllowUnreplicated bool
	// Telemetry optionally receives failover/stale-epoch counters and the
	// cluster epoch/degraded gauges.
	Telemetry *telemetry.Registry
}

// shardConn holds one shard's transport clients. The primary client is
// permanent — failover re-points it through its resolver so its replay
// queue survives the promotion — while the replica client is rebuilt
// whenever the map hands the role to a different target.
type shardConn struct {
	mu         sync.Mutex
	primary    *tcptrans.Conn
	replica    *tcptrans.Conn
	replicaNQN string // NQN the current replica client was built for
}

// Client routes I/O across a replicated multi-target cluster.
type Client struct {
	cfg  Config
	disc endpoint

	mu      sync.Mutex
	epoch   uint64
	addrs   map[string]string // NQN -> dial address
	assign  []ShardAssignment
	nshards int
	closed  bool

	shards []*shardConn

	quit chan struct{}
	wg   sync.WaitGroup
}

// Dial discovers the cluster map and returns a routing client. The
// initial discovery must succeed and describe at least one shard;
// per-target connections are established lazily on first use.
func Dial(cfg Config) (*Client, error) {
	if cfg.RefreshInterval == 0 {
		cfg.RefreshInterval = 100 * time.Millisecond
	}
	c := &Client{cfg: cfg, disc: newEndpoint(cfg.DiscoveryAddr, cfg.DiscoveryDialer), quit: make(chan struct{})}
	m, err := c.disc.discover()
	if err != nil {
		return nil, fmt.Errorf("cluster: initial discovery: %w", err)
	}
	if len(m.Assignments) == 0 {
		return nil, errors.New("cluster: discovery map has no shards")
	}
	c.nshards = len(m.Assignments)
	c.shards = make([]*shardConn, c.nshards)
	for i := range c.shards {
		c.shards[i] = &shardConn{}
	}
	c.adopt(m)
	if cfg.RefreshInterval > 0 {
		c.wg.Add(1)
		go c.refreshLoop()
	}
	return c, nil
}

// NumShards returns the cluster width the client routes over.
func (c *Client) NumShards() int { return c.nshards }

// Shard maps a namespace ID to its shard index (namespaces stripe over
// shards round-robin; NSID 0 is treated as 1).
func (c *Client) Shard(nsid uint32) int {
	if nsid == 0 {
		nsid = 1
	}
	return int((nsid - 1) % uint32(c.nshards))
}

// Epoch returns the cluster-map epoch the client currently holds.
func (c *Client) Epoch() uint64 {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.epoch
}

// Degraded reports whether the namespace's shard is currently running
// without a live replica (writes refused unless AllowUnreplicated).
func (c *Client) Degraded(nsid uint32) bool {
	s := c.Shard(nsid)
	c.mu.Lock()
	defer c.mu.Unlock()
	return s >= len(c.assign) || c.assign[s].Replica == ""
}

// refreshLoop keeps the map fresh in the background.
func (c *Client) refreshLoop() {
	defer c.wg.Done()
	t := time.NewTicker(c.cfg.RefreshInterval)
	defer t.Stop()
	for {
		select {
		case <-c.quit:
			return
		case <-t.C:
			_ = c.Refresh() // transient discovery outages are tolerated
		}
	}
}

// Refresh pulls the current map from discovery and adopts it if it is
// not older than the one held.
func (c *Client) Refresh() error {
	m, err := c.disc.discover()
	if err != nil {
		return err
	}
	return c.adopt(m)
}

// adopt installs a discovery map. Maps older than the held epoch are
// rejected (split-brain protection); equal epochs refresh addresses only.
func (c *Client) adopt(m *Map) error {
	c.mu.Lock()
	if m.Epoch < c.epoch {
		held := c.epoch
		c.mu.Unlock()
		c.cfg.Telemetry.IncStaleEpoch()
		return fmt.Errorf("cluster: rejecting stale map epoch %d < held %d", m.Epoch, held)
	}
	addrs := make(map[string]string, len(m.Members))
	for _, mb := range m.Members {
		addrs[mb.NQN] = mb.Addr
	}
	failovers := 0
	if m.Epoch > c.epoch || c.addrs == nil {
		for i, a := range m.Assignments {
			if i < len(c.assign) && c.assign[i].Primary != "" && a.Primary != "" &&
				a.Primary != c.assign[i].Primary {
				failovers++
			}
		}
		c.assign = append(c.assign[:0], m.Assignments...)
		c.epoch = m.Epoch
	}
	c.addrs = addrs
	degraded := false
	type replicaWant struct {
		sc  *shardConn
		nqn string
	}
	wants := make([]replicaWant, 0, len(c.shards))
	for i, sc := range c.shards {
		want := ""
		if i < len(c.assign) {
			want = c.assign[i].Replica
			if want == "" || c.assign[i].Primary == "" {
				degraded = true
			}
		} else {
			degraded = true
		}
		wants = append(wants, replicaWant{sc, want})
	}
	epoch := c.epoch
	c.mu.Unlock()

	// Reconcile replica clients outside c.mu (shardConn locks nest under
	// nothing). A replica whose role moved is torn down; the next write
	// dials the new holder lazily.
	for _, w := range wants {
		w.sc.mu.Lock()
		if w.sc.replicaNQN != w.nqn {
			if w.sc.replica != nil {
				go w.sc.replica.Close()
				w.sc.replica = nil
			}
			w.sc.replicaNQN = w.nqn
		}
		w.sc.mu.Unlock()
	}
	c.cfg.Telemetry.SetClusterEpoch(epoch)
	c.cfg.Telemetry.SetClusterDegraded(degraded)
	for i := 0; i < failovers; i++ {
		c.cfg.Telemetry.IncFailover()
	}
	return nil
}

// roleAddr resolves the shard's current holder of a role from the held
// map (primary when replica=false).
func (c *Client) roleAddr(shard int, replica bool) (nqn, addr string, err error) {
	c.mu.Lock()
	defer c.mu.Unlock()
	if shard >= len(c.assign) {
		return "", "", fmt.Errorf("cluster: shard %d not in map", shard)
	}
	a := c.assign[shard]
	nqn = a.Primary
	if replica {
		nqn = a.Replica
		if nqn == "" {
			return "", "", fmt.Errorf("cluster: shard %d has no live replica", shard)
		}
	} else if nqn == "" {
		return "", "", fmt.Errorf("%w: shard %d", ErrNoPrimary, shard)
	}
	addr = c.addrs[nqn]
	if addr == "" {
		return "", "", fmt.Errorf("cluster: no address for %q", nqn)
	}
	return nqn, addr, nil
}

// dialCfg builds the per-target DialConfig with the role resolver wired
// into recovery: every reconnect attempt refreshes the map and re-points
// at the role's current holder — on failover, the promoted replica.
func (c *Client) dialCfg(shard int, replica bool) tcptrans.DialConfig {
	dcfg := c.cfg.Dial
	var rcfg tcptrans.RecoveryConfig
	if dcfg.Recovery != nil {
		rcfg = *dcfg.Recovery
	} else {
		rcfg = tcptrans.RecoveryConfig{RequeueLS: true, RequeueTC: true}
	}
	rcfg.Resolver = func() (string, error) {
		_ = c.Refresh() // best effort: prefer the freshest map before re-dialing
		_, addr, err := c.roleAddr(shard, replica)
		return addr, err
	}
	dcfg.Recovery = &rcfg
	return dcfg
}

// ensurePrimary returns the shard's primary client, dialing on first use.
func (c *Client) ensurePrimary(shard int) (*tcptrans.Conn, error) {
	sc := c.shards[shard]
	sc.mu.Lock()
	defer sc.mu.Unlock()
	if sc.primary != nil {
		return sc.primary, nil
	}
	_, addr, err := c.roleAddr(shard, false)
	if err != nil {
		return nil, err
	}
	conn, err := tcptrans.DialWith(addr, c.cfg.Conn, c.dialCfg(shard, false))
	if err != nil {
		return nil, fmt.Errorf("cluster: dial shard %d primary: %w", shard, err)
	}
	sc.primary = conn
	return conn, nil
}

// ensureReplica returns the shard's replica client, dialing on first use.
// (nil, nil) means the shard is knowingly unreplicated in the held map.
func (c *Client) ensureReplica(shard int) (*tcptrans.Conn, error) {
	sc := c.shards[shard]
	sc.mu.Lock()
	defer sc.mu.Unlock()
	if sc.replicaNQN == "" {
		return nil, nil
	}
	if sc.replica != nil {
		return sc.replica, nil
	}
	nqn, addr, err := c.roleAddr(shard, true)
	if err != nil {
		return nil, nil // role vanished since reconciliation: unreplicated
	}
	conn, err := tcptrans.DialWith(addr, c.cfg.Conn, c.dialCfg(shard, true))
	if err != nil {
		return nil, fmt.Errorf("cluster: dial shard %d replica: %w", shard, err)
	}
	sc.replica = conn
	sc.replicaNQN = nqn
	return conn, nil
}

// submit runs one I/O through Conn.Do on its own goroutine, so both
// copies of a mirrored write are in flight at once, and delivers exactly
// one error.
func submit(c *tcptrans.Conn, io hostqp.IO, errs chan<- error) {
	go func() {
		_, err := c.Do(io)
		errs <- err
	}()
}

// Write stores data on the namespace's shard: mirrored to primary and
// replica, acknowledged only after both persisted it. With no live
// replica it fails with ErrReadOnly unless AllowUnreplicated. idempotent
// declares that replaying the write verbatim is safe across a connection
// loss — without it, a mid-flight target death surfaces the original
// transport error instead of replaying.
func (c *Client) Write(nsid uint32, lba uint64, data []byte, prio proto.Priority, idempotent bool) error {
	s := c.Shard(nsid)
	p, err := c.ensurePrimary(s)
	if err != nil {
		_ = c.Refresh()
		return err
	}
	bs := p.BlockSize()
	if bs == 0 {
		bs = 4096
	}
	if len(data) == 0 || len(data)%int(bs) != 0 {
		return fmt.Errorf("cluster: %d bytes is not a multiple of the %dB block size", len(data), bs)
	}
	io := hostqp.IO{
		Op: nvme.OpWrite, LBA: lba, Blocks: uint32(len(data) / int(bs)),
		Data: data, Prio: prio, Idempotent: idempotent,
	}
	r, err := c.ensureReplica(s)
	if err != nil {
		return err
	}
	if r == nil {
		if !c.cfg.AllowUnreplicated {
			return fmt.Errorf("%w: shard %d", ErrReadOnly, s)
		}
		errs := make(chan error, 1)
		submit(p, io, errs)
		if werr := <-errs; werr != nil {
			_ = c.Refresh()
			return werr
		}
		return nil
	}
	errs := make(chan error, 2)
	submit(p, io, errs)
	submit(r, io, errs)
	var werr error
	for i := 0; i < 2; i++ {
		if e := <-errs; e != nil && werr == nil {
			werr = e
		}
	}
	if werr != nil {
		// Not acknowledged: at most one copy has it. Refresh so the next
		// attempt routes on the post-failure map.
		_ = c.Refresh()
		return werr
	}
	return nil
}

// Read fetches blocks from the namespace's shard primary, falling back
// to the replica when the primary path is exhausted (reads are always
// idempotent, so the fallback is safe).
func (c *Client) Read(nsid uint32, lba uint64, blocks uint32, prio proto.Priority) ([]byte, error) {
	s := c.Shard(nsid)
	p, perr := c.ensurePrimary(s)
	if perr == nil {
		data, err := p.Read(lba, blocks, prio)
		if err == nil {
			return data, nil
		}
		perr = err
	}
	if r, _ := c.ensureReplica(s); r != nil {
		if data, err := r.Read(lba, blocks, prio); err == nil {
			return data, nil
		}
	}
	_ = c.Refresh()
	return nil, perr
}

// Flush issues a durability barrier on the namespace's shard — both
// copies, mirroring Write's acknowledgement rule (a degraded shard
// flushes the primary alone: flush never creates new divergence).
func (c *Client) Flush(nsid uint32) error {
	s := c.Shard(nsid)
	p, err := c.ensurePrimary(s)
	if err != nil {
		return err
	}
	io := hostqp.IO{Op: nvme.OpFlush}
	r, _ := c.ensureReplica(s)
	if r == nil {
		errs := make(chan error, 1)
		submit(p, io, errs)
		return <-errs
	}
	errs := make(chan error, 2)
	submit(p, io, errs)
	submit(r, io, errs)
	var ferr error
	for i := 0; i < 2; i++ {
		if e := <-errs; e != nil && ferr == nil {
			ferr = e
		}
	}
	return ferr
}

// Close tears down the refresh loop and every per-target client.
func (c *Client) Close() error {
	c.mu.Lock()
	if c.closed {
		c.mu.Unlock()
		return nil
	}
	c.closed = true
	c.mu.Unlock()
	close(c.quit)
	c.wg.Wait()
	var first error
	for _, sc := range c.shards {
		sc.mu.Lock()
		p, r := sc.primary, sc.replica
		sc.primary, sc.replica = nil, nil
		sc.mu.Unlock()
		if p != nil {
			if err := p.Close(); err != nil && first == nil {
				first = err
			}
		}
		if r != nil {
			if err := r.Close(); err != nil && first == nil {
				first = err
			}
		}
	}
	return first
}
