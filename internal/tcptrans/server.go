// Package tcptrans carries the NVMe-oPF protocol over real TCP sockets:
// a Server exposes a block device as an NVMe-oPF (or baseline NVMe-oF)
// target, and Dial opens initiator connections. The same sans-IO state
// machines as the simulator (internal/hostqp, internal/targetqp) run the
// protocol; this package only moves PDUs and provides the threading
// model.
//
// The target datapath is sharded, mirroring SPDK's reactor-per-core
// deployment: the server runs ServerConfig.Shards reactors (default
// GOMAXPROCS), each the sole owner of one targetqp.Target holding the
// sessions assigned to it round-robin at accept time. A shard's sessions,
// PM queues, and request pool are touched only by its reactor, so —
// exactly as in the paper's per-initiator isolation argument (§IV) — the
// priority-manager state needs no locks even with every core busy. Tenant
// IDs are strided across shards (shard i hands out i, i+N, i+2N, …), so
// shared per-tenant telemetry stays exact.
//
// Threading model. Per shard there is one goroutine, the reactor, and it
// runs a command to completion: it takes a burst of inbound PDUs off its
// run queue, drives the session state machine, executes the device
// command itself, and leaves the response on the connection's outbound
// queue. Per connection there are two more: a reader that decodes PDUs
// with a pooling proto.Reader and posts every burst the socket delivered
// at once to the shard's run queue, and a writer that swaps whole bursts
// out of the outbound queue into batched vectored writes (one syscall per
// drain window) marshalled allocation-free into a reused buffer. So a
// command crosses two goroutine boundaries on the target — reader →
// reactor, reactor → writer — because a socket read and a socket write
// may each block and the reactor must not. Both are burstQueue hand-offs:
// one lock and at most one wake per burst on either side, nothing per
// PDU, and the reactor never waits for either. Flow control lives in the
// reader: it stops taking commands off the socket while its connection
// has maxQueuedPerConn PDUs unhandled or maxUnsentBytes of output
// unflushed. A peer that stops reading its socket is recognised by lack of
// progress, not by the size of its backlog: a server-wide watchdog resets
// any connection that holds unsent output while its writer has flushed
// nothing for stallAfter.
//
// The run queue has two lanes. A connection that opened with a
// latency-sensitive ICReq posts to the LS lane, everything else to the
// normal one; the reactor empties the LS lane first and looks at it again
// between any two units of normal work, so an LS command waits for at most
// one TC or scavenger request, never a whole drain window. A connection
// stays on one lane for life, so its PDUs — and the teardown posted behind
// them — are handled in arrival order.
//
// A latency-sensitive command need not cross those boundaries at all. A
// burstQueue can lend its consumer's role while the consumer is parked with
// nothing queued, and an LS connection's reader borrows its parked shard:
// it runs the burst itself, gives the shard back, and then writes the
// response through its parked writer in one non-blocking write, leaving
// whatever the kernel did not take to the writer goroutine. Nothing of the
// connection is ever queued ahead of an inline burst, so its order holds;
// a busy reactor or writer gets the burst posted as above. The host end
// does the same on its reactor and writer (see Conn).
//
// Where the device runs is read off the device: one that advertises
// bdev.NonBlocking (bdev.Memory), on a server with no injected
// ReadLatency/WriteLatency, runs inline on the reactor from a shard-local
// ready list — high-priority commands first, one command per turn. Any
// other device (bdev.File, a latency-injected one) would stall the
// reactor, so its commands go to the server-wide executor pool and their
// completions come back through the run queue: two more hand-offs, paid
// only where a device wait dwarfs them. The backing bdev has its own
// synchronization either way.
//
// Payload buffers and hot-path PDU structs cycle through internal/proto's
// pools on both sides of the socket. A write payload crosses user space
// once on its way in: the connection's reader has proto.Reader parse the
// 64-byte SQE out of its scratch and read the payload from the socket
// into the pooled buffer that becomes CapsuleCmd.Data (what the 64 KiB
// bufio.Reader had already buffered when the header arrived is copied out
// of it; the rest is read straight into place), the session parks that
// buffer with the request, and the reactor hands it to the device. A
// device that adopts (bdev.Adopter) keeps a buffer that is exactly one of
// its chunks — bdev.Memory's 128 KiB, an aligned 128 KiB write — in a
// pointer swap and hands back the chunk it replaced, which the request's
// completion returns to the pool in the payload's place; any other write
// is copied into the device and its buffer returned to the pool.
// bdev.Memory takes one lock per extent, none device-wide, so two shards
// writing different extents never meet. Reads mirror it: the device fills
// a pooled buffer that rides the write vector by reference, and the host's
// reader lands it in the caller's buffer through the C2HSink.
package tcptrans

import (
	"bufio"
	"errors"
	"net"
	"runtime"
	"sync"
	"sync/atomic"
	"time"

	"nvmeopf/internal/autotune"
	"nvmeopf/internal/bdev"
	"nvmeopf/internal/core"
	"nvmeopf/internal/proto"
	"nvmeopf/internal/targetqp"
	"nvmeopf/internal/telemetry"
)

// workers is the size of the executor pool that serves blocking devices
// for all shards. Devices that never block run on the reactors and do not
// use it.
const workers = 8

// ServerConfig describes a TCP target.
type ServerConfig struct {
	// Mode selects oPF or baseline behaviour.
	Mode targetqp.Mode
	// Device is the backing store.
	Device bdev.Device
	// Shards is the number of reactor shards, each owning the sessions
	// assigned to it (round-robin) with its own target state and run
	// queue. Default GOMAXPROCS, capped at 256 reactor lanes (the 16-bit
	// tenant-ID space leaves each lane 256 stride slots).
	// 1 reproduces the old single-reactor deployment.
	Shards int
	// MaxDataLen is the largest single data transfer the target puts in
	// one PDU (advertised in the ICResp; default 1 MiB). Reads larger
	// than this are segmented into multiple C2HData fragments with
	// ascending offsets.
	MaxDataLen uint32
	// MaxPendingPerTenant / MaxPendingGlobal / LSHeadroom configure
	// admission control: past a cap the target answers the retryable
	// nvme.StatusBusy instead of buffering unboundedly, with LSHeadroom
	// slots of the global cap reserved for latency-sensitive requests.
	// Zero caps disable admission control. The global cap and headroom
	// are divided evenly (ceiling) across shards.
	MaxPendingPerTenant int
	MaxPendingGlobal    int
	LSHeadroom          int
	// ScavengerHeadroom reserves slots of MaxPendingGlobal (beyond
	// LSHeadroom) that scavenger requests may never occupy, so a
	// best-effort flood always yields admission capacity to LS and TC.
	// Divided (ceiling) across shards like the other global budgets.
	ScavengerHeadroom int
	// DrainWatchdog force-drains any TC queue whose oldest parked request
	// has waited this long with no draining flag (host crashed or went
	// silent mid-window). Zero disables the watchdog.
	DrainWatchdog time.Duration
	// ScavengerAging bounds how long a parked scavenger queue can starve
	// behind continuous LS/TC traffic before it force-drains anyway. A
	// ticker fans the check out to every shard (like the drain watchdog)
	// so parked windows age out even on an otherwise idle connection.
	// Zero disables the bound.
	ScavengerAging time.Duration
	// ReadLatency/WriteLatency optionally inject device service time, so
	// a RAM-backed target behaves like flash. The injection is a sleep, so
	// setting either moves every device onto the executor pool.
	ReadLatency, WriteLatency time.Duration
	// Telemetry optionally attaches a live metrics registry to the
	// target (served over HTTP with telemetry.Registry.Serve). The
	// registry is lock-free and shared by all shards. Nil disables at
	// zero cost.
	Telemetry *telemetry.Registry
	// Recorder optionally attaches a target-side flight recorder that
	// receives the target state machines' PDU lifecycle events (attach it
	// to Telemetry with SetRecorder to serve /debug/trace). It records on
	// the reactor goroutines, or on an LS reader running a burst in its
	// shard's place — possibly several concurrently. Nil disables.
	Recorder *telemetry.Recorder
	// Autotune enables the closed-loop adaptive drain-window controller:
	// each reactor shard's target owns one (fed by its own drain
	// completions and LS service latencies), and all shards share one LS
	// signal so a TC tenant backs off for LS pain anywhere on the target.
	// Nil runs the static windows bit-identically to a server without the
	// field.
	Autotune *autotune.Config
}

// Server is a TCP NVMe-oPF target bound to a listener.
type Server struct {
	cfg       ServerConfig
	ln        net.Listener
	shards    []*shard
	nextShard atomic.Uint32 // round-robin accept-time assignment
	jobs      chan func()
	quit      chan struct{}
	wg        sync.WaitGroup
	mu        sync.Mutex
	conns     map[*srvConn]struct{}
	closed    bool
	// LS reader bursts run on the reader (inline) or posted to the shard.
	lsInline, lsPosted atomic.Int64
}

// ServerStats is what Server.Stats reports: the targets' counters, merged
// across shards, and how latency-sensitive connections' bursts reached
// their shard.
type ServerStats struct {
	targetqp.Stats
	// InlineBursts counts LS reader bursts run to completion on the reader
	// goroutine, which borrowed its parked shard; PostedBursts those posted
	// to the shard's run queue because its reactor was busy.
	InlineBursts, PostedBursts int64
}

// Listen starts a target on addr (e.g. "127.0.0.1:0").
func Listen(addr string, cfg ServerConfig) (*Server, error) {
	if cfg.Device == nil {
		return nil, errors.New("tcptrans: nil device")
	}
	if cfg.Shards <= 0 {
		cfg.Shards = runtime.GOMAXPROCS(0)
	}
	if cfg.Shards > 256 {
		cfg.Shards = 256 // one stride lane per shard, 256 tenants each
	}
	ln, err := net.Listen("tcp", addr)
	if err != nil {
		return nil, err
	}
	s := &Server{
		cfg:   cfg,
		ln:    ln,
		jobs:  make(chan func(), 1024),
		quit:  make(chan struct{}),
		conns: make(map[*srvConn]struct{}),
	}
	clock := func() int64 { return time.Now().UnixNano() }
	var trace telemetry.TraceFunc
	if cfg.Recorder != nil {
		// A nil recorder's method value is a non-nil func: pass it only
		// when there is a recorder to feed.
		trace = cfg.Recorder.Trace
	}
	// Adaptive windows: one controller per shard (owned by its reactor,
	// like the PM it drives), all reading one shared LS signal.
	atCfg := cfg.Autotune
	if atCfg != nil && atCfg.Signal == nil {
		shared := *atCfg
		shared.Signal = autotune.NewSignal(shared.ObjectiveNS)
		atCfg = &shared
	}
	// The global admission cap and LS headroom are target-wide budgets;
	// each shard polices an even (ceiling) slice of them.
	perShard := func(total int) int {
		if total <= 0 {
			return total
		}
		return (total + cfg.Shards - 1) / cfg.Shards
	}
	pooled := false // some device blocks, so the executor pool is needed
	for i := 0; i < cfg.Shards; i++ {
		sh := &shard{srv: s}
		sh.q.init()
		be := newExecBackend(sh, cfg.Device)
		pooled = pooled || !be.inline
		tgt, err := targetqp.NewTarget(targetqp.Config{
			Mode:                cfg.Mode,
			MaxPendingPerTenant: cfg.MaxPendingPerTenant,
			MaxPendingGlobal:    perShard(cfg.MaxPendingGlobal),
			LSHeadroom:          perShard(cfg.LSHeadroom),
			ScavengerHeadroom:   perShard(cfg.ScavengerHeadroom),
			DrainWatchdog:       cfg.DrainWatchdog,
			ScavengerAging:      cfg.ScavengerAging,
			MaxDataLen:          cfg.MaxDataLen,
			Telemetry:           cfg.Telemetry,
			Trace:               trace,
			Clock:               clock,
			Autotune:            atCfg,
			TenantBase:          i,
			TenantStride:        cfg.Shards,
			PooledPayloads:      true,
		}, be)
		if err != nil {
			ln.Close()
			return nil, err
		}
		sh.target = tgt
		s.shards = append(s.shards, sh)
	}
	cfg.Telemetry.SetShards(cfg.Shards)

	// Reactors: each the sole owner of its shard's target state machine.
	for _, sh := range s.shards {
		s.wg.Add(1)
		go func() {
			defer s.wg.Done()
			sh.run()
		}()
	}
	// Drain watchdog and scavenger aging: a ticker at a quarter of the
	// bound, which bounds how late past it a force-drain fires, fans the
	// check out to every shard's reactor, the sole owner of its target
	// state. The target also polls aging on every command and completion;
	// the ticker covers the quiet case where no foreground event fires.
	fanOut := func(bound time.Duration, check func(*targetqp.Target) (int, error)) {
		tick := bound / 4
		if tick <= 0 {
			tick = bound
		}
		s.every(tick, func() {
			for _, sh := range s.shards {
				sh.post(func() { _, _ = check(sh.target) })
			}
		})
	}
	if cfg.DrainWatchdog > 0 {
		fanOut(cfg.DrainWatchdog, (*targetqp.Target).CheckWatchdog)
	}
	if cfg.ScavengerAging > 0 {
		fanOut(cfg.ScavengerAging, (*targetqp.Target).CheckScavenger)
	}
	// Stall watchdog: resets connections whose peer has stopped reading.
	s.every(stallAfter, s.resetStalled)
	// Device executor pool for blocking devices, shared across shards (the
	// bdev has its own synchronization; completions route back to the
	// owning shard). A server whose devices all run inline starts none.
	for i := 0; i < workers && pooled; i++ {
		s.wg.Add(1)
		go func() {
			defer s.wg.Done()
			for {
				select {
				case job := <-s.jobs:
					job()
				case <-s.quit:
					return
				}
			}
		}()
	}
	// Acceptor.
	s.wg.Add(1)
	go func() {
		defer s.wg.Done()
		for {
			conn, err := ln.Accept()
			if err != nil {
				return
			}
			s.mu.Lock()
			if s.closed {
				s.mu.Unlock()
				conn.Close()
				return
			}
			sh := s.shards[int(s.nextShard.Add(1)-1)%len(s.shards)]
			c := &srvConn{sh: sh, nc: conn, credit: make(chan struct{}, 1)}
			c.out.init()
			s.conns[c] = struct{}{}
			s.mu.Unlock()
			s.wg.Add(1)
			go func() {
				defer s.wg.Done()
				s.serveConn(c)
			}()
		}
	}()
	return s, nil
}

// Addr returns the bound address.
func (s *Server) Addr() string { return s.ln.Addr().String() }

// Shards returns the number of reactor shards the server runs.
func (s *Server) Shards() int { return len(s.shards) }

// fromShards asks every shard's reactor for get's answer and hands each
// to add; a closed server contributes nothing.
func fromShards[T any](s *Server, get func(*targetqp.Target) T, add func(T)) {
	for _, sh := range s.shards {
		ch := make(chan T, 1)
		if !sh.post(func() { ch <- get(sh.target) }) {
			continue
		}
		select {
		case v := <-ch:
			add(v)
		case <-s.quit:
		}
	}
}

// Stats returns the target's counters, merged across shards (each
// shard's slice snapshotted on its own reactor), and the LS burst split.
func (s *Server) Stats() (agg ServerStats) {
	fromShards(s, (*targetqp.Target).Stats, agg.Accumulate)
	agg.InlineBursts, agg.PostedBursts = s.lsInline.Load(), s.lsPosted.Load()
	return agg
}

// PMStats returns the priority managers' counters, merged across shards.
func (s *Server) PMStats() (agg core.TargetPMStats) {
	fromShards(s, (*targetqp.Target).PMStats, agg.Accumulate)
	return agg
}

// ActiveSessions returns the number of live sessions across all shards.
func (s *Server) ActiveSessions() (total int) {
	fromShards(s, (*targetqp.Target).ActiveSessions, func(n int) { total += n })
	return total
}

// Close shuts the server down and waits for its goroutines.
func (s *Server) Close() error {
	s.mu.Lock()
	if s.closed {
		s.mu.Unlock()
		return nil
	}
	s.closed = true
	conns := make([]net.Conn, 0, len(s.conns))
	for c := range s.conns {
		conns = append(conns, c.nc)
	}
	s.mu.Unlock()
	err := s.ln.Close()
	for _, c := range conns {
		c.Close()
	}
	close(s.quit)
	for _, sh := range s.shards {
		sh.q.close()
	}
	s.wg.Wait()
	return err
}

// every runs fn each period from a goroutine that ends with the server.
func (s *Server) every(period time.Duration, fn func()) {
	s.wg.Add(1)
	go func() {
		defer s.wg.Done()
		t := time.NewTicker(period)
		defer t.Stop()
		for {
			select {
			case <-t.C:
				fn()
			case <-s.quit:
				return
			}
		}
	}()
}

// resetStalled is one sweep of the stall watchdog: a connection that had
// output waiting at the previous sweep, has output waiting now, and whose
// writer flushed nothing in between is talking to a peer that stopped
// reading its socket. Its socket is closed — failing the writer's blocked
// write, which in turn ends the reader, whose exit tears the session down —
// so what the reactor produced for it is released instead of pinned for as
// long as the peer cares to hold the connection open.
func (s *Server) resetStalled() {
	s.mu.Lock()
	defer s.mu.Unlock()
	for c := range s.conns {
		flushed, backlog := c.flushed.Load(), c.backlog() > 0
		if backlog && c.sweptBacklog && flushed == c.sweptFlushed {
			s.cfg.Telemetry.IncTransportError()
			c.nc.Close()
			delete(s.conns, c) // reset once; serveConn is on its way out
			continue
		}
		c.sweptFlushed, c.sweptBacklog = flushed, backlog
	}
}

// serveConn runs one initiator connection on the shard it is assigned
// to: a writer goroutine batches outbound PDUs into single writes, and
// the read loop posts inbound PDUs to the shard's run queue a burst at a
// time — it does not wait for one burst to be handled before decoding the
// next.
func (s *Server) serveConn(c *srvConn) {
	conn, sh := c.nc, c.sh
	defer conn.Close()
	defer func() {
		s.mu.Lock()
		delete(s.conns, c)
		s.mu.Unlock()
	}()

	c.direct = newDirect(conn, releaseServerPDU, c.onFlush)
	writerDone := make(chan struct{})
	go func() {
		defer close(writerDone)
		drainWriter(conn, &c.out, writerConfig{
			release: releaseServerPDU,
			flushed: c.onFlush,
			direct:  c.direct,
		})
	}()

	// Buffered socket reads: a burst of pipelined capsules arrives in one
	// syscall instead of two reads (header, body) per PDU, and is posted
	// to the reactor in one hand-off. The reactor creates the session when
	// the first PDU reaches it; handler outcomes come back asynchronously,
	// and a protocol violation closes the socket from the reactor, which
	// surfaces here as a read error on the next decode.
	rd := proto.NewReader(bufio.NewReaderSize(conn, 64<<10), true)
	lane := laneNormal
	burst := make([]event, 0, maxBurst)
	for first, alive := true, true; alive; first = false {
		p, err := rd.Next()
		if err == nil {
			if ic, ok := p.(*proto.ICReq); ok && first && ic.Prio.LatencySensitive() {
				// Decided once, by the connection's opening PDU: a lane
				// change later on would let a PDU overtake its predecessor.
				lane = laneLS
			}
			burst = append(burst, event{conn: c, pdu: p})
			if len(burst) < maxBurst && rd.Ready() {
				continue
			}
		} else {
			alive = false // what was decoded before the error still counts
		}
		if len(burst) == 0 {
			continue
		}
		c.queued.Add(int32(len(burst)))
		switch {
		case lane == laneLS && sh.q.borrow():
			// The reactor is parked with nothing queued: run the burst
			// here rather than wake it.
			s.lsInline.Add(1)
			sh.runLent(c, burst)
		case !sh.q.put(lane, burst...):
			for i := range burst {
				proto.ReleaseInbound(burst[i].pdu)
			}
			alive = false
		case lane == laneLS:
			s.lsPosted.Add(1)
		}
		clear(burst)
		burst = burst[:0]
		// Intake pauses while the reactor is behind on this connection's
		// commands or its writer on their responses, and the socket's own
		// flow control takes it from there.
		for alive && (c.queued.Load() >= maxQueuedPerConn || c.backlog() >= maxUnsentBytes) {
			select {
			case <-c.credit:
			case <-writerDone:
				alive = false // write error or reset: nothing left to serve
			case <-s.quit:
				alive = false
			}
		}
	}
	// The connection is dead: tear the session down on its reactor. The
	// lane is FIFO, so the teardown runs after every PDU posted above.
	sh.q.put(lane, event{conn: c})
	c.out.close()
	<-writerDone
}

// NewMemoryServer is a convenience: an in-memory target of the given
// geometry, for tests and examples.
func NewMemoryServer(addr string, mode targetqp.Mode, blockSize uint32, blocks uint64) (*Server, error) {
	dev, err := bdev.NewMemory(blockSize, blocks)
	if err != nil {
		return nil, err
	}
	return Listen(addr, ServerConfig{Mode: mode, Device: dev})
}
