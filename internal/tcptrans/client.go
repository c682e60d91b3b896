package tcptrans

import (
	"bufio"
	"errors"
	"fmt"
	"math/rand"
	"net"
	"sync"
	"time"

	"nvmeopf/internal/hostqp"
	"nvmeopf/internal/nvme"
	"nvmeopf/internal/proto"
	"nvmeopf/internal/telemetry"
)

// ErrClosed is returned for operations on a closed connection.
var ErrClosed = errors.New("tcptrans: connection closed")

// ConnConfig configures one initiator connection (class, window, queue
// depth, namespace).
type ConnConfig = hostqp.Config

// DialConfig bounds a connection's transport-level waits. The zero value
// gives the defaults below.
type DialConfig struct {
	// HandshakeTimeout bounds the ICReq/ICResp exchange (default 10s).
	HandshakeTimeout time.Duration
	// RequestTimeout bounds how long any submitted request may stay
	// outstanding (default 30s, the Linux nvme-tcp io-timeout default; <0
	// disables). A request exceeding it does not fail alone: like the
	// kernel initiator, the timeout escalates to a connection reset —
	// every outstanding request fails with StatusAborted and its CID is
	// released, so queue-pair depth cannot leak to a wedged target.
	RequestTimeout time.Duration
	// Dialer optionally replaces net.Dial (fault injection wraps the
	// socket here; see internal/faultnet.Dialer).
	Dialer func(network, addr string) (net.Conn, error)
	// WriteBatchBytes caps how many marshalled bytes one outbound drain
	// may coalesce into a single write syscall (default 256 KiB). 1
	// degenerates to one syscall per PDU, the pre-shard writer.
	WriteBatchBytes int
	// CoalesceBytes/CoalesceDelay open the submission-coalescing window:
	// when the outbound queue runs dry with fewer than CoalesceBytes
	// staged, the writer holds the batch up to CoalesceDelay waiting for
	// more submissions, so a stream of small commands shares one vectored
	// flush instead of paying a write syscall each — at the cost of up to
	// CoalesceDelay added submission latency. Setting either enables the
	// window (the other takes DefaultCoalesceBytes / DefaultCoalesceDelay);
	// both zero (the default) disable it, leaving the wire stream
	// byte-identical to an uncoalesced connection's.
	CoalesceBytes int
	CoalesceDelay time.Duration
	// TelemetryInterval is the cadence the connection emits TelemetryUpdate
	// PDUs on: the in-band feedback channel shipping host-observed
	// end-to-end latency deltas, outstanding depth, and busy/retry counts
	// to the target, whose ack re-estimates the clock offset each round.
	// Zero (the default) disables the channel entirely — nothing new
	// appears on the wire and the session skips e2e accumulation, so
	// behavior is bit-identical to a build without it.
	TelemetryInterval time.Duration
	// Recovery opts the connection into transparent reconnect + replay:
	// DialResilient returns a ResilientClient that re-dials after a
	// connection death and resubmits eligible requests instead of
	// surfacing every failure to the caller. Nil (the default) keeps the
	// plain fail-fast Conn semantics.
	Recovery *RecoveryConfig
}

// RecoveryConfig tunes a ResilientClient. The zero value of each field
// selects the default documented on it.
type RecoveryConfig struct {
	// MaxAttempts bounds each reconnect's dial loop (default 8); the
	// backoff policy is DialRetry's (exponential, 32× cap, jitter).
	MaxAttempts int
	// Backoff is the base reconnect backoff (default 10ms).
	Backoff time.Duration
	// Budget is the retry token bucket capacity (default 64). Every
	// replayed or busy-retried request consumes one token; an empty
	// bucket fails the request instead, so a sick target is never
	// amplified by a retry storm.
	Budget int
	// RefillInterval returns one token per interval (default 100ms).
	RefillInterval time.Duration
	// RequeueLS / RequeueTC gate replay after a connection loss by wire
	// class (latency-sensitive/normal vs throughput-critical). Replay
	// additionally requires the request to be idempotent: reads and
	// flushes always are; writes only with IO.Idempotent set.
	RequeueLS bool
	RequeueTC bool
	// BusyBackoff is the wait before resubmitting a request the target
	// answered with StatusBusy (default 2ms). Busy rejections were never
	// executed, so they retry regardless of idempotency — but still
	// consume budget.
	BusyBackoff time.Duration
	// Resolver, when set, is consulted before every reconnect attempt and
	// returns the address to dial — the cluster failover hook: a resolver
	// backed by the discovery map re-points recovery at the promoted
	// replica instead of the dead primary. A resolver error fails that
	// attempt (the retry loop backs off and asks again); nil keeps the
	// original address forever.
	Resolver func() (string, error)
}

func (r RecoveryConfig) withDefaults() RecoveryConfig {
	if r.MaxAttempts == 0 {
		r.MaxAttempts = 8
	}
	if r.Backoff == 0 {
		r.Backoff = 10 * time.Millisecond
	}
	if r.Budget == 0 {
		r.Budget = 64
	}
	if r.RefillInterval == 0 {
		r.RefillInterval = 100 * time.Millisecond
	}
	if r.BusyBackoff == 0 {
		r.BusyBackoff = 2 * time.Millisecond
	}
	return r
}

// Defaults for DialConfig zero fields.
const (
	DefaultHandshakeTimeout = 10 * time.Second
	DefaultRequestTimeout   = 30 * time.Second
)

func (d DialConfig) withDefaults() DialConfig {
	if d.HandshakeTimeout == 0 {
		d.HandshakeTimeout = DefaultHandshakeTimeout
	}
	if d.RequestTimeout == 0 {
		d.RequestTimeout = DefaultRequestTimeout
	}
	if d.Dialer == nil {
		d.Dialer = net.Dial
	}
	if d.WriteBatchBytes <= 0 {
		d.WriteBatchBytes = maxWriteBatch
	}
	if d.CoalesceBytes > 0 || d.CoalesceDelay > 0 {
		if d.CoalesceBytes <= 0 {
			d.CoalesceBytes = DefaultCoalesceBytes
		}
		if d.CoalesceDelay <= 0 {
			d.CoalesceDelay = DefaultCoalesceDelay
		}
	}
	return d
}

// Conn is one initiator connection to a TCP target. Submissions from any
// goroutine are serialized onto the connection's reactor, which owns the
// hostqp session. Synchronous helpers (Read/Write/Flush) block the caller
// until the request completes; Submit is the asynchronous primitive.
//
// Three goroutines serve a connection — reader, reactor, writer — joined
// by burstQueues: submitters and the reader post to the reactor's run
// queue, the reactor stages what a burst produced and hands it to the
// writer once. Each hand-off costs one lock and at most one wake per
// burst, never one per request.
type Conn struct {
	conn      net.Conn
	sess      *hostqp.Session
	tel       *telemetry.Registry
	q         burstQueue[cliEvent]  // the reactor's run queue
	out       burstQueue[proto.PDU] // the writer's queue; the reactor produces
	quit      chan struct{}
	dead      chan struct{} // closed when the transport breaks
	wg        sync.WaitGroup
	mu        sync.Mutex
	closed    bool
	connErr   error
	closeOnce sync.Once
	netOnce   sync.Once
	netErr    error

	// Owned by the reactor.
	waiting  []hostqp.IO // submissions beyond the queue depth, FIFO
	staged   []proto.PDU // the current burst's output, not yet in out
	idle     *time.Timer // tail-flush timer (see armIdleDrain)
	idleOn   bool        // idle is armed and has not fired
	lastPump int64       // now, when the reactor last pumped with a TC window open
	// now is the wall clock (UnixNano) as of the burst being handled: the
	// reactor reads it once per burst, and the session's clock, the
	// request-deadline sweep and the idle-drain timer all go by it.
	now int64

	// readBufs registers each in-flight read's destination buffer under
	// its CID, one slot per CID of the queue depth (written by the reactor
	// via the hostqp hooks, read by the reader's C2HSink under readMu) so
	// inbound C2HData payloads land directly in the caller's buffer at
	// Offset — the zero-copy read path. A CID the target made up finds no
	// slot and falls back to the pooled, bounded path.
	readMu   sync.Mutex
	readBufs [][]byte

	// bs is the namespace block size, set by the handshake before DialWith
	// returns and constant afterwards (Read sizes its buffers with it).
	bs uint32
}

// cliEvent is one entry of a connection's run queue: a submission (io.Done
// set), an inbound PDU, or control work that must run on the reactor.
type cliEvent struct {
	io  hostqp.IO
	pdu proto.PDU
	fn  func()
}

// netClose closes the socket exactly once, from whichever path gets
// there first (writer error, request-timeout escalation, failAll, Close).
func (c *Conn) netClose() {
	c.netOnce.Do(func() { c.netErr = c.conn.Close() })
}

// idleDrainDelay bounds how long a partial throughput-critical window may
// sit undrained while the application goes quiet. Coalescing defers
// completions until a draining request arrives (§III-C); an application
// that stops submitting mid-window would otherwise wait forever, so — like
// the timeout fallback every interrupt-coalescing scheme carries — the
// connection flushes the tail after this delay.
const idleDrainDelay = 2 * time.Millisecond

// Dial connects to a target and completes the handshake with default
// transport timeouts. cfg.Window and cfg.QueueDepth govern the connection
// exactly as in the simulator.
func Dial(addr string, cfg hostqp.Config) (*Conn, error) {
	return DialWith(addr, cfg, DialConfig{})
}

// DialWith is Dial with explicit transport timeouts and an optional
// custom dialer.
func DialWith(addr string, cfg hostqp.Config, dcfg DialConfig) (*Conn, error) {
	dcfg = dcfg.withDefaults()
	nc, err := dcfg.Dialer("tcp", addr)
	if err != nil {
		return nil, err
	}
	c := &Conn{
		conn: nc,
		tel:  cfg.Telemetry,
		quit: make(chan struct{}),
		dead: make(chan struct{}),
	}
	c.now = time.Now().UnixNano()
	c.q.init()
	c.out.init()
	// The read-buffer hooks are transport-owned: the session announces
	// each read's destination before the command hits the wire and retires
	// it when the request leaves the pending set, so the reader's sink
	// below can land C2HData payloads with no staging copy.
	// The session hands out CIDs below its queue depth only, so both hooks
	// index in range.
	cfg.OnReadBuffer = func(cid nvme.CID, buf []byte) {
		c.readMu.Lock()
		c.readBufs[cid] = buf
		c.readMu.Unlock()
	}
	cfg.OnReadRetire = func(cid nvme.CID) {
		c.readMu.Lock()
		c.readBufs[cid] = nil
		c.readMu.Unlock()
	}
	// The session's output is staged on the reactor and published by
	// flush, once per burst.
	sess, err := hostqp.New(cfg, func(p proto.PDU) { c.staged = append(c.staged, p) },
		func() int64 { return c.now })
	if err != nil {
		nc.Close()
		return nil, err
	}
	c.sess = sess
	c.readBufs = make([][]byte, cfg.QueueDepth) // validated by hostqp.New
	if dcfg.TelemetryInterval > 0 {
		// Attach the accumulator before any goroutine can touch the
		// session; the emission ticker starts below.
		sess.EnableE2E()
	}

	// Writer: stages queued PDUs into vectored batches (the same drain
	// helper as the server side) — headers into a reused buffer, large
	// write payloads referenced in place — and flushes each batch with
	// one (scatter-gather) write. Flushed structs recycle afterwards;
	// write payloads stay caller-owned, only the reference is dropped.
	// The writer gets the raw conn so writev is not defeated by a
	// wrapper type; socket teardown stays on the once-only netClose path
	// via closeConn.
	c.wg.Add(1)
	go func() {
		defer c.wg.Done()
		drainWriter(nc, &c.out, writerConfig{
			batch:         dcfg.WriteBatchBytes,
			coalesceBytes: dcfg.CoalesceBytes,
			coalesceDelay: dcfg.CoalesceDelay,
			release:       releaseClientPDU,
			closeConn:     c.netClose,
		})
	}()
	// Reactor: owns the session.
	c.wg.Add(1)
	go func() {
		defer c.wg.Done()
		c.run()
	}()
	// Reader: a pooling decoder with a zero-copy sink — C2HData payloads
	// for registered reads are written from the socket directly into the
	// request's destination buffer at Offset (no pool staging, no copy),
	// with out-of-range offsets and unknown CIDs declined here (bounded
	// pooled fallback) and rejected by the session as protocol errors.
	// Response structs still come from the proto pools and are released
	// right after the session consumes them, so the receive hot path is
	// allocation-free. Everything the socket delivered at once reaches the
	// reactor in one post.
	c.wg.Add(1)
	go func() {
		defer c.wg.Done()
		// Buffered socket reads: the zero-copy sink splits each C2HData
		// into header/PSH/payload reads, so without buffering every data
		// PDU would cost an extra read syscall. With the buffer, headers
		// come from memory and payload reads drain the buffer before
		// falling through to direct reads into the destination.
		rd := proto.NewReader(bufio.NewReaderSize(nc, 64<<10), true)
		rd.SetC2HSink(func(cid nvme.CID, off, n uint32) []byte {
			var buf []byte
			c.readMu.Lock()
			if int(cid) < len(c.readBufs) {
				buf = c.readBufs[cid]
			}
			c.readMu.Unlock()
			if end := uint64(off) + uint64(n); buf == nil || end > uint64(len(buf)) {
				return nil
			}
			return buf[off : off+n]
		})
		burst := make([]cliEvent, 0, maxBurst)
		for {
			p, err := rd.Next()
			if err == nil {
				// burst[len:cap] is zeroed (cleared after every post) and
				// len < maxBurst here, so the next event is claimed in
				// place rather than built and copied in.
				burst = burst[:len(burst)+1]
				burst[len(burst)-1].pdu = p
				if len(burst) < maxBurst && rd.Ready() {
					continue
				}
			} else {
				// After what was decoded before it, the error.
				burst = append(burst, cliEvent{fn: func() { c.failAll(fmt.Errorf("tcptrans: read: %w", err)) }})
			}
			if !c.q.put(laneNormal, burst...) {
				for i := range burst {
					proto.ReleaseInbound(burst[i].pdu)
				}
				return
			}
			clear(burst)
			burst = burst[:0]
			if err != nil {
				return
			}
		}
	}()
	// Request-deadline sweeper: if the oldest outstanding request exceeds
	// RequestTimeout, reset the connection (all CIDs fail and release via
	// failAll) rather than waiting on a wedged or partitioned target.
	if dcfg.RequestTimeout > 0 {
		period := dcfg.RequestTimeout / 4
		if period < time.Millisecond {
			period = time.Millisecond
		}
		c.every(period, func() {
			ts, ok := c.sess.OldestSubmittedAt()
			if !ok {
				return
			}
			if age := c.now - ts; age > int64(dcfg.RequestTimeout) {
				c.netClose()
				c.failAll(fmt.Errorf("tcptrans: request timeout: oldest outstanding request %v old (limit %v)",
					time.Duration(age), dcfg.RequestTimeout))
			}
		})
	}

	// Telemetry cadence: on each tick the reactor snapshots the session's
	// e2e deltas into one TelemetryUpdate and queues it on the writer.
	// Heartbeat updates (no new samples) still go out — they refresh the
	// target's queue-depth gauge and the clock-offset estimate.
	if dcfg.TelemetryInterval > 0 {
		c.every(dcfg.TelemetryInterval, func() {
			if u := c.sess.BuildTelemetryUpdate(); u != nil {
				c.staged = append(c.staged, u)
			}
		})
	}

	// Handshake.
	connected := make(chan error, 1)
	c.post(func() {
		sess.OnConnect(func() {
			c.bs = sess.BlockSize()
			connected <- nil
		})
		sess.Start()
	})
	select {
	case <-connected:
	case <-c.dead:
		// The target rejected or dropped us: fail now with the real
		// error instead of sitting out the timeout. connErr is written on
		// the reactor before dead is closed, so this read is safe.
		err := c.connErr
		c.Close()
		return nil, fmt.Errorf("tcptrans: handshake failed: %w", err)
	case <-time.After(dcfg.HandshakeTimeout):
		c.Close()
		c.tel.IncTransportError()
		return nil, fmt.Errorf("tcptrans: handshake timeout after %v", dcfg.HandshakeTimeout)
	}
	return c, nil
}

// every runs fn on the reactor each period while the connection is
// healthy, from a goroutine that ends with the connection.
func (c *Conn) every(period time.Duration, fn func()) {
	tick := func() {
		if c.connErr == nil {
			fn()
		}
	}
	c.wg.Add(1)
	go func() {
		defer c.wg.Done()
		t := time.NewTicker(period)
		defer t.Stop()
		for {
			select {
			case <-t.C:
				c.post(tick)
			case <-c.dead:
				return
			case <-c.quit:
				return
			}
		}
	}()
}

// run is the reactor loop: it handles one burst of events, submits what
// queue depth now allows (only traffic pumps, so the idle timer's own
// event does not count as activity), and hands everything the burst
// produced to the writer in one go.
func (c *Conn) run() {
	var burst []cliEvent
	for {
		var open bool
		if burst, open = c.q.next(burst); !open {
			return
		}
		c.now = time.Now().UnixNano()
		traffic := false // a submission arrived or a PDU may have freed a slot
		for i := range burst {
			switch ev := &burst[i]; {
			case ev.fn != nil:
				// Control work keeps its place among the submissions: a
				// DrainNext posted between two Submits flags the second.
				if traffic && c.connErr == nil {
					c.pump()
					traffic = false
				}
				ev.fn()
			case ev.pdu != nil:
				if c.connErr == nil {
					if err := c.sess.HandlePDU(ev.pdu); err != nil {
						c.failAll(err)
					}
				}
				proto.ReleaseInbound(ev.pdu)
				traffic = true
			case c.connErr != nil:
				ev.io.Done(hostqp.Result{Status: nvme.StatusInternalError})
			default:
				c.waiting = append(c.waiting, ev.io)
				traffic = true
			}
		}
		clear(burst)
		if traffic && c.connErr == nil {
			c.pump()
		}
		c.flush()
	}
}

// flush publishes the staged PDUs to the writer: one lock, at most one
// wake. Once the writer is gone they are released instead. Runs on the
// reactor.
func (c *Conn) flush() {
	if len(c.staged) == 0 {
		return
	}
	if !c.out.put(laneNormal, c.staged...) {
		for _, p := range c.staged {
			releaseClientPDU(p)
		}
	}
	clear(c.staged)
	c.staged = c.staged[:0]
}

// IsPermanent reports whether a dial error is a protocol-level rejection
// (version mismatch, unknown namespace, target termination) that retrying
// the same configuration can never fix.
func IsPermanent(err error) bool {
	var pe *hostqp.ProtocolError
	return errors.As(err, &pe)
}

// DialRetry dials with up to attempts tries. backoff is the wait after
// the first failure; it doubles per attempt (capped at 32×) with up to
// 50% added jitter so a fleet of initiators reconnecting to a restarted
// target does not stampede in lockstep. Permanent protocol rejections
// (see IsPermanent) abort the loop immediately: a target that speaks the
// wrong PFV or lacks the namespace will still do so on attempt N. Every
// successful dial after the first failed attempt counts as a reconnect in
// cfg.Telemetry.
func DialRetry(addr string, cfg hostqp.Config, attempts int, backoff time.Duration) (*Conn, error) {
	return DialRetryWith(addr, cfg, DialConfig{}, attempts, backoff)
}

// DialRetryWith is DialRetry with explicit transport timeouts.
func DialRetryWith(addr string, cfg hostqp.Config, dcfg DialConfig, attempts int, backoff time.Duration) (*Conn, error) {
	rng := rand.New(rand.NewSource(time.Now().UnixNano()))
	c, used, err := retryLoop(attempts, backoff, time.Sleep, rng, func() (*Conn, error) {
		return DialWith(addr, cfg, dcfg)
	})
	if err != nil {
		return nil, err
	}
	if used > 1 {
		cfg.Telemetry.IncReconnect()
	}
	return c, nil
}

// defaultRetryBackoff floors the DialRetry backoff: a zero (or negative)
// base would make every wait zero — maxBackoff = 32×0 — so a fleet
// pointed at a dead target would reconnect-hammer it in a busy loop with
// no jitter to break the lockstep.
const defaultRetryBackoff = 10 * time.Millisecond

// retryLoop is DialRetry's backoff engine, with the clock (sleep) and
// jitter source injectable so the policy is testable without real waits:
// the wait after attempt N doubles per attempt from backoff (floored at
// defaultRetryBackoff), capped at 32×backoff, plus up to 50% jitter; a
// permanent protocol rejection stops the loop immediately. Returns how
// many attempts were consumed.
func retryLoop(attempts int, backoff time.Duration, sleep func(time.Duration), rng *rand.Rand, dial func() (*Conn, error)) (*Conn, int, error) {
	if attempts < 1 {
		attempts = 1
	}
	if backoff <= 0 {
		backoff = defaultRetryBackoff
	}
	maxBackoff := 32 * backoff
	wait := backoff
	var lastErr error
	for i := 0; i < attempts; i++ {
		if i > 0 {
			d := wait
			if d > 0 {
				d += time.Duration(rng.Int63n(int64(d)/2 + 1))
			}
			sleep(d)
			if wait *= 2; wait > maxBackoff {
				wait = maxBackoff
			}
		}
		c, err := dial()
		if err == nil {
			return c, i + 1, nil
		}
		lastErr = err
		if IsPermanent(err) {
			return nil, i + 1, lastErr
		}
	}
	return nil, attempts, lastErr
}

// Err returns the error that broke the connection, or nil while it is
// healthy. Safe from any goroutine: connErr is written on the reactor
// strictly before dead is closed.
func (c *Conn) Err() error {
	select {
	case <-c.dead:
		return c.connErr
	default:
		return nil
	}
}

// post schedules fn on the reactor; false once the connection is closed.
func (c *Conn) post(fn func()) bool { return c.q.put(laneNormal, cliEvent{fn: fn}) }

// failAll marks the connection broken, fails every outstanding request —
// in-flight CIDs through hostqp.Session.FailAll (releasing them, so
// queue-pair depth cannot leak), then the not-yet-submitted backlog — and
// closes the socket. Runs on the reactor.
func (c *Conn) failAll(err error) {
	if c.connErr == nil {
		c.connErr = err
		c.mu.Lock()
		closed := c.closed
		c.mu.Unlock()
		if !closed {
			// Count only real failures, not the reader unblocking
			// during a deliberate Close.
			c.tel.IncTransportError()
		}
		close(c.dead)
		c.netClose()
		c.out.close() // the writer ends here; later output is released, not queued
	}
	c.sess.FailAll(nvme.StatusAborted)
	for _, io := range c.waiting {
		io.Done(hostqp.Result{Status: nvme.StatusAborted})
	}
	clear(c.waiting)
	c.waiting = c.waiting[:0]
}

// pump submits queued ops while the session has queue-depth headroom.
// Runs on the reactor, once per burst of events.
func (c *Conn) pump() {
	n := 0
	for ; n < len(c.waiting); n++ {
		io := c.waiting[n]
		if io.Op == nvme.OpFlush {
			// A flush is a durability barrier: make it drain the current
			// TC window so everything before it completes with it.
			c.sess.Flush()
		}
		if err := c.sess.Submit(io); err != nil {
			if errors.Is(err, hostqp.ErrQueueFull) {
				break
			}
			io.Done(hostqp.Result{Status: nvme.StatusInternalError})
		}
	}
	if n > 0 {
		rest := copy(c.waiting, c.waiting[n:])
		clear(c.waiting[rest:])
		c.waiting = c.waiting[:rest]
	}
	c.armIdleDrain()
}

// armIdleDrain keeps the tail-flush timer running while a TC window is
// open; runs on the reactor. The timer is not pushed back on every pump:
// a pump only notes the time, and the timer, when it fires, re-arms itself
// for whatever is left of idleDrainDelay since the last pump — one timer
// operation per delay, not per burst.
func (c *Conn) armIdleDrain() {
	// Scavenger windows drain on the target's schedule (leftover capacity
	// or the aging bound), not the host's: flushing the tail here would
	// defeat the whole point of parking best-effort work.
	if c.sess.Scavenger() || c.sess.PendingTC() == 0 {
		return
	}
	c.lastPump = c.now
	if c.idleOn {
		return
	}
	c.idleOn = true
	if c.idle == nil {
		c.idle = time.AfterFunc(idleDrainDelay, c.idleFlush)
	} else {
		c.idle.Reset(idleDrainDelay)
	}
}

// idleFlush is the idle timer's callback: flush the partial TC window of
// a connection that went quiet. Posting to a closed connection is a
// no-op, so a timer that fires during teardown cannot touch dead state.
func (c *Conn) idleFlush() {
	c.post(func() {
		c.idleOn = false
		if c.connErr != nil || c.sess.Scavenger() || c.sess.PendingTC() == 0 {
			return
		}
		if quiet := time.Duration(c.now - c.lastPump); quiet < idleDrainDelay {
			c.idleOn = true
			c.idle.Reset(idleDrainDelay - quiet)
			return
		}
		if !c.sess.CanSubmit() {
			return // the completion that frees a slot pumps, and re-arms
		}
		c.sess.Flush()
		_ = c.sess.Submit(hostqp.IO{Op: nvme.OpFlush, Done: func(hostqp.Result) {}})
	})
}

// Submit issues an asynchronous I/O; the Done callback runs on the
// connection's reactor goroutine. Ops beyond the queue depth wait
// internally.
//
// A read's destination follows hostqp.IO.Data: with io.Data set (Blocks ×
// block size bytes) the payload lands there and Result.Data aliases it;
// with io.Data nil, Result.Data is a buffer owned by the connection,
// valid until Done returns and then reused — copy out of it, or supply
// Data, to keep the bytes longer.
func (c *Conn) Submit(io hostqp.IO) error {
	if io.Done == nil {
		return errors.New("tcptrans: IO without Done callback")
	}
	if !c.q.put(laneNormal, cliEvent{io: io}) {
		return ErrClosed
	}
	return nil
}

// result pairs a Result with transport-level errors for the sync API.
type result struct {
	r hostqp.Result
}

// do runs one I/O synchronously.
func (c *Conn) do(io hostqp.IO) (hostqp.Result, error) {
	if io.Op == nvme.OpRead && io.Data == nil {
		// The result outlives the completion callback, so the destination
		// must be the caller's to keep, not one the session lends and reuses.
		io.Data = make([]byte, int(io.Blocks)*int(c.bs))
	}
	ch := make(chan result, 1)
	io.Done = func(r hostqp.Result) { ch <- result{r} }
	if err := c.Submit(io); err != nil {
		return hostqp.Result{}, err
	}
	select {
	case res := <-ch:
		if !res.r.Status.OK() {
			return res.r, fmt.Errorf("tcptrans: I/O failed: %v", res.r.Status)
		}
		return res.r, nil
	case <-c.dead:
		return hostqp.Result{}, fmt.Errorf("tcptrans: connection broken: %w", ErrClosed)
	case <-c.quit:
		return hostqp.Result{}, ErrClosed
	}
}

// Read fetches blocks synchronously. prio overrides the connection class
// when nonzero.
func (c *Conn) Read(lba uint64, blocks uint32, prio proto.Priority) ([]byte, error) {
	r, err := c.do(hostqp.IO{Op: nvme.OpRead, LBA: lba, Blocks: blocks, Prio: prio})
	if err != nil {
		return nil, err
	}
	return r.Data, nil
}

// Write stores data (a multiple of the namespace block size) synchronously.
func (c *Conn) Write(lba uint64, data []byte, prio proto.Priority) error {
	// c.bs is the handshake's geometry, valid for the life of the
	// connection; a closed or broken one is reported by do.
	if len(data) == 0 || len(data)%int(c.bs) != 0 {
		return fmt.Errorf("tcptrans: %d bytes is not a multiple of the %dB block size", len(data), c.bs)
	}
	_, err := c.do(hostqp.IO{Op: nvme.OpWrite, LBA: lba, Blocks: uint32(len(data) / int(c.bs)), Data: data, Prio: prio})
	return err
}

// BlockSize returns the namespace block size discovered at handshake, 0
// once the connection is closed. It does not wait for the reactor.
func (c *Conn) BlockSize() uint32 {
	select {
	case <-c.quit:
		return 0
	default:
		return c.bs
	}
}

// Capacity returns the namespace capacity in blocks discovered at
// handshake.
func (c *Conn) Capacity() uint64 {
	ch := make(chan uint64, 1)
	if !c.post(func() { ch <- c.sess.Capacity() }) {
		return 0
	}
	select {
	case v := <-ch:
		return v
	case <-c.quit:
		return 0
	}
}

// WriteBlocks stores data of arbitrary block geometry.
func (c *Conn) WriteBlocks(lba uint64, data []byte, blockSize uint32, prio proto.Priority) error {
	if blockSize == 0 || len(data)%int(blockSize) != 0 {
		return fmt.Errorf("tcptrans: %d bytes not a multiple of block size %d", len(data), blockSize)
	}
	_, err := c.do(hostqp.IO{Op: nvme.OpWrite, LBA: lba, Blocks: uint32(len(data) / int(blockSize)), Data: data, Prio: prio})
	return err
}

// Flush issues a flush command.
func (c *Conn) Flush() error {
	_, err := c.do(hostqp.IO{Op: nvme.OpFlush})
	return err
}

// DrainNext forces the next TC submission to carry the draining flag.
func (c *Conn) DrainNext() {
	c.post(func() { c.sess.Flush() })
}

// Defer runs fn on the connection's reactor goroutine — the context every
// Submit completion callback runs on. Single-goroutine state machines
// (e.g. the h5bench kernels) use it to serialize their own transitions
// with their I/O callbacks.
func (c *Conn) Defer(fn func()) { c.post(fn) }

// Telemetry returns the live metrics registry the connection was
// configured with (nil when telemetry is disabled). Safe from any
// goroutine.
func (c *Conn) Telemetry() *telemetry.Registry { return c.tel }

// AddE2ERetries counts n host-side resubmissions into the connection's
// e2e feedback accumulator. No-op when DialConfig.TelemetryInterval is
// unset; safe from any goroutine (the accumulator is attached before the
// connection's goroutines start and its counters are atomic).
func (c *Conn) AddE2ERetries(n int64) { c.sess.E2E().AddRetries(n) }

// Stats snapshots the session counters.
func (c *Conn) Stats() hostqp.Stats {
	ch := make(chan hostqp.Stats, 1)
	if !c.post(func() { ch <- c.sess.Stats() }) {
		return hostqp.Stats{}
	}
	select {
	case st := <-ch:
		return st
	case <-c.quit:
		return hostqp.Stats{}
	}
}

// ClockOffset returns the handshake-estimated target-minus-host clock
// offset and the RTT bounding its error (zero when the target shares no
// clock). opf-trace uses it to merge host and target recorder dumps.
func (c *Conn) ClockOffset() (offset, rtt int64) {
	type pair struct{ off, rtt int64 }
	ch := make(chan pair, 1)
	if !c.post(func() {
		o, r := c.sess.ClockOffset()
		ch <- pair{o, r}
	}) {
		return 0, 0
	}
	select {
	case p := <-ch:
		return p.off, p.rtt
	case <-c.quit:
		return 0, 0
	}
}

// Tenant returns the target-assigned tenant ID.
func (c *Conn) Tenant() proto.TenantID {
	ch := make(chan proto.TenantID, 1)
	if !c.post(func() { ch <- c.sess.Tenant() }) {
		return 0
	}
	select {
	case t := <-ch:
		return t
	case <-c.quit:
		return 0
	}
}

// Close tears the connection down: closes the socket and waits for the
// reader, writer, reactor, and deadline-sweeper goroutines to exit.
// Idempotent and safe to call concurrently — every caller blocks until
// the teardown (whichever call performs it) has finished.
func (c *Conn) Close() error {
	c.closeOnce.Do(func() {
		c.mu.Lock()
		c.closed = true
		c.mu.Unlock()
		c.netClose()
		close(c.quit)
		c.q.close()
		c.out.close()
		c.wg.Wait()
		// The reactor has exited (wg.Wait above), so reading the timer it
		// owned is race-free.
		if c.idle != nil {
			c.idle.Stop()
		}
	})
	return c.netErr
}
