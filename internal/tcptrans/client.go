package tcptrans

import (
	"bufio"
	"errors"
	"fmt"
	"math/rand"
	"net"
	"sync"
	"sync/atomic"
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
	// every outstanding request fails with StatusAborted and the reset's
	// cause in Result.Err, and its CID is released, so queue-pair depth
	// cannot leak to a wedged target.
	RequestTimeout time.Duration
	// Dialer optionally replaces net.Dial (fault injection wraps the
	// socket here; see internal/faultnet.Dialer).
	Dialer func(network, addr string) (net.Conn, error)
	// TelemetryInterval is the cadence the connection emits TelemetryUpdate
	// PDUs on: the in-band feedback channel shipping host-observed
	// end-to-end latency deltas, outstanding depth, and busy/retry counts
	// to the target, whose ack re-estimates the clock offset each round.
	// Zero (the default) disables the channel entirely — nothing new
	// appears on the wire and the session skips e2e accumulation, so
	// behavior is bit-identical to a build without it.
	TelemetryInterval time.Duration
	// Recovery is the connection's policy when its socket dies. Nil (the
	// default) fails fast: every outstanding request completes with the
	// cause in Result.Err and later submissions are refused the same way.
	// Set, the same Conn re-dials in the background and resubmits what the
	// policy allows — the replayed requests re-enter the reactor's backlog
	// in order — instead of surfacing the loss to the caller.
	Recovery *RecoveryConfig
}

// RecoveryConfig is a Conn's reconnect-and-replay policy. The zero value
// of each field selects the default documented on it.
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
	// returns the address to dial — the failover hook: a resolver can
	// re-point recovery at a promoted replica instead of the dead
	// primary. A resolver error fails that
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
	return d
}

// Conn is one initiator connection to a TCP target. Submissions from any
// goroutine are serialized onto the connection's reactor, which owns the
// hostqp session. Synchronous helpers (Read/Write/Flush/Do) block the
// caller until the request completes; Submit is the asynchronous
// primitive.
//
// Three goroutines serve a socket — reader, reactor, writer — joined by
// burstQueues: submitters and the reader post to the reactor's run queue,
// the reactor stages what a burst produced and hands it to the writer
// once. Each hand-off costs one lock and at most one wake per burst, never
// one per request.
//
// A latency-sensitive connection skips the hand-offs it can: while the
// reactor is parked with nothing queued, a submitter borrows it to submit
// its request, and the reader borrows it to complete what a burst carried,
// so Done runs on the reader's goroutine; while the writer is parked too,
// whoever holds the reactor writes the burst's output itself, in one
// non-blocking write. When either is busy the burst is posted as above.
//
// A throughput-critical connection's reactor and writer park in the network
// poller instead of on their wake channels while any latency-sensitive Conn
// is open in the process, so the flood's hand-offs stop holding the LS
// connection's goroutines off the processors (see parkInPoller).
//
// The reactor, its run queue and its backlog belong to the Conn; the
// socket, session, reader and writer belong to a link, which is what a
// reconnect under DialConfig.Recovery replaces.
type Conn struct {
	addr      string // what the next dial goes to (the Resolver may move it)
	cfg       hostqp.Config
	dcfg      DialConfig
	rcfg      *RecoveryConfig // nil: fail fast
	tel       *telemetry.Registry
	q         burstQueue[cliEvent] // the reactor's run queue
	quit      chan struct{}
	dead      chan struct{} // closed when a fail-fast connection breaks
	wg        sync.WaitGroup
	closeOnce sync.Once
	closed    atomic.Bool
	// ls: the connection's class is latency-sensitive, so its submissions,
	// completions and writes run inline whenever the reactor and writer
	// are idle; lsInline and lsPosted count which way its bursts went.
	ls                 bool
	lsInline, lsPosted atomic.Int64

	mu  sync.Mutex
	err error // Err's answer, written by the reactor

	// bs is the namespace block size of the latest handshake; an outage
	// keeps it (Read and Write size their commands with it).
	bs         atomic.Uint32
	reconnects atomic.Int64

	// Owned by the reactor.
	ln   *link
	sess *hostqp.Session // ln's session
	// connErr is why ln is down; nil while it is handshaking or up.
	connErr  error
	waiting  []hostqp.IO // submissions beyond the queue depth, FIFO
	staged   []proto.PDU // the current burst's output, not yet in ln.out
	idle     *time.Timer // tail-flush timer (see armIdleDrain)
	idleOn   bool        // idle is armed and has not fired
	lastPump int64       // now, when the reactor last pumped with a TC window open
	// now is the wall clock (UnixNano) as of the burst being handled: the
	// reactor reads it once per burst, and the session's clock, the
	// request-deadline sweep and the idle-drain timer all go by it.
	now int64

	// Recovery state, owned by the reactor (see recovery.go).
	dialing    bool       // a redial is in progress
	replaying  bool       // failAll is failing in-flight requests of a lost link
	parked     []parkedIO // busy rejections waiting out BusyBackoff, by due time
	retry      *time.Timer
	retryOn    bool
	owed       int64 // resubmissions not yet counted in telemetry
	tokens     int
	lastRefill int64
}

// link is one socket's worth of a Conn: the part a reconnect replaces.
type link struct {
	nc      net.Conn
	out     burstQueue[proto.PDU] // the writer's queue; the reactor produces
	direct  *direct               // nil: every write goes through the writer
	wg      sync.WaitGroup        // reader and writer
	up      chan error            // the handshake's outcome, sent once
	settled bool                  // up was sent (reactor-owned)
	netOnce sync.Once
	netErr  error

	// readBufs registers each in-flight read's destination buffer under
	// its CID, one slot per CID of the queue depth (written by the reactor
	// via the hostqp hooks, read by the reader's C2HSink under readMu) so
	// inbound C2HData payloads land directly in the caller's buffer at
	// Offset — the zero-copy read path. A CID the target made up finds no
	// slot and falls back to the pooled, bounded path.
	readMu   sync.Mutex
	readBufs [][]byte
}

// close closes the socket exactly once, from whichever path gets there
// first (writer error, request-timeout escalation, failAll).
func (ln *link) close() {
	ln.netOnce.Do(func() { ln.netErr = ln.nc.Close() })
}

// settle reports the handshake's outcome to the dial waiting for it, once.
// Runs on the reactor.
func (ln *link) settle(err error) {
	if !ln.settled {
		ln.settled = true
		ln.up <- err
	}
}

// cliEvent is one entry of a connection's run queue: a submission (io.Done
// set), an inbound PDU, or control work that must run on the reactor.
type cliEvent struct {
	io  hostqp.IO
	pdu proto.PDU
	fn  func()
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

// DialWith is Dial with explicit transport timeouts, an optional custom
// dialer, and an optional recovery policy. It returns once the first
// handshake completes: a target that is down at start-up fails the dial
// whatever the policy.
func DialWith(addr string, cfg hostqp.Config, dcfg DialConfig) (*Conn, error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	dcfg = dcfg.withDefaults()
	c := &Conn{
		addr:    addr,
		cfg:     cfg,
		dcfg:    dcfg,
		tel:     cfg.Telemetry,
		quit:    make(chan struct{}),
		dead:    make(chan struct{}),
		connErr: ErrClosed, // no link yet
		dialing: true,      // the first dial below
		ls:      cfg.Class.LatencySensitive(),
	}
	if dcfg.Recovery != nil {
		r := dcfg.Recovery.withDefaults()
		c.rcfg = &r
		c.tokens = r.Budget
	}
	if c.ls {
		lsConns.Add(1) // Close lowers it, whether or not the dial succeeds
	}
	c.now = time.Now().UnixNano()
	c.lastRefill = c.now
	c.q.init()
	c.q.poller = cfg.Class.ThroughputCritical()
	c.wg.Add(1)
	go func() {
		defer c.wg.Done()
		c.run()
	}()
	if err := c.connect(addr); err != nil {
		c.Close()
		return nil, err
	}
	c.post(func() { c.redialed(nil) })

	// Request-deadline sweeper: if the oldest outstanding request exceeds
	// RequestTimeout, reset the connection (all CIDs fail and release via
	// failAll) rather than waiting on a wedged or partitioned target.
	if dcfg.RequestTimeout > 0 {
		period := max(dcfg.RequestTimeout/4, time.Millisecond)
		c.every(period, func() {
			ts, ok := c.sess.OldestSubmittedAt()
			if !ok {
				return
			}
			if age := c.now - ts; age > int64(dcfg.RequestTimeout) {
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
	return c, nil
}

// connect dials addr and runs the handshake on the reactor, returning once
// it has completed or failed. A failed link's reader and writer have
// exited by the time it returns, so nothing of it can reach the reactor
// after a later link is installed. Runs off the reactor: the dial blocks.
func (c *Conn) connect(addr string) error {
	nc, err := c.dcfg.Dialer("tcp", addr)
	if err != nil {
		return err
	}
	ln := &link{nc: nc, up: make(chan error, 1)}
	ln.out.init()
	ln.out.poller = c.q.poller
	ln.wg.Add(2) // install starts the reader and the writer, or stands in for them
	if !c.post(func() { c.install(ln) }) {
		nc.Close()
		return ErrClosed
	}
	timeout := time.AfterFunc(c.dcfg.HandshakeTimeout, func() {
		c.post(func() {
			if c.ln == ln && c.connErr == nil && !c.sess.Connected() {
				c.failAll(fmt.Errorf("tcptrans: handshake timeout after %v", c.dcfg.HandshakeTimeout))
			}
		})
	})
	err = <-ln.up
	timeout.Stop()
	if err != nil {
		ln.wg.Wait()
		return fmt.Errorf("tcptrans: handshake failed: %w", err)
	}
	return nil
}

// install makes ln the connection's link — a fresh session, its writer and
// reader — and sends the ICReq. Runs on the reactor.
func (c *Conn) install(ln *link) {
	if c.closed.Load() {
		ln.close()
		ln.wg.Done()
		ln.wg.Done()
		ln.settle(ErrClosed)
		return
	}
	// The read-buffer hooks are transport-owned: the session announces
	// each read's destination before the command hits the wire and retires
	// it when the request leaves the pending set, so the reader's sink can
	// land C2HData payloads with no staging copy. The session hands out
	// CIDs below its queue depth only, so both hooks index in range.
	ln.readBufs = make([][]byte, c.cfg.QueueDepth)
	cfg := c.cfg
	cfg.OnReadBuffer = func(cid nvme.CID, buf []byte) {
		ln.readMu.Lock()
		ln.readBufs[cid] = buf
		ln.readMu.Unlock()
	}
	cfg.OnReadRetire = func(cid nvme.CID) {
		ln.readMu.Lock()
		ln.readBufs[cid] = nil
		ln.readMu.Unlock()
	}
	// The session's output is staged on the reactor and published by
	// flush, once per burst. cfg was validated by DialWith.
	sess, _ := hostqp.New(cfg, c.stage, c.clock)
	if c.dcfg.TelemetryInterval > 0 {
		sess.EnableE2E()
	}
	c.ln, c.sess, c.connErr = ln, sess, nil
	if c.ls {
		ln.direct = newDirect(ln.nc, releaseClientPDU, nil)
	}

	// Writer: stages queued PDUs into vectored batches (the same drain
	// helper as the server side) — headers into a reused buffer, large
	// write payloads referenced in place — and flushes each batch with
	// one (scatter-gather) write. Flushed structs recycle afterwards;
	// write payloads stay caller-owned, only the reference is dropped.
	// The writer gets the raw conn so writev is not defeated by a
	// wrapper type; socket teardown stays on the once-only close path.
	go func() {
		defer ln.wg.Done()
		drainWriter(ln.nc, &ln.out, writerConfig{
			release:   releaseClientPDU,
			closeConn: ln.close,
			direct:    ln.direct,
		})
	}()
	go func() {
		defer ln.wg.Done()
		c.read(ln)
	}()
	sess.OnConnect(func() {
		c.bs.Store(sess.BlockSize())
		c.setErr(nil)
		ln.settle(nil)
	})
	sess.Start()
}

func (c *Conn) stage(p proto.PDU) { c.staged = append(c.staged, p) }

func (c *Conn) clock() int64 { return c.now }

// live reports whether the link is up and past its handshake. Runs on the
// reactor.
func (c *Conn) live() bool { return c.connErr == nil && c.sess.Connected() }

// read is ln's reader: a pooling decoder with a zero-copy sink — C2HData
// payloads for registered reads are written from the socket directly into
// the request's destination buffer at Offset (no pool staging, no copy),
// with out-of-range offsets and unknown CIDs declined here (bounded pooled
// fallback) and rejected by the session as protocol errors. Response
// structs still come from the proto pools and are released right after
// the session consumes them, so the receive hot path is allocation-free.
// Everything the socket delivered at once reaches the reactor in one post —
// or, on a latency-sensitive connection whose reactor is parked with
// nothing queued, is handled here on a loan of the reactor.
func (c *Conn) read(ln *link) {
	// Buffered socket reads: the zero-copy sink splits each C2HData into
	// header/PSH/payload reads, so without buffering every data PDU would
	// cost an extra read syscall. With the buffer, headers come from
	// memory and payload reads drain the buffer before falling through to
	// direct reads into the destination.
	rd := proto.NewReader(bufio.NewReaderSize(ln.nc, 64<<10), true)
	rd.SetC2HSink(func(cid nvme.CID, off, n uint32) []byte {
		var buf []byte
		ln.readMu.Lock()
		if int(cid) < len(ln.readBufs) {
			buf = ln.readBufs[cid]
		}
		ln.readMu.Unlock()
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
			// len < maxBurst here, so the next event is claimed in place
			// rather than built and copied in.
			burst = burst[:len(burst)+1]
			burst[len(burst)-1].pdu = p
			if len(burst) < maxBurst && rd.Ready() {
				continue
			}
		} else {
			// After what was decoded before it, the error.
			burst = append(burst, cliEvent{fn: func() {
				if c.ln == ln {
					c.failAll(fmt.Errorf("tcptrans: read: %w", err))
				}
			}})
		}
		switch {
		case c.ls && c.q.borrow():
			c.lsInline.Add(1)
			c.handle(burst)
			c.q.giveBack(false)
		case !c.q.put(laneNormal, burst...):
			for i := range burst {
				proto.ReleaseInbound(burst[i].pdu)
			}
			return
		case c.ls:
			c.lsPosted.Add(1)
		}
		clear(burst)
		burst = burst[:0]
		if err != nil {
			return
		}
	}
}

// every runs fn on the reactor each period while the link is up, from a
// goroutine that ends with the connection.
func (c *Conn) every(period time.Duration, fn func()) {
	tick := func() {
		if c.live() {
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

// run is the reactor loop. Once the connection is closed it handles what
// was still queued — a submission fails, a freshly dialed link is shut —
// and then fails everything outstanding with ErrClosed, so every
// completion has run by the time Close returns.
func (c *Conn) run() {
	var burst []cliEvent
	for {
		var open bool
		if burst, open = c.q.next(burst); !open {
			break
		}
		c.handle(burst)
	}
	c.q.dropPipe() // the last wait has returned
	c.handle(c.q.take(laneNormal, burst))
	c.failAll(ErrClosed)
	if c.idle != nil {
		c.idle.Stop()
	}
	if c.retry != nil {
		c.retry.Stop()
	}
}

// handle runs one burst of events, submits what queue depth now allows
// (only traffic pumps, so the idle timer's own event does not count as
// activity), and hands everything the burst produced to the writer in one
// go.
func (c *Conn) handle(burst []cliEvent) {
	c.now = time.Now().UnixNano()
	traffic := false // a submission arrived or a PDU may have freed a slot
	for i := range burst {
		switch ev := &burst[i]; {
		case ev.fn != nil:
			// Control work keeps its place among the submissions: a
			// DrainNext posted between two Submits flags the second.
			if traffic && c.live() {
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
		case c.rcfg != nil:
			c.waiting = append(c.waiting, c.guard(ev.io))
			if c.connErr != nil {
				c.redial()
			}
			traffic = true
		case c.connErr != nil:
			ev.io.Done(hostqp.Result{Status: nvme.StatusAborted, Err: c.connErr})
		default:
			c.waiting = append(c.waiting, ev.io)
			traffic = true
		}
	}
	clear(burst)
	if traffic && c.live() {
		c.pump()
	}
	c.flush()
}

// flush publishes the staged PDUs to the writer: one lock, at most one
// wake. Once the writer is gone they are released instead. A
// latency-sensitive connection whose writer is parked with nothing queued
// writes them itself, when they fit one non-blocking write. Runs on the
// reactor (or its borrower).
func (c *Conn) flush() {
	if len(c.staged) == 0 {
		return
	}
	if d := c.ln.direct; d != nil && d.fits(c.staged) && c.ln.out.borrow() {
		c.ln.out.giveBack(d.send(c.staged))
	} else if !c.ln.out.put(laneNormal, c.staged...) {
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

// retryLoop is the backoff engine of DialRetry and of a recovering Conn's
// redial, with the clock (sleep) and jitter source injectable so the
// policy is testable without real waits: the wait after attempt N doubles
// per attempt from backoff (floored at defaultRetryBackoff), capped at
// 32×backoff, plus up to 50% jitter; a permanent protocol rejection stops
// the loop immediately. Returns how many attempts were consumed.
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
// healthy (under a recovery policy: while its link is up). It is the
// cause every request failed by the break carries in Result.Err, and it
// is ErrClosed to errors.Is. Safe from any goroutine.
func (c *Conn) Err() error {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.err
}

func (c *Conn) setErr(err error) {
	c.mu.Lock()
	c.err = err
	c.mu.Unlock()
}

// post schedules fn on the reactor; false once the connection is closed.
func (c *Conn) post(fn func()) bool { return c.q.put(laneNormal, cliEvent{fn: fn}) }

// failAll takes the link down — closes its socket and ends its writer —
// and fails what it held: in-flight CIDs through hostqp.Session.FailAll
// (releasing them, so queue-pair depth cannot leak), and, without a
// recovery policy or at Close, the backlog too. Under a policy the
// requests it may replay re-enter the backlog instead, and a redial
// starts. Every failed request carries the cause, wrapped as ErrClosed, in
// Result.Err. Runs on the reactor.
func (c *Conn) failAll(err error) {
	closing := c.closed.Load()
	if c.connErr == nil {
		c.ln.settle(err)
		if !errors.Is(err, ErrClosed) {
			err = fmt.Errorf("%w (%w)", ErrClosed, err)
		}
		c.connErr = err
		c.setErr(err)
		if !closing {
			// Count only real failures, not the reader unblocking during a
			// deliberate Close.
			c.tel.IncTransportError()
		}
		c.ln.close()
		c.ln.out.close() // the writer ends here; later output is released, not queued
		if c.rcfg == nil {
			close(c.dead)
		}
	}
	if c.sess == nil {
		return // no link was ever installed
	}
	c.replaying = c.rcfg != nil && !closing
	c.sess.FailAll(c.connErr)
	c.replaying = false
	if c.rcfg != nil && !closing {
		c.redial()
		return
	}
	for _, io := range c.waiting {
		io.Done(hostqp.Result{Status: nvme.StatusAborted, Err: c.connErr})
	}
	for _, p := range c.parked {
		p.io.Done(hostqp.Result{Status: nvme.StatusAborted, Err: c.connErr})
	}
	clear(c.waiting)
	clear(c.parked)
	c.waiting, c.parked = c.waiting[:0], c.parked[:0]
}

// pump submits queued ops while the session has queue-depth headroom.
// Runs on the reactor, once per burst of events.
func (c *Conn) pump() {
	if c.owed > 0 {
		c.countReplays()
	}
	n := 0
	for ; n < len(c.waiting); n++ {
		io := c.waiting[n]
		if err := c.sessionSubmit(io); err != nil {
			if errors.Is(err, hostqp.ErrQueueFull) {
				break
			}
			io.Done(hostqp.Result{Status: nvme.StatusInternalError, Err: err})
		}
	}
	if n > 0 {
		rest := copy(c.waiting, c.waiting[n:])
		clear(c.waiting[rest:])
		c.waiting = c.waiting[:rest]
	}
	c.armIdleDrain()
}

// sessionSubmit hands one request to the session. Runs on the reactor.
func (c *Conn) sessionSubmit(io hostqp.IO) error {
	if io.Op == nvme.OpFlush {
		// A flush is a durability barrier: make it drain the current TC
		// window so everything before it completes with it.
		c.sess.Flush()
	}
	return c.sess.Submit(io)
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
		if !c.live() || c.sess.Scavenger() || c.sess.PendingTC() == 0 {
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

// Submit issues an asynchronous I/O; the Done callback runs exactly once,
// at the latest before Close returns. It runs on the connection's reactor
// goroutine or — on a latency-sensitive connection — on its reader, which
// borrows the idle reactor to complete a burst; never on the caller's
// goroutine, and never concurrently with another Done of the connection.
// Ops beyond the queue depth wait internally. Result.Err is set when the
// request ended without a device status (see hostqp.Result).
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
	if c.ls && c.q.borrow() {
		return c.submitLent(io)
	}
	if !c.q.put(laneNormal, cliEvent{io: io}) {
		return ErrClosed
	}
	if c.ls {
		c.lsPosted.Add(1)
	}
	return nil
}

// submitLent is Submit on a loan of the parked reactor: the request goes to
// the session and its command to the wire on the caller's goroutine, unless
// the reactor would only have queued it (the link is down, requests wait
// for queue depth, replays are owed) — then it is posted after all. A
// failed submission's Done is posted too: it never runs on the caller.
func (c *Conn) submitLent(io hostqp.IO) error {
	defer c.q.giveBack(false)
	if !c.live() || len(c.waiting) > 0 || c.owed > 0 || !c.sess.CanSubmit() {
		if !c.q.put(laneNormal, cliEvent{io: io}) {
			return ErrClosed
		}
		c.lsPosted.Add(1)
		return nil
	}
	c.lsInline.Add(1)
	c.now = time.Now().UnixNano()
	if c.rcfg != nil {
		io = c.guard(io)
	}
	if err := c.sessionSubmit(io); err != nil && !c.post(func() {
		io.Done(hostqp.Result{Status: nvme.StatusInternalError, Err: err})
	}) {
		return ErrClosed
	}
	c.armIdleDrain()
	c.flush()
	return nil
}

// Do runs one I/O synchronously. The error is Result.Err when the request
// ended without a device status, else a non-OK status. A read submitted
// with io.Data nil gets a destination allocated here — the result
// outlives the completion callback, so it must be the caller's to keep,
// not one the session lends and reuses. A TC request closes its window:
// the caller waits on it, so it must not park at the target until the
// idle drain timer flushes it.
func (c *Conn) Do(io hostqp.IO) (hostqp.Result, error) {
	if io.Op == nvme.OpRead && io.Data == nil {
		io.Data = make([]byte, int(io.Blocks)*int(c.bs.Load()))
	}
	if io.Prio.ThroughputCritical() || io.Prio == proto.PrioNormal && c.cfg.Class.ThroughputCritical() {
		io.Prio = proto.PrioTCDraining
	}
	ch := make(chan hostqp.Result, 1)
	io.Done = func(r hostqp.Result) { ch <- r }
	if err := c.Submit(io); err != nil {
		return hostqp.Result{}, err
	}
	r := <-ch
	if r.Err != nil {
		return r, r.Err
	}
	if !r.Status.OK() {
		return r, fmt.Errorf("tcptrans: I/O failed: %v", r.Status)
	}
	return r, nil
}

// Read fetches blocks synchronously. prio overrides the connection class
// when nonzero.
func (c *Conn) Read(lba uint64, blocks uint32, prio proto.Priority) ([]byte, error) {
	r, err := c.Do(hostqp.IO{Op: nvme.OpRead, LBA: lba, Blocks: blocks, Prio: prio})
	if err != nil {
		return nil, err
	}
	return r.Data, nil
}

// Write stores data (a multiple of the namespace block size)
// synchronously. Under a recovery policy it is not replayed after a
// connection loss; Do with IO.Idempotent set is the write that may be.
func (c *Conn) Write(lba uint64, data []byte, prio proto.Priority) error {
	// bs is the handshake's geometry, kept across outages; a closed or
	// broken connection is reported by Do.
	bs := int(c.bs.Load())
	if len(data) == 0 || len(data)%bs != 0 {
		return fmt.Errorf("tcptrans: %d bytes is not a multiple of the %dB block size", len(data), bs)
	}
	_, err := c.Do(hostqp.IO{Op: nvme.OpWrite, LBA: lba, Blocks: uint32(len(data) / bs), Data: data, Prio: prio})
	return err
}

// Flush issues a flush command.
func (c *Conn) Flush() error {
	_, err := c.Do(hostqp.IO{Op: nvme.OpFlush})
	return err
}

// BlockSize returns the namespace block size of the latest handshake — an
// outage keeps it — and 0 once the connection is closed. It does not wait
// for the reactor.
func (c *Conn) BlockSize() uint32 {
	if c.closed.Load() {
		return 0
	}
	return c.bs.Load()
}

// ask runs get on the reactor and returns its answer, or the zero value
// once the connection is closed.
func ask[T any](c *Conn, get func() T) (v T) {
	ch := make(chan T, 1)
	if c.post(func() { ch <- get() }) {
		select {
		case v = <-ch:
		case <-c.quit:
		}
	}
	return v
}

// Capacity returns the namespace capacity in blocks discovered at
// handshake.
func (c *Conn) Capacity() uint64 { return ask(c, func() uint64 { return c.sess.Capacity() }) }

// ConnStats is what Conn.Stats reports: the current session's counters,
// and how a latency-sensitive connection's bursts reached its reactor.
type ConnStats struct {
	hostqp.Stats
	// InlineBursts counts submissions and reader bursts run on the
	// submitter's or reader's goroutine, which borrowed the parked reactor;
	// PostedBursts those posted to its run queue because it was busy. Both
	// stay zero on other classes.
	InlineBursts, PostedBursts int64
}

// Stats snapshots the current session's counters and the LS burst split.
func (c *Conn) Stats() ConnStats {
	return ConnStats{
		Stats:        ask(c, func() hostqp.Stats { return c.sess.Stats() }),
		InlineBursts: c.lsInline.Load(),
		PostedBursts: c.lsPosted.Load(),
	}
}

// ClockOffset returns the handshake-estimated target-minus-host clock
// offset and the RTT bounding its error (zero when the target shares no
// clock). opf-trace uses it to merge host and target recorder dumps.
func (c *Conn) ClockOffset() (offset, rtt int64) {
	p := ask(c, func() [2]int64 {
		o, r := c.sess.ClockOffset()
		return [2]int64{o, r}
	})
	return p[0], p[1]
}

// Tenant returns the target-assigned tenant ID of the current session (a
// reconnect may be handed another).
func (c *Conn) Tenant() proto.TenantID {
	return ask(c, func() proto.TenantID { return c.sess.Tenant() })
}

// Reconnects reports how many times a recovery policy re-established the
// connection (0 without one).
func (c *Conn) Reconnects() int64 { return c.reconnects.Load() }

// DrainNext forces the next TC submission to carry the draining flag.
func (c *Conn) DrainNext() {
	c.post(func() { c.sess.Flush() })
}

// Defer runs fn on the connection's reactor goroutine, serialized with
// every Submit completion callback (those that run on a borrowing reader
// included). A single-goroutine state machine driving the connection uses
// it to serialize its own transitions with its I/O callbacks.
func (c *Conn) Defer(fn func()) { c.post(fn) }

// Telemetry returns the live metrics registry the connection was
// configured with (nil when telemetry is disabled). Safe from any
// goroutine.
func (c *Conn) Telemetry() *telemetry.Registry { return c.tel }

// Close tears the connection down: every outstanding request completes
// with ErrClosed, then the socket closes and the reader, writer, reactor,
// ticker and redial goroutines exit. Idempotent and safe to call
// concurrently — every caller blocks until the teardown (whichever call
// performs it) has finished.
func (c *Conn) Close() error {
	c.closeOnce.Do(func() {
		if c.ls {
			lsConns.Add(-1)
		}
		c.closed.Store(true)
		close(c.quit)
		c.q.close()
		c.wg.Wait()
		// The reactor has exited, so its link is safe to read.
		if c.ln != nil {
			c.ln.wg.Wait()
		}
	})
	if c.ln == nil {
		return nil
	}
	return c.ln.netErr
}
