package tcptrans

import (
	"bufio"
	"errors"
	"fmt"
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
// A Conn lives as long as its socket. When the socket dies, every
// outstanding request completes once with the cause in Result.Err, and
// later submissions are refused the same way; going on means dialing a new
// Conn.
type Conn struct {
	cfg       hostqp.Config
	dcfg      DialConfig
	tel       *telemetry.Registry
	q         burstQueue[cliEvent] // the reactor's run queue
	quit      chan struct{}
	dead      chan struct{}  // closed when the connection breaks
	wg        sync.WaitGroup // reactor, reader, writer and tickers
	closeOnce sync.Once
	closed    atomic.Bool
	// ls: the connection's class is latency-sensitive, so its submissions,
	// completions and writes run inline whenever the reactor and writer
	// are idle; lsInline and lsPosted count which way its bursts went.
	ls                 bool
	lsInline, lsPosted atomic.Int64

	mu  sync.Mutex
	err error // Err's answer, written by the reactor

	// bs is the namespace block size of the handshake (Read and Write size
	// their commands with it).
	bs atomic.Uint32

	nc      net.Conn
	out     burstQueue[proto.PDU] // the writer's queue; the reactor produces
	direct  *direct               // nil: every write goes through the writer
	up      chan error            // the handshake's outcome, sent once
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

	// Owned by the reactor.
	sess *hostqp.Session
	// connErr is why the connection is down; nil while it is handshaking
	// or up.
	connErr  error
	settled  bool        // up was sent
	waiting  []hostqp.IO // submissions beyond the queue depth, FIFO
	staged   []proto.PDU // the current burst's output, not yet in out
	idle     *time.Timer // tail-flush timer (see armIdleDrain)
	idleOn   bool        // idle is armed and has not fired
	lastPump int64       // now, when the reactor last pumped with a TC window open
	// now is the wall clock (UnixNano) as of the burst being handled: the
	// reactor reads it once per burst, and the session's clock, the
	// request-deadline sweep and the idle-drain timer all go by it.
	now int64
}

// closeSocket closes the socket exactly once, from whichever path gets
// there first (writer error, request-timeout escalation, failAll).
func (c *Conn) closeSocket() {
	c.netOnce.Do(func() { c.netErr = c.nc.Close() })
}

// settle reports the handshake's outcome to the dial waiting for it, once.
// Runs on the reactor.
func (c *Conn) settle(err error) {
	if !c.settled {
		c.settled = true
		c.up <- err
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

// DialWith is Dial with explicit transport timeouts and an optional custom
// dialer. It returns once the handshake completes.
func DialWith(addr string, cfg hostqp.Config, dcfg DialConfig) (*Conn, error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	dcfg = dcfg.withDefaults()
	nc, err := dcfg.Dialer("tcp", addr)
	if err != nil {
		return nil, err
	}
	c := &Conn{
		cfg:  cfg,
		dcfg: dcfg,
		tel:  cfg.Telemetry,
		quit: make(chan struct{}),
		dead: make(chan struct{}),
		ls:   cfg.Class.LatencySensitive(),
		nc:   nc,
		up:   make(chan error, 1),
	}
	if c.ls {
		lsConns.Add(1) // Close lowers it, whether or not the handshake succeeds
	}
	c.now = time.Now().UnixNano()
	c.q.init()
	c.q.poller = cfg.Class.ThroughputCritical()
	c.out.init()
	c.out.poller = c.q.poller
	c.start()
	c.wg.Add(1)
	go func() {
		defer c.wg.Done()
		c.run()
	}()
	timeout := time.AfterFunc(dcfg.HandshakeTimeout, func() {
		c.post(func() {
			if c.connErr == nil && !c.sess.Connected() {
				c.failAll(fmt.Errorf("tcptrans: handshake timeout after %v", dcfg.HandshakeTimeout))
			}
		})
	})
	err = <-c.up
	timeout.Stop()
	if err != nil {
		c.Close()
		return nil, fmt.Errorf("tcptrans: handshake failed: %w", err)
	}

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

// start builds the session, starts the writer and the reader, and sends
// the ICReq. It runs before the reactor does, so it stands in for it.
func (c *Conn) start() {
	// The read-buffer hooks are transport-owned: the session announces
	// each read's destination before the command hits the wire and retires
	// it when the request leaves the pending set, so the reader's sink can
	// land C2HData payloads with no staging copy. The session hands out
	// CIDs below its queue depth only, so both hooks index in range.
	c.readBufs = make([][]byte, c.cfg.QueueDepth)
	cfg := c.cfg
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
	// flush, once per burst. cfg was validated by DialWith.
	c.sess, _ = hostqp.New(cfg, c.stage, c.clock)
	if c.dcfg.TelemetryInterval > 0 {
		c.sess.EnableE2E()
	}
	if c.ls {
		c.direct = newDirect(c.nc, releaseClientPDU, nil)
	}

	// Writer: stages queued PDUs into vectored batches (the same drain
	// helper as the server side) — headers into a reused buffer, large
	// write payloads referenced in place — and flushes each batch with
	// one (scatter-gather) write. Flushed structs recycle afterwards;
	// write payloads stay caller-owned, only the reference is dropped.
	// The writer gets the raw conn so writev is not defeated by a
	// wrapper type; socket teardown stays on the once-only close path.
	c.wg.Add(2)
	go func() {
		defer c.wg.Done()
		drainWriter(c.nc, &c.out, writerConfig{
			release:   releaseClientPDU,
			closeConn: c.closeSocket,
			direct:    c.direct,
		})
	}()
	go func() {
		defer c.wg.Done()
		c.read()
	}()
	c.sess.OnConnect(func() {
		c.bs.Store(c.sess.BlockSize())
		c.settle(nil)
	})
	c.sess.Start()
	c.flush()
}

func (c *Conn) stage(p proto.PDU) { c.staged = append(c.staged, p) }

func (c *Conn) clock() int64 { return c.now }

// live reports whether the connection is up and past its handshake. Runs on
// the reactor.
func (c *Conn) live() bool { return c.connErr == nil && c.sess.Connected() }

// read is the connection's reader: a pooling decoder with a zero-copy sink — C2HData
// payloads for registered reads are written from the socket directly into
// the request's destination buffer at Offset (no pool staging, no copy),
// with out-of-range offsets and unknown CIDs declined here (bounded pooled
// fallback) and rejected by the session as protocol errors. Response
// structs still come from the proto pools and are released right after
// the session consumes them, so the receive hot path is allocation-free.
// Everything the socket delivered at once reaches the reactor in one post —
// or, on a latency-sensitive connection whose reactor is parked with
// nothing queued, is handled here on a loan of the reactor.
func (c *Conn) read() {
	// Buffered socket reads: the zero-copy sink splits each C2HData into
	// header/PSH/payload reads, so without buffering every data PDU would
	// cost an extra read syscall. With the buffer, headers come from
	// memory and payload reads drain the buffer before falling through to
	// direct reads into the destination.
	rd := proto.NewReader(bufio.NewReaderSize(c.nc, 64<<10), true)
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
				c.failAll(fmt.Errorf("tcptrans: read: %w", err))
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

// every runs fn on the reactor each period while the connection is up, from
// a goroutine that ends with it.
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
// was still queued — a submission fails — and then fails everything
// outstanding with ErrClosed, so every completion has run by the time Close
// returns.
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
	if d := c.direct; d != nil && d.fits(c.staged) && c.out.borrow() {
		c.out.giveBack(d.send(c.staged))
	} else if !c.out.put(laneNormal, c.staged...) {
		for _, p := range c.staged {
			releaseClientPDU(p)
		}
	}
	clear(c.staged)
	c.staged = c.staged[:0]
}

// Err returns the error that broke the connection, or nil while it is
// healthy. It is the cause every request failed by the break carries in
// Result.Err, and it is ErrClosed to errors.Is. Safe from any goroutine.
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

// failAll takes the connection down — closes its socket and ends its
// writer — and fails what it held: in-flight CIDs through
// hostqp.Session.FailAll (releasing them, so queue-pair depth cannot leak)
// and the backlog. Every failed request carries the cause, wrapped as
// ErrClosed, in Result.Err. Runs on the reactor.
func (c *Conn) failAll(err error) {
	if c.connErr == nil {
		c.settle(err)
		if !errors.Is(err, ErrClosed) {
			err = fmt.Errorf("%w (%w)", ErrClosed, err)
		}
		c.connErr = err
		c.setErr(err)
		if !c.closed.Load() {
			// Count only real failures, not the reader unblocking during a
			// deliberate Close.
			c.tel.IncTransportError()
		}
		c.closeSocket()
		c.out.close() // the writer ends here; later output is released, not queued
		close(c.dead)
	}
	c.sess.FailAll(c.connErr)
	for _, io := range c.waiting {
		io.Done(hostqp.Result{Status: nvme.StatusAborted, Err: c.connErr})
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
		if err := c.sess.Submit(io); err != nil {
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

// windowOpen reports whether TC requests sit at the target with no drain
// flag sent to release them. A window closed by its own draining request
// (a synchronous Do, say) is not open, however long it takes to complete.
// Scavenger windows drain on the target's schedule (leftover capacity or
// the aging bound), not the host's: flushing the tail here would defeat
// the whole point of parking best-effort work. Runs on the reactor.
func (c *Conn) windowOpen() bool {
	return !c.sess.Scavenger() && c.sess.PartialWindow() > 0 && c.sess.PendingTC() > 0
}

// armIdleDrain keeps the tail-flush timer running while a TC window is
// open; runs on the reactor. The timer is not pushed back on every pump:
// a pump only notes the time, and the timer, when it fires, re-arms itself
// for whatever is left of idleDrainDelay since the last pump — one timer
// operation per delay, not per burst.
func (c *Conn) armIdleDrain() {
	if !c.windowOpen() {
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
		if !c.live() || !c.windowOpen() {
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
		// As TC, so that it closes the window on a connection whose class
		// is not TC either.
		_ = c.sess.Submit(hostqp.IO{Op: nvme.OpFlush, Prio: proto.PrioThroughputCritical, Done: func(hostqp.Result) {}})
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
// the reactor would only have queued it (the connection is down, or
// requests wait for queue depth) — then it is posted after all. A failed
// submission's Done is posted too: it never runs on the caller.
func (c *Conn) submitLent(io hostqp.IO) error {
	defer c.q.giveBack(false)
	if !c.live() || len(c.waiting) > 0 || !c.sess.CanSubmit() {
		if !c.q.put(laneNormal, cliEvent{io: io}) {
			return ErrClosed
		}
		c.lsPosted.Add(1)
		return nil
	}
	c.lsInline.Add(1)
	c.now = time.Now().UnixNano()
	if err := c.sess.Submit(io); err != nil && !c.post(func() {
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
// synchronously.
func (c *Conn) Write(lba uint64, data []byte, prio proto.Priority) error {
	// bs is the handshake's geometry; a closed or broken connection is
	// reported by Do.
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

// BlockSize returns the namespace block size of the handshake, and 0 once
// the connection is closed. It does not wait for the reactor.
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

// Tenant returns the target-assigned tenant ID of the session.
func (c *Conn) Tenant() proto.TenantID {
	return ask(c, func() proto.TenantID { return c.sess.Tenant() })
}

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
// with ErrClosed, then the socket closes and the reader, writer, reactor
// and ticker goroutines exit. It is safe to call more than once and
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
	})
	return c.netErr
}
