package tcptrans

// ResilientClient: transparent reconnect + replay on top of Conn.
//
// A plain Conn is fail-fast: the moment its transport breaks, every
// outstanding request fails with StatusAborted and every later submission
// is refused — recovery is the caller's problem. The ResilientClient makes
// recovery the runtime's problem instead, within strict safety rules:
//
//   - When the connection dies it captures the failed requests, re-dials
//     with DialRetry's backoff, re-handshakes (a new tenant ID is fine —
//     priority flags are stamped per command), and resubmits the requests
//     that are safe to resubmit: reads and flushes always, writes only
//     when the caller marked them hostqp.IO.Idempotent. Everything else
//     fails exactly as it would on a plain Conn, with the original
//     transport error in the chain (errors.Is/As reach it).
//   - A StatusBusy completion (target admission control) was never
//     executed, so it is always resubmitted after RecoveryConfig.
//     BusyBackoff, regardless of idempotency.
//   - Every replay and busy retry spends one token from a budget bucket
//     (RecoveryConfig.Budget, refilled at RefillInterval). An empty
//     bucket fails the request instead of retrying: a sick target must
//     shed load, not absorb a retry storm.
//
// Completion callbacks run exactly once per request, on the manager or
// reactor goroutine, whether the request succeeded on the first attempt,
// the fifth connection, or failed for good.

import (
	"errors"
	"fmt"
	"math/rand"
	"sync"
	"time"

	"nvmeopf/internal/hostqp"
	"nvmeopf/internal/nvme"
	"nvmeopf/internal/proto"
)

// ErrRetryBudgetExhausted marks a request failed because the recovery
// token bucket ran dry, not because the target refused it permanently.
var ErrRetryBudgetExhausted = errors.New("tcptrans: retry budget exhausted")

// rop is one request owned by the resilient layer: the user's IO plus the
// completion sink invoked exactly once, ever.
type rop struct {
	io   hostqp.IO
	done func(hostqp.Result, error)
	// replayed marks an op that had reached a connection before (so its
	// next submission counts as a replay in telemetry); origErr is the
	// transport error that failed it, preserved for the final verdict.
	replayed bool
	origErr  error
}

// eligible reports whether the op may be resubmitted after a connection
// loss under the configured class gates and the idempotency contract.
func (rc *ResilientClient) eligible(io hostqp.IO) bool {
	idempotent := io.Idempotent || io.Op == nvme.OpRead || io.Op == nvme.OpFlush
	if !idempotent {
		return false
	}
	eff := io.Prio
	if eff == 0 {
		eff = rc.cfg.Class
	}
	if eff.ThroughputCritical() {
		return rc.rcfg.RequeueTC
	}
	return rc.rcfg.RequeueLS
}

// ResilientClient is a self-healing initiator connection. Its synchronous
// helpers mirror Conn's; Submit is the asynchronous primitive. Safe for
// concurrent use.
type ResilientClient struct {
	addr string
	cfg  hostqp.Config
	dcfg DialConfig // Recovery stripped; used for each re-dial
	rcfg RecoveryConfig

	mu         sync.Mutex
	conn       *Conn
	closed     bool
	queue      []*rop // ops awaiting (re)submission, FIFO
	tokens     int
	lastRefill time.Time
	reconnects int64
	blockSize  uint32 // cached from the last successful handshake

	kick chan struct{}
	quit chan struct{}
	wg   sync.WaitGroup
}

// DialResilient connects with recovery enabled (dcfg.Recovery must be
// non-nil) and returns once the first handshake completes, so a target
// that is down at start-up fails fast exactly like Dial.
func DialResilient(addr string, cfg hostqp.Config, dcfg DialConfig) (*ResilientClient, error) {
	if dcfg.Recovery == nil {
		return nil, errors.New("tcptrans: DialResilient requires DialConfig.Recovery")
	}
	rcfg := dcfg.Recovery.withDefaults()
	dcfg.Recovery = nil
	c, err := DialWith(addr, cfg, dcfg)
	if err != nil {
		return nil, err
	}
	rc := &ResilientClient{
		addr:       addr,
		cfg:        cfg,
		dcfg:       dcfg,
		rcfg:       rcfg,
		conn:       c,
		tokens:     rcfg.Budget,
		lastRefill: time.Now(),
		blockSize:  c.BlockSize(),
		kick:       make(chan struct{}, 1),
		quit:       make(chan struct{}),
	}
	rc.wg.Add(1)
	go rc.manager()
	return rc, nil
}

// takeToken consumes one retry token, refilling the bucket lazily from
// elapsed time. False means the budget is exhausted right now.
func (rc *ResilientClient) takeToken() bool {
	rc.mu.Lock()
	defer rc.mu.Unlock()
	if iv := rc.rcfg.RefillInterval; iv > 0 {
		if n := int(time.Since(rc.lastRefill) / iv); n > 0 {
			rc.tokens += n
			if rc.tokens > rc.rcfg.Budget {
				rc.tokens = rc.rcfg.Budget
			}
			rc.lastRefill = rc.lastRefill.Add(time.Duration(n) * iv)
		}
	}
	if rc.tokens <= 0 {
		return false
	}
	rc.tokens--
	return true
}

// enqueue appends op for the manager to (re)submit; false when the client
// is closed (the caller must fail the op itself).
func (rc *ResilientClient) enqueue(op *rop) bool {
	rc.mu.Lock()
	if rc.closed {
		rc.mu.Unlock()
		return false
	}
	rc.queue = append(rc.queue, op)
	rc.mu.Unlock()
	select {
	case rc.kick <- struct{}{}:
	default:
	}
	return true
}

// submitOn hands op to a specific connection, wiring the completion back
// through the recovery classifier.
func (rc *ResilientClient) submitOn(c *Conn, op *rop) {
	io := op.io
	io.Done = func(r hostqp.Result) { rc.onDone(c, op, r) }
	if err := c.Submit(io); err != nil {
		// The connection closed under us; classify like an abort.
		rc.onDone(c, op, hostqp.Result{Status: nvme.StatusAborted})
	}
}

// onDone classifies one completion from the wrapped connection. Runs on
// that connection's reactor goroutine: never blocks.
func (rc *ResilientClient) onDone(c *Conn, op *rop, r hostqp.Result) {
	switch {
	case r.Status.OK():
		op.done(r, nil)

	case r.Status.Retryable():
		// StatusBusy: the target refused admission, nothing executed.
		// Retry after a polite delay regardless of idempotency — budget
		// permitting.
		if !rc.takeToken() {
			op.done(r, fmt.Errorf("%w: %v", ErrRetryBudgetExhausted, r.Status))
			return
		}
		op.replayed = true
		time.AfterFunc(rc.rcfg.BusyBackoff, func() {
			if !rc.enqueue(op) {
				op.done(r, ErrClosed)
			}
		})

	case c.Err() != nil:
		// The connection died with this request outstanding. The target
		// may or may not have executed it — only idempotent requests of a
		// requeue-enabled class may be replayed.
		connErr := c.Err()
		if !rc.eligible(op.io) {
			op.done(r, fmt.Errorf("tcptrans: request lost with connection (not replayable): %w", connErr))
			return
		}
		if !rc.takeToken() {
			op.done(r, fmt.Errorf("%w (after %v)", ErrRetryBudgetExhausted, connErr))
			return
		}
		op.replayed = true
		op.origErr = connErr
		if !rc.enqueue(op) {
			op.done(r, ErrClosed)
		}

	default:
		// Genuine device error on a healthy connection: the caller's
		// business, exactly as on a plain Conn.
		op.done(r, nil)
	}
}

// manager owns reconnection: it waits for kicks (a died connection, a
// busy retry coming due, a submission during an outage), ensures a live
// connection exists, and drains the queue onto it.
func (rc *ResilientClient) manager() {
	defer rc.wg.Done()
	for {
		select {
		case <-rc.quit:
			rc.failQueued(ErrClosed)
			return
		case <-rc.kick:
		}
		rc.recover()
	}
}

// recover re-dials if needed and resubmits every queued op.
func (rc *ResilientClient) recover() {
	rc.mu.Lock()
	c := rc.conn
	rc.mu.Unlock()

	if c == nil || c.Err() != nil {
		var origErr error
		if c != nil {
			origErr = c.Err()
			c.Close() // join the dead connection's goroutines
		}
		rng := rand.New(rand.NewSource(time.Now().UnixNano()))
		nc, _, err := retryLoop(rc.rcfg.MaxAttempts, rc.rcfg.Backoff, rc.sleep, rng, func() (*Conn, error) {
			select {
			case <-rc.quit:
				return nil, ErrClosed
			default:
			}
			addr := rc.addr
			if rc.rcfg.Resolver != nil {
				resolved, rerr := rc.rcfg.Resolver()
				if rerr != nil {
					return nil, fmt.Errorf("tcptrans: resolve reconnect target: %w", rerr)
				}
				addr = resolved
				rc.mu.Lock()
				rc.addr = addr
				rc.mu.Unlock()
			}
			return DialWith(addr, rc.cfg, rc.dcfg)
		})
		if err != nil {
			if origErr == nil {
				origErr = err
			}
			rc.mu.Lock()
			rc.conn = nil
			rc.mu.Unlock()
			rc.failQueued(fmt.Errorf("tcptrans: recovery failed (%v): %w", err, origErr))
			return
		}
		rc.cfg.Telemetry.IncReconnect()
		bs := nc.BlockSize()
		rc.mu.Lock()
		if rc.closed {
			// Close won the race while we were dialing: the new
			// connection must not outlive the client.
			rc.mu.Unlock()
			nc.Close()
			return
		}
		rc.conn = nc
		rc.reconnects++
		if bs != 0 {
			rc.blockSize = bs
		}
		rc.mu.Unlock()
		c = nc
	}

	for {
		rc.mu.Lock()
		if len(rc.queue) == 0 {
			rc.mu.Unlock()
			return
		}
		op := rc.queue[0]
		rc.queue = rc.queue[1:]
		rc.mu.Unlock()
		if op.replayed {
			rc.cfg.Telemetry.IncReplayed(c.Tenant())
			// Feed the resubmission into the e2e feedback channel too, so
			// the target sees host-side retry pressure it never observes as
			// commands (no-op when the channel is off).
			c.AddE2ERetries(1)
		}
		rc.submitOn(c, op)
	}
}

// sleep is retryLoop's clock, interruptible by Close so a client shutting
// down mid-backoff does not linger.
func (rc *ResilientClient) sleep(d time.Duration) {
	select {
	case <-time.After(d):
	case <-rc.quit:
	}
}

// failQueued fails every queued op with err. Ops whose original transport
// error is known keep it in the chain.
func (rc *ResilientClient) failQueued(err error) {
	rc.mu.Lock()
	q := rc.queue
	rc.queue = nil
	rc.mu.Unlock()
	for _, op := range q {
		e := err
		if op.origErr != nil && !errors.Is(err, op.origErr) {
			e = fmt.Errorf("%w (original failure: %w)", err, op.origErr)
		}
		op.done(hostqp.Result{Status: nvme.StatusAborted}, e)
	}
}

// Submit issues one asynchronous I/O. done runs exactly once, after the
// request succeeded (err nil, Result valid), failed on the device (err
// nil, Result status non-OK), or failed permanently through recovery (err
// non-nil, wrapping the original transport error where one exists).
func (rc *ResilientClient) Submit(io hostqp.IO, done func(hostqp.Result, error)) error {
	if done == nil {
		return errors.New("tcptrans: Submit without completion callback")
	}
	op := &rop{io: io, done: done}
	rc.mu.Lock()
	if rc.closed {
		rc.mu.Unlock()
		return ErrClosed
	}
	c := rc.conn
	rc.mu.Unlock()
	if c != nil && c.Err() == nil {
		rc.submitOn(c, op)
		return nil
	}
	// Outage in progress: park the op for the manager. Fresh ops are
	// always safe to (first-)submit, so no idempotency or budget check.
	if !rc.enqueue(op) {
		return ErrClosed
	}
	return nil
}

// Do runs one I/O synchronously through the recovery machinery. The
// Result of a read never aliases a connection-owned buffer: with io.Data
// nil the destination is allocated here.
func (rc *ResilientClient) Do(io hostqp.IO) (hostqp.Result, error) {
	type outcome struct {
		r   hostqp.Result
		err error
	}
	if io.Op == nvme.OpRead && io.Data == nil {
		// The result outlives the completion callback, and a buffer lent by
		// whichever connection serves the read would be reused (or, across a
		// reconnect, dropped) once it returns: the destination is allocated
		// here and is the caller's to keep.
		io.Data = make([]byte, int(io.Blocks)*int(rc.BlockSize()))
	}
	ch := make(chan outcome, 1)
	if err := rc.Submit(io, func(r hostqp.Result, err error) { ch <- outcome{r, err} }); err != nil {
		return hostqp.Result{}, err
	}
	out := <-ch
	if out.err != nil {
		return out.r, out.err
	}
	if !out.r.Status.OK() {
		return out.r, fmt.Errorf("tcptrans: I/O failed: %v", out.r.Status)
	}
	return out.r, nil
}

// Read fetches blocks synchronously (always replayable).
func (rc *ResilientClient) Read(lba uint64, blocks uint32, prio proto.Priority) ([]byte, error) {
	r, err := rc.Do(hostqp.IO{Op: nvme.OpRead, LBA: lba, Blocks: blocks, Prio: prio})
	if err != nil {
		return nil, err
	}
	return r.Data, nil
}

// Write stores data synchronously. idempotent declares that replaying the
// write verbatim is safe if the connection dies mid-flight; without it a
// connection loss fails the write with the original transport error.
func (rc *ResilientClient) Write(lba uint64, data []byte, prio proto.Priority, idempotent bool) error {
	bs := rc.BlockSize()
	if bs == 0 {
		bs = 4096
	}
	if len(data) == 0 || len(data)%int(bs) != 0 {
		return fmt.Errorf("tcptrans: %d bytes is not a multiple of the %dB block size", len(data), bs)
	}
	_, err := rc.Do(hostqp.IO{
		Op: nvme.OpWrite, LBA: lba, Blocks: uint32(len(data) / int(bs)),
		Data: data, Prio: prio, Idempotent: idempotent,
	})
	return err
}

// Flush issues a durability barrier (always replayable).
func (rc *ResilientClient) Flush() error {
	_, err := rc.Do(hostqp.IO{Op: nvme.OpFlush})
	return err
}

// BlockSize returns the namespace block size, cached from the most
// recent successful handshake. The cache keeps it valid during an outage
// — a live-connection query would read 0 and turn every payload the
// caller sizes with it into a short write the target refuses with
// StatusDataXferError.
func (rc *ResilientClient) BlockSize() uint32 {
	rc.mu.Lock()
	defer rc.mu.Unlock()
	return rc.blockSize
}

// Tenant returns the current connection's tenant ID (may change across
// reconnects; 0 during an outage).
func (rc *ResilientClient) Tenant() proto.TenantID {
	rc.mu.Lock()
	c := rc.conn
	rc.mu.Unlock()
	if c == nil {
		return 0
	}
	return c.Tenant()
}

// Reconnects reports how many times the client re-established its
// connection.
func (rc *ResilientClient) Reconnects() int64 {
	rc.mu.Lock()
	defer rc.mu.Unlock()
	return rc.reconnects
}

// Close tears the client down: pending queued ops fail with ErrClosed,
// the live connection closes, and the manager goroutine is joined.
func (rc *ResilientClient) Close() error {
	rc.mu.Lock()
	if rc.closed {
		rc.mu.Unlock()
		return nil
	}
	rc.closed = true
	rc.mu.Unlock()
	close(rc.quit)
	rc.wg.Wait()
	rc.failQueued(ErrClosed)
	// Re-read under the lock: the manager may have swapped connections
	// between the closed flag and its exit.
	rc.mu.Lock()
	c := rc.conn
	rc.conn = nil
	rc.mu.Unlock()
	if c != nil {
		return c.Close()
	}
	return nil
}
