package tcptrans

// A Conn's recovery policy (DialConfig.Recovery) makes a connection loss
// the runtime's problem instead of the caller's, within strict safety
// rules:
//
//   - When the link dies, the requests that are safe to resubmit — reads
//     and flushes always, writes only when the caller marked them
//     hostqp.IO.Idempotent, and only in the wire classes RequeueLS /
//     RequeueTC enable — stay in the reactor's backlog while the link is
//     re-dialed with DialRetry's backoff and re-handshaken (a new tenant
//     ID is fine: priority flags are stamped per command). Everything
//     else fails as it would without a policy, with the original transport
//     error in the chain of Result.Err.
//   - A StatusBusy completion (target admission control) was never
//     executed, so it is always resubmitted after BusyBackoff, regardless
//     of idempotency.
//   - Every replay and busy retry spends one token from a budget bucket
//     (Budget, refilled at RefillInterval). An empty bucket fails the
//     request instead of retrying: a sick target must shed load, not
//     absorb a retry storm.
//
// All of it runs on the reactor (or a goroutine holding its loan), so Done
// still runs exactly once per request, serialized with every other,
// whether the request succeeded on the first attempt, on the fifth link,
// or failed for good.

import (
	"errors"
	"fmt"
	"math/rand"
	"time"

	"nvmeopf/internal/hostqp"
	"nvmeopf/internal/nvme"
)

// ErrRetryBudgetExhausted marks a request failed because the recovery
// token bucket ran dry, not because the target refused it permanently.
var ErrRetryBudgetExhausted = errors.New("tcptrans: retry budget exhausted")

// rop is a request under a recovery policy: the caller's completion, and
// what an earlier attempt left behind.
type rop struct {
	io      hostqp.IO           // as queued: its Done is settle
	done    func(hostqp.Result) // the caller's
	origErr error               // the transport error that failed an earlier attempt
}

// parkedIO is a busy-rejected request waiting out BusyBackoff.
type parkedIO struct {
	io  hostqp.IO
	due int64 // UnixNano
}

// guard routes io's completions through settle. Runs on the reactor.
func (c *Conn) guard(io hostqp.IO) hostqp.IO {
	op := &rop{done: io.Done}
	io.Done = func(r hostqp.Result) { c.settle(op, r) }
	op.io = io
	return io
}

// settle classifies one completion of a guarded request: a busy rejection
// is parked, a request lost with its link re-enters the backlog if the
// policy allows, and anything else reaches the caller. Runs on the
// reactor.
func (c *Conn) settle(op *rop, r hostqp.Result) {
	switch {
	case r.Err == nil && r.Status.Retryable():
		// StatusBusy: the target refused admission, nothing executed.
		if !c.takeToken() {
			r.Err = fmt.Errorf("%w: %v", ErrRetryBudgetExhausted, r.Status)
			break
		}
		c.parked = append(c.parked, parkedIO{op.io, c.now + int64(c.rcfg.BusyBackoff)})
		c.armRetry(c.rcfg.BusyBackoff)
		return
	case r.Err != nil && c.replaying:
		// Lost with the link: the target may or may not have executed it.
		if !c.eligible(op.io) {
			r.Err = fmt.Errorf("tcptrans: request lost with connection (not replayable): %w", r.Err)
			break
		}
		if !c.takeToken() {
			r.Err = fmt.Errorf("%w (after %w)", ErrRetryBudgetExhausted, r.Err)
			break
		}
		op.origErr = r.Err
		c.waiting = append(c.waiting, op.io)
		c.owed++
		return
	case r.Err != nil && op.origErr != nil && !errors.Is(r.Err, op.origErr):
		r.Err = fmt.Errorf("%w (original failure: %w)", r.Err, op.origErr)
	}
	op.done(r)
}

// eligible reports whether io may be resubmitted after a connection loss
// under the class gates and the idempotency contract.
func (c *Conn) eligible(io hostqp.IO) bool {
	if !io.Idempotent && io.Op != nvme.OpRead && io.Op != nvme.OpFlush {
		return false
	}
	eff := io.Prio
	if eff == 0 {
		eff = c.cfg.Class
	}
	if eff.ThroughputCritical() {
		return c.rcfg.RequeueTC
	}
	return c.rcfg.RequeueLS
}

// takeToken consumes one retry token, refilling the bucket lazily from
// elapsed time. False means the budget is exhausted right now.
func (c *Conn) takeToken() bool {
	if iv := int64(c.rcfg.RefillInterval); iv > 0 {
		if n := (c.now - c.lastRefill) / iv; n > 0 {
			c.tokens = min(c.tokens+int(n), c.rcfg.Budget)
			c.lastRefill += n * iv
		}
	}
	if c.tokens <= 0 {
		return false
	}
	c.tokens--
	return true
}

// armRetry makes sure the busy-retry timer fires within d.
func (c *Conn) armRetry(d time.Duration) {
	if c.retryOn {
		return
	}
	c.retryOn = true
	if c.retry == nil {
		c.retry = time.AfterFunc(d, func() { c.post(c.unpark) })
	} else {
		c.retry.Reset(d)
	}
}

// unpark moves the busy retries that have waited out their backoff back
// into the backlog. Runs on the reactor; Close fails whatever is still
// parked.
func (c *Conn) unpark() {
	c.retryOn = false
	n := 0
	for ; n < len(c.parked) && c.parked[n].due <= c.now; n++ {
		c.waiting = append(c.waiting, c.parked[n].io)
	}
	rest := copy(c.parked, c.parked[n:])
	clear(c.parked[rest:])
	c.parked = c.parked[:rest]
	c.owed += int64(n)
	if rest > 0 {
		c.armRetry(time.Duration(c.parked[0].due - c.now))
	}
	if c.live() {
		c.pump()
	} else {
		c.redial()
	}
}

// countReplays charges the resubmissions in the backlog to the session
// that carries them: the host registry's Replayed, and the e2e channel's
// retry count, so the target sees retry pressure it never observes as
// commands. Runs on the reactor.
func (c *Conn) countReplays() {
	c.sess.E2E().AddRetries(c.owed)
	for t := c.sess.Tenant(); c.owed > 0; c.owed-- {
		c.tel.IncReplayed(t)
	}
}

// redial starts re-establishing a lost link, unless a dial is under way.
// The dial blocks, so it runs off the reactor, and its verdict comes back
// through redialed. Runs on the reactor.
func (c *Conn) redial() {
	if c.rcfg == nil || c.dialing || c.closed.Load() {
		return
	}
	c.dialing = true
	old, cause := c.ln, c.connErr
	c.wg.Add(1)
	go func() {
		defer c.wg.Done()
		old.wg.Wait() // the old reader's last events go before the new link's
		rng := rand.New(rand.NewSource(time.Now().UnixNano()))
		_, _, err := retryLoop(c.rcfg.MaxAttempts, c.rcfg.Backoff, c.sleep, rng, func() (*Conn, error) {
			select {
			case <-c.quit:
				return nil, ErrClosed
			default:
			}
			if c.rcfg.Resolver != nil {
				addr, err := c.rcfg.Resolver()
				if err != nil {
					return nil, fmt.Errorf("tcptrans: resolve reconnect target: %w", err)
				}
				c.addr = addr
			}
			return nil, c.connect(c.addr)
		})
		if err == nil {
			c.reconnects.Add(1)
			c.tel.IncReconnect()
		} else {
			err = fmt.Errorf("tcptrans: recovery failed (%v): %w", err, cause)
		}
		c.post(func() { c.redialed(err) })
	}()
}

// redialed takes a dial's verdict. A failed one fails the backlog (the
// next submission starts another redial); after a successful one, a link
// lost while the verdict was on its way starts the next. Runs on the
// reactor.
func (c *Conn) redialed(err error) {
	c.dialing = false
	if err == nil {
		if c.connErr != nil {
			c.redial()
		}
		return
	}
	for _, io := range c.waiting {
		io.Done(hostqp.Result{Status: nvme.StatusAborted, Err: err})
	}
	clear(c.waiting)
	c.waiting = c.waiting[:0]
}

// sleep is the redial backoff's clock, cut short by Close.
func (c *Conn) sleep(d time.Duration) {
	t := time.NewTimer(d)
	defer t.Stop()
	select {
	case <-t.C:
	case <-c.quit:
	}
}
