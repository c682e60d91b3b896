// Package workload reimplements SPDK's perf benchmark methodology for this
// runtime: closed-loop generators that keep a fixed queue depth of 4 KiB
// (by default) requests outstanding per initiator, with sequential or
// random addressing and read/write/mixed operation mixes, measuring
// throughput and a latency histogram after a warmup period (§V:
// "SPDK's perf ... sending 4K sequential I/O requests for read, write,
// and mixed").
package workload

import (
	"fmt"

	"nvmeopf/internal/hostqp"
	"nvmeopf/internal/nvme"
	"nvmeopf/internal/simnet"
	"nvmeopf/internal/stats"
)

// Mix selects the operation mix.
type Mix int

// Mixes. Mixed5050 alternates via a seeded PRNG at 50% reads, matching the
// paper's "mixed 50:50 read/write".
const (
	ReadOnly Mix = iota
	WriteOnly
	Mixed5050
)

// String implements fmt.Stringer.
func (m Mix) String() string {
	switch m {
	case ReadOnly:
		return "read"
	case WriteOnly:
		return "write"
	case Mixed5050:
		return "mixed50"
	default:
		return fmt.Sprintf("Mix(%d)", int(m))
	}
}

// Pattern selects the LBA pattern.
type Pattern int

// Patterns.
const (
	Sequential Pattern = iota
	Random
)

// Spec describes one initiator's workload.
type Spec struct {
	Mix     Mix
	Pattern Pattern
	// Blocks per I/O (1 block = 4 KiB on the default namespace).
	Blocks uint32
	// QueueDepth to hold open (TC initiators use 128, LS use 1 in §V-A).
	QueueDepth int
	// RegionStart/RegionBlocks delimit this initiator's LBA slice so
	// concurrent tenants do not overlap.
	RegionStart, RegionBlocks uint64
	// WarmupUntil / StopAt are virtual-clock bounds: completions inside
	// [WarmupUntil, StopAt] are recorded; submission stops at StopAt.
	WarmupUntil, StopAt int64
	// StartAt delays the first submission until the virtual clock reaches
	// it (0: submit as soon as the session connects). Phased experiments
	// use it to switch a tenant on mid-run; pair it with a scheduled
	// Kick, since a connected-but-idle session has no completion to
	// re-enter the loop from.
	StartAt int64
	// SLOObjectiveNS, when positive, counts every recorded completion
	// against a latency objective: Result.SLOGood/SLOBad accumulate
	// exact (unbucketed) within/over-objective counts for end-to-end
	// burn-rate math.
	SLOObjectiveNS int64
	// Defer, when set, schedules a callback d nanoseconds ahead on the
	// driving clock (experiments wire it to the sim engine). With Defer
	// set, a busy rejection from target admission control switches the
	// loop to slow-start probing: one command per BusyBackoffNS tick while
	// the valve stays shut, doubling per successful tick once admissions
	// resume. Blind closed-loop refills against an admission cap are a
	// reject storm — queue-depth-sized command bursts every backoff period
	// that occupy the target poller and pollute its latency telemetry.
	Defer func(d int64, fn func())
	// BusyBackoffNS is the probe interval after a busy rejection (default
	// 200µs). Only meaningful with Defer set.
	BusyBackoffNS int64
	// Seed for the op-mix / random-address stream.
	Seed uint64
	// BlockSize is the namespace block size in bytes (default 4096).
	BlockSize uint32
}

// Result accumulates a runner's measurements.
type Result struct {
	Recorded  stats.Counter   // ops/bytes completed inside the window
	Latency   stats.Histogram // per-request latency, recorded window only
	Submitted int64
	Completed int64
	Errors    int64
	// Busy counts target admission pushback (retried after backoff when
	// Spec.Defer is set; those retries are not errors).
	Busy int64
	// SLOGood/SLOBad count recorded completions within/over
	// Spec.SLOObjectiveNS (both zero when no objective is set). Exact
	// counts, not histogram-bucket approximations.
	SLOGood int64
	SLOBad  int64
}

// SLOBurn returns the end-to-end error-budget burn rate against a
// compliance target expressed as violations-per-million (e.g. 1000 for
// 99.9%): observed violation fraction over budget fraction. -1 when
// nothing was recorded against an objective.
func (r *Result) SLOBurn(budgetPPM int64) float64 {
	total := r.SLOGood + r.SLOBad
	if total <= 0 || budgetPPM <= 0 {
		return -1
	}
	return (float64(r.SLOBad) / float64(total)) / (float64(budgetPPM) / 1e6)
}

// Validate checks the spec.
func (s Spec) Validate() error {
	if s.QueueDepth < 1 {
		return fmt.Errorf("workload: queue depth %d", s.QueueDepth)
	}
	if s.Blocks < 1 {
		return fmt.Errorf("workload: %d blocks per IO", s.Blocks)
	}
	if s.RegionBlocks < uint64(s.Blocks) {
		return fmt.Errorf("workload: region %d blocks < IO size %d", s.RegionBlocks, s.Blocks)
	}
	if s.StopAt <= s.WarmupUntil {
		return fmt.Errorf("workload: empty measurement window")
	}
	return nil
}

// Runner drives one initiator session closed-loop. All callbacks run on
// the session's event context (the simulator loop); Runner is therefore
// not synchronized.
type Runner struct {
	sess    *hostqp.Session
	clock   func() int64
	spec    Spec
	rng     *simnet.Rand
	nextLBA uint64
	buf     []byte
	res     Result
	done    bool
	flushed bool
	backoff bool // a probe tick is armed
	probe   int  // slow-start refill budget per tick
	// doneFn is onDone bound once: a method value built per Submit would
	// allocate a closure per request.
	doneFn func(hostqp.Result)
}

// NewRunner prepares a runner over a connected (or connecting) session.
func NewRunner(sess *hostqp.Session, clock func() int64, spec Spec) (*Runner, error) {
	if err := spec.Validate(); err != nil {
		return nil, err
	}
	if spec.BlockSize == 0 {
		spec.BlockSize = 4096
	}
	r := &Runner{
		sess:    sess,
		clock:   clock,
		spec:    spec,
		rng:     simnet.NewRand(spec.Seed),
		nextLBA: spec.RegionStart,
		buf:     make([]byte, int(spec.Blocks)*int(spec.BlockSize)),
	}
	r.doneFn = r.onDone
	return r, nil
}

// Start begins submitting once the session connects (and, with StartAt
// set, once the clock reaches it — schedule a Kick at StartAt).
func (r *Runner) Start() {
	r.sess.OnConnect(func() { r.fill() })
}

// Kick (re)fills the queue now. Phased experiments schedule it at
// Spec.StartAt; idempotent and harmless on an already-full runner.
func (r *Runner) Kick() { r.fill() }

// fill tops the closed loop up to the queue depth.
func (r *Runner) fill() {
	if r.clock() < r.spec.StartAt {
		return
	}
	for i := 0; i < r.spec.QueueDepth && r.sess.CanSubmit(); i++ {
		if !r.submitOne() {
			break
		}
	}
}

// Result returns the measurements so far.
func (r *Runner) Result() *Result { return &r.res }

// Done reports whether the runner has stopped submitting and drained.
func (r *Runner) Done() bool { return r.done && r.sess.Outstanding() == 0 }

// pickOp draws the next opcode from the mix.
func (r *Runner) pickOp() nvme.Opcode {
	switch r.spec.Mix {
	case ReadOnly:
		return nvme.OpRead
	case WriteOnly:
		return nvme.OpWrite
	default:
		if r.rng.Uint64()&1 == 0 {
			return nvme.OpRead
		}
		return nvme.OpWrite
	}
}

// pickLBA draws the next starting LBA.
func (r *Runner) pickLBA() uint64 {
	n := uint64(r.spec.Blocks)
	if r.spec.Pattern == Random {
		slots := r.spec.RegionBlocks / n
		return r.spec.RegionStart + uint64(r.rng.Int63n(int64(slots)))*n
	}
	lba := r.nextLBA
	r.nextLBA += n
	if r.nextLBA+n > r.spec.RegionStart+r.spec.RegionBlocks {
		r.nextLBA = r.spec.RegionStart
	}
	return lba
}

// submitOne issues the next request; returns false once past StopAt.
func (r *Runner) submitOne() bool {
	now := r.clock()
	if now >= r.spec.StopAt {
		r.done = true
		r.flushTail()
		return false
	}
	op := r.pickOp()
	var data []byte
	if op == nvme.OpWrite {
		data = r.buf
	}
	err := r.sess.Submit(hostqp.IO{
		Op:     op,
		LBA:    r.pickLBA(),
		Blocks: r.spec.Blocks,
		Data:   data,
		Done:   r.doneFn,
	})
	if err != nil {
		// Queue full or disconnected; closed loop retries on the next
		// completion, so just account it.
		return false
	}
	r.res.Submitted++
	return true
}

// flushTail sends one final draining request so a partial TC window left
// at StopAt still completes (its requests would otherwise wait in the
// target queue forever). The flush command itself is not recorded.
func (r *Runner) flushTail() {
	if r.flushed || r.sess.Outstanding() == 0 || !r.sess.CanSubmit() {
		return
	}
	r.sess.Flush()
	err := r.sess.Submit(hostqp.IO{
		Op:   nvme.OpFlush,
		Done: func(hostqp.Result) {},
	})
	if err == nil {
		r.flushed = true
	}
}

// armProbe schedules one slow-start refill tick: submit `probe` commands,
// double the budget, and re-arm while the loop is below its depth. Busy
// completions reset the budget to one, so a shut valve costs a single
// probe command per tick while an opened one refills exponentially.
func (r *Runner) armProbe() {
	if r.backoff || r.done {
		return
	}
	r.backoff = true
	d := r.spec.BusyBackoffNS
	if d <= 0 {
		d = 200_000
	}
	r.spec.Defer(d, func() {
		r.backoff = false
		if r.done || r.clock() < r.spec.StartAt {
			return
		}
		for i := 0; i < r.probe && r.sess.CanSubmit(); i++ {
			if !r.submitOne() {
				return
			}
		}
		if r.probe < r.spec.QueueDepth {
			r.probe *= 2
		}
		if r.sess.CanSubmit() {
			r.armProbe()
		}
	})
}

// onDone records a completion and keeps the loop closed.
func (r *Runner) onDone(res hostqp.Result) {
	r.res.Completed++
	if res.Status == nvme.StatusBusy && r.spec.Defer != nil {
		// Admission pushback is flow control, not a failure: the command
		// never executed. Collapse to a single probe per tick and let the
		// probe timer rediscover the admissible depth.
		r.res.Busy++
		r.probe = 1
		r.armProbe()
		return
	}
	if !res.Status.OK() {
		r.res.Errors++
	}
	if res.CompletedAt >= r.spec.WarmupUntil && res.CompletedAt <= r.spec.StopAt && res.Status.OK() {
		bytes := int64(r.spec.Blocks) * int64(r.spec.BlockSize)
		r.res.Recorded.Add(1, bytes)
		r.res.Latency.Record(res.Latency())
		if obj := r.spec.SLOObjectiveNS; obj > 0 {
			if res.Latency() > obj {
				r.res.SLOBad++
			} else {
				r.res.SLOGood++
			}
		}
	}
	r.submitOne()
}
