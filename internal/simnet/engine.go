// Package simnet is a deterministic discrete-event simulation engine with
// the two resource models the NVMe-oPF experiments need: network links
// (bandwidth, MTU packetization, per-packet overhead, propagation delay)
// and poller CPUs (serialized per-PDU processing costs).
//
// Everything runs single-threaded on a virtual clock, so experiment results
// are bit-reproducible across runs and machines — a property the paper's
// real testbed cannot offer, and the reason figure regeneration is stable.
package simnet

import (
	"fmt"
	"time"
)

// Time is a virtual timestamp in nanoseconds since simulation start.
type Time = int64

type event struct {
	at Time
	// from is the instant the event was handed over: the clock when it was
	// scheduled, or, for a message a resource took ahead of time (see
	// Link.SendAt), the instant it reached that resource. Among events at
	// one instant, those handed over earlier run first.
	from Time
	seq  uint64 // tie-breaker: FIFO among events handed over at one instant
	fn   func()
}

// before orders events by (at, from, seq). seq is unique, so the order is
// total: whatever shape the heap takes, the pop sequence is the same. For
// events scheduled at the clock, from never decreases as seq grows, so the
// order is (at, seq); from places an event handed over early where an
// event scheduled at its hand-off instant would have been.
func (a *event) before(b *event) bool {
	return a.at < b.at || (a.at == b.at && (a.from < b.from || (a.from == b.from && a.seq < b.seq)))
}

// heapArity is the fan-out of the event heap. Four children per node halve
// the depth of a binary heap, and a node's children are adjacent in memory,
// so the sift-down that dominates a pop touches about half as many cache
// lines per level.
const heapArity = 4

// Engine is a discrete-event scheduler. The zero value is ready to use.
// Engine is not safe for concurrent use: all simulation code runs inside
// event callbacks on the caller's goroutine.
//
// The pending set is a 4-ary min-heap of event values in one slice. An
// event is never boxed or allocated on its own: scheduling with a func
// value the caller already holds (a method value bound once, say) costs no
// allocation at all, which is what lets simcluster and ssdsim recycle their
// per-PDU and per-command records instead of building a closure per hop.
//
// A resource whose events come due in about the order it schedules them (a
// poller CPU, one direction of a link, a device's channels) keeps them in
// its own Timeline, and only the earliest sits in the heap; behind counts
// the events waiting there behind it.
type Engine struct {
	now    Time
	seq    uint64
	events []event
	behind int
	// hole: events[0] is the event running now. The first event its
	// callback schedules takes that slot with one sift-down, instead of a
	// sift-down to remove the old root and a sift-up to add the new event:
	// the common case, a callback handing its PDU to the next resource.
	hole    bool
	stopped bool
	ran     uint64 // events run, for Executed
}

// NewEngine returns a fresh engine at time zero.
func NewEngine() *Engine { return &Engine{} }

// Now returns the current virtual time.
func (e *Engine) Now() Time { return e.now }

// Schedule runs fn after delay d (clamped to now for negative d). Events
// scheduled for the same instant run in scheduling order, after any that
// were handed over at an earlier instant (see Link.SendAt).
func (e *Engine) Schedule(d time.Duration, fn func()) {
	e.At(e.now+int64(d), fn)
}

// At runs fn at absolute virtual time t (clamped to now if in the past).
func (e *Engine) At(t Time, fn func()) {
	if fn == nil {
		panic("simnet: nil event function")
	}
	e.handOff(t, e.now, fn)
}

// handOff schedules fn at t (clamped to from) for a callback handed over
// at from, which is at or after the clock.
func (e *Engine) handOff(t, from Time, fn func()) {
	e.seq++
	e.push(event{at: max(t, from), from: from, seq: e.seq, fn: fn})
}

// push adds ev to the heap as it is: its time and sequence number are
// already final.
func (e *Engine) push(ev event) {
	if e.hole {
		e.hole = false
		e.siftDown(ev)
		return
	}
	// Sift up: pull ancestors down until ev fits.
	h := append(e.events, ev)
	i := len(h) - 1
	for i > 0 {
		parent := (i - 1) / heapArity
		if !ev.before(&h[parent]) {
			break
		}
		h[i] = h[parent]
		i = parent
	}
	h[i] = ev
	e.events = h
}

// runNext runs the earliest pending event, leaving its slot to the first
// event the callback schedules.
func (e *Engine) runNext() {
	top := e.events[0]
	e.now = top.at
	e.ran++
	e.hole = true
	top.fn()
	if e.hole {
		e.hole = false
		e.removeTop()
	}
}

// removeTop removes the earliest event. The slot it vacates at the end of
// the slice is cleared, so a consumed callback (and whatever PDU or payload
// it references) is not kept reachable by the backing array.
func (e *Engine) removeTop() {
	n := len(e.events) - 1
	last := e.events[n]
	e.events[n] = event{}
	e.events = e.events[:n]
	if n > 0 {
		e.siftDown(last)
	}
}

// siftDown puts ev in the root's place: it pulls the smallest child up
// until ev fits.
func (e *Engine) siftDown(ev event) {
	h := e.events
	n := len(h)
	i := 0
	for {
		first := i*heapArity + 1
		if first >= n {
			break
		}
		small := first
		for c, end := first+1, min(first+heapArity, n); c < end; c++ {
			if h[c].before(&h[small]) {
				small = c
			}
		}
		if !h[small].before(&ev) {
			break
		}
		h[i] = h[small]
		i = small
	}
	h[i] = ev
}

// Run processes events until none remain or Stop is called. It returns the
// final virtual time.
func (e *Engine) Run() Time {
	e.stopped = false
	for len(e.events) > 0 && !e.stopped {
		e.runNext()
	}
	return e.now
}

// RunUntil processes events with timestamps <= deadline (or until Stop).
// Events beyond the deadline stay queued; once nothing at or before the
// deadline remains the clock is advanced to it, so a subsequent RunUntil
// continues seamlessly. After Stop the clock stays at the last executed
// event: events it left queued before the deadline are still in the
// future, and virtual time never runs backwards to reach them.
func (e *Engine) RunUntil(deadline Time) Time {
	e.stopped = false
	for len(e.events) > 0 && e.events[0].at <= deadline {
		if e.stopped {
			return e.now
		}
		e.runNext()
	}
	if e.now < deadline {
		e.now = deadline
	}
	return e.now
}

// Stop halts Run/RunUntil after the current event returns.
func (e *Engine) Stop() { e.stopped = true }

// Executed returns how many events the engine has run. Like the event
// order, it is a function of the seed, so it compares two versions of a
// simulation exactly where their wall time cannot.
func (e *Engine) Executed() uint64 { return e.ran }

// Pending returns the number of queued events.
func (e *Engine) Pending() int {
	n := len(e.events) + e.behind
	if e.hole {
		n--
	}
	return n
}

// Rand is a small deterministic xorshift64* PRNG. The simulator cannot use
// math/rand's global state because experiment reproducibility requires each
// component to own an explicitly-seeded stream.
type Rand struct{ s uint64 }

// NewRand seeds a generator; seed 0 is remapped to a fixed constant.
func NewRand(seed uint64) *Rand {
	if seed == 0 {
		seed = 0x9E3779B97F4A7C15
	}
	return &Rand{s: seed}
}

// Uint64 returns the next raw 64-bit value.
func (r *Rand) Uint64() uint64 {
	x := r.s
	x ^= x >> 12
	x ^= x << 25
	x ^= x >> 27
	r.s = x
	return x * 0x2545F4914F6CDD1D
}

// Int63n returns a value uniform in [0, n). n must be positive.
func (r *Rand) Int63n(n int64) int64 {
	if n <= 0 {
		panic(fmt.Sprintf("simnet: Int63n(%d)", n))
	}
	return int64(r.Uint64() % uint64(n))
}

// Float64 returns a value uniform in [0, 1).
func (r *Rand) Float64() float64 {
	return float64(r.Uint64()>>11) / float64(1<<53)
}

// Jitter returns base +/- spread, uniform. Negative results clamp to 1ns so
// service times remain positive.
func (r *Rand) Jitter(base, spread int64) int64 {
	if spread <= 0 {
		return base
	}
	v := base - spread + r.Int63n(2*spread+1)
	if v < 1 {
		v = 1
	}
	return v
}
