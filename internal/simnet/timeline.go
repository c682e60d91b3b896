package simnet

// Timeline holds the pending events of one resource whose events come due
// in about the order they are scheduled: a poller CPU or one direction of a
// link, which finish their jobs in the order they take them, or a device's
// channels, each of which completes its command a service time after it
// starts. Whatever of them runs next on the engine can only be the earliest,
// so only that head sits in the engine's heap; the rest wait behind it in
// order, each with the hand-off instant and sequence number the engine
// would have given it. The heap therefore pops the same order as if every
// event were in it, while a backlog of hundreds of PDUs (the baseline
// target's CPU at saturation) or the sixteen channels of a busy SSD cost it
// one entry.
//
// An event due after the last one waiting is appended. One due earlier is
// moved into place from the back, which is cheap while it is due near the
// end (a channel's completion among the others'). One due before the head
// goes to the heap like any other event, so a Timeline behaves exactly like
// Engine.At for any input.
type Timeline struct {
	eng              *Engine
	head             func()      // the callback of the event in the heap; nil if none
	headAt, headFrom Time        // and its time and hand-off instant
	behind           Ring[event] // the events after the head, in order
	run              func()      // runHead, bound once: what the heap holds for head
}

// NewTimeline returns an empty timeline on the engine.
func NewTimeline(eng *Engine) *Timeline {
	tl := &Timeline{eng: eng}
	tl.run = tl.runHead
	return tl
}

// At runs fn at absolute virtual time t (clamped to now if in the past),
// in the place Engine.At would give it.
func (tl *Timeline) At(t Time, fn func()) {
	if fn == nil {
		panic("simnet: nil event function")
	}
	tl.at(t, tl.eng.now, fn)
}

// at schedules fn at t, handed over at from (at or after the clock),
// exactly as the engine would: same clamp, same sequence number, same
// place in the run order. At the clock, that is eng.At(t, fn).
func (tl *Timeline) at(t, from Time, fn func()) {
	e := tl.eng
	t = max(t, from)
	e.seq++
	ev := event{at: t, from: from, seq: e.seq, fn: fn}
	switch {
	case tl.head == nil:
		tl.head, tl.headAt, tl.headFrom = fn, t, from
		ev.fn = tl.run
		e.push(ev)
	case t < tl.headAt || (t == tl.headAt && from < tl.headFrom):
		// Due before the head: the heap sorts it like any other event.
		e.push(ev)
	default:
		tl.insert(ev)
		e.behind++
	}
}

// insert queues ev behind the head in (at, from, seq) order, moving later
// events up one slot from the back until it fits.
func (tl *Timeline) insert(ev event) {
	r := &tl.behind
	r.Push(ev)
	mask := len(r.buf) - 1
	i := r.n - 1
	for ; i > 0; i-- {
		prev := &r.buf[(r.head+i-1)&mask]
		if !ev.before(prev) {
			break
		}
		r.buf[(r.head+i)&mask] = *prev
	}
	r.buf[(r.head+i)&mask] = ev
}

// runHead runs the head's callback. Its successor, if any, first takes its
// place in the heap under its own time and sequence number; as the head's
// slot is still the engine's hole, that is one sift-down from the root.
func (tl *Timeline) runHead() {
	fn := tl.head
	if tl.behind.Len() > 0 {
		next := tl.behind.Pop()
		tl.eng.behind--
		tl.head, tl.headAt, tl.headFrom = next.fn, next.at, next.from
		next.fn = tl.run
		tl.eng.push(next)
	} else {
		tl.head = nil
	}
	fn()
}

// Ring is a FIFO queue on a power-of-two ring buffer that reuses its
// backing array. Pop clears the slot it vacates, so a ring never keeps a
// consumed element (and whatever that references) reachable. The zero value
// is an empty ring.
type Ring[T any] struct {
	buf  []T
	head int
	n    int
}

// Len returns the number of queued elements.
func (r *Ring[T]) Len() int { return r.n }

// Push appends v at the back.
func (r *Ring[T]) Push(v T) {
	if r.n == len(r.buf) {
		nb := make([]T, max(2*len(r.buf), 16))
		k := copy(nb, r.buf[r.head:])
		copy(nb[k:], r.buf[:r.head])
		r.buf, r.head = nb, 0
	}
	r.buf[(r.head+r.n)&(len(r.buf)-1)] = v
	r.n++
}

// Pop removes and returns the front element. The ring must not be empty.
func (r *Ring[T]) Pop() T {
	v := r.buf[r.head]
	var zero T
	r.buf[r.head] = zero
	r.head = (r.head + 1) & (len(r.buf) - 1)
	r.n--
	return v
}
