package simnet

// timeline holds the pending events of one serialized resource: a poller
// CPU, or one direction of a link. Such a resource finishes its jobs in the
// order it takes them, so their event times never decrease, and whatever
// runs next on the engine can only be the earliest of them. Only that head
// sits in the engine's heap; the rest wait in a FIFO, each with the
// hand-off instant and sequence number the engine would have given it. The
// heap therefore pops the same order as if every event were in it, while a
// backlog of hundreds of PDUs (the baseline target's CPU at saturation)
// costs it one entry instead of hundreds.
type timeline struct {
	eng      *Engine
	head     func()      // the callback of the event in the heap; nil if none
	last     Time        // time of the latest event scheduled
	lastFrom Time        // and when it was handed over
	behind   Ring[event] // the events after the head, in order
	run      func()      // runHead, bound once: what the heap holds for head
}

func newTimeline(eng *Engine) *timeline {
	tl := &timeline{eng: eng}
	tl.run = tl.runHead
	return tl
}

// at schedules fn at t, handed over at from (at or after the clock),
// exactly as the engine would: same clamp, same sequence number, same
// place in the run order. At the clock, that is eng.At(t, fn).
func (tl *timeline) at(t, from Time, fn func()) {
	e := tl.eng
	t = max(t, from)
	if tl.head == nil {
		tl.head, tl.last, tl.lastFrom = fn, t, from
		e.seq++
		e.push(event{at: t, from: from, seq: e.seq, fn: tl.run})
		return
	}
	if t < tl.last || (t == tl.last && from < tl.lastFrom) {
		// Out of FIFO order: the heap sorts it like any other event.
		e.handOff(t, from, fn)
		return
	}
	tl.last, tl.lastFrom = t, from
	e.seq++
	tl.behind.Push(event{at: t, from: from, seq: e.seq, fn: fn})
	e.behind++
}

// runHead runs the head's callback. Its successor, if any, first takes its
// place in the heap under its own time and sequence number; as the head's
// slot is still the engine's hole, that is one sift-down from the root.
func (tl *timeline) runHead() {
	fn := tl.head
	if tl.behind.Len() > 0 {
		next := tl.behind.Pop()
		tl.eng.behind--
		tl.head = next.fn
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
