package simnet

import (
	"testing"
	"time"
)

// eventSpec is one node of a generated scheduling program: how the event
// is scheduled (At with an absolute time, or Schedule with a delay — either
// may lie in the past), how far ahead of the clock it is handed over (0:
// scheduled at the clock; more: a message a resource takes early, see
// Link.SendAt), and which further events its callback schedules.
type eventSpec struct {
	abs  bool
	v    int64
	lead int64
	kids []int
}

// parseProgram turns arbitrary bytes into a scheduling program, two bytes
// per event. Times are drawn from a window a few dozen ticks wide, so
// same-instant bursts and past timestamps are the common case, not the
// corner. The first roots events are scheduled before the run; every
// other event is scheduled from inside the callback of an earlier one.
func parseProgram(data []byte) (roots int, specs []eventSpec) {
	if len(data) < 3 {
		return 0, nil
	}
	n := (len(data) - 1) / 2
	specs = make([]eventSpec, n)
	roots = 1 + int(data[0])%8
	if roots > n {
		roots = n
	}
	next := roots
	for i := range specs {
		a, b := data[1+2*i], data[2+2*i]
		s := &specs[i]
		s.abs = a&1 == 1
		if s.abs {
			s.v = int64(b % 48)
		} else {
			s.v = int64(int8(b)) % 12 // negative delays clamp to now
		}
		s.lead = int64(a>>1) / 5 % 4
		for k := int(a>>1) % 5; k > 0 && next < n; k-- {
			s.kids = append(s.kids, next)
			next++
		}
	}
	return roots, specs
}

// firing is one event run: which, when, and how many events were pending
// as its callback began.
type firing struct {
	id      int
	at      Time
	pending int
}

// modelOrder is the reference scheduler: the pending set is a plain slice
// in call order, and the next event is the first one with the smallest
// clamped timestamp and, among those, the earliest hand-off instant — a
// stable sort by (clamped at, hand-off, call order), one element at a time.
func modelOrder(roots int, specs []eventSpec) []firing {
	type pend struct {
		at, from Time
		id       int
	}
	var pending []pend
	var now Time
	schedule := func(id int) {
		t := specs[id].v
		if !specs[id].abs {
			t += now
		}
		from := now + specs[id].lead
		pending = append(pending, pend{max(t, from), from, id})
	}
	for id := 0; id < roots; id++ {
		schedule(id)
	}
	var out []firing
	for len(pending) > 0 {
		best := 0
		for i := range pending {
			p, b := pending[i], pending[best]
			if p.at < b.at || (p.at == b.at && p.from < b.from) {
				best = i
			}
		}
		p := pending[best]
		pending = append(pending[:best], pending[best+1:]...)
		now = p.at
		out = append(out, firing{p.id, now, len(pending)})
		for _, k := range specs[p.id].kids {
			schedule(k)
		}
	}
	return out
}

// engineOrder runs the same program on the real engine. step > 0 drives it
// through RunUntil in step-wide slices instead of one Run; lanes > 0
// schedules every event through one of that many timelines instead of the
// engine, whether its time appends it to the timeline, moves it into place
// behind the head or puts it ahead of the head. The order must depend on
// none of it. An event handed over ahead of the clock goes through the
// engine's handOff.
func engineOrder(roots int, specs []eventSpec, step Time, lanes int) []firing {
	e := NewEngine()
	tls := make([]*Timeline, lanes)
	for i := range tls {
		tls[i] = NewTimeline(e)
	}
	var out []firing
	var schedule func(id int)
	schedule = func(id int) {
		fn := func() {
			out = append(out, firing{id, e.Now(), e.Pending()})
			for _, k := range specs[id].kids {
				schedule(k)
			}
		}
		t, from := specs[id].v, e.Now()+specs[id].lead
		if !specs[id].abs {
			t += e.Now()
		}
		switch {
		case lanes > 0:
			tls[id%lanes].at(t, from, fn)
		case specs[id].lead > 0:
			e.handOff(t, from, fn)
		case specs[id].abs:
			e.At(specs[id].v, fn)
		default:
			e.Schedule(time.Duration(specs[id].v), fn)
		}
	}
	for id := 0; id < roots; id++ {
		schedule(id)
	}
	if step <= 0 {
		e.Run()
		return out
	}
	for deadline := step; e.Pending() > 0; deadline += step {
		e.RunUntil(deadline)
	}
	return out
}

func checkAgainstModel(t *testing.T, data []byte) {
	t.Helper()
	roots, specs := parseProgram(data)
	want := modelOrder(roots, specs)
	for _, lanes := range []int{0, 1, 3} {
		for _, step := range []Time{0, 1, 7} {
			got := engineOrder(roots, specs, step, lanes)
			if len(got) != len(want) {
				t.Fatalf("lanes %d step %d: engine fired %d events, model %d", lanes, step, len(got), len(want))
			}
			for i := range want {
				if got[i] != want[i] {
					t.Fatalf("lanes %d step %d: firing %d = event %d at t=%d with %d pending, model says event %d at t=%d with %d pending",
						lanes, step, i, got[i].id, got[i].at, got[i].pending, want[i].id, want[i].at, want[i].pending)
				}
			}
		}
	}
}

// TestEngineMatchesReferenceModel pins the scheduler's whole contract in
// one statement: whatever interleaving of At, Schedule and early hand-offs
// a program makes, from outside the run or from inside callbacks, with
// past timestamps and same-instant bursts, events fire in the order of a
// stable sort by (clamped timestamp, hand-off instant, call order), each
// observing Now() == its timestamp and Pending() == the events still
// queued. Scheduling through resource timelines changes none of it.
func TestEngineMatchesReferenceModel(t *testing.T) {
	rng := NewRand(19)
	for round := 0; round < 300; round++ {
		data := make([]byte, 3+rng.Int63n(1200))
		for i := range data {
			data[i] = byte(rng.Uint64())
		}
		if round%3 == 0 {
			// Fan-out-heavy programs: the pending set grows to hundreds
			// of events, most of them tied on the timestamp.
			for i := 1; i < len(data); i += 2 {
				data[i] |= 0x06
			}
		}
		checkAgainstModel(t, data)
	}
}

func FuzzEngineOrder(f *testing.F) {
	f.Add([]byte{0, 1, 10, 1, 10, 1, 10})                    // same-instant burst
	f.Add([]byte{3, 0, 0x85, 0, 0x85, 8, 5, 9, 0, 0, 0xff})  // negative delays, nested
	f.Add([]byte{7, 9, 40, 9, 3, 9, 3, 6, 0, 6, 0, 1, 0, 0}) // past absolute times from callbacks
	f.Fuzz(func(t *testing.T, data []byte) {
		if len(data) > 4096 {
			data = data[:4096] // the model is quadratic
		}
		checkAgainstModel(t, data)
	})
}

// TestStopInsideRunUntilKeepsTimeMonotonic: Stop leaves events at or
// before the deadline queued, so the clock must stay at the last executed
// event — advancing it to the deadline would make the next run step
// backwards to reach them.
func TestStopInsideRunUntilKeepsTimeMonotonic(t *testing.T) {
	e := NewEngine()
	var last, sawAt10 Time = 0, -1
	observe := func() {
		if e.Now() < last {
			t.Errorf("virtual time went backwards: %d after %d", e.Now(), last)
		}
		last = e.Now()
	}
	e.At(5, func() { observe(); e.Stop() })
	e.At(10, func() { observe(); sawAt10 = e.Now() })
	if end := e.RunUntil(100); end != 5 {
		t.Fatalf("stopped RunUntil returned t=%d, want 5 (the last executed event)", end)
	}
	e.Schedule(0, observe) // scheduled while stopped: runs at t=5, before the t=10 event
	if end := e.RunUntil(100); end != 100 {
		t.Fatalf("resumed RunUntil returned t=%d, want the deadline", end)
	}
	if sawAt10 != 10 {
		t.Fatalf("the t=10 event observed Now() = %d", sawAt10)
	}
}
