package simnet

import (
	"fmt"
	"testing"
)

// TestRingFIFOAcrossWrapAndGrowth drives a ring against a slice model
// through bursts that leave the head mid-array when it wraps and grows, and
// checks that a drained ring references nothing up to its capacity.
func TestRingFIFOAcrossWrapAndGrowth(t *testing.T) {
	var r Ring[*int]
	var model []*int
	rng := NewRand(3)
	for round := 0; round < 200; round++ {
		for n := rng.Int63n(40); n > 0; n-- {
			v := new(int)
			*v = round
			r.Push(v)
			model = append(model, v)
		}
		for n := rng.Int63n(40); n > 0 && len(model) > 0; n-- {
			if got := r.Pop(); got != model[0] {
				t.Fatalf("round %d: popped %p, want %p", round, got, model[0])
			}
			model = model[1:]
		}
		if r.Len() != len(model) {
			t.Fatalf("round %d: Len %d, model %d", round, r.Len(), len(model))
		}
	}
	for len(model) > 0 {
		if r.Pop() != model[0] {
			t.Fatal("final drain out of order")
		}
		model = model[1:]
	}
	if cap(r.buf) < 64 {
		t.Fatalf("ring never grew past %d slots: the test no longer crosses a wrap", cap(r.buf))
	}
	for i, v := range r.buf[:cap(r.buf)] {
		if v != nil {
			t.Fatalf("slot %d of %d still references a popped element", i, cap(r.buf))
		}
	}
}

// TestTimelineKeepsBacklogOutOfHeap: however deep a CPU's or a link's
// backlog, the engine's heap holds one event for it, Pending still counts
// every event, and the backlog runs in FIFO order at the resource's pace.
func TestTimelineKeepsBacklogOutOfHeap(t *testing.T) {
	e := NewEngine()
	c := NewCPU(e, "c", testCPUCfg())
	l := NewLink(e, "l", testLinkCfg())
	var order []int
	for i := 0; i < 500; i++ {
		c.Exec(10, func() { order = append(order, i) })
		l.Send(DirAtoB, 100, func() {})
		l.Send(DirBtoA, 100, func() {})
	}
	if len(e.events) != 3 || e.Pending() != 1500 {
		t.Fatalf("heap holds %d events, Pending %d; want 3 and 1500", len(e.events), e.Pending())
	}
	e.Run()
	for i, v := range order {
		if v != i {
			t.Fatalf("CPU backlog ran out of order: position %d ran job %d", i, v)
		}
	}
	if len(order) != 500 || e.Now() < 5000 || e.Pending() != 0 {
		t.Fatalf("ran %d jobs, ended at t=%d with %d pending", len(order), e.Now(), e.Pending())
	}
}

// TestTimelineOrdersChannelCompletions: a device's channels each complete
// a jittered service time after they start, so their completions come due
// out of scheduling order. Through one timeline they still run in time
// order, and once the start-up burst is over the heap holds the earliest
// of them alone: each new completion is moved into place behind the head.
func TestTimelineOrdersChannelCompletions(t *testing.T) {
	e := NewEngine()
	tl := NewTimeline(e)
	rng := NewRand(5)
	const channels, total = 16, 4000
	var last Time
	ran, started, crowded := 0, channels, 0
	var complete func()
	complete = func() {
		if e.Now() < last {
			t.Fatalf("completion %d ran at t=%d after one at t=%d", ran, e.Now(), last)
		}
		last = e.Now()
		if ran++; ran > 100 && len(e.events) != 1 {
			crowded++
		}
		if started < total {
			started++
			tl.At(e.Now()+rng.Jitter(52_000, 12_000), complete)
		}
	}
	for i := 0; i < channels; i++ {
		tl.At(Time(i)*3_000+rng.Jitter(52_000, 12_000), complete)
	}
	e.Run()
	if ran != total || crowded != 0 {
		t.Fatalf("ran %d of %d completions; %d ran with more than the head in the heap", ran, total, crowded)
	}
}

// TestTimelineAllocatesNothing: once a resource's backlog ring has grown,
// queueing more work on it allocates nothing.
func TestTimelineAllocatesNothing(t *testing.T) {
	if raceEnabled {
		t.Skip("the race detector allocates on its own")
	}
	e := NewEngine()
	c := NewCPU(e, "c", testCPUCfg())
	l := NewLink(e, "l", testLinkCfg())
	fn := func() {}
	burst := func() {
		for i := 0; i < 256; i++ {
			c.Exec(10, fn)
			l.Send(DirAtoB, 100, fn)
		}
		e.Run()
	}
	burst() // grow the rings once
	if allocs := testing.AllocsPerRun(20, burst); allocs != 0 {
		t.Fatalf("a 256-deep CPU and link backlog allocated %.1f objects", allocs)
	}
}

// TestDrainedTimelinesHoldNoCallbacks: as the engine's heap does, a
// timeline clears each backlog slot it runs, so a drained resource keeps no
// callback (and no PDU it captured) reachable.
func TestDrainedTimelinesHoldNoCallbacks(t *testing.T) {
	e := NewEngine()
	c := NewCPU(e, "c", testCPUCfg())
	for i := 0; i < 100; i++ {
		payload := make([]byte, 64)
		c.Exec(10, func() { _ = payload })
	}
	e.RunUntil(500) // a partial drain first: live events must survive it
	e.Run()
	r := &c.done.behind
	if cap(r.buf) == 0 || c.done.head != nil {
		t.Fatalf("backlog never used its ring (cap %d) or still live", cap(r.buf))
	}
	for i, ev := range r.buf[:cap(r.buf)] {
		if ev.fn != nil {
			t.Fatalf("ring slot %d of %d still holds a callback after the drain", i, cap(r.buf))
		}
	}
}

// BenchmarkResourceBacklog is what a PDU hop costs the scheduler when one
// resource has a backlog of the given depth, beside a standing set of 16
// unrelated events (a saturated SSD's channels): one op is one CPU.Exec
// queued and later run. With the backlog in the CPU's timeline, the cost
// does not grow with its depth.
func BenchmarkResourceBacklog(b *testing.B) {
	for _, depth := range []int{1, 64, 4 << 10} {
		b.Run(fmt.Sprintf("depth=%d", depth), func(b *testing.B) {
			e := NewEngine()
			c := NewCPU(e, "c", testCPUCfg())
			left := b.N
			var job, channel func()
			job = func() {
				if left--; left <= 0 {
					e.Stop()
				}
				c.Exec(100, job)
			}
			channel = func() { e.Schedule(1_000_000, channel) }
			for i := 0; i < 16; i++ {
				e.At(Time(i), channel)
			}
			for i := 0; i < depth; i++ {
				c.Exec(100, job)
			}
			b.ResetTimer()
			e.Run()
		})
	}
}
