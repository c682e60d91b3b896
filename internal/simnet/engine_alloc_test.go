package simnet

import (
	"fmt"
	"runtime"
	"testing"
)

// TestEngineScheduleAllocatesNothing pins the scheduler's own cost at zero
// objects: scheduling a func value the caller already holds and popping it
// again allocates nothing, whatever the size of the pending set — events
// live by value in the heap's slice, and nothing is boxed on the way in or
// out.
func TestEngineScheduleAllocatesNothing(t *testing.T) {
	if raceEnabled {
		t.Skip("the race detector allocates on its own")
	}
	for _, pending := range []int{1, 1 << 10, 1 << 16} {
		e := NewEngine()
		fn := func() {}
		for i := 1; i < pending; i++ {
			e.At(1<<40+Time(i%977), fn) // the standing set: never reached
		}
		allocs := testing.AllocsPerRun(1000, func() {
			e.Schedule(3, fn)
			e.RunUntil(e.Now() + 3)
		})
		if allocs != 0 {
			t.Errorf("pending set of %d: At + pop allocated %.1f objects", pending, allocs)
		}
		if e.Pending() != pending-1 {
			t.Fatalf("pending set of %d: %d events left", pending, e.Pending())
		}
	}
}

// TestEngineDrainedHeapHoldsNoCallbacks: a popped event's slot is cleared,
// so the backing array of a drained engine references no callback (and so
// no PDU or payload a callback captured), up to its capacity.
func TestEngineDrainedHeapHoldsNoCallbacks(t *testing.T) {
	e := NewEngine()
	rng := NewRand(5)
	fired := 0
	for i := 0; i < 5000; i++ {
		payload := make([]byte, 64)
		e.At(rng.Int63n(900), func() {
			fired += len(payload) / 64
			if fired%7 == 0 {
				e.Schedule(11, func() { fired++ })
			}
		})
	}
	e.RunUntil(450) // a partial drain first: live events must survive the clearing
	e.Run()
	if e.Pending() != 0 || fired < 5000 {
		t.Fatalf("pending = %d, fired = %d", e.Pending(), fired)
	}
	for i, ev := range e.events[:cap(e.events)] {
		if ev.fn != nil || ev.at != 0 || ev.seq != 0 {
			t.Fatalf("slot %d of %d still holds an event (at=%d seq=%d) after the drain", i, cap(e.events), ev.at, ev.seq)
		}
	}
}

// BenchmarkEngineScheduleRun is the scheduler's own number: one op is one
// event scheduled and later popped, in the hold pattern a simulation
// makes (each callback schedules its successor a random delay ahead)
// with a standing pending set of the given size.
func BenchmarkEngineScheduleRun(b *testing.B) {
	for _, pending := range []int{64, 4 << 10, 64 << 10} {
		b.Run(fmt.Sprintf("pending=%d", pending), func(b *testing.B) {
			e := NewEngine()
			rng := NewRand(9)
			left := b.N
			var fn func()
			fn = func() {
				if left--; left <= 0 {
					e.Stop()
				}
				e.At(e.Now()+1+rng.Int63n(10_000), fn)
			}
			for i := 0; i < pending; i++ {
				e.At(rng.Int63n(10_000), fn)
			}
			var before, after runtime.MemStats
			runtime.ReadMemStats(&before)
			b.ResetTimer()
			e.Run()
			b.StopTimer()
			runtime.ReadMemStats(&after)
			b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N), "ns/event")
			b.ReportMetric(float64(after.Mallocs-before.Mallocs)/float64(b.N), "allocs/event")
		})
	}
}
