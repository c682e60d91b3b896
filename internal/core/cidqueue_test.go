package core

import (
	"math/rand"
	"testing"

	"nvmeopf/internal/nvme"
)

func TestCIDQueueFIFO(t *testing.T) {
	var q CIDQueue
	if !q.Empty() || q.Len() != 0 {
		t.Fatal("zero value not empty")
	}
	for i := 0; i < 100; i++ {
		q.Push(nvme.CID(i))
	}
	if q.Len() != 100 {
		t.Fatalf("len = %d", q.Len())
	}
	if f, ok := q.Front(); !ok || f != 0 {
		t.Fatalf("front = %d, %v", f, ok)
	}
	for i := 0; i < 100; i++ {
		cid, ok := q.PopFront()
		if !ok || cid != nvme.CID(i) {
			t.Fatalf("pop %d: %d, %v", i, cid, ok)
		}
	}
	if _, ok := q.PopFront(); ok {
		t.Fatal("pop from empty succeeded")
	}
	if _, ok := q.Front(); ok {
		t.Fatal("front of empty succeeded")
	}
}

func TestCIDQueueWrapGrow(t *testing.T) {
	var q CIDQueue
	// Interleave pushes and pops to exercise wrap-around, then force
	// growth mid-wrap.
	next, expect := 0, 0
	for round := 0; round < 50; round++ {
		for i := 0; i < 7; i++ {
			q.Push(nvme.CID(next))
			next++
		}
		for i := 0; i < 3; i++ {
			cid, ok := q.PopFront()
			if !ok || cid != nvme.CID(expect) {
				t.Fatalf("round %d: got %d want %d", round, cid, expect)
			}
			expect++
		}
	}
	for q.Len() > 0 {
		cid, _ := q.PopFront()
		if cid != nvme.CID(expect) {
			t.Fatalf("drain: got %d want %d", cid, expect)
		}
		expect++
	}
	if next != expect {
		t.Fatalf("pushed %d popped %d", next, expect)
	}
}

func TestCIDQueuePopAll(t *testing.T) {
	var q CIDQueue
	if q.PopAll() != nil {
		t.Fatal("PopAll on empty should be nil")
	}
	for i := 0; i < 5; i++ {
		q.Push(nvme.CID(i * 10))
	}
	all := q.PopAll()
	if len(all) != 5 || !q.Empty() {
		t.Fatalf("PopAll = %v, empty=%v", all, q.Empty())
	}
	for i, cid := range all {
		if cid != nvme.CID(i*10) {
			t.Fatalf("order broken: %v", all)
		}
	}
}

func TestCIDQueueDrainThrough(t *testing.T) {
	var q CIDQueue
	for i := 0; i < 10; i++ {
		q.Push(nvme.CID(i))
	}
	drained, ok := q.DrainThrough(4)
	if !ok || len(drained) != 5 {
		t.Fatalf("drained = %v, ok=%v", drained, ok)
	}
	for i, cid := range drained {
		if cid != nvme.CID(i) {
			t.Fatalf("drain order broken: %v", drained)
		}
	}
	if q.Len() != 5 {
		t.Fatalf("remaining = %d", q.Len())
	}
	if f, _ := q.Front(); f != 5 {
		t.Fatalf("front after drain = %d", f)
	}
	// Unknown CID must not mutate.
	if _, ok := q.DrainThrough(99); ok {
		t.Fatal("unknown CID drained")
	}
	if q.Len() != 5 {
		t.Fatal("failed drain mutated queue")
	}
}

func TestCIDQueueDrainThroughFirstOccurrence(t *testing.T) {
	var q CIDQueue
	for _, cid := range []nvme.CID{7, 3, 7, 9} {
		q.Push(cid)
	}
	drained, ok := q.DrainThrough(7)
	if !ok || len(drained) != 1 || drained[0] != 7 {
		t.Fatalf("drained = %v", drained)
	}
	if q.Len() != 3 {
		t.Fatalf("remaining = %d", q.Len())
	}
}

func TestCIDQueueRemove(t *testing.T) {
	var q CIDQueue
	for i := 0; i < 6; i++ {
		q.Push(nvme.CID(i))
	}
	if !q.Remove(3) {
		t.Fatal("remove failed")
	}
	if q.Remove(3) {
		t.Fatal("double remove succeeded")
	}
	want := []nvme.CID{0, 1, 2, 4, 5}
	got := q.Snapshot()
	if len(got) != len(want) {
		t.Fatalf("snapshot = %v", got)
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("order after remove = %v, want %v", got, want)
		}
	}
	if !q.Remove(0) || !q.Remove(5) {
		t.Fatal("remove at ends failed")
	}
	if q.Len() != 3 {
		t.Fatalf("len = %d", q.Len())
	}
}

func TestCIDQueueContains(t *testing.T) {
	var q CIDQueue
	q.Push(5)
	if !q.Contains(5) || q.Contains(6) {
		t.Fatal("contains wrong")
	}
}

// The queue against a plain-slice reference, over long random sequences of
// every operation. Each phase leans toward pushing until the backlog is a
// few hundred deep and then toward consuming, so one run crosses several
// grow-and-wrap cycles (16 slots to 512 or 1024) with the head anywhere in the
// ring, and duplicate CIDs keep "first occurrence" honest.
func TestCIDQueueModelProperty(t *testing.T) {
	for _, seed := range []int64{1, 2, 3, 4} {
		var q CIDQueue
		var model []nvme.CID
		rng := rand.New(rand.NewSource(seed))
		indexOf := func(cid nvme.CID) int {
			for i, m := range model {
				if m == cid {
					return i
				}
			}
			return -1
		}
		// pick returns a CID that is usually queued (anywhere, or near
		// the front, as completions mostly are) and sometimes not.
		pick := func() nvme.CID {
			switch r := rng.Intn(8); {
			case len(model) == 0 || r == 0:
				return nvme.CID(rng.Intn(1 << 16))
			case r < 4:
				return model[rng.Intn(min(len(model), 3))]
			default:
				return model[rng.Intn(len(model))]
			}
		}
		filling := true
		for step := 0; step < 60000; step++ {
			if len(model) > 300+int(seed)*60 {
				filling = false
			} else if len(model) == 0 {
				filling = true
			}
			op := rng.Intn(16)
			if filling && op >= 6 {
				op = 0
			}
			switch {
			case op < 4: // push; a narrow CID range makes duplicates
				cid := nvme.CID(rng.Intn(1024))
				q.Push(cid)
				model = append(model, cid)
			case op < 8:
				cid, ok := q.PopFront()
				if ok != (len(model) > 0) || (ok && cid != model[0]) {
					t.Fatalf("seed %d step %d: PopFront = %d,%v; model front %v", seed, step, cid, ok, model)
				}
				if ok {
					model = model[1:]
				}
			case op < 10:
				cid := pick()
				idx := indexOf(cid)
				drained, ok := q.DrainThrough(cid)
				if ok != (idx >= 0) || len(drained) != idx+1 {
					t.Fatalf("seed %d step %d: DrainThrough(%d) = %v,%v; model index %d", seed, step, cid, drained, ok, idx)
				}
				for i := range drained {
					if drained[i] != model[i] {
						t.Fatalf("seed %d step %d: DrainThrough(%d)[%d] = %d, model %d", seed, step, cid, i, drained[i], model[i])
					}
				}
				model = model[idx+1:]
			case op < 13:
				cid := pick()
				idx := indexOf(cid)
				if ok := q.Remove(cid); ok != (idx >= 0) {
					t.Fatalf("seed %d step %d: Remove(%d) = %v; model index %d", seed, step, cid, ok, idx)
				}
				if idx >= 0 {
					model = append(model[:idx:idx], model[idx+1:]...)
				}
			case op < 15:
				cid := pick()
				if got := q.Contains(cid); got != (indexOf(cid) >= 0) {
					t.Fatalf("seed %d step %d: Contains(%d) = %v", seed, step, cid, got)
				}
			default:
				if rng.Intn(64) != 0 {
					continue // PopAll empties the queue: keep it rare
				}
				all := q.PopAll()
				if len(all) != len(model) {
					t.Fatalf("seed %d step %d: PopAll returned %d CIDs, model holds %d", seed, step, len(all), len(model))
				}
				for i := range all {
					if all[i] != model[i] {
						t.Fatalf("seed %d step %d: PopAll[%d] = %d, model %d", seed, step, i, all[i], model[i])
					}
				}
				model = nil
			}
			if q.Len() != len(model) || q.Empty() != (len(model) == 0) {
				t.Fatalf("seed %d step %d: Len = %d, model %d", seed, step, q.Len(), len(model))
			}
			if front, ok := q.Front(); ok != (len(model) > 0) || (ok && front != model[0]) {
				t.Fatalf("seed %d step %d: Front = %d,%v", seed, step, front, ok)
			}
			if step%97 == 0 {
				snap := q.Snapshot()
				for i := range model {
					if snap[i] != model[i] {
						t.Fatalf("seed %d step %d: Snapshot[%d] = %d, model %d", seed, step, i, snap[i], model[i])
					}
				}
			}
		}
	}
}

// BenchmarkCIDQueue measures the zero-copy pending queue: one window of
// 32 pushes and the drain through its last CID.
func BenchmarkCIDQueue(b *testing.B) {
	var q CIDQueue
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		for j := 0; j < 32; j++ {
			q.Push(nvme.CID(j))
		}
		if _, ok := q.DrainThrough(31); !ok {
			b.Fatal("drain failed")
		}
	}
}
