package nvme

import (
	"math/rand"
	"testing"
)

// TestSlotsMatchMapModel drives a Slots table and a map with the same
// random set/get/delete sequence over the whole CID space — out-of-range
// CIDs, overwrites and double deletes included — and wants them to agree
// after every step. Depth 0 is the table that grows on demand.
func TestSlotsMatchMapModel(t *testing.T) {
	for _, depth := range []int{0, 1, 4, 64, 1000, MaxCIDs} {
		rng := rand.New(rand.NewSource(int64(depth) + 1))
		tab := NewSlots[int](depth)
		model := map[CID]*int{}
		inRange := func(cid CID) bool { return depth == 0 || int(cid) < depth }
		pick := func() CID {
			// Half the draws land near the depth boundary, where the bugs are.
			if depth > 0 && depth < MaxCIDs && rng.Intn(2) == 0 {
				return CID(depth - 2 + rng.Intn(5))
			}
			return CID(rng.Intn(MaxCIDs))
		}
		for step := 0; step < 20000; step++ {
			cid := pick()
			switch rng.Intn(4) {
			case 0, 1:
				v := new(int)
				ok := tab.Set(cid, v)
				if ok != inRange(cid) {
					t.Fatalf("depth %d: Set(%d) = %v, in range = %v", depth, cid, ok, inRange(cid))
				}
				if ok {
					model[cid] = v
				}
			case 2:
				if got, want := tab.Delete(cid), model[cid]; got != want {
					t.Fatalf("depth %d: Delete(%d) = %p, model has %p", depth, cid, got, want)
				}
				delete(model, cid)
				if tab.Delete(cid) != nil {
					t.Fatalf("depth %d: second Delete(%d) returned an occupant", depth, cid)
				}
			case 3:
				if tab.InRange(cid) != inRange(cid) {
					t.Fatalf("depth %d: InRange(%d) = %v", depth, cid, tab.InRange(cid))
				}
			}
			if got, want := tab.Get(cid), model[cid]; got != want {
				t.Fatalf("depth %d step %d: Get(%d) = %p, model has %p", depth, step, cid, got, want)
			}
			if tab.Len() != len(model) {
				t.Fatalf("depth %d step %d: Len = %d, model has %d", depth, step, tab.Len(), len(model))
			}
		}
		// Walking [0, Cap) finds exactly the model's occupants.
		seen := 0
		for i := 0; i < tab.Cap(); i++ {
			if tab.Get(CID(i)) != nil {
				seen++
			}
		}
		if seen != len(model) {
			t.Fatalf("depth %d: a walk of the table found %d occupants, model has %d", depth, seen, len(model))
		}
		if depth > 0 && tab.Cap() != depth {
			t.Fatalf("depth %d: table holds %d slots", depth, tab.Cap())
		}
	}
}

// A negotiated table never grows, whatever CID a peer sends; an
// un-negotiated one stops at the CID space.
func TestSlotsGrowthIsBounded(t *testing.T) {
	tab := NewSlots[int](4)
	for _, cid := range []CID{4, 5, 1000, 65535} {
		if tab.Set(cid, new(int)) {
			t.Fatalf("CID %d accepted by a 4-deep table", cid)
		}
	}
	if tab.Cap() != 4 || tab.Len() != 0 {
		t.Fatalf("out-of-range sets changed the table: cap %d len %d", tab.Cap(), tab.Len())
	}
	open := NewSlots[int](0)
	open.Set(65535, new(int))
	if open.Cap() != MaxCIDs {
		t.Fatalf("grown table holds %d slots, want the CID space", open.Cap())
	}
}
