package core

import (
	"math/rand"
	"testing"

	"nvmeopf/internal/proto"
)

// TestTenantTableMatchesMapModel drives the paged table and a map with the
// same random set/get/clear sequence over the whole tenant-ID space and
// wants them to agree after every step.
func TestTenantTableMatchesMapModel(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	var tab TenantTable[int]
	model := map[proto.TenantID]*int{}
	for step := 0; step < 50000; step++ {
		// A few hot pages plus the whole space, so entries collide, pages
		// fill and page boundaries (255/256, 65535) are exercised.
		id := proto.TenantID(rng.Intn(1 << 16))
		if rng.Intn(2) == 0 {
			id = proto.TenantID(250 + rng.Intn(12))
		}
		switch rng.Intn(3) {
		case 0:
			v := new(int)
			tab.Set(id, v)
			model[id] = v
		case 1:
			tab.Set(id, nil)
			delete(model, id)
			tab.Set(id, nil) // clearing twice is harmless
		}
		if got, want := tab.Get(id), model[id]; got != want {
			t.Fatalf("step %d: Get(%d) = %p, model has %p", step, id, got, want)
		}
		if tab.Len() != len(model) {
			t.Fatalf("step %d: Len = %d, model has %d", step, tab.Len(), len(model))
		}
	}
	for id := 0; id < 1<<16; id++ {
		if got, want := tab.Get(proto.TenantID(id)), model[proto.TenantID(id)]; got != want {
			t.Fatalf("final sweep: Get(%d) = %p, model has %p", id, got, want)
		}
	}
}

// TestPMTenantRecordMatchesModel checks the per-tenant record the PM keeps
// behind the table against plain counters: random admits, releases (double
// releases included) and controller limits, which also cap admission,
// across tenant IDs from every part of the 16-bit space.
func TestPMTenantRecordMatchesModel(t *testing.T) {
	rng := rand.New(rand.NewSource(2))
	pm := NewTargetPM(TargetPMConfig{Isolated: true})
	ids := []proto.TenantID{0, 1, 255, 256, 257, 4095, 40000, 65535}
	pending := map[proto.TenantID]int{}
	limit := map[proto.TenantID]int{}
	total := 0
	for step := 0; step < 20000; step++ {
		id := ids[rng.Intn(len(ids))]
		switch rng.Intn(5) {
		case 0, 1:
			want := limit[id] == 0 || pending[id] < limit[id]
			if got := pm.Admit(id, proto.PrioNormal); got != want {
				t.Fatalf("step %d tenant %d: admitted %v at %d pending under limit %d", step, id, got, pending[id], limit[id])
			}
			if want {
				pending[id]++
				total++
			}
		case 2:
			pm.Release(id, proto.PrioNormal) // a no-op at zero
			if pending[id] > 0 {
				pending[id]--
				total--
			}
		case 3:
			w := rng.Intn(4) // 0 clears
			pm.SetTenantLimit(id, w)
			limit[id] = w
		case 4:
			pm.SetTenantLimit(id, -1) // negative clears too
			limit[id] = 0
		}
		if pm.PendingRequests(id) != pending[id] || pm.PendingTotal() != total {
			t.Fatalf("step %d tenant %d: pending %d (total %d), model %d (total %d)",
				step, id, pm.PendingRequests(id), pm.PendingTotal(), pending[id], total)
		}
		if pm.TenantLimit(id) != limit[id] {
			t.Fatalf("step %d tenant %d: limit %d, model %d", step, id, pm.TenantLimit(id), limit[id])
		}
	}
}
