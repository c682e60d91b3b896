package nvme

import (
	"testing"
	"testing/quick"
)

func TestCIDAllocatorUnique(t *testing.T) {
	a := NewCIDAllocator(128)
	seen := make(map[CID]bool)
	for i := 0; i < 128; i++ {
		cid, ok := a.Alloc()
		if !ok {
			t.Fatalf("alloc %d failed", i)
		}
		if seen[cid] {
			t.Fatalf("duplicate CID %d", cid)
		}
		seen[cid] = true
	}
	if _, ok := a.Alloc(); ok {
		t.Fatal("alloc beyond max succeeded")
	}
	if a.Outstanding() != 128 {
		t.Fatalf("outstanding = %d", a.Outstanding())
	}
}

func TestCIDAllocatorRecycle(t *testing.T) {
	a := NewCIDAllocator(2)
	c1, _ := a.Alloc()
	c2, _ := a.Alloc()
	if err := a.Release(c1); err != nil {
		t.Fatal(err)
	}
	c3, ok := a.Alloc()
	if !ok {
		t.Fatal("alloc after release failed")
	}
	if c3 != c1 {
		t.Fatalf("expected recycled CID %d, got %d", c1, c3)
	}
	if err := a.Release(c1); err != nil {
		t.Fatal(err)
	}
	if err := a.Release(c1); err == nil {
		t.Fatal("double release succeeded")
	}
	if err := a.Release(c2); err != nil {
		t.Fatal(err)
	}
	if a.Outstanding() != 0 {
		t.Fatalf("outstanding = %d", a.Outstanding())
	}
}

func TestCIDAllocatorPanicsOnBadMax(t *testing.T) {
	for _, n := range []int{0, -1, 1 << 17} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("want panic for max=%d", n)
				}
			}()
			NewCIDAllocator(n)
		}()
	}
}

// Property: alloc/release in arbitrary order never hands out a CID that is
// currently outstanding.
func TestCIDAllocatorProperty(t *testing.T) {
	f := func(ops []bool) bool {
		a := NewCIDAllocator(16)
		live := map[CID]bool{}
		var liveList []CID
		for _, alloc := range ops {
			if alloc {
				cid, ok := a.Alloc()
				if ok != (len(live) < 16) {
					return false
				}
				if ok {
					if live[cid] {
						return false // duplicate!
					}
					live[cid] = true
					liveList = append(liveList, cid)
				}
			} else if len(liveList) > 0 {
				cid := liveList[len(liveList)-1]
				liveList = liveList[:len(liveList)-1]
				delete(live, cid)
				if a.Release(cid) != nil {
					return false
				}
			}
			if a.Outstanding() != len(live) {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Fatal(err)
	}
}
