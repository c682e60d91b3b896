package nvme

import "fmt"

// CIDAllocator hands out 16-bit command identifiers that are unique among
// outstanding commands of one queue pair, and recycles them on completion.
// NVMe requires CID uniqueness per SQ; the fabric layer additionally relies
// on it to match coalesced completions to pending requests. The CIDs it
// hands out are dense in [0, max), so both ends of the queue pair can index
// per-request state by CID (Slots).
type CIDAllocator struct {
	free []CID
	used []bool // indexed by CID
	n    int    // outstanding
	next int    // lowest CID never handed out
}

// NewCIDAllocator creates an allocator for at most max outstanding CIDs
// (max <= 65536).
func NewCIDAllocator(max int) *CIDAllocator {
	if max <= 0 || max > MaxCIDs {
		panic(fmt.Sprintf("nvme: CID allocator size %d out of range", max))
	}
	return &CIDAllocator{used: make([]bool, max)}
}

// Alloc returns a fresh CID, or false if max CIDs are outstanding.
func (a *CIDAllocator) Alloc() (CID, bool) {
	var cid CID
	if n := len(a.free); n > 0 {
		cid = a.free[n-1]
		a.free = a.free[:n-1]
	} else if a.next < len(a.used) {
		cid = CID(a.next)
		a.next++
	} else {
		return 0, false
	}
	a.used[cid] = true
	a.n++
	return cid, true
}

// Release returns a CID to the pool. Releasing a CID that is not
// outstanding — one past the allocator's range included — is a protocol
// bug and reported as an error.
func (a *CIDAllocator) Release(cid CID) error {
	if int(cid) >= len(a.used) || !a.used[cid] {
		return fmt.Errorf("nvme: release of non-outstanding CID %d", cid)
	}
	a.used[cid] = false
	a.n--
	a.free = append(a.free, cid)
	return nil
}

// Outstanding returns the number of live CIDs.
func (a *CIDAllocator) Outstanding() int { return a.n }
