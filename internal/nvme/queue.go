package nvme

import "fmt"

// SQ is a bounded circular submission queue of Commands with head/tail
// semantics matching the NVMe host-device contract: the producer advances
// the tail, the consumer advances the head, and the queue is full when it
// holds size-1 entries (one slot is sacrificed to distinguish full from
// empty, as real NVMe queues do).
//
// SQ is intentionally not synchronized: in the simulator everything runs on
// the event loop, and in the TCP runtime each queue is owned by exactly one
// goroutine (share memory by communicating).
type SQ struct {
	entries []Command
	head    uint32
	tail    uint32
}

// NewSQ creates a submission queue that can hold size-1 outstanding
// entries. Size must be at least 2.
func NewSQ(size int) *SQ {
	if size < 2 {
		panic(fmt.Sprintf("nvme: SQ size %d < 2", size))
	}
	return &SQ{entries: make([]Command, size)}
}

// Size returns the raw ring size (usable capacity is Size()-1).
func (q *SQ) Size() int { return len(q.entries) }

// Len returns the number of occupied entries.
func (q *SQ) Len() int {
	n := int(q.tail) - int(q.head)
	if n < 0 {
		n += len(q.entries)
	}
	return n
}

// Full reports whether another Push would fail.
func (q *SQ) Full() bool { return q.Len() == len(q.entries)-1 }

// Empty reports whether the queue holds no entries.
func (q *SQ) Empty() bool { return q.head == q.tail }

// Push enqueues a command, returning false when the ring is full.
func (q *SQ) Push(c Command) bool {
	if q.Full() {
		return false
	}
	q.entries[q.tail] = c
	q.tail = (q.tail + 1) % uint32(len(q.entries))
	return true
}

// Pop dequeues the oldest command.
func (q *SQ) Pop() (Command, bool) {
	if q.Empty() {
		return Command{}, false
	}
	c := q.entries[q.head]
	q.head = (q.head + 1) % uint32(len(q.entries))
	return c, true
}

// Head returns the current head index (reported in CQEs as SQHD).
func (q *SQ) Head() uint16 { return uint16(q.head) }

// CQ is a bounded circular completion queue of Completions with the same
// ring discipline as SQ.
type CQ struct {
	entries []Completion
	head    uint32
	tail    uint32
}

// NewCQ creates a completion queue that can hold size-1 outstanding
// entries. Size must be at least 2.
func NewCQ(size int) *CQ {
	if size < 2 {
		panic(fmt.Sprintf("nvme: CQ size %d < 2", size))
	}
	return &CQ{entries: make([]Completion, size)}
}

// Size returns the raw ring size (usable capacity is Size()-1).
func (q *CQ) Size() int { return len(q.entries) }

// Len returns the number of occupied entries.
func (q *CQ) Len() int {
	n := int(q.tail) - int(q.head)
	if n < 0 {
		n += len(q.entries)
	}
	return n
}

// Full reports whether another Push would fail.
func (q *CQ) Full() bool { return q.Len() == len(q.entries)-1 }

// Empty reports whether the queue holds no entries.
func (q *CQ) Empty() bool { return q.head == q.tail }

// Push enqueues a completion, returning false when the ring is full.
func (q *CQ) Push(c Completion) bool {
	if q.Full() {
		return false
	}
	q.entries[q.tail] = c
	q.tail = (q.tail + 1) % uint32(len(q.entries))
	return true
}

// Pop dequeues the oldest completion.
func (q *CQ) Pop() (Completion, bool) {
	if q.Empty() {
		return Completion{}, false
	}
	c := q.entries[q.head]
	q.head = (q.head + 1) % uint32(len(q.entries))
	return c, true
}

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
