// Package core implements the paper's primary contribution: the NVMe-oPF
// Priority Managers. A target-side PM keeps one isolated, zero-copy
// (CID-only) queue per tenant, executes latency-sensitive requests
// immediately, batches throughput-critical requests until a draining
// request arrives, and coalesces the batch's completion notifications into
// a single response (§III, Fig. 5 Algorithms 1–4). A host-side PM stamps
// priority flags, auto-inserts draining flags every window, and replays
// coalesced completions over its local pending queue, which also
// reconciles out-of-order device completions (§IV-C). The window-size
// optimizer (§IV-D) provides both the static selection table and the
// dynamic runtime tuner.
package core

import "nvmeopf/internal/nvme"

// CIDQueue is a growable FIFO ring of 16-bit command identifiers. It is
// the "zero-copy queue" of §IV-B: the priority managers never store
// request payloads or request structs, only CIDs, so PM memory does not
// grow with I/O size and stays tiny per tenant.
//
// The ring's capacity is a power of two, so positions wrap with a mask.
// Completions mostly name the oldest pending CID (or, coalesced, one a
// window away from it), so every search starts at the front, and removing
// the front CID moves nothing.
//
// The zero value is ready to use.
type CIDQueue struct {
	buf  []nvme.CID
	head int
	n    int
}

// Len returns the number of queued CIDs.
func (q *CIDQueue) Len() int { return q.n }

// Empty reports whether the queue is empty.
func (q *CIDQueue) Empty() bool { return q.n == 0 }

// Push appends a CID.
func (q *CIDQueue) Push(cid nvme.CID) {
	if q.n == len(q.buf) {
		nb := make([]nvme.CID, max(2*len(q.buf), 16))
		q.copyTo(nb)
		q.buf, q.head = nb, 0
	}
	q.buf[(q.head+q.n)&(len(q.buf)-1)] = cid
	q.n++
}

// copyTo copies the first len(dst) queued CIDs into dst in FIFO order:
// the run from head to the end of the ring, then the wrapped remainder.
func (q *CIDQueue) copyTo(dst []nvme.CID) {
	k := copy(dst, q.buf[q.head:])
	copy(dst[k:], q.buf[:q.head])
}

// drop discards the k oldest CIDs.
func (q *CIDQueue) drop(k int) {
	q.head = (q.head + k) & (len(q.buf) - 1)
	q.n -= k
}

// index returns the position of the first occurrence of cid, or -1.
func (q *CIDQueue) index(cid nvme.CID) int {
	// Scan the ring's two contiguous runs, oldest first, so nothing wraps
	// per step and a hit at the front costs one comparison.
	first := q.buf[q.head:min(q.head+q.n, len(q.buf))]
	for i, c := range first {
		if c == cid {
			return i
		}
	}
	for i, c := range q.buf[:q.n-len(first)] {
		if c == cid {
			return len(first) + i
		}
	}
	return -1
}

// Front returns the oldest CID without removing it.
func (q *CIDQueue) Front() (nvme.CID, bool) {
	if q.n == 0 {
		return 0, false
	}
	return q.buf[q.head], true
}

// PopFront removes and returns the oldest CID.
func (q *CIDQueue) PopFront() (nvme.CID, bool) {
	if q.n == 0 {
		return 0, false
	}
	cid := q.buf[q.head]
	q.drop(1)
	return cid, true
}

// PopAll removes and returns every queued CID in FIFO order (the target
// PM's drain execution).
func (q *CIDQueue) PopAll() []nvme.CID {
	if q.n == 0 {
		return nil
	}
	out := q.Snapshot()
	q.head = 0
	q.n = 0
	return out
}

// DrainThrough removes and returns, in FIFO order, every CID up to and
// including the first occurrence of cid (Alg. 2: "loop through the queue
// of pending requests until the ID of the request matches with the
// received response"). If cid is not present the queue is left untouched
// and ok is false — a coalesced completion naming an unknown CID is a
// protocol violation the caller must surface, not silently absorb.
func (q *CIDQueue) DrainThrough(cid nvme.CID) (drained []nvme.CID, ok bool) {
	idx := q.index(cid)
	if idx < 0 {
		return nil, false
	}
	drained = make([]nvme.CID, idx+1)
	q.copyTo(drained)
	q.drop(idx + 1)
	return drained, true
}

// Remove deletes the first occurrence of cid, preserving order of the
// rest. It is used for non-coalesced (per-request) completions of TC
// requests, e.g. individual error responses.
func (q *CIDQueue) Remove(cid nvme.CID) bool {
	idx := q.index(cid)
	if idx < 0 {
		return false
	}
	// Close the gap from whichever side is shorter: shift the older CIDs
	// one slot towards the tail and advance the head, or shift the newer
	// ones one slot towards the head.
	mask := len(q.buf) - 1
	if idx < q.n-1-idx {
		for i := idx; i > 0; i-- {
			q.buf[(q.head+i)&mask] = q.buf[(q.head+i-1)&mask]
		}
		q.head = (q.head + 1) & mask
	} else {
		for i := idx; i < q.n-1; i++ {
			q.buf[(q.head+i)&mask] = q.buf[(q.head+i+1)&mask]
		}
	}
	q.n--
	return true
}

// Contains reports whether cid is queued.
func (q *CIDQueue) Contains(cid nvme.CID) bool { return q.index(cid) >= 0 }

// Snapshot returns the queued CIDs in FIFO order without mutating the
// queue (diagnostics/tests).
func (q *CIDQueue) Snapshot() []nvme.CID {
	out := make([]nvme.CID, q.n)
	q.copyTo(out)
	return out
}
