package tcptrans

import (
	"sync"
	"sync/atomic"
	"time"
)

// Lanes of a burstQueue. A shard's run queue uses both — a connection
// whose ICReq class is latency-sensitive posts to laneLS, which the
// reactor empties first — every other queue only laneNormal.
const (
	laneLS = iota
	laneNormal
	numLanes
)

// burstQueue is the hand-off between this package's goroutines: reader to
// reactor, reactor to writer, submitter to reactor. Many producers append
// under one mutex; the single consumer swaps a whole lane out at once, so
// a burst of N items costs one lock on each side, and a producer wakes
// the consumer only when it finds it parked — at most one wake per burst,
// where a channel costs a lock and a possible wake per item and a select
// over it locks every channel it names.
//
// The zero value is not ready; call init first.
type burstQueue[T any] struct {
	mu     sync.Mutex
	lanes  [numLanes][]T
	parked bool // the consumer is blocked in wait, or about to be
	closed bool
	// wake carries one token from the producer (or closer) that clears
	// parked to the consumer: each park is answered by exactly one send,
	// so the send never blocks.
	wake chan struct{}
	// urgent mirrors "laneLS is not empty", so the consumer can look for
	// latency-sensitive work between two normal items without the lock.
	urgent atomic.Bool
}

func (q *burstQueue[T]) init() { q.wake = make(chan struct{}, 1) }

// put appends items to a lane. It reports false, having queued nothing,
// once the queue is closed; the items stay the caller's to release.
func (q *burstQueue[T]) put(lane int, items ...T) bool {
	q.mu.Lock()
	if q.closed {
		q.mu.Unlock()
		return false
	}
	q.lanes[lane] = append(q.lanes[lane], items...)
	if lane == laneLS {
		q.urgent.Store(true)
	}
	wake := q.parked
	q.parked = false
	q.mu.Unlock()
	if wake {
		q.wake <- struct{}{}
	}
	return true
}

// take swaps a lane's contents out for spare (emptied) without blocking.
// The consumer clears what it was handed before passing it back as spare,
// so the queue never pins retired items.
func (q *burstQueue[T]) take(lane int, spare []T) []T {
	q.mu.Lock()
	got := q.lanes[lane]
	q.lanes[lane] = spare[:0]
	if lane == laneLS {
		q.urgent.Store(false)
	}
	q.mu.Unlock()
	return got
}

// wait parks the consumer until a lane holds something, the queue is
// closed, or timeout (nil: never) fires. ready reports a non-empty lane
// found before the timeout fired — exactly when the timeout's value was
// not consumed; open turns false once the queue is closed, whatever it
// still holds.
func (q *burstQueue[T]) wait(timeout <-chan time.Time) (ready, open bool) {
	timedOut := false
	for {
		q.mu.Lock()
		for _, l := range q.lanes {
			ready = ready || len(l) > 0
		}
		if ready || q.closed || timedOut {
			open = !q.closed
			q.mu.Unlock()
			return ready && !timedOut, open
		}
		q.parked = true
		q.mu.Unlock()
		if timeout == nil {
			<-q.wake
			continue
		}
		select {
		case <-q.wake:
		case <-timeout:
			timedOut = true
			q.mu.Lock()
			answered := !q.parked
			q.parked = false
			q.mu.Unlock()
			if answered {
				<-q.wake // a producer answered the park; its token is ours
			}
		}
	}
}

// next is wait then take for a single-lane consumer: it blocks for the
// next burst and reports false once the queue is closed.
func (q *burstQueue[T]) next(spare []T) ([]T, bool) {
	if _, open := q.wait(nil); !open {
		return spare[:0], false
	}
	return q.take(laneNormal, spare), true
}

// close stops the queue: puts fail from here on and the consumer's wait
// reports it. What is still queued stays for a final take. Idempotent.
func (q *burstQueue[T]) close() {
	q.mu.Lock()
	wake := q.parked
	q.parked = false
	q.closed = true
	q.mu.Unlock()
	if wake {
		q.wake <- struct{}{}
	}
}
