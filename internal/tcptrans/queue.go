package tcptrans

import (
	"os"
	"sync"
	"sync/atomic"
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
// The consumer's role can be lent (borrow, giveBack): while the consumer
// is parked with nothing queued, another goroutine may do the consumer's
// work itself instead of waking it — how a latency-sensitive burst runs to
// completion on the goroutine that holds it. Consumer and borrower never
// overlap: the consumer stays parked for the whole loan, and puts made
// meanwhile queue without waking it.
//
// The consumer parks one of two ways, picked under mu at each park: on the
// wake channel, or — for a queue with poller set, while a latency-sensitive
// Conn is open (see parkInPoller) — reading a pollable pipe. Whoever clears
// parked delivers the park's one token the way it was made, so FIFO order,
// loans and close behave the same either way.
//
// The zero value is not ready; call init first.
type burstQueue[T any] struct {
	mu     sync.Mutex
	lanes  [numLanes][]T
	parked bool // the consumer is blocked in wait, or about to be
	lent   bool // a borrower holds the consumer's role
	// resume makes the parked consumer's wait return with nothing queued:
	// a borrower left it work outside the queue.
	resume bool
	closed bool
	// wake carries one token from the producer (or closer) that clears
	// parked to the consumer: each park is answered by exactly one send,
	// so the send never blocks.
	wake chan struct{}
	// urgent mirrors "laneLS is not empty", so the consumer can look for
	// latency-sensitive work between two normal items without the lock.
	urgent atomic.Bool

	// poller lets the consumer's parks go to the network poller while a
	// latency-sensitive Conn is open; set before the first wait.
	poller bool
	// polled: the current park reads pipe instead of wake.
	polled bool
	// pipe is made at the first park in the poller and closed by the
	// consumer, through dropPipe, after its last wait has returned.
	pipe *wakePipe
	// parks and pollParks count the consumer's parks, and those of them
	// made in the poller.
	parks, pollParks int
}

// lsConns counts the latency-sensitive Conns open in the process. It is
// process-wide because the Go scheduler the poller park acts on is.
var lsConns atomic.Int32

// wakePipe is a pipe registered with Go's network poller; a park's token
// is one byte written to w and read from r.
type wakePipe struct {
	r, w *os.File
	buf  [1]byte // r's read buffer, the consumer's alone
}

var wakeToken = []byte{1}

// parkInPoller reports whether a park should read the queue's pipe rather
// than its wake channel, making the pipe if it has none.
// Called with mu held, by the consumer.
//
// Why: a goroutine woken through a channel goes into its waker's runnext
// slot, and runs next on the waker's P. Goroutines that hand work to each
// other through channels, as a throughput-critical flood's reader, reactor
// and writer do, so keep one P running their chain back to back, and that
// P rarely gets to the scheduler's path that polls the network — which it
// takes only when its run queues drain — or lets an idle P steal. Whichever
// latency-sensitive goroutine next needs a processor waits behind the
// chain. A goroutine woken through the poller is instead injected into the
// scheduler's run queues, where an idle P picks it up, so the flood's
// hand-offs stop chaining on one P. The pipe costs a write(2) per wake, so
// it is only worth it while there is a latency-sensitive Conn to protect.
func (q *burstQueue[T]) parkInPoller() bool {
	if !pollablePipe || !q.poller || lsConns.Load() == 0 {
		return false
	}
	if q.pipe == nil {
		r, w, err := os.Pipe()
		if err != nil {
			return false // out of descriptors: the channel still works
		}
		q.pipe = &wakePipe{r: r, w: w}
	}
	return true
}

// unpark clears parked and returns where the park's token goes: the pipe
// the consumer reads, or nil for the wake channel. Called with mu held,
// only while parked; the caller passes the result to signal after
// unlocking.
func (q *burstQueue[T]) unpark() *wakePipe {
	q.parked = false
	if q.polled {
		return q.pipe
	}
	return nil
}

// signal delivers the token of a park that unpark cleared.
func (q *burstQueue[T]) signal(p *wakePipe) {
	if p != nil {
		// Cannot fail: the consumer keeps the pipe open until it has read
		// this byte, and the pipe never holds more than one.
		_, _ = p.w.Write(wakeToken)
		return
	}
	q.wake <- struct{}{}
}

// dropPipe closes the queue's pipe, if it has one. The consumer calls it
// once its last wait has returned: a producer writes only to a pipe it saw
// the consumer parked on, and that park returned only after the write.
func (q *burstQueue[T]) dropPipe() {
	q.mu.Lock()
	p := q.pipe
	q.pipe = nil
	q.mu.Unlock()
	if p != nil {
		p.r.Close()
		p.w.Close()
	}
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
	wake := q.parked && !q.lent // a loan's return wakes for it
	var via *wakePipe
	if wake {
		via = q.unpark()
	}
	q.mu.Unlock()
	if wake {
		q.signal(via)
	}
	return true
}

// empty reports whether no lane holds anything. Called with mu held.
func (q *burstQueue[T]) empty() bool {
	for _, l := range q.lanes {
		if len(l) > 0 {
			return false
		}
	}
	return true
}

// borrow takes the consumer's role, and reports whether it did: only while
// the consumer is parked, nothing is queued, the queue is open and no one
// else holds it. The borrower does the consumer's work on its own
// goroutine and must end the loan with giveBack.
func (q *burstQueue[T]) borrow() bool {
	q.mu.Lock()
	ok := q.parked && !q.lent && !q.closed && q.empty()
	if ok {
		q.lent = true
	}
	q.mu.Unlock()
	return ok
}

// giveBack ends a loan. The consumer, still parked, wakes only if there is
// a reason: something was put or the queue closed during the loan, or the
// borrower says it left work behind outside the queue (more), in which
// case the consumer's wait returns with nothing queued.
func (q *burstQueue[T]) giveBack(more bool) {
	q.mu.Lock()
	q.lent = false
	q.resume = q.resume || more
	wake := q.parked && (q.resume || q.closed || !q.empty())
	var via *wakePipe
	if wake {
		via = q.unpark()
	}
	q.mu.Unlock()
	if wake {
		q.signal(via)
	}
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
// closed, or a returned loan left work behind. open turns false once the
// queue is closed, whatever it still holds.
func (q *burstQueue[T]) wait() (open bool) {
	for {
		q.mu.Lock()
		if q.resume || q.closed || !q.empty() {
			q.resume = false
			open = !q.closed
			q.mu.Unlock()
			return open
		}
		q.parked = true
		q.polled = q.parkInPoller()
		q.parks++
		if q.polled {
			q.pollParks++
			p := q.pipe
			q.mu.Unlock()
			_, _ = p.r.Read(p.buf[:]) // returns with the token: both ends stay open
			continue
		}
		q.mu.Unlock()
		<-q.wake
	}
}

// next is wait then take for a single-lane consumer: it blocks for the
// next burst and reports false once the queue is closed.
func (q *burstQueue[T]) next(spare []T) ([]T, bool) {
	if !q.wait() {
		return spare[:0], false
	}
	return q.take(laneNormal, spare), true
}

// close stops the queue: puts fail from here on and the consumer's wait
// reports it. What is still queued stays for a final take. A second close
// is a no-op.
// A close during a loan wakes the consumer when the loan is given back.
func (q *burstQueue[T]) close() {
	q.mu.Lock()
	wake := q.parked && !q.lent
	var via *wakePipe
	if wake {
		via = q.unpark()
	}
	q.closed = true
	q.mu.Unlock()
	if wake {
		q.signal(via)
	}
}
