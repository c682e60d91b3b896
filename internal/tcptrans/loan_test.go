package tcptrans

// Tests for burstQueue's loan (borrow/giveBack): a model test that drives
// random schedules of put, take, wait, borrow, giveBack and close against a
// plain reference of what the queue must hold and when its consumer must
// wake, and a concurrent stress test whose overlap check is the race
// detector's. Run with -race.

import (
	"fmt"
	"math/rand"
	"runtime"
	"sync"
	"sync/atomic"
	"testing"
	"time"
)

// loanConsumer runs a burstQueue's consumer on its own goroutine, one step
// at a time: it reports each return from wait on woke, then takes both
// lanes when told to and reports what it got.
type loanConsumer struct {
	woke    chan bool // open
	proceed chan struct{}
	taken   chan [numLanes][]int
}

func startLoanConsumer(q *burstQueue[int]) *loanConsumer {
	c := &loanConsumer{woke: make(chan bool), proceed: make(chan struct{}),
		taken: make(chan [numLanes][]int)}
	go func() {
		for {
			open := q.wait()
			c.woke <- open
			<-c.proceed
			var got [numLanes][]int
			for l := range got {
				got[l] = q.take(l, nil)
			}
			c.taken <- got
			if !open {
				return
			}
		}
	}()
	return c
}

// loanRef is the reference: what the queue holds, and the consumer's state
// as the queue must see it.
type loanRef struct {
	lanes        [numLanes][]int
	closed, lent bool
	resume       bool // a loan returned with work left behind, not yet seen
	running      bool // the consumer returned from wait and has not taken yet
	exiting      bool // ... and its wait reported the queue closed
	done         bool // the consumer took for the last time and exited
	next         int  // the next item to put
	accepted     int  // items a put accepted
	took         int
}

func (r *loanRef) empty() bool { return len(r.lanes[laneLS]) == 0 && len(r.lanes[laneNormal]) == 0 }

// wakes reports whether the consumer, waiting in wait, must return now.
func (r *loanRef) wakes() bool { return !r.lent && (r.resume || r.closed || !r.empty()) }

// TestBurstQueueLoanModel checks 400 random schedules step by step against
// loanRef: every put, take, borrow, giveBack and close, and after each one
// whether the consumer woke. A wake the reference does not expect is an
// overlap of consumer and borrower (or a spurious wake); a wake it expects
// that does not come within seconds is a lost wake-up.
func TestBurstQueueLoanModel(t *testing.T) {
	for seed := int64(1); seed <= 400; seed++ {
		runLoanModel(t, seed, 200, false)
		if t.Failed() {
			t.Fatalf("seed %d", seed)
		}
	}
}

// TestBurstQueuePollerLoanModel runs the same schedules with the consumer
// parked in the network poller, as a throughput-critical Conn's queues are
// while a latency-sensitive Conn is open: every park must read the pipe,
// and wake-ups, contents and close behaviour must match the channel park's.
// It raises the process-wide LS count, so it must not run in parallel with
// tests that dial connections.
func TestBurstQueuePollerLoanModel(t *testing.T) {
	if !pollablePipe {
		t.Skip("pipes are not pollable on this platform")
	}
	lsConns.Add(1)
	defer lsConns.Add(-1)
	for seed := int64(1); seed <= 400; seed++ {
		runLoanModel(t, seed, 200, true)
		if t.Failed() {
			t.Fatalf("seed %d", seed)
		}
	}
}

// runLoanModel runs one random schedule against loanRef; poller sets the
// queue's poller flag.
func runLoanModel(t *testing.T, seed int64, steps int, poller bool) {
	rng := rand.New(rand.NewSource(seed))
	q := new(burstQueue[int])
	q.init()
	q.poller = poller
	c := startLoanConsumer(q)
	ref := &loanRef{}
	var log []string
	fail := func(format string, args ...any) {
		t.Helper()
		t.Errorf("seed %d after %v: %s", seed, log, fmt.Sprintf(format, args...))
	}

	// settle brings the test in step with the consumer after an operation:
	// if the reference says a waiting consumer must return, it must report
	// so; otherwise it must be (or become) parked, and stay parked.
	settle := func() bool {
		t.Helper()
		if ref.running || ref.done {
			return true
		}
		if ref.wakes() {
			select {
			case got := <-c.woke:
				if ref.lent {
					fail("consumer woke during a loan")
					return false
				}
				if got != !ref.closed {
					fail("wait returned open = %v, want %v", got, !ref.closed)
					return false
				}
				ref.resume, ref.running, ref.exiting = false, true, !got
			case <-time.After(5 * time.Second):
				fail("lost wake-up: the consumer did not return from wait")
				return false
			}
			return true
		}
		deadline := time.Now().Add(5 * time.Second)
		for {
			q.mu.Lock()
			parked, polled := q.parked, q.polled
			q.mu.Unlock()
			if parked {
				if polled != poller {
					fail("the consumer parked in the poller = %v, want %v", polled, poller)
					return false
				}
				break
			}
			select {
			case got := <-c.woke:
				fail("consumer woke with nothing to do (lent=%v): %v", ref.lent, got)
				return false
			default:
			}
			if time.Now().After(deadline) {
				fail("the consumer never parked")
				return false
			}
			runtime.Gosched()
		}
		return true
	}
	// take lets the running consumer take both lanes, which must hold
	// exactly what the reference holds: everything put, in order — items
	// put during a loan included, which the consumer could not have taken
	// earlier, since it never runs during one.
	take := func() bool {
		t.Helper()
		c.proceed <- struct{}{}
		got := <-c.taken
		for l := range got {
			if fmt.Sprint(got[l]) != fmt.Sprint(ref.lanes[l]) {
				fail("lane %d took %v, want %v", l, got[l], ref.lanes[l])
				return false
			}
			ref.took += len(got[l])
			ref.lanes[l] = nil
		}
		ref.running, ref.done = false, ref.exiting
		return true
	}
	if !settle() {
		return
	}

	for step := 0; step < steps && !ref.done; step++ {
		switch op := rng.Intn(10); {
		case op < 4: // put
			lane := rng.Intn(numLanes)
			v := ref.next
			ref.next++
			log = append(log, fmt.Sprintf("put%d", lane))
			ok := q.put(lane, v)
			if ok != !ref.closed {
				fail("put on a queue closed=%v returned %v", ref.closed, ok)
				return
			}
			if ok {
				ref.lanes[lane] = append(ref.lanes[lane], v)
				ref.accepted++
			}
		case op < 6: // the consumer takes, if it is running
			if !ref.running {
				continue
			}
			log = append(log, "take")
			if !take() {
				return
			}
		case op < 8: // borrow
			log = append(log, "borrow")
			want := !ref.running && !ref.done && !ref.lent && !ref.closed && ref.empty()
			if got := q.borrow(); got != want {
				fail("borrow = %v, want %v (running=%v lent=%v closed=%v queued=%v)",
					got, want, ref.running, ref.lent, ref.closed, !ref.empty())
				return
			}
			ref.lent = ref.lent || want
		case op < 9: // give the loan back
			if !ref.lent {
				continue
			}
			more := rng.Intn(3) == 0
			log = append(log, fmt.Sprintf("giveBack(%v)", more))
			q.giveBack(more)
			ref.lent = false
			ref.resume = ref.resume || more
		default: // close, rarely, so schedules get long
			if rng.Intn(4) != 0 {
				continue
			}
			log = append(log, "close")
			q.close()
			ref.closed = true
		}
		if !settle() {
			return
		}
	}
	// Wind down: end any loan, close, and let the consumer drain what is
	// left. Everything a put accepted is taken exactly once.
	if ref.lent {
		q.giveBack(false)
		ref.lent = false
	}
	q.close()
	ref.closed = true
	for !ref.done {
		if !settle() || !take() {
			return
		}
	}
	if ref.took != ref.accepted {
		fail("took %d items, puts accepted %d", ref.took, ref.accepted)
	}
	// The consumer has exited: its last wait returned, so the pipe, if it
	// made one, is the test's to close.
	if hasPipe := q.pipe != nil; hasPipe != (poller && q.parks > 0) {
		fail("after %d parks the queue has a pipe = %v, want %v", q.parks, hasPipe, poller)
	}
	q.dropPipe()
}

// TestBurstQueueLoanCloseWakesAfterReturn pins the one case the model
// reaches only by chance: a close during a loan does not wake the consumer
// then — the borrower still holds its role — but the loan's return does,
// and the consumer's wait reports the queue closed.
func TestBurstQueueLoanCloseWakesAfterReturn(t *testing.T) {
	q := new(burstQueue[int])
	q.init()
	c := startLoanConsumer(q)
	waitFor(t, "the consumer to park", func() bool {
		q.mu.Lock()
		defer q.mu.Unlock()
		return q.parked
	})
	if !q.borrow() {
		t.Fatal("could not borrow a parked, empty queue")
	}
	if q.borrow() {
		t.Fatal("a second borrow succeeded during a loan")
	}
	q.put(laneNormal, 1) // queued during the loan: taken only after it
	q.close()
	select {
	case got := <-c.woke:
		t.Fatalf("close woke the consumer during a loan: %v", got)
	case <-time.After(20 * time.Millisecond):
	}
	q.giveBack(false)
	select {
	case got := <-c.woke:
		if got {
			t.Fatal("after the loan's return wait reports the closed queue open")
		}
	case <-time.After(5 * time.Second):
		t.Fatal("the loan's return did not wake the consumer of a closed queue")
	}
	c.proceed <- struct{}{}
	if got := <-c.taken; fmt.Sprint(got[laneNormal]) != "[1]" {
		t.Fatalf("final take = %v, want the item put during the loan", got)
	}
}

// TestBurstQueueLoanConcurrent runs one consumer, borrowers and producers
// flat out. Whoever holds the consumer's role — the consumer between wait
// and the end of its take, or a borrower between borrow and giveBack —
// increments a plain counter: an overlap, or a hand-over without a
// happens-before edge, is a data race the race detector reports, and the
// holder flag catches the overlap without it. No put is lost: every item a
// put accepted is taken, in order per producer and lane, before the queue
// is closed. The poller subtest parks the consumer in the network poller,
// where the token carries no happens-before edge of its own.
func TestBurstQueueLoanConcurrent(t *testing.T) {
	t.Run("channel", func(t *testing.T) { runLoanConcurrent(t, false) })
	t.Run("poller", func(t *testing.T) {
		if !pollablePipe {
			t.Skip("pipes are not pollable on this platform")
		}
		lsConns.Add(1)
		defer lsConns.Add(-1)
		runLoanConcurrent(t, true)
	})
}

func runLoanConcurrent(t *testing.T, poller bool) {
	const producers, borrowers, perProducer = 3, 2, 4000
	q := new(burstQueue[[2]int]) // producer, sequence number
	q.init()
	q.poller = poller
	var (
		holder   atomic.Int32 // 0: nobody in the consumer's role
		shared   int          // written only by the role's holder
		taken    atomic.Int64
		accepted atomic.Int64
		loans    atomic.Int64
	)
	enter := func(who int32) {
		if !holder.CompareAndSwap(0, who) {
			t.Errorf("role taken by %d while %d holds it", who, holder.Load())
		}
		shared++
	}
	consumerDone := make(chan struct{})
	go func() {
		defer close(consumerDone)
		next := map[[2]int]int{} // (producer, lane) -> next sequence number
		for {
			open := q.wait()
			enter(1)
			for lane := 0; lane < numLanes; lane++ {
				for _, it := range q.take(lane, nil) {
					k := [2]int{it[0], lane}
					if it[1] < next[k] {
						t.Errorf("producer %d lane %d: item %d after %d", it[0], lane, it[1], next[k])
					}
					next[k] = it[1] + 1
					taken.Add(1)
				}
			}
			holder.Store(0)
			if !open {
				return
			}
		}
	}()
	var stop atomic.Bool
	var wg sync.WaitGroup
	for b := 0; b < borrowers; b++ {
		wg.Add(1)
		go func(b int) {
			defer wg.Done()
			rng := rand.New(rand.NewSource(int64(b)))
			seq := 0
			for !stop.Load() {
				if !q.borrow() {
					if poller {
						// A consumer woken through the poller runs only
						// once some P runs out of goroutines; borrowers
						// that only yield would hold it off to the end.
						time.Sleep(10 * time.Microsecond)
					} else {
						runtime.Gosched()
					}
					continue
				}
				loans.Add(1)
				enter(int32(2 + b))
				if rng.Intn(4) == 0 { // work put during the loan waits for it to end
					if q.put(laneNormal, [2]int{producers + b, seq}) {
						accepted.Add(1)
					}
					seq++
				}
				holder.Store(0)
				q.giveBack(rng.Intn(8) == 0)
			}
		}(b)
	}
	var pwg sync.WaitGroup
	for p := 0; p < producers; p++ {
		pwg.Add(1)
		go func(p int) {
			defer pwg.Done()
			rng := rand.New(rand.NewSource(int64(100 + p)))
			for i := 0; i < perProducer; i++ {
				if q.put(rng.Intn(numLanes), [2]int{p, i}) {
					accepted.Add(1)
				}
				if rng.Intn(16) == 0 {
					time.Sleep(time.Duration(rng.Intn(50)) * time.Microsecond)
				}
			}
		}(p)
	}
	pwg.Wait()
	stop.Store(true)
	wg.Wait()
	// With every loan returned and nothing more put, the consumer must get
	// round to everything on its own: a lost wake-up leaves items queued
	// behind a parked consumer.
	waitFor(t, "the consumer to take every item", func() bool { return taken.Load() == accepted.Load() })
	q.close()
	<-consumerDone
	if poller && q.pollParks == 0 {
		t.Error("the consumer never parked in the poller")
	}
	q.dropPipe()
	if loans.Load() == 0 {
		t.Error("no borrow ever succeeded: the loan path went untested")
	}
	t.Logf("%d items, %d loans, %d turns in the consumer's role", accepted.Load(), loans.Load(), shared)
}
