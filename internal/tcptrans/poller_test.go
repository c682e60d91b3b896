package tcptrans

// Tests for the poller park: a throughput-critical Conn's reactor and
// writer park in the network poller while a latency-sensitive Conn is open
// in the process, on their wake channels otherwise, and every pipe a park
// made is closed again. The LS count is process-wide, so none of these may
// run in parallel with a test that dials connections.

import (
	"os"
	"runtime"
	"testing"
	"time"

	"nvmeopf/internal/hostqp"
	"nvmeopf/internal/proto"
	"nvmeopf/internal/targetqp"
)

// parkCounts reads a queue's park counters and whether it holds a pipe.
func parkCounts[T any](q *burstQueue[T]) (parks, pollParks int, pipe bool) {
	q.mu.Lock()
	defer q.mu.Unlock()
	return q.parks, q.pollParks, q.pipe != nil
}

// TestTCParksInPollerWhileLSOpen: a TC Conn's run queue and writer queue
// park on their channels, with no pipe, while no LS Conn is open; in the
// poller once one is dialed; and on their channels again after it closes.
func TestTCParksInPollerWhileLSOpen(t *testing.T) {
	if !pollablePipe {
		t.Skip("pipes are not pollable on this platform")
	}
	if n := lsConns.Load(); n != 0 {
		t.Fatalf("%d latency-sensitive Conns left open by an earlier test", n)
	}
	srv := startServer(t, targetqp.ModeOPF)
	tc := dial(t, srv, proto.PrioThroughputCritical, 4, 16)
	queues := []struct {
		name   string
		counts func() (int, int, bool)
	}{
		{"run queue", func() (int, int, bool) { return parkCounts(&tc.q) }},
		{"writer queue", func() (int, int, bool) { return parkCounts(&tc.out) }},
	}
	// phase runs TC reads one at a time, so both goroutines park between
	// them, and checks what the parks made meanwhile were.
	phase := func(what string, inPoller bool) {
		t.Helper()
		var before [2][2]int
		for i, q := range queues {
			before[i][0], before[i][1], _ = q.counts()
		}
		for i := 0; i < 50; i++ {
			if _, err := tc.Read(uint64(i), 1, 0); err != nil {
				t.Fatal(err)
			}
		}
		for i, q := range queues {
			parks, pollParks, pipe := q.counts()
			parks, pollParks = parks-before[i][0], pollParks-before[i][1]
			switch {
			case parks == 0:
				t.Errorf("%s: the %s never parked", what, q.name)
			case inPoller && pollParks != parks:
				t.Errorf("%s: the %s parked %d times, %d of them in the poller; want all", what, q.name, parks, pollParks)
			case !inPoller && pollParks != 0:
				t.Errorf("%s: the %s parked %d of %d times in the poller; want none", what, q.name, pollParks, parks)
			case inPoller && !pipe:
				t.Errorf("%s: the %s parked in the poller without a pipe", what, q.name)
			}
		}
	}

	phase("no LS Conn open", false)
	for _, q := range queues {
		if _, _, pipe := q.counts(); pipe {
			t.Fatalf("the %s opened a pipe while no LS Conn was open", q.name)
		}
	}
	ls := dial(t, srv, proto.PrioLatencySensitive, 1, 1)
	phase("an LS Conn open", true)
	ls.Close()
	phase("the LS Conn closed", false)
}

// openFDs counts the process's open descriptors.
func openFDs(t *testing.T) int {
	t.Helper()
	ents, err := os.ReadDir("/proc/self/fd")
	if err != nil {
		t.Fatal(err)
	}
	return len(ents)
}

// TestPollerParkReleasesDescriptors: with an LS Conn open, 50 TC Conns
// dialed and closed one after another, and a TC Conn whose socket dies,
// each park in the poller on their queues, and leave no descriptor behind:
// the consumer of every queue closes its pipe after its last park, the dead
// connection's writer as soon as it exits.
func TestPollerParkReleasesDescriptors(t *testing.T) {
	if runtime.GOOS != "linux" {
		t.Skip("counts descriptors in /proc/self/fd")
	}
	srv := startServer(t, targetqp.ModeOPF)
	ls := dial(t, srv, proto.PrioLatencySensitive, 1, 1)
	if _, err := ls.Read(0, 1, 0); err != nil {
		t.Fatal(err)
	}
	start := openFDs(t)

	for i := 0; i < 50; i++ {
		tc, err := Dial(srv.Addr(), hostqp.Config{Class: proto.PrioThroughputCritical, Window: 4, QueueDepth: 16, NSID: 1})
		if err != nil {
			t.Fatal(err)
		}
		for j := 0; j < 4; j++ {
			if _, err := tc.Read(uint64(j), 1, 0); err != nil {
				t.Fatal(err)
			}
		}
		if i == 0 {
			if _, pollParks, _ := parkCounts(&tc.q); pollParks == 0 {
				t.Fatal("a TC Conn beside an open LS Conn never parked in the poller")
			}
		}
		tc.Close()
	}

	rc, err := Dial(srv.Addr(), hostqp.Config{Class: proto.PrioThroughputCritical, Window: 4, QueueDepth: 16, NSID: 1})
	if err != nil {
		t.Fatal(err)
	}
	defer rc.Close()
	if _, err := rc.Read(0, 1, 0); err != nil {
		t.Fatal(err)
	}
	// The response can arrive before the writer is back in its park.
	waitFor(t, "the writer to park in the poller", func() bool {
		_, _, pipe := parkCounts(&rc.out)
		return pipe
	})
	rc.closeSocket() // the reader fails, and the Conn fails fast
	waitFor(t, "the dead connection's writer to close its pipe", func() bool {
		_, _, pipe := parkCounts(&rc.out)
		return rc.Err() != nil && !pipe
	})
	rc.Close()

	// The target closes its side of each socket on its own schedule.
	deadline := time.Now().Add(5 * time.Second)
	for n := openFDs(t); n != start; n = openFDs(t) {
		if time.Now().After(deadline) {
			t.Fatalf("%d descriptors open, %d before the TC Conns", n, start)
		}
		time.Sleep(5 * time.Millisecond)
	}
}
