package tcptrans

// Regression tests for the transport-edge bugs: the per-pump idle-timer
// churn, Conn.Write inventing a 4096-byte geometry on a closed connection,
// and Conn.Write waiting on the reactor for a block size it already had.

import (
	"errors"
	"fmt"
	"strings"
	"sync"
	"testing"
	"time"

	"nvmeopf/internal/hostqp"
	"nvmeopf/internal/nvme"
	"nvmeopf/internal/proto"
	"nvmeopf/internal/targetqp"
	"nvmeopf/internal/telemetry"
)

// TestIdleDrainTimerReused pins the timer-churn fix: pumping a stream of
// TC submissions must re-arm one reusable timer, not allocate a fresh
// time.AfterFunc per pump and leave the last one armed after Close.
func TestIdleDrainTimerReused(t *testing.T) {
	srv, err := NewMemoryServer("127.0.0.1:0", targetqp.ModeOPF, 4096, 1<<12)
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()
	c, err := Dial(srv.Addr(), hostqp.Config{Class: proto.PrioThroughputCritical, Window: 4, QueueDepth: 8, NSID: 1})
	if err != nil {
		t.Fatal(err)
	}

	// timerOnReactor reads c.idle where it is owned.
	timerOnReactor := func() *time.Timer {
		ch := make(chan *time.Timer, 1)
		if !c.post(func() { ch <- c.idle }) {
			return nil
		}
		return <-ch
	}

	// A synchronous Write closes its own window and arms nothing, so each
	// write here is submitted without a drain flag and waited on: it parks
	// a window of one that only the idle drain releases.
	buf := make([]byte, 4096)
	write := func(lba uint64) error {
		ch := make(chan hostqp.Result, 1)
		if err := c.Submit(hostqp.IO{Op: nvme.OpWrite, LBA: lba, Blocks: 1, Data: buf,
			Done: func(r hostqp.Result) { ch <- r }}); err != nil {
			return err
		}
		if r := <-ch; r.Err != nil || !r.Status.OK() {
			return fmt.Errorf("status %v, err %v", r.Status, r.Err)
		}
		return nil
	}
	if err := write(1); err != nil { // first pump creates the timer
		t.Fatal(err)
	}
	first := timerOnReactor()
	if first == nil {
		t.Fatal("no idle timer after first TC write")
	}
	for i := 0; i < 20; i++ {
		if err := write(uint64(1 + i%4)); err != nil {
			t.Fatalf("write %d: %v", i, err)
		}
	}
	if again := timerOnReactor(); again != first {
		t.Fatalf("idle timer reallocated across pumps: %p -> %p", first, again)
	}

	if err := c.Close(); err != nil {
		t.Fatal(err)
	}
	// After Close the reactor is gone: a late timer fire must find the
	// post path closed (no stray event, no panic), and the timer must not
	// be armed anymore.
	if c.post(func() {}) {
		t.Error("post succeeded after Close")
	}
	c.idleFlush() // what a stray fire would run; must be a no-op
	if first.Stop() {
		t.Error("idle timer still armed after Close")
	}
}

// TestWriteClosedConnReportsError pins the geometry fix: Write on a
// closed (or broken) connection must surface the connection error, not
// silently validate the payload against an invented 4096-byte block
// size.
func TestWriteClosedConnReportsError(t *testing.T) {
	srv, err := NewMemoryServer("127.0.0.1:0", targetqp.ModeOPF, 512, 1<<12)
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()
	c, err := Dial(srv.Addr(), hostqp.Config{Window: 2, QueueDepth: 4, NSID: 1})
	if err != nil {
		t.Fatal(err)
	}
	if err := c.Write(0, make([]byte, 512), 0); err != nil {
		t.Fatal(err)
	}
	c.Close()

	// 512 bytes is a valid payload for this namespace; the old code
	// validated it against a made-up 4096B geometry and returned a
	// misleading "not a multiple of the block size" error. The fixed path
	// reports the connection state — ErrClosed, or the transport error
	// that broke the connection first (reader and Close race to set it).
	err = c.Write(0, make([]byte, 512), 0)
	if err == nil {
		t.Fatal("Write on closed conn succeeded")
	}
	if strings.Contains(err.Error(), "block size") {
		t.Errorf("Write on closed conn validated invented geometry: %v", err)
	}
	if !errors.Is(err, ErrClosed) && c.Err() == nil {
		t.Errorf("Write on closed conn: %v is neither ErrClosed nor the connection error", err)
	}
}

// TestBlockSizeDoesNotWaitForTheReactor: the block size is the
// handshake's, read without a trip through the connection's reactor — so
// it answers while the reactor is held busy, and Write, which sizes its
// command with it, pays no extra reactor hand-off before the command is
// queued.
func TestBlockSizeDoesNotWaitForTheReactor(t *testing.T) {
	srv, err := NewMemoryServer("127.0.0.1:0", targetqp.ModeOPF, 512, 1<<12)
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()
	c, err := Dial(srv.Addr(), hostqp.Config{Window: 2, QueueDepth: 4, NSID: 1})
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	held, release := make(chan struct{}), make(chan struct{})
	releaseOnce := sync.OnceFunc(func() { close(release) })
	defer releaseOnce() // before Close, which waits for the reactor
	c.Defer(func() {
		close(held)
		<-release
	})
	<-held
	got := make(chan uint32, 1)
	go func() { got <- c.BlockSize() }()
	select {
	case bs := <-got:
		if bs != 512 {
			t.Fatalf("BlockSize() = %d, want 512", bs)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("BlockSize() waited for a reactor held busy")
	}
	releaseOnce()
	if err := c.Write(0, make([]byte, 512), 0); err != nil {
		t.Fatal(err)
	}
}

// TestDrainNextKeepsItsPlaceInABurst: the connection's reactor handles a
// burst of events and submits once at its end, but control work must not
// overtake the submissions posted before it — a DrainNext between two
// Submits flags the second request, even when all three reach the reactor
// in one burst.
func TestDrainNextKeepsItsPlaceInABurst(t *testing.T) {
	srv, err := NewMemoryServer("127.0.0.1:0", targetqp.ModeOPF, 4096, 1<<12)
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()
	var mu sync.Mutex
	var submits, marks []nvme.CID
	c, err := Dial(srv.Addr(), hostqp.Config{Class: proto.PrioThroughputCritical, Window: 8, QueueDepth: 16, NSID: 1,
		Trace: func(e telemetry.Event) {
			mu.Lock()
			defer mu.Unlock()
			switch e.Stage {
			case telemetry.StageSubmit:
				submits = append(submits, e.CID)
			case telemetry.StageDrainMark:
				marks = append(marks, e.CID)
			}
		}})
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()

	held, gate := make(chan struct{}), make(chan struct{})
	c.post(func() { close(held); <-gate })
	<-held // everything below queues up behind the held reactor: one burst
	done := make(chan struct{}, 2)
	write := func(lba uint64) {
		if err := c.Submit(hostqp.IO{Op: nvme.OpWrite, LBA: lba, Blocks: 1, Data: make([]byte, 4096),
			Done: func(hostqp.Result) { done <- struct{}{} }}); err != nil {
			t.Fatal(err)
		}
	}
	write(1)
	c.DrainNext()
	write(2)
	close(gate)
	<-done
	<-done
	mu.Lock()
	defer mu.Unlock()
	// (A slow run may add the idle-drain's own flush behind the two.)
	if len(submits) < 2 || len(marks) < 1 || marks[0] != submits[1] {
		t.Fatalf("submitted CIDs %v, draining flag on %v: want it first on the second submission", submits, marks)
	}
}
