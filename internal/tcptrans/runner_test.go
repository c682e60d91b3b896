package tcptrans

// workload.Runner on a live Conn, driven the way opf-perf drives it: the
// loop runs on the connection's reactor, started with Conn.Defer, and a
// busy target's probe ticks are posted there by a timer. Run with -race.

import (
	"runtime"
	"sync/atomic"
	"testing"
	"time"

	"nvmeopf/internal/faultnet"
	"nvmeopf/internal/hostqp"
	"nvmeopf/internal/proto"
	"nvmeopf/internal/targetqp"
	"nvmeopf/internal/workload"
)

// countingConn hands each request to its Conn with a Done that counts how
// often it runs.
type countingConn struct {
	c                    *Conn
	submitted, completed atomic.Int64
	twice                atomic.Int64 // Done calls past a request's first
}

func (s *countingConn) Submit(io hostqp.IO) error {
	var calls atomic.Int32
	done := io.Done
	io.Done = func(r hostqp.Result) {
		if calls.Add(1) > 1 {
			s.twice.Add(1)
		}
		s.completed.Add(1)
		done(r)
	}
	if err := s.c.Submit(io); err != nil {
		return err
	}
	s.submitted.Add(1)
	return nil
}

// startRunner starts a Runner over s on its connection's reactor, on a
// wall clock that reads zero now, and returns it with a way to ask the
// reactor whether the loop is done.
func startRunner(t *testing.T, s *countingConn, spec workload.Spec) (*workload.Runner, func() bool) {
	t.Helper()
	t0 := time.Now()
	spec.BlockSize = s.c.BlockSize()
	spec.Defer = func(d int64, fn func()) {
		time.AfterFunc(time.Duration(d), func() { s.c.Defer(fn) })
	}
	r, err := workload.NewRunner(s, func() int64 { return int64(time.Since(t0)) }, spec)
	if err != nil {
		t.Fatal(err)
	}
	s.c.Defer(r.Kick)
	return r, func() bool {
		ch := make(chan bool, 1)
		s.c.Defer(func() { ch <- r.Done() })
		return <-ch
	}
}

// TestRunnerStopsWhenTargetDies kills the socket under a running loop: every
// request completes exactly once, the loop stops long before StopAt instead
// of resubmitting into the dead connection, and at most a queue depth of
// requests fail.
func TestRunnerStopsWhenTargetDies(t *testing.T) {
	base := runtime.NumGoroutine()
	srv, err := Listen("127.0.0.1:0", ServerConfig{Mode: targetqp.ModeOPF, Device: newMemoryDevice(4096, 1<<12)})
	if err != nil {
		t.Fatal(err)
	}
	const qd = 16
	inj := faultnet.NewInjector(5)
	c, err := DialWith(srv.Addr(), hostqp.Config{Class: proto.PrioThroughputCritical, Window: 4, QueueDepth: qd, NSID: 1},
		DialConfig{Dialer: faultnet.Dialer(inj)})
	if err != nil {
		t.Fatal(err)
	}
	s := &countingConn{c: c}
	r, finished := startRunner(t, s, workload.Spec{
		Mix: workload.Mixed5050, Pattern: workload.Sequential, Blocks: 1, QueueDepth: qd,
		RegionBlocks: 1 << 12, StopAt: int64(time.Minute), Seed: 3,
	})
	waitFor(t, "the loop to complete 500 requests", func() bool { return s.completed.Load() >= 500 })
	inj.ResetAll()
	waitFor(t, "the loop to stop", finished)
	sent := s.submitted.Load()
	time.Sleep(20 * time.Millisecond) // a loop still running would submit now

	res := r.Result()
	if got := s.submitted.Load(); got != sent {
		t.Fatalf("the loop submitted %d more requests after it reported done", got-sent)
	}
	if s.completed.Load() != sent || s.twice.Load() != 0 {
		t.Fatalf("%d submitted, %d Done calls, %d of them repeats; want each exactly once",
			sent, s.completed.Load(), s.twice.Load())
	}
	if res.Submitted != res.Completed || res.Submitted != sent {
		t.Fatalf("runner counted %d submitted and %d completed; the connection took %d", res.Submitted, res.Completed, sent)
	}
	if res.Errors < 1 || res.Errors > qd {
		t.Fatalf("errors = %d, want 1..%d: only what was in flight at the kill may fail", res.Errors, qd)
	}
	c.Close()
	srv.Close()
	waitGoroutines(t, base)
}

// TestRunnerProbesBusyTarget runs a loop against a tenant cap far below its
// queue depth and window: the refusals are counted as busy, not errors, and
// equal the target's count; the loop still completes work; and it probes
// at most about once per backoff tick instead of refilling its whole depth
// into every refusal.
func TestRunnerProbesBusyTarget(t *testing.T) {
	base := runtime.NumGoroutine()
	srv, err := Listen("127.0.0.1:0", ServerConfig{
		Mode: targetqp.ModeOPF, Device: newMemoryDevice(4096, 1<<12), MaxPendingPerTenant: 4,
	})
	if err != nil {
		t.Fatal(err)
	}
	const qd, backoff = 64, 200 * time.Microsecond
	c, err := Dial(srv.Addr(), hostqp.Config{Class: proto.PrioThroughputCritical, Window: 16, QueueDepth: qd, NSID: 1})
	if err != nil {
		t.Fatal(err)
	}
	s := &countingConn{c: c}
	start := time.Now()
	r, finished := startRunner(t, s, workload.Spec{
		Mix: workload.WriteOnly, Pattern: workload.Sequential, Blocks: 1, QueueDepth: qd,
		RegionBlocks: 1 << 12, StopAt: int64(300 * time.Millisecond), Seed: 4,
		BusyBackoffNS: int64(backoff),
	})
	waitFor(t, "the loop to finish", finished)
	ticks := int64(time.Since(start) / backoff)

	res := r.Result()
	if res.Errors != 0 {
		t.Fatalf("errors = %d, want 0: busy is flow control", res.Errors)
	}
	if res.Busy == 0 || res.Recorded.Ops == 0 {
		t.Fatalf("busy = %d, completed in the window = %d; want both above 0", res.Busy, res.Recorded.Ops)
	}
	if got := srv.PMStats().BusyRejections; got != res.Busy {
		t.Fatalf("the target refused %d requests, the runner counted %d busy", got, res.Busy)
	}
	if limit := 2*ticks + 2*qd; res.Busy > limit {
		t.Fatalf("%d busy refusals in %d backoff ticks (limit %d): the loop storms instead of probing", res.Busy, ticks, limit)
	}
	c.Close()
	srv.Close()
	waitGoroutines(t, base)
}
