package tcptrans

// Chaos variant for the adaptive drain-window controller: an LS prober
// keeps the shared signal under constant pressure (an unmeetable 1ns
// objective makes every completion a violation) while a TC victim is
// killed mid-flight, and the application replays what the dead connection
// failed on a fresh one. Run with -race. Invariants:
//
//   - the controller takes decisions before, and keeps taking them after,
//     the victim's connection dies (the loop survives session churn);
//   - the sustained burn produces multiplicative back-off (a "shrink"
//     verdict lands in the decision log);
//   - every victim write completes exactly once on each connection it was
//     submitted to, and succeeds on the first or the replacement one —
//     adaptation never costs correctness. The controller's admission cap
//     refuses writes with the retryable StatusBusy, which the writer
//     resubmits, as an application must: a refused write never ran, so
//     it has not completed;
//   - teardown is clean: zero live sessions, no goroutine leaks.

import (
	"runtime"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"nvmeopf/internal/autotune"
	"nvmeopf/internal/faultnet"
	"nvmeopf/internal/hostqp"
	"nvmeopf/internal/nvme"
	"nvmeopf/internal/proto"
	"nvmeopf/internal/targetqp"
	"nvmeopf/internal/telemetry"
)

func TestAutotuneChaosAdaptsAcrossReplay(t *testing.T) {
	base := runtime.NumGoroutine()
	reg := telemetry.New()
	dev := newMemoryDevice(4096, 1<<14)
	srv, err := Listen("127.0.0.1:0", ServerConfig{
		Mode: targetqp.ModeOPF, Device: dev, Telemetry: reg,
		WriteLatency: 300 * time.Microsecond,
		Autotune: &autotune.Config{
			ObjectiveNS: 1, BudgetPPM: 100_000,
		},
	})
	if err != nil {
		t.Fatal(err)
	}

	// LS prober: synchronous reads in a tight loop. Each lands a violation
	// on the shared LS signal, so every controller interval sees burn far
	// past the budget.
	ls, err := Dial(srv.Addr(), hostqp.Config{
		Class: proto.PrioLatencySensitive, Window: 1, QueueDepth: 4, NSID: 1,
	})
	if err != nil {
		t.Fatal(err)
	}
	stop := make(chan struct{})
	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		for {
			select {
			case <-stop:
				return
			default:
			}
			if _, err := ls.Read(0, 1, 0); err != nil {
				t.Errorf("LS prober read failed: %v", err)
				return
			}
		}
	}()

	// Victim: a TC connection through faultnet, killed mid-flight.
	inj := faultnet.NewInjector(7)
	victimCfg := hostqp.Config{Class: proto.PrioThroughputCritical, Window: 4, QueueDepth: 8, NSID: 1}
	victimDial := DialConfig{RequestTimeout: 2 * time.Second, Dialer: faultnet.Dialer(inj)}
	rc, err := DialWith(srv.Addr(), victimCfg, victimDial)
	if err != nil {
		t.Fatal(err)
	}

	// Each wave of n/2 writes at window 4 completes at least 12 windows:
	// more than the 8 drains a decision takes.
	const n = 96
	var completed atomic.Int64
	counts := make([]atomic.Int32, n)
	ok := make([]atomic.Bool, n)
	// submit writes ops lo..hi-1 on c; each Done counts, and records
	// whether the write succeeded. A busy refusal is resubmitted from its
	// Done (Submit only posts to the connection's reactor) and not
	// counted.
	submit := func(c *Conn, lo, hi int) {
		for i := lo; i < hi; i++ {
			var io hostqp.IO
			io = hostqp.IO{
				Op: nvme.OpWrite, LBA: uint64(i), Blocks: 1, Data: chaosPayload(i, 4096),
				Done: func(r hostqp.Result) {
					if r.Err == nil && r.Status == nvme.StatusBusy {
						if err := c.Submit(io); err == nil {
							return
						}
					}
					counts[i].Add(1)
					ok[i].Store(r.Err == nil && r.Status.OK())
					completed.Add(1)
				},
			}
			if err := c.Submit(io); err != nil {
				t.Fatalf("submit %d: %v", i, err)
			}
		}
	}

	// Two waves around a deterministic kill: wave 1 completes on the
	// original connection (and produces pre-kill decisions); the reset
	// then severs that connection, so wave 2 fails on it at once, and the
	// application replays wave 2 on a replacement connection, whose drains
	// the controller must keep deciding on.
	submit(rc, 0, n/2)
	waitFor(t, "wave 1 completed", func() bool { return completed.Load() >= n/2 })
	preKill := len(reg.AutotuneLog())
	if preKill == 0 {
		t.Error("no controller decisions before the kill")
	}
	inj.ResetAll()
	waitFor(t, "the victim's connection to break", func() bool { return rc.Err() != nil })
	submit(rc, n/2, n)
	waitFor(t, "wave 2 failed on the dead connection", func() bool { return completed.Load() == n })
	for i := n / 2; i < n; i++ {
		if ok[i].Load() {
			t.Fatalf("op %d succeeded on a dead connection", i)
		}
	}
	rc.Close()
	rc, err = DialWith(srv.Addr(), victimCfg, victimDial)
	if err != nil {
		t.Fatal(err)
	}
	submit(rc, n/2, n)
	waitFor(t, "wave 2 replayed", func() bool { return completed.Load() == n+n/2 })
	close(stop)
	wg.Wait()

	for i := range counts {
		want := int32(1)
		if i >= n/2 {
			want = 2 // once failed on the dead connection, once replayed
		}
		if c := counts[i].Load(); c != want {
			t.Errorf("op %d completed %d times, want %d", i, c, want)
		}
		if !ok[i].Load() {
			t.Errorf("op %d failed on the connection that should have carried it", i)
		}
	}

	log := reg.AutotuneLog()
	if len(log) <= preKill {
		t.Errorf("decision log stalled at %d entries across the kill", len(log))
	}
	shrinks := 0
	for _, d := range log {
		if d.Action == "shrink" {
			shrinks++
		}
	}
	if shrinks == 0 {
		t.Errorf("no shrink verdict in %d decisions despite sustained burn", len(log))
	}

	ls.Close()
	rc.Close()
	waitFor(t, "all sessions torn down", func() bool { return srv.ActiveSessions() == 0 })
	srv.Close()
	waitGoroutines(t, base)
}
