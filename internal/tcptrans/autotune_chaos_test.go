package tcptrans

// Chaos variant for the adaptive drain-window controller: an LS prober
// keeps the shared signal under constant pressure (an unmeetable 1ns
// objective makes every completion a violation) while a resilient TC
// victim is killed mid-flight and replays. Run with -race. Invariants:
//
//   - the controller takes decisions before, and keeps taking them after,
//     the victim's connection dies (the loop survives session churn);
//   - the sustained burn produces multiplicative back-off (a "shrink"
//     verdict lands in the decision log);
//   - every idempotent victim write still completes exactly once at the
//     application level — adaptation never costs correctness;
//   - teardown is clean: zero live sessions, no goroutine leaks.

import (
	"fmt"
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
			MinWindow: 1, MaxWindow: 32,
			CooldownDrains: 1, MinSamples: 1,
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

	// Victim: a resilient TC connection through faultnet, killed mid-flight.
	inj := faultnet.NewInjector(7)
	rc, err := DialWith(srv.Addr(), hostqp.Config{
		Class: proto.PrioThroughputCritical, Window: 4, QueueDepth: 8, NSID: 1,
	}, DialConfig{
		RequestTimeout: 2 * time.Second,
		Dialer:         faultnet.Dialer(inj),
		Recovery: &RecoveryConfig{
			MaxAttempts: 64, Backoff: 500 * time.Microsecond,
			Budget: 4096, RequeueLS: true, RequeueTC: true,
		},
	})
	if err != nil {
		t.Fatal(err)
	}

	const n = 48
	var completed atomic.Int64
	counts := make([]atomic.Int32, n)
	var mu sync.Mutex
	var failures []string
	submit := func(lo, hi int) {
		for i := lo; i < hi; i++ {
			i := i
			err := rc.Submit(hostqp.IO{
				Op: nvme.OpWrite, LBA: uint64(i), Blocks: 1,
				Data: chaosPayload(i, 4096), Idempotent: true,
				Done: func(r hostqp.Result) {
					err := r.Err
					counts[i].Add(1)
					if err != nil || !r.Status.OK() {
						mu.Lock()
						failures = append(failures, fmt.Sprintf("op %d: status=%v err=%v", i, r.Status, err))
						mu.Unlock()
					}
					completed.Add(1)
				},
			})
			if err != nil {
				t.Fatalf("submit %d: %v", i, err)
			}
		}
	}

	// Two waves around a deterministic kill: wave 1 completes on the
	// original connection (and produces pre-kill decisions); the reset
	// then severs that connection, and wave 2 — parked by Submit during
	// the outage — must ride the replay path onto a replacement session,
	// whose drains the controller must keep deciding on.
	submit(0, n/2)
	waitFor(t, "wave 1 completed", func() bool { return completed.Load() >= n/2 })
	preKill := len(reg.AutotuneLog())
	if preKill == 0 {
		t.Error("no controller decisions before the kill")
	}
	inj.ResetAll()
	submit(n/2, n)
	waitFor(t, "all ops completed", func() bool { return completed.Load() == n })
	close(stop)
	wg.Wait()

	mu.Lock()
	if len(failures) > 0 {
		t.Fatalf("%d ops failed despite replay eligibility: %v", len(failures), failures)
	}
	mu.Unlock()
	for i := range counts {
		if c := counts[i].Load(); c != 1 {
			t.Errorf("op %d completed %d times, want exactly once", i, c)
		}
	}
	if r := rc.Reconnects(); r < 1 {
		t.Errorf("reconnects = %d, want >= 1", r)
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
