package tcptrans

import (
	"errors"
	"runtime"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"nvmeopf/internal/hostqp"
	"nvmeopf/internal/nvme"
	"nvmeopf/internal/proto"
	"nvmeopf/internal/targetqp"
)

// waitGoroutines polls until the goroutine count returns to at most
// base+slack (background runtime goroutines fluctuate a little).
func waitGoroutines(t *testing.T, base int) {
	t.Helper()
	const slack = 2
	deadline := time.Now().Add(5 * time.Second)
	for time.Now().Before(deadline) {
		if runtime.NumGoroutine() <= base+slack {
			return
		}
		time.Sleep(10 * time.Millisecond)
	}
	buf := make([]byte, 1<<16)
	n := runtime.Stack(buf, true)
	t.Fatalf("goroutines leaked: %d > %d+%d\n%s", runtime.NumGoroutine(), base, slack, buf[:n])
}

// isProtocolError reports whether err carries the session's protocol-level
// rejection (version mismatch, unknown namespace, target termination): a
// failure that dialing again with the same configuration cannot fix.
func isProtocolError(err error) bool {
	var pe *hostqp.ProtocolError
	return errors.As(err, &pe)
}

func lsConfig() hostqp.Config {
	return hostqp.Config{Class: proto.PrioLatencySensitive, Window: 1, QueueDepth: 4, NSID: 1}
}

// TestConnSubmitContract pins the contract documented on Conn.Submit at
// the Conn level: on a latency-sensitive connection, where Done runs on
// the reactor or on the reader that borrowed it, and on a
// throughput-critical one at queue depth 8, several goroutines submit
// reads and writes while Close races them. No two Done calls of the
// connection overlap, every accepted request's Done runs exactly once —
// a refused one's never — and all of them have run when Close returns.
func TestConnSubmitContract(t *testing.T) {
	for _, tc := range []struct {
		name string
		cfg  hostqp.Config
	}{
		{"ls", lsConfig()},
		{"tc", hostqp.Config{Class: proto.PrioThroughputCritical, Window: 4, QueueDepth: 8, NSID: 1}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			const (
				submitters = 4
				perSub     = 1 << 13 // cap on one submitter's requests
				inFlight   = 4       // requests one submitter keeps outstanding
				closeAfter = 500     // completions before Close races the rest
			)
			srv := startServer(t, targetqp.ModeOPF)
			c, err := Dial(srv.Addr(), tc.cfg)
			if err != nil {
				t.Fatal(err)
			}
			var (
				inDone, overlaps atomic.Int32
				completed        atomic.Int64
				runs             [submitters][perSub]atomic.Int32
				accepted         [submitters][perSub]bool
				wg               sync.WaitGroup
			)
			block := make([]byte, c.BlockSize())
			for s := 0; s < submitters; s++ {
				wg.Add(1)
				go func(s int) {
					defer wg.Done()
					sem := make(chan struct{}, inFlight)
					for i := 0; i < perSub; i++ {
						sem <- struct{}{}
						io := hostqp.IO{Op: nvme.OpRead, LBA: uint64(s*perSub + i%64), Blocks: 1,
							Done: func(hostqp.Result) {
								if inDone.Add(1) != 1 {
									overlaps.Add(1)
								}
								runtime.Gosched() // widen the window another Done could overlap
								runs[s][i].Add(1)
								completed.Add(1)
								inDone.Add(-1)
								<-sem
							}}
						if i%2 == 1 {
							io.Op, io.Data = nvme.OpWrite, block
						}
						if c.Submit(io) != nil {
							return // closed: this request and every later one refused
						}
						accepted[s][i] = true
					}
				}(s)
			}
			waitFor(t, "completions before Close", func() bool { return completed.Load() >= closeAfter })
			if err := c.Close(); err != nil {
				t.Fatal(err)
			}
			var atClose [submitters][perSub]int32
			for s := range runs {
				for i := range runs[s] {
					atClose[s][i] = runs[s][i].Load()
				}
			}
			wg.Wait()

			if n := overlaps.Load(); n != 0 {
				t.Errorf("%d Done calls started while another was running", n)
			}
			n := 0
			for s := range runs {
				for i := range runs[s] {
					want := int32(0)
					if accepted[s][i] {
						want, n = 1, n+1
					}
					if got := runs[s][i].Load(); got != want || atClose[s][i] != want {
						t.Fatalf("submitter %d request %d (accepted %v): Done ran %d times by Close's return, %d in all, want %d",
							s, i, accepted[s][i], atClose[s][i], got, want)
					}
				}
			}
			cs := c.Stats()
			if tc.cfg.Class == proto.PrioLatencySensitive && cs.InlineBursts == 0 {
				t.Error("no reader burst borrowed the reactor: every Done ran on the reactor")
			}
			t.Logf("%d requests accepted; host: %d inline, %d posted", n, cs.InlineBursts, cs.PostedBursts)
		})
	}
}

// TestCloseIdempotentConcurrent: Close from many goroutines at once must
// tear down exactly once, and every caller must block until the reader,
// writer, and reactor goroutines are gone.
func TestCloseIdempotentConcurrent(t *testing.T) {
	base := runtime.NumGoroutine()
	srv, err := NewMemoryServer("127.0.0.1:0", targetqp.ModeOPF, 4096, 1024)
	if err != nil {
		t.Fatal(err)
	}
	c, err := Dial(srv.Addr(), lsConfig())
	if err != nil {
		t.Fatal(err)
	}
	if err := c.Write(0, make([]byte, 4096), 0); err != nil {
		t.Fatal(err)
	}
	var wg sync.WaitGroup
	for i := 0; i < 8; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			c.Close()
		}()
	}
	wg.Wait()
	if err := c.Close(); err != nil && !strings.Contains(err.Error(), "closed") {
		t.Fatalf("repeat close: %v", err)
	}
	srv.Close()
	waitGoroutines(t, base)
}

// TestFailedDialLeaksNothing: a dial that dies during the handshake must
// release its socket and all of its goroutines, and must fail with the
// target's actual rejection instead of sitting out the handshake timeout.
func TestFailedDialLeaksNothing(t *testing.T) {
	base := runtime.NumGoroutine()
	srv, err := NewMemoryServer("127.0.0.1:0", targetqp.ModeOPF, 4096, 1024)
	if err != nil {
		t.Fatal(err)
	}
	cfg := lsConfig()
	cfg.NSID = 99 // target serves only namespace 1
	start := time.Now()
	_, err = Dial(srv.Addr(), cfg)
	if err == nil {
		t.Fatal("dial to unknown namespace succeeded")
	}
	if elapsed := time.Since(start); elapsed > 5*time.Second {
		t.Fatalf("rejection took %v: dial waited for the timeout instead of the TermReq", elapsed)
	}
	if !isProtocolError(err) {
		t.Fatalf("namespace rejection is not a protocol error: %v", err)
	}
	srv.Close()
	waitGoroutines(t, base)
}

// TestRequestTimeoutEscalatesToReset: a request outstanding past
// RequestTimeout must fail — and must fail the whole connection, releasing
// every CID, exactly like the kernel initiator's io-timeout reset.
func TestRequestTimeoutEscalatesToReset(t *testing.T) {
	base := runtime.NumGoroutine()
	dev := newMemoryDevice(4096, 1024)
	srv, err := Listen("127.0.0.1:0", ServerConfig{
		Mode: targetqp.ModeOPF, Device: dev,
		WriteLatency: time.Second, // the target wedges on writes
	})
	if err != nil {
		t.Fatal(err)
	}
	c, err := DialWith(srv.Addr(), lsConfig(), DialConfig{RequestTimeout: 150 * time.Millisecond})
	if err != nil {
		t.Fatal(err)
	}
	done := make(chan error, 1)
	start := time.Now()
	go func() { done <- c.Write(0, make([]byte, 4096), 0) }()
	select {
	case err := <-done:
		if err == nil {
			t.Fatal("wedged write reported success")
		}
		// The caller learns why: the reset's cause, which is also ErrClosed.
		if cause := c.Err(); cause == nil || !errors.Is(err, cause) || !errors.Is(err, ErrClosed) ||
			!strings.Contains(err.Error(), "request timeout") {
			t.Fatalf("write failed with %v, want the connection's error %v", err, cause)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("write outlived RequestTimeout: deadline sweeper did not fire")
	}
	if elapsed := time.Since(start); elapsed < 100*time.Millisecond {
		t.Fatalf("write failed after only %v: not a timeout", elapsed)
	}
	// The connection is dead, and says so promptly rather than hanging.
	if _, err := c.Read(0, 1, 0); err == nil || !errors.Is(err, c.Err()) {
		t.Fatalf("read on a reset connection: %v, want the connection's error %v", err, c.Err())
	}
	c.Close()
	srv.Close()
	waitGoroutines(t, base)
}

// TestRequestTimeoutReleasesAllCIDs: when the sweeper resets the
// connection, every queued submission's Done callback must fire — none may
// be stranded holding a CID.
func TestRequestTimeoutReleasesAllCIDs(t *testing.T) {
	dev := newMemoryDevice(4096, 1024)
	srv, err := Listen("127.0.0.1:0", ServerConfig{
		Mode: targetqp.ModeOPF, Device: dev,
		WriteLatency: time.Second,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()
	cfg := hostqp.Config{Class: proto.PrioThroughputCritical, Window: 4, QueueDepth: 8, NSID: 1}
	c, err := DialWith(srv.Addr(), cfg, DialConfig{RequestTimeout: 150 * time.Millisecond})
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	const n = 12 // deliberately beyond the queue depth: some wait host-side
	results := make(chan hostqp.Result, n)
	for i := 0; i < n; i++ {
		err := c.Submit(hostqp.IO{Op: nvme.OpWrite, LBA: uint64(i), Blocks: 1,
			Data: make([]byte, 4096),
			Done: func(r hostqp.Result) { results <- r }})
		if err != nil {
			t.Fatal(err)
		}
	}
	for i := 0; i < n; i++ {
		select {
		case r := <-results:
			if r.Status.OK() {
				t.Fatalf("request %d reported success against a wedged target", i)
			}
			if cause := c.Err(); cause == nil || !errors.Is(r.Err, cause) {
				t.Fatalf("request %d failed with %v, want the connection's error %v", i, r.Err, cause)
			}
		case <-time.After(5 * time.Second):
			t.Fatalf("request %d of %d stranded: CID never released", i+1, n)
		}
	}
}
