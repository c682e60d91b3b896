package tcptrans

// Chaos harness for the fault-injecting datapath: one tenant's connection
// runs through internal/faultnet and is repeatedly killed and degraded
// while latency-sensitive and throughput-critical neighbours run free.
// Run with -race. The invariants:
//
//   - no goroutine leaks: every dial/kill/reconnect cycle returns its
//     reader, writer, reactor, and sweeper goroutines;
//   - no stuck synchronous calls: every Write/Read either completes or
//     fails — the test finishing at all proves it;
//   - no tenant-queue leaks: after everything disconnects, the target has
//     zero live sessions and the victim's parked windows were dropped;
//   - survivors keep meeting drain windows: their synchronous TC writes
//     keep completing (each one needs a full drain round trip) throughout
//     the victim's death throes.

import (
	"bytes"
	"runtime"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"nvmeopf/internal/faultnet"
	"nvmeopf/internal/hostqp"
	"nvmeopf/internal/nvme"
	"nvmeopf/internal/proto"
	"nvmeopf/internal/targetqp"
	"nvmeopf/internal/telemetry"
)

func TestChaosVictimKilledSurvivorsMeetDrainWindows(t *testing.T) {
	base := runtime.NumGoroutine()
	reg := telemetry.New()
	dev := newMemoryDevice(4096, 1<<14)
	srv, err := Listen("127.0.0.1:0", ServerConfig{
		Mode: targetqp.ModeOPF, Device: dev, Telemetry: reg,
		WriteLatency: 100 * time.Microsecond,
	})
	if err != nil {
		t.Fatal(err)
	}

	// The victim's sockets carry latency, jitter, and fragmented writes on
	// top of the kill switch; survivors dial clean sockets.
	inj := faultnet.NewInjector(1)
	inj.Set(faultnet.DirSend, faultnet.Faults{
		Latency: 200 * time.Microsecond, Jitter: 100 * time.Microsecond, MaxChunk: 512,
	})
	victimDial := DialConfig{
		RequestTimeout: 500 * time.Millisecond,
		Dialer:         faultnet.Dialer(inj),
	}

	stop := make(chan struct{})
	var wg sync.WaitGroup
	var lsOps, tcOps, victimOps, reconnects atomic.Int64

	// Survivor 1: latency-sensitive, synchronous write+read.
	ls, err := Dial(srv.Addr(), hostqp.Config{Class: proto.PrioLatencySensitive, Window: 1, QueueDepth: 4, NSID: 1})
	if err != nil {
		t.Fatal(err)
	}
	wg.Add(1)
	go func() {
		defer wg.Done()
		buf := make([]byte, 4096)
		for {
			select {
			case <-stop:
				return
			default:
			}
			if err := ls.Write(1, buf, 0); err != nil {
				t.Errorf("LS survivor write failed: %v", err)
				return
			}
			if _, err := ls.Read(1, 1, 0); err != nil {
				t.Errorf("LS survivor read failed: %v", err)
				return
			}
			lsOps.Add(1)
		}
	}()

	// Survivor 2: throughput-critical. Each synchronous write completes
	// only once its window drains, so steady progress means drain windows
	// keep closing while the victim thrashes.
	tc, err := Dial(srv.Addr(), hostqp.Config{Class: proto.PrioThroughputCritical, Window: 8, QueueDepth: 16, NSID: 1})
	if err != nil {
		t.Fatal(err)
	}
	wg.Add(1)
	go func() {
		defer wg.Done()
		buf := make([]byte, 4096)
		for {
			select {
			case <-stop:
				return
			default:
			}
			if err := tc.Write(64, buf, 0); err != nil {
				t.Errorf("TC survivor write failed: %v", err)
				return
			}
			tcOps.Add(1)
		}
	}()

	// Victim: writes until its connection is killed, then dials a new one
	// and keeps going.
	wg.Add(1)
	go func() {
		defer wg.Done()
		buf := make([]byte, 4096)
		first := true
		for {
			select {
			case <-stop:
				return
			default:
			}
			c, err := DialWith(srv.Addr(),
				hostqp.Config{Class: proto.PrioThroughputCritical, Window: 4, QueueDepth: 8, NSID: 1},
				victimDial)
			if err != nil {
				// A reset can land mid-handshake on every attempt; that is
				// chaos working, not a failure. Back off and try again.
				time.Sleep(5 * time.Millisecond)
				continue
			}
			select {
			case <-stop:
				c.Close()
				return
			default:
			}
			if !first {
				reconnects.Add(1)
			}
			first = false
			for {
				select {
				case <-stop:
					c.Close()
					return
				default:
				}
				if err := c.Write(128, buf, 0); err != nil {
					break // connection killed: reconnect
				}
				victimOps.Add(1)
			}
			c.Close()
		}
	}()

	// Chaos driver: kill every victim socket, repeatedly.
	for i := 0; i < 6; i++ {
		time.Sleep(80 * time.Millisecond)
		inj.ResetAll()
	}
	time.Sleep(100 * time.Millisecond) // let the last reconnect land
	close(stop)
	wg.Wait()
	ls.Close()
	tc.Close()

	if lsOps.Load() == 0 {
		t.Error("LS survivor made no progress")
	}
	if n := tcOps.Load(); n < 10 {
		t.Errorf("TC survivor completed only %d writes: drain windows stalled", n)
	}
	if victimOps.Load() == 0 {
		t.Error("victim made no progress at all")
	}
	if reconnects.Load() == 0 {
		t.Error("victim never reconnected: resets were not injected")
	}

	// Everything hung up: the target must tear every session down (no
	// tenant-queue leaks) and the telemetry must have seen the deaths.
	waitFor(t, "all sessions torn down", func() bool {
		return srv.ActiveSessions() == 0
	})
	if g := reg.Global(); g.Disconnects == 0 {
		t.Error("no disconnects recorded despite injected resets")
	}
	srv.Close()
	waitGoroutines(t, base)
}

// TestChaosVectoredFlushKill aims the kill switch at the scatter-gather
// writer: several submitters share the victim connection at queue depth
// 16, each keeping four block writes in flight, so its writer's flushes
// are multi-PDU vectored writes holding payload references; the victim is
// killed over and over mid-flight, under -race. The invariants: no staged
// PDU is released twice or leaked (the pools would corrupt and -race
// would fire), reads landed by the zero-copy sink stay byte-exact across
// kills, and every teardown returns its goroutines and target session.
func TestChaosVectoredFlushKill(t *testing.T) {
	const submitters, blocks = 4, 4 // each submitter owns blocks LBAs
	base := runtime.NumGoroutine()
	dev := newMemoryDevice(4096, 1<<14)
	srv, err := Listen("127.0.0.1:0", ServerConfig{
		Mode: targetqp.ModeOPF, Device: dev, MaxDataLen: 4096,
	})
	if err != nil {
		t.Fatal(err)
	}

	inj := faultnet.NewInjector(2)
	inj.Set(faultnet.DirSend, faultnet.Faults{MaxChunk: 256}) // fragment the vectored stream
	victimDial := DialConfig{
		RequestTimeout: 500 * time.Millisecond,
		Dialer:         faultnet.Dialer(inj),
	}

	stop := make(chan struct{})
	stopped := func() bool {
		select {
		case <-stop:
			return true
		default:
			return false
		}
	}
	var wg sync.WaitGroup
	var ops, reconnects atomic.Int64

	// round writes a submitter's blocks with all of them in flight at once
	// (large referenced payloads: MaxDataLen caps each capsule at one
	// block), then reads them back as one multi-fragment read reassembled
	// by the zero-copy sink. It reports false once the connection failed.
	round := func(c *Conn, lba uint64, want []byte) bool {
		done := make(chan bool, blocks)
		for blk := 0; blk < blocks; blk++ {
			err := c.Submit(hostqp.IO{
				Op: nvme.OpWrite, LBA: lba + uint64(blk), Blocks: 1,
				Data: want[blk*4096 : (blk+1)*4096],
				Done: func(r hostqp.Result) { done <- r.Status.OK() && r.Err == nil },
			})
			if err != nil {
				done <- false
			}
		}
		ok := true
		for blk := 0; blk < blocks; blk++ {
			ok = <-done && ok
		}
		if !ok {
			return false
		}
		got, err := c.Read(lba, blocks, 0)
		if err != nil {
			return false
		}
		if !bytes.Equal(got, want) {
			t.Error("zero-copy read reassembled wrong bytes after a kill")
			return false
		}
		return true
	}

	wg.Add(1)
	go func() {
		defer wg.Done()
		var want [submitters][]byte
		for s := range want {
			want[s] = make([]byte, blocks*4096)
			for i := range want[s] {
				want[s][i] = byte(i*13 + s)
			}
		}
		first := true
		for !stopped() {
			c, err := DialWith(srv.Addr(),
				hostqp.Config{Class: proto.PrioThroughputCritical, Window: 4, QueueDepth: 16, NSID: 1},
				victimDial)
			if err != nil {
				time.Sleep(5 * time.Millisecond)
				continue
			}
			if !first {
				reconnects.Add(1)
			}
			first = false
			var sub sync.WaitGroup
			for s := 0; s < submitters; s++ {
				sub.Add(1)
				go func(s int) {
					defer sub.Done()
					for !stopped() && round(c, uint64(s*blocks), want[s]) {
						ops.Add(1)
					}
				}(s)
			}
			sub.Wait()
			c.Close()
		}
	}()

	for i := 0; i < 6; i++ {
		time.Sleep(60 * time.Millisecond)
		inj.ResetAll()
	}
	time.Sleep(100 * time.Millisecond)
	close(stop)
	wg.Wait()

	if ops.Load() == 0 {
		t.Error("victim made no progress at all")
	}
	if reconnects.Load() == 0 {
		t.Error("victim never reconnected: resets were not injected")
	}
	waitFor(t, "all sessions torn down", func() bool {
		return srv.ActiveSessions() == 0
	})
	srv.Close()
	waitGoroutines(t, base)
}
