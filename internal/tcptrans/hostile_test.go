package tcptrans

// Peers that do not keep to the queue depth the handshake settled: an
// initiator naming CIDs past the depth it advertised, and a target naming
// CIDs past the depth it was told. Both ends index per-request state by
// CID, so both must bounds-check what the other sends.

import (
	"encoding/binary"
	"errors"
	"io"
	"net"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"nvmeopf/internal/hostqp"
	"nvmeopf/internal/nvme"
	"nvmeopf/internal/proto"
	"nvmeopf/internal/targetqp"
)

// TestHostilePeerCannotExceedAdvertisedDepth: a raw peer advertises a
// queue depth of 4 and then sends CID 65535, a duplicate of an in-flight
// CID, a fifth distinct CID and a flood of out-of-range ones, on the same
// reactor shard as a neighbour whose TC drain windows keep completing. The
// target must answer each stray with an error status (no panic, no reset),
// hold at most four of the peer's requests, still complete the peer's
// honest window — and every PM counter must be accounted for by the
// neighbour's own submissions plus the peer's four in-range commands.
func TestHostilePeerCannotExceedAdvertisedDepth(t *testing.T) {
	srv, err := Listen("127.0.0.1:0", ServerConfig{
		Mode: targetqp.ModeOPF, Device: newBdevMemory(t, 4096, 1<<10), Shards: 1,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()

	const window = 4
	neighbour := dial(t, srv, proto.PrioThroughputCritical, window, 2*window)
	var stop atomic.Bool
	var failures atomic.Int64
	var neighbourDone sync.WaitGroup
	neighbourDone.Add(1)
	go func() {
		defer neighbourDone.Done()
		payload := make([]byte, 4096)
		for !stop.Load() {
			var wg sync.WaitGroup
			for i := 0; i < window; i++ {
				wg.Add(1)
				err := neighbour.Submit(hostqp.IO{Op: nvme.OpWrite, LBA: uint64(512 + i), Blocks: 1, Data: payload,
					Done: func(r hostqp.Result) {
						if !r.Status.OK() {
							failures.Add(1)
						}
						wg.Done()
					}})
				if err != nil {
					failures.Add(1)
					wg.Done()
				}
			}
			wg.Wait()
		}
	}()

	peer := dialRawDepth(t, srv, proto.PrioThroughputCritical, 4)
	expect := func(what string, cid nvme.CID, st nvme.Status, coalesced bool) {
		t.Helper()
		peer.nc.SetReadDeadline(time.Now().Add(5 * time.Second))
		p, err := proto.ReadPDU(peer.nc)
		if err != nil {
			t.Fatalf("%s: %v", what, err)
		}
		resp, ok := p.(*proto.CapsuleResp)
		if !ok || resp.Cpl.CID != cid || resp.Cpl.Status != st || resp.Coalesced != coalesced {
			t.Fatalf("%s: got %v %+v, want CID %d status %v coalesced=%v", what, p.PDUType(), p, cid, st, coalesced)
		}
	}
	peer.cmd(nvme.OpWrite, 65535, 0, 1, 0)
	expect("CID 65535 at depth 4", 65535, nvme.StatusInvalidField, false)
	peer.cmd(nvme.OpWrite, 0, 0, 1, 0)
	peer.cmd(nvme.OpWrite, 1, 1, 1, 0)
	peer.cmd(nvme.OpWrite, 1, 1, 1, 0)
	expect("duplicate in-flight CID", 1, nvme.StatusIDConflict, false)
	peer.cmd(nvme.OpWrite, 2, 2, 1, 0)
	peer.cmd(nvme.OpWrite, 4, 4, 1, 0)
	expect("fifth distinct CID", 4, nvme.StatusInvalidField, false)
	const flood = 256
	for i := 0; i < flood; i++ {
		peer.cmd(nvme.OpWrite, nvme.CID(4+i*255), 5, 1, 0)
	}
	for i := 0; i < flood; i++ {
		expect("flood of out-of-range CIDs", nvme.CID(4+i*255), nvme.StatusInvalidField, false)
	}
	// The three in-range commands are still parked, intact: the drain on
	// the fourth slot completes the window.
	peer.cmd(nvme.OpWrite, 3, 3, 1, proto.PrioTCDraining)
	expect("the peer's honest window", 3, nvme.StatusSuccess, true)

	stop.Store(true)
	neighbourDone.Wait()
	if n := failures.Load(); n != 0 {
		t.Fatalf("%d of the neighbour's requests failed", n)
	}
	// An idle-drain flush of the neighbour's may still be in flight.
	var host ConnStats
	waitFor(t, "the neighbour to go quiet", func() bool {
		host = neighbour.Stats()
		return host.Completed == host.Submitted
	})
	if host.Errors != 0 {
		t.Fatalf("neighbour: %+v", host)
	}
	pm, tgt := srv.PMStats(), srv.Stats()
	if got, want := pm.TCQueued+pm.Drains, host.Submitted+4; got != want {
		t.Errorf("the PM saw %d TC commands, want the neighbour's %d plus the peer's 4 in range", got, host.Submitted)
	}
	if pm.RespsSuppressed != pm.TCQueued || pm.RespsSent != pm.Drains {
		t.Errorf("windows did not all complete coalesced: %+v", pm)
	}
	if pm.BusyRejections != 0 || pm.ForcedDrains != 0 || pm.PrematureFlush != 0 || pm.TeardownDrops != 0 {
		t.Errorf("PM disturbed: %+v", pm)
	}
	if want := pm.RespsSent + 3 + flood; tgt.RespPDUs != want {
		t.Errorf("target sent %d responses, want %d: one per window plus one per refused command", tgt.RespPDUs, want)
	}
}

// TestResponseForCIDOutsideDepthResetsConnection: a target answering with
// a CID the initiator's queue depth cannot contain is a protocol violation
// end to end — the connection is reset with a permanent error and the read
// fails; nothing is indexed with the bogus CID.
func TestResponseForCIDOutsideDepthResetsConnection(t *testing.T) {
	for _, data := range []bool{false, true} {
		hungUp := make(chan struct{})
		addr := fakeTarget(t, func(conn net.Conn, rd *proto.Reader) {
			p, err := rd.Next()
			if err != nil {
				return
			}
			cmd, ok := p.(*proto.CapsuleCmd)
			if !ok {
				return
			}
			if data {
				conn.Write(proto.Marshal(&proto.C2HData{CCCID: cmd.Cmd.CID + 2, Data: make([]byte, 4096)}))
			} else {
				conn.Write(proto.Marshal(&proto.CapsuleResp{Cpl: nvme.Completion{CID: 65535}}))
			}
			io.Copy(io.Discard, conn) // the client must hang up on us
			close(hungUp)
		})
		c, err := Dial(addr, hostqp.Config{Class: proto.PrioLatencySensitive, Window: 1, QueueDepth: 2, NSID: 1})
		if err != nil {
			t.Fatal(err)
		}
		if _, err := c.Read(0, 1, 0); err == nil {
			t.Fatal("read against a hostile target succeeded")
		}
		waitFor(t, "connection failed with a protocol error", func() bool {
			return isProtocolError(c.Err())
		})
		select {
		case <-hungUp:
		case <-time.After(5 * time.Second):
			t.Fatal("client never reset the hostile connection")
		}
		c.Close()
	}
}

// lsNeighbour runs a latency-sensitive connection that reads one block in
// a loop until stop is called; reads counts its completions, and stop
// fails the test if any read failed.
func lsNeighbour(t *testing.T, srv *Server) (reads *atomic.Int64, stop func()) {
	t.Helper()
	neighbour := dial(t, srv, proto.PrioLatencySensitive, 1, 1)
	reads = new(atomic.Int64)
	var quit, failed atomic.Bool
	done := make(chan struct{})
	go func() {
		defer close(done)
		for !quit.Load() {
			if _, err := neighbour.Read(7, 1, 0); err != nil {
				failed.Store(true)
				return
			}
			reads.Add(1)
		}
	}()
	return reads, func() {
		t.Helper()
		quit.Store(true)
		<-done
		if failed.Load() {
			t.Fatalf("the neighbour's read failed")
		}
	}
}

// TestHostilePeerRetiredControlPlaneTypes: the type codes 0x08–0x0A once
// carried discovery PDUs; the control plane has left the datapath, so a
// target must refuse them like any unknown type. A raw peer on an
// established connection parks one TC write and then sends one retired
// type. Only that connection is reset — its session torn down, the parked
// write dropped — while a latency-sensitive neighbour on the same shard
// keeps completing throughout.
func TestHostilePeerRetiredControlPlaneTypes(t *testing.T) {
	srv, err := Listen("127.0.0.1:0", ServerConfig{
		Mode: targetqp.ModeOPF, Device: newBdevMemory(t, 4096, 1<<10), Shards: 1,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()

	reads, stopNeighbour := lsNeighbour(t, srv)

	for i, typ := range []byte{0x08, 0x09, 0x0A} {
		peer := dialRaw(t, srv, proto.PrioThroughputCritical)
		peer.cmd(nvme.OpWrite, 0, uint64(100+i), 1, 0) // parks: no drain flag
		// A bare 16-byte frame: an 8-byte common header (type, flags,
		// header length, data offset, total length) and an empty body.
		frame := []byte{typ, 0, 8, 8, 16, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0}
		if _, err := peer.nc.Write(frame); err != nil {
			t.Fatal(err)
		}
		peer.nc.SetReadDeadline(time.Now().Add(5 * time.Second))
		// A close arrives as EOF (nil from Copy) or as a reset; a timeout
		// means the target is still reading.
		var ne net.Error
		if _, err := io.Copy(io.Discard, peer.nc); errors.As(err, &ne) && ne.Timeout() {
			t.Fatalf("type 0x%02x: connection still open: %v", typ, err)
		}
		waitFor(t, "the peer's session to be torn down", func() bool {
			st := srv.Stats()
			return st.Disconnects == int64(i+1) && st.TeardownDrops == int64(i+1)
		})
		before := reads.Load()
		waitFor(t, "the neighbour to keep completing", func() bool { return reads.Load() > before+10 })
	}
	stopNeighbour()
	if pm := srv.PMStats(); pm.TCQueued != 3 || pm.Drains != 0 || pm.LSBypassed != reads.Load() {
		t.Errorf("PM saw more than the three parked writes and the neighbour's reads: %+v", pm)
	}
}

// TestHostilePeerRetiredDataType: 0x06 was the spec's H2CData, which this
// dialect never sends (every write travels in-capsule). A raw peer sends a
// well-formed H2CData header and PSH that declare a 1 MiB payload, and
// then nothing more. The target must refuse the frame at its type byte and
// reset the connection at once rather than wait for the payload, while a
// latency-sensitive neighbour on the same shard keeps completing.
func TestHostilePeerRetiredDataType(t *testing.T) {
	srv, err := Listen("127.0.0.1:0", ServerConfig{
		Mode: targetqp.ModeOPF, Device: newBdevMemory(t, 4096, 1<<10), Shards: 1,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()

	reads, stopNeighbour := lsNeighbour(t, srv)

	const payload = 1 << 20
	peer := dialRaw(t, srv, proto.PrioThroughputCritical)
	// An 8-byte common header (type, flags, header length, data offset,
	// total length) and a 16-byte PSH (CCCID, offset, data length).
	frame := make([]byte, 24)
	frame[0], frame[2], frame[3] = 0x06, 24, 24
	binary.LittleEndian.PutUint32(frame[4:], 24+payload)
	binary.LittleEndian.PutUint32(frame[16:], payload)
	if _, err := peer.nc.Write(frame); err != nil {
		t.Fatal(err)
	}
	peer.nc.SetReadDeadline(time.Now().Add(5 * time.Second))
	var ne net.Error
	if _, err := io.Copy(io.Discard, peer.nc); errors.As(err, &ne) && ne.Timeout() {
		t.Fatalf("connection still open, the target waiting for the payload: %v", err)
	}
	waitFor(t, "the peer's session to be torn down", func() bool { return srv.Stats().Disconnects == 1 })
	before := reads.Load()
	waitFor(t, "the neighbour to keep completing", func() bool { return reads.Load() > before+10 })
	stopNeighbour()
}
