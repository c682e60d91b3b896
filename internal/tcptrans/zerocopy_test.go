package tcptrans

// Integration tests for the zero-copy scatter-gather datapath: reads
// larger than the target's MaxDataLen arrive as multiple C2HData
// fragments and reassemble exactly; a hostile target pushing an
// out-of-range C2HData offset gets its connection reset instead of
// forcing a multi-gigabyte allocation; a MaxDataLen write streams off the
// socket into the device and reads back intact on every shard.

import (
	"bytes"
	"encoding/binary"
	"io"
	"net"
	"sync"
	"testing"
	"time"

	"nvmeopf/internal/bdev"
	"nvmeopf/internal/hostqp"
	"nvmeopf/internal/proto"
	"nvmeopf/internal/targetqp"
)

// TestSegmentedReadReassembles: with the target's MaxDataLen squeezed to
// one block, an 8-block read comes back as 8 C2HData fragments with
// ascending offsets — landed by the client's zero-copy sink directly into
// the preallocated destination — and must reassemble byte-exact.
func TestSegmentedReadReassembles(t *testing.T) {
	dev := newMemoryDevice(4096, 1<<12)
	srv, err := Listen("127.0.0.1:0", ServerConfig{
		Mode: targetqp.ModeOPF, Device: dev, MaxDataLen: 4096,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()
	c, err := Dial(srv.Addr(), hostqp.Config{
		Class: proto.PrioLatencySensitive, Window: 1, QueueDepth: 4, NSID: 1,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()

	want := make([]byte, 8*4096)
	for i := range want {
		want[i] = byte(i/4096 + 1)
	}
	// MaxDataLen also caps in-capsule write data, so write block-by-block.
	for i := 0; i < 8; i++ {
		if err := c.Write(uint64(i), want[i*4096:(i+1)*4096], 0); err != nil {
			t.Fatalf("write block %d: %v", i, err)
		}
	}
	got, err := c.Read(0, 8, 0)
	if err != nil {
		t.Fatalf("segmented read: %v", err)
	}
	if !bytes.Equal(got, want) {
		t.Fatalf("segmented read reassembled wrong (%d bytes)", len(got))
	}
	// And again with a deliberately unaligned fragment boundary: 3 blocks.
	got, err = c.Read(2, 3, 0)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, want[2*4096:5*4096]) {
		t.Fatal("3-block segmented read wrong")
	}
}

// fakeTarget accepts one connection, answers the handshake with the given
// geometry, then lets the test script the rest of the exchange.
func fakeTarget(t *testing.T, script func(conn net.Conn, rd *proto.Reader)) string {
	t.Helper()
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { ln.Close() })
	go func() {
		conn, err := ln.Accept()
		if err != nil {
			return
		}
		defer conn.Close()
		rd := proto.NewReader(conn, false)
		p, err := rd.Next()
		if err != nil {
			return
		}
		if _, ok := p.(*proto.ICReq); !ok {
			return
		}
		conn.Write(proto.Marshal(&proto.ICResp{
			PFV: hostqp.ProtocolVersion, Tenant: 1, MaxDataLen: 1 << 20,
			BlockSize: 4096, Capacity: 1 << 16,
		}))
		script(conn, rd)
	}()
	return ln.Addr().String()
}

// TestHostileC2HDataOffsetResetsConnection: a target replying to a
// 4 KiB read with a C2HData whose offset field points near 4 GiB must
// not coerce a giant reassembly buffer — the client rejects it as a
// permanent protocol error and resets the connection.
func TestHostileC2HDataOffsetResetsConnection(t *testing.T) {
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
		conn.Write(proto.Marshal(&proto.C2HData{
			CCCID:  cmd.Cmd.CID,
			Offset: 0xFFFF_F000,
			Data:   make([]byte, 16),
		}))
		// The client must hang up on us: wait for EOF.
		io.Copy(io.Discard, conn)
		close(hungUp)
	})
	c, err := Dial(addr, hostqp.Config{
		Class: proto.PrioLatencySensitive, Window: 1, QueueDepth: 2, NSID: 1,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
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
}

// TestOverlappingC2HDataResetsConnection: duplicate fragments for the
// same read byte range are a protocol violation end to end, not a silent
// double count.
func TestOverlappingC2HDataResetsConnection(t *testing.T) {
	addr := fakeTarget(t, func(conn net.Conn, rd *proto.Reader) {
		p, err := rd.Next()
		if err != nil {
			return
		}
		cmd, ok := p.(*proto.CapsuleCmd)
		if !ok {
			return
		}
		frag := proto.Marshal(&proto.C2HData{
			CCCID: cmd.Cmd.CID, Offset: 0, Data: make([]byte, 2048),
		})
		conn.Write(frag)
		conn.Write(frag) // the duplicate
		io.Copy(io.Discard, conn)
	})
	c, err := Dial(addr, hostqp.Config{
		Class: proto.PrioLatencySensitive, Window: 1, QueueDepth: 2, NSID: 1,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	if _, err := c.Read(0, 1, 0); err == nil {
		t.Fatal("read with duplicated fragments succeeded")
	}
	waitFor(t, "connection failed with a protocol error", func() bool {
		return isProtocolError(c.Err())
	})
}

// TestMaxDataLenWriteReadBackSharded: the largest payload the target
// advertises, written and read back on both reactors of a two-shard server
// over real sockets. A 1 MiB CapsuleCmd is streamed from the socket into a
// pooled buffer by the connection's reader, copied into bdev.Memory by the
// shard's reactor across an extent boundary, and comes back as one C2HData
// through the client's sink; every block carries its connection, round and
// LBA at both ends, so a misplaced, torn or recycled-too-early buffer shows.
func TestMaxDataLenWriteReadBackSharded(t *testing.T) {
	const bs, ioBlocks, rounds = 4096, 256, 4 // ioBlocks * bs == default MaxDataLen
	dev, err := bdev.NewMemory(bs, 1<<14)
	if err != nil {
		t.Fatal(err)
	}
	srv, err := Listen("127.0.0.1:0", ServerConfig{Mode: targetqp.ModeOPF, Device: dev, Shards: 2})
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()

	stamp := func(buf []byte, conn, round int, lba uint64) {
		for b := 0; b < len(buf); b += bs {
			v := uint64(conn)<<56 | uint64(round)<<48 | (lba + uint64(b/bs))
			binary.LittleEndian.PutUint64(buf[b:], v)
			binary.LittleEndian.PutUint64(buf[b+bs-8:], ^v)
		}
	}
	var wg sync.WaitGroup
	for conn := 0; conn < 2; conn++ { // serial dials land on shards 0 and 1
		c, err := Dial(srv.Addr(), hostqp.Config{
			Class: proto.PrioThroughputCritical, Window: 2, QueueDepth: 4, NSID: 1,
		})
		if err != nil {
			t.Fatal(err)
		}
		defer c.Close()
		wg.Add(1)
		go func(conn int) {
			defer wg.Done()
			// Unaligned in the extent, so every command splits into two runs.
			lba := uint64(conn)*4096 + 100
			want := make([]byte, ioBlocks*bs)
			for round := 1; round <= rounds; round++ {
				stamp(want, conn, round, lba)
				if err := c.Write(lba, want, 0); err != nil {
					t.Errorf("conn %d round %d: write: %v", conn, round, err)
					return
				}
				got, err := c.Read(lba, ioBlocks, 0)
				if err != nil {
					t.Errorf("conn %d round %d: read: %v", conn, round, err)
					return
				}
				if !bytes.Equal(got, want) {
					t.Errorf("conn %d round %d: 1 MiB read-back differs from what was written", conn, round)
					return
				}
			}
		}(conn)
	}
	wg.Wait()
	if got := dev.ExtentCount(); got != 4 {
		t.Errorf("device materialised %d extents, want 4 (two straddled per connection)", got)
	}
}
