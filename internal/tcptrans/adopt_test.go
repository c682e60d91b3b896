package tcptrans

// Integration tests for write-payload adoption: the target hands a
// whole-chunk write's pooled receive buffer to bdev.Memory instead of
// copying it, and releases the chunk it gets back in the payload's place.

import (
	"bytes"
	"encoding/binary"
	"io"
	"sync"
	"testing"
	"time"

	"nvmeopf/internal/bdev"
	"nvmeopf/internal/hostqp"
	"nvmeopf/internal/nvme"
	"nvmeopf/internal/proto"
	"nvmeopf/internal/targetqp"
)

// TestAdoptedWritesReadBackSharded: two connections, one per reactor of a
// two-shard server, each write every shape of command over and over into
// a region of their own and read all of them back after every round —
// an aligned 128 KiB chunk (adopted), the same size one block off (copied
// across two chunks), a partial chunk, two whole chunks, and a MaxDataLen
// command — on the inline path and on the executor-pool path. Each block
// carries its connection, round and LBA at both ends, so a buffer the
// device kept that also went back to the pool (and was then overwritten
// by a later receive), or a chunk handed back while still in the device,
// shows as a stale or foreign block on a later read.
func TestAdoptedWritesReadBackSharded(t *testing.T) {
	const (
		bs     = 4096
		chunk  = 32 // blocks: 128 KiB
		rounds = 6
	)
	shapes := []struct {
		name   string
		lba    uint64 // within the connection's region
		blocks int
	}{
		{"aligned chunk", 0, chunk},
		{"misaligned chunk", 2*chunk + 1, chunk},
		{"partial chunk", 4*chunk + 5, 3},
		{"two chunks", 6 * chunk, 2 * chunk},
		{"MaxDataLen", 256, 256},
	}
	for _, pool := range []bool{false, true} {
		name := "inline"
		if pool {
			name = "executor-pool"
		}
		t.Run(name, func(t *testing.T) {
			dev, err := bdev.NewMemory(bs, 1<<14)
			if err != nil {
				t.Fatal(err)
			}
			cfg := ServerConfig{Mode: targetqp.ModeOPF, Device: dev, Shards: 2}
			if pool {
				cfg.WriteLatency = time.Microsecond // any injected latency takes the pool
			}
			srv, err := Listen("127.0.0.1:0", cfg)
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
					base := uint64(conn) * 4096
					for round := 1; round <= rounds; round++ {
						for _, s := range shapes {
							buf := make([]byte, s.blocks*bs)
							stamp(buf, conn, round, base+s.lba)
							if err := c.Write(base+s.lba, buf, 0); err != nil {
								t.Errorf("conn %d round %d %s: write: %v", conn, round, s.name, err)
								return
							}
						}
						for _, s := range shapes {
							want := make([]byte, s.blocks*bs)
							stamp(want, conn, round, base+s.lba)
							got, err := c.Read(base+s.lba, uint32(s.blocks), 0)
							if err != nil {
								t.Errorf("conn %d round %d %s: read: %v", conn, round, s.name, err)
								return
							}
							if !bytes.Equal(got, want) {
								t.Errorf("conn %d round %d %s: read-back differs from what was written", conn, round, s.name)
								return
							}
						}
					}
				}(conn)
			}
			wg.Wait()
		})
	}
}

// TestAdoptedWriteAllocatesNothing pins the target's steady state for the
// write the benchmark's tc-write-128k sends: a raw initiator rewrites one
// aligned 128 KiB chunk, so the reader receives the payload into a pooled
// buffer, the device keeps it and hands back the chunk it replaces, and
// the completion returns that chunk to the pool for the next receive —
// with no allocation per command anywhere in the process.
func TestAdoptedWriteAllocatesNothing(t *testing.T) {
	if raceEnabled {
		t.Skip("the race detector allocates on its own")
	}
	dev, err := bdev.NewMemory(4096, 1<<12)
	if err != nil {
		t.Fatal(err)
	}
	srv, err := Listen("127.0.0.1:0", ServerConfig{Mode: targetqp.ModeOPF, Device: dev, Shards: 1})
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()
	r := dialRaw(t, srv, proto.PrioLatencySensitive)
	cmd := proto.Marshal(&proto.CapsuleCmd{
		Cmd:  nvme.Command{Opcode: nvme.OpWrite, CID: 7, NSID: 1, SLBA: 64, NLB: 31},
		Prio: proto.PrioLatencySensitive, Tenant: r.tenant, Data: make([]byte, 128<<10),
	})
	resp := make([]byte, len(proto.Marshal(&proto.CapsuleResp{})))
	round := func() {
		if _, err := r.nc.Write(cmd); err != nil {
			t.Fatal(err)
		}
		if _, err := io.ReadFull(r.nc, resp); err != nil {
			t.Fatal(err)
		}
	}
	for range 64 { // the chunk exists, the pools and queues are warm
		round()
	}
	p, err := proto.Unmarshal(resp)
	if err != nil {
		t.Fatal(err)
	}
	if cpl := p.(*proto.CapsuleResp).Cpl; cpl.CID != 7 || !cpl.Status.OK() {
		t.Fatalf("response %+v, want CID 7 success", cpl)
	}
	want := bytes.Clone(resp)
	allocs := testing.AllocsPerRun(200, round)
	if !bytes.Equal(resp, want) {
		t.Fatal("the response changed during the measured writes")
	}
	if allocs != 0 {
		t.Errorf("a steady-state 128 KiB write makes %v allocations per command, want 0", allocs)
	}
}
