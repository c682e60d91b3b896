package tcptrans

import (
	"bytes"
	"errors"
	"net"
	"sync"
	"testing"
	"time"

	"nvmeopf/internal/bdev"
	"nvmeopf/internal/hostqp"
	"nvmeopf/internal/nvme"
	"nvmeopf/internal/proto"
	"nvmeopf/internal/targetqp"
)

// faultyDevice wraps a memory device and fails operations on demand.
type faultyDevice struct {
	inner     *memDevice
	mu        sync.Mutex
	failReads bool
}

type memDevice = memoryDevice

// memoryDevice aliases bdev.Memory through the test helper.
type memoryDevice struct {
	bs     uint32
	blocks uint64
	data   map[uint64][]byte
	mu     sync.Mutex
}

func newMemoryDevice(bs uint32, blocks uint64) *memoryDevice {
	return &memoryDevice{bs: bs, blocks: blocks, data: make(map[uint64][]byte)}
}

func (m *memoryDevice) BlockSize() uint32 { return m.bs }
func (m *memoryDevice) NumBlocks() uint64 { return m.blocks }
func (m *memoryDevice) ReadBlocks(buf []byte, lba uint64) error {
	m.mu.Lock()
	defer m.mu.Unlock()
	for i := uint64(0); i < uint64(len(buf))/uint64(m.bs); i++ {
		blk := m.data[lba+i]
		dst := buf[i*uint64(m.bs) : (i+1)*uint64(m.bs)]
		if blk == nil {
			for j := range dst {
				dst[j] = 0
			}
		} else {
			copy(dst, blk)
		}
	}
	return nil
}
func (m *memoryDevice) WriteBlocks(buf []byte, lba uint64) error {
	m.mu.Lock()
	defer m.mu.Unlock()
	for i := uint64(0); i < uint64(len(buf))/uint64(m.bs); i++ {
		blk := make([]byte, m.bs)
		copy(blk, buf[i*uint64(m.bs):])
		m.data[lba+i] = blk
	}
	return nil
}
func (m *memoryDevice) Flush() error { return nil }

func (f *faultyDevice) BlockSize() uint32 { return f.inner.BlockSize() }
func (f *faultyDevice) NumBlocks() uint64 { return f.inner.NumBlocks() }
func (f *faultyDevice) ReadBlocks(buf []byte, lba uint64) error {
	f.mu.Lock()
	fail := f.failReads
	f.mu.Unlock()
	if fail {
		return errors.New("injected media error")
	}
	return f.inner.ReadBlocks(buf, lba)
}
func (f *faultyDevice) WriteBlocks(buf []byte, lba uint64) error {
	return f.inner.WriteBlocks(buf, lba)
}
func (f *faultyDevice) Flush() error { return nil }

// TestDeviceErrorSurfacesAsStatus: injected media failures must surface as
// NVMe error statuses, not hangs or disconnects.
func TestDeviceErrorSurfacesAsStatus(t *testing.T) {
	dev := &faultyDevice{inner: newMemoryDevice(4096, 1024)}
	srv, err := Listen("127.0.0.1:0", ServerConfig{Mode: targetqp.ModeOPF, Device: dev})
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()
	c, err := Dial(srv.Addr(), hostqp.Config{Class: proto.PrioLatencySensitive, Window: 1, QueueDepth: 1, NSID: 1})
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()

	if err := c.Write(0, make([]byte, 4096), 0); err != nil {
		t.Fatal(err)
	}
	dev.mu.Lock()
	dev.failReads = true
	dev.mu.Unlock()
	if _, err := c.Read(0, 1, 0); err == nil {
		t.Fatal("injected read error not surfaced")
	}
	dev.mu.Lock()
	dev.failReads = false
	dev.mu.Unlock()
	// The connection survives the error.
	if _, err := c.Read(0, 1, 0); err != nil {
		t.Fatalf("connection broken after device error: %v", err)
	}
}

// TestAbruptClientDisconnect: killing a client mid-window must not take
// the server down or affect other tenants.
func TestAbruptClientDisconnect(t *testing.T) {
	srv, err := NewMemoryServer("127.0.0.1:0", targetqp.ModeOPF, 4096, 1<<14)
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()

	// Victim connection: submit a partial window, then slam the socket.
	victim, err := Dial(srv.Addr(), hostqp.Config{Class: proto.PrioThroughputCritical, Window: 16, QueueDepth: 32, NSID: 1})
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 5; i++ {
		_ = victim.Submit(hostqp.IO{Op: nvme.OpWrite, LBA: uint64(i), Blocks: 1, Data: make([]byte, 4096),
			Done: func(hostqp.Result) {}})
	}
	victim.nc.Close() // abrupt: no graceful teardown

	// A healthy tenant keeps working.
	healthy, err := Dial(srv.Addr(), hostqp.Config{Class: proto.PrioLatencySensitive, Window: 1, QueueDepth: 1, NSID: 1})
	if err != nil {
		t.Fatal(err)
	}
	defer healthy.Close()
	payload := bytes.Repeat([]byte{0x42}, 4096)
	for i := 0; i < 20; i++ {
		if err := healthy.Write(uint64(100+i), payload, 0); err != nil {
			t.Fatalf("healthy tenant failed after victim disconnect: %v", err)
		}
	}
	got, err := healthy.Read(100, 1, 0)
	if err != nil || !bytes.Equal(got, payload) {
		t.Fatalf("read after disconnect: %v", err)
	}
	victim.Close()
}

// TestGarbageBytesRejected: a connection speaking garbage must be dropped
// without disturbing the server.
func TestGarbageBytesRejected(t *testing.T) {
	srv, err := NewMemoryServer("127.0.0.1:0", targetqp.ModeOPF, 4096, 1024)
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()

	raw, err := net.Dial("tcp", srv.Addr())
	if err != nil {
		t.Fatal(err)
	}
	if _, err := raw.Write(bytes.Repeat([]byte{0xFF}, 64)); err != nil {
		t.Fatal(err)
	}
	// The server should close the connection promptly.
	raw.SetReadDeadline(time.Now().Add(5 * time.Second))
	buf := make([]byte, 64)
	for {
		if _, err := raw.Read(buf); err != nil {
			break
		}
	}
	raw.Close()

	// Server still serves protocol-conformant clients.
	c, err := Dial(srv.Addr(), hostqp.Config{Class: proto.PrioLatencySensitive, Window: 1, QueueDepth: 1, NSID: 1})
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	if err := c.Write(0, make([]byte, 4096), 0); err != nil {
		t.Fatal(err)
	}
}

// TestCommandBeforeICReqDropped: sending a command capsule before the
// handshake must terminate that connection, not the server.
func TestCommandBeforeICReqDropped(t *testing.T) {
	srv, err := NewMemoryServer("127.0.0.1:0", targetqp.ModeOPF, 4096, 1024)
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()

	raw, err := net.Dial("tcp", srv.Addr())
	if err != nil {
		t.Fatal(err)
	}
	cmd := &proto.CapsuleCmd{Cmd: nvme.Command{Opcode: nvme.OpRead, CID: 1, NSID: 1}}
	if err := proto.WritePDU(raw, cmd); err != nil {
		t.Fatal(err)
	}
	raw.SetReadDeadline(time.Now().Add(5 * time.Second))
	buf := make([]byte, 256)
	for {
		if _, err := raw.Read(buf); err != nil {
			break // dropped, as required
		}
	}
	raw.Close()

	c, err := Dial(srv.Addr(), hostqp.Config{Class: proto.PrioLatencySensitive, Window: 1, QueueDepth: 1, NSID: 1})
	if err != nil {
		t.Fatal(err)
	}
	c.Close()
}

// TestIdleDrainFlushesPartialWindow: a synchronous write on a wide-window
// TC connection must complete via the idle-drain timer instead of hanging.
func TestIdleDrainFlushesPartialWindow(t *testing.T) {
	srv, err := NewMemoryServer("127.0.0.1:0", targetqp.ModeOPF, 4096, 1024)
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()
	c, err := Dial(srv.Addr(), hostqp.Config{Class: proto.PrioThroughputCritical, Window: 16, QueueDepth: 32, NSID: 1})
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	done := make(chan error, 1)
	go func() {
		done <- c.Write(3, make([]byte, 4096), 0)
	}()
	select {
	case err := <-done:
		if err != nil {
			t.Fatal(err)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("partial window hung; idle drain did not fire")
	}
}

// TestTargetTearsDownDeadInitiatorMidWindow: when an initiator dies with a
// partial TC window parked in the target's queue, the target must drop the
// orphaned requests, recycle the tenant ID, and keep serving everyone else.
// Before session teardown existed, the dead tenant's queue sat in the PM
// forever and its tenant ID was lost permanently.
//
// The recycling contract is per shard: a freed ID returns to the free list
// of the shard that issued it, and that shard's next connection gets it.
// With one shard (pinned here — the default is GOMAXPROCS) that is simply
// the next dial; TestTenantIDRecyclesWithinShardLane covers several.
func TestTargetTearsDownDeadInitiatorMidWindow(t *testing.T) {
	srv, err := Listen("127.0.0.1:0", ServerConfig{
		Mode: targetqp.ModeOPF, Device: newBdevMemory(t, 4096, 1<<14), Shards: 1,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()

	const parked = 5
	victimTenant := dieMidWindow(t, srv, parked)
	if st := srv.Stats(); st.Disconnects != 1 || st.TeardownDrops != parked {
		t.Fatalf("disconnects=%d teardownDrops=%d, want 1 and %d", st.Disconnects, st.TeardownDrops, parked)
	}
	if pm := srv.PMStats(); pm.TeardownDrops != parked {
		t.Fatalf("PM TeardownDrops = %d", pm.TeardownDrops)
	}

	// The freed tenant ID is reusable, and the replacement works.
	repl, err := Dial(srv.Addr(), hostqp.Config{Class: proto.PrioThroughputCritical, Window: 2, QueueDepth: 8, NSID: 1})
	if err != nil {
		t.Fatal(err)
	}
	defer repl.Close()
	if got := repl.Tenant(); got != victimTenant {
		t.Fatalf("tenant ID not recycled: victim=%d replacement=%d", victimTenant, got)
	}
	payload := bytes.Repeat([]byte{0x5A}, 4096)
	for i := 0; i < 4; i++ {
		if err := repl.Write(uint64(200+i), payload, 0); err != nil {
			t.Fatalf("replacement tenant write %d: %v", i, err)
		}
	}
	got, err := repl.Read(200, 1, 0)
	if err != nil || !bytes.Equal(got, payload) {
		t.Fatalf("replacement read-back: %v", err)
	}
}

// newBdevMemory returns a bdev.Memory device, the one the target runs
// inline on its reactors (the package's own memoryDevice goes to the
// executor pool).
func newBdevMemory(t *testing.T, bs uint32, blocks uint64) *bdev.Memory {
	t.Helper()
	dev, err := bdev.NewMemory(bs, blocks)
	if err != nil {
		t.Fatal(err)
	}
	return dev
}

// dieMidWindow opens a raw TC connection, parks n writes of a wider
// window at the target and dies without a teardown, returning the tenant
// ID the victim held once the target has torn its session down. Raw PDUs
// because a real Conn's idle-drain timer would flush the partial window,
// where a dead-mid-window initiator leaves it parked — exactly the state
// teardown has to clean up.
func dieMidWindow(t *testing.T, srv *Server, n int) proto.TenantID {
	t.Helper()
	before := srv.Stats()
	raw, err := net.Dial("tcp", srv.Addr())
	if err != nil {
		t.Fatal(err)
	}
	defer raw.Close()
	if err := proto.WritePDU(raw, &proto.ICReq{PFV: 1, QueueDepth: 32,
		Prio: proto.PrioThroughputCritical, NSID: 1}); err != nil {
		t.Fatal(err)
	}
	icr, err := proto.ReadPDU(raw)
	if err != nil {
		t.Fatal(err)
	}
	tenant := icr.(*proto.ICResp).Tenant
	for i := 0; i < n; i++ {
		err := proto.WritePDU(raw, &proto.CapsuleCmd{
			Cmd:  nvme.Command{Opcode: nvme.OpWrite, CID: nvme.CID(i), NSID: 1, SLBA: uint64(i)},
			Prio: proto.PrioThroughputCritical, Tenant: tenant,
			Data: make([]byte, 4096),
		})
		if err != nil {
			t.Fatal(err)
		}
	}
	waitFor(t, "parked window to reach the target", func() bool {
		return srv.Stats().CmdPDUs >= before.CmdPDUs+int64(n)
	})
	raw.Close() // die without teardown
	waitFor(t, "target to tear the session down", func() bool {
		return srv.Stats().Disconnects > before.Disconnects
	})
	return tenant
}

// TestTenantIDRecyclesWithinShardLane is the sharded reading of the
// recycling contract. Accepts rotate over the shards and shard i hands
// out IDs congruent to i modulo Shards, so a replacement dialled right
// after a victim dies lands on the next shard and must get an ID from
// that shard's lane — not the victim's — while the dial that comes back
// round to the victim's shard gets the victim's ID itself.
func TestTenantIDRecyclesWithinShardLane(t *testing.T) {
	const shards = 3
	srv, err := Listen("127.0.0.1:0", ServerConfig{
		Mode: targetqp.ModeOPF, Device: newBdevMemory(t, 4096, 1<<14), Shards: shards,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()

	victim := dieMidWindow(t, srv, 5) // first accept: shard 0
	if int(victim)%shards != 0 {
		t.Fatalf("victim tenant %d is not in shard 0's lane", victim)
	}
	cfg := hostqp.Config{Class: proto.PrioThroughputCritical, Window: 2, QueueDepth: 8, NSID: 1}
	for dial := 1; dial <= shards; dial++ { // shards 1, 2, then 0 again
		c, err := Dial(srv.Addr(), cfg)
		if err != nil {
			t.Fatal(err)
		}
		defer c.Close()
		got := c.Tenant()
		if want := dial % shards; int(got)%shards != want {
			t.Errorf("dial %d: tenant %d is not congruent to its shard %d modulo %d", dial, got, want, shards)
		}
		if onVictimShard := dial == shards; (got == victim) != onVictimShard {
			t.Errorf("dial %d: tenant %d, victim was %d: a freed ID is reused on its own shard and only there", dial, got, victim)
		}
		if err := c.Write(uint64(100*dial), bytes.Repeat([]byte{byte(dial)}, 4096), 0); err != nil {
			t.Errorf("dial %d: write as tenant %d: %v", dial, got, err)
		}
	}
}

// waitFor polls cond for up to 5s.
func waitFor(t *testing.T, what string, cond func() bool) {
	t.Helper()
	deadline := time.Now().Add(5 * time.Second)
	for time.Now().Before(deadline) {
		if cond() {
			return
		}
		time.Sleep(5 * time.Millisecond)
	}
	t.Fatalf("timed out waiting for %s", what)
}
