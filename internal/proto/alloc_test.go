package proto

// Allocation regressions for the transport hot path: marshal via
// AppendPDU into a reused buffer and decode via a pooling Reader must be
// allocation-free in steady state — this is the property the sharded TCP
// datapath's throughput rests on.

import (
	"bytes"
	"testing"

	"nvmeopf/internal/nvme"
)

// loopReader replays a fixed byte stream forever without allocating.
type loopReader struct {
	data []byte
	off  int
}

func (l *loopReader) Read(p []byte) (int, error) {
	if l.off == len(l.data) {
		l.off = 0
	}
	n := copy(p, l.data[l.off:])
	l.off += n
	return n, nil
}

func TestAppendPDUZeroAlloc(t *testing.T) {
	skipIfRace(t)
	cmd := &CapsuleCmd{
		Cmd:    nvme.Command{Opcode: nvme.OpWrite, CID: 7, NSID: 1, SLBA: 42},
		Prio:   PrioTCDraining,
		Tenant: 3,
		Data:   make([]byte, 4096),
	}
	resp := &CapsuleResp{Cpl: nvme.Completion{CID: 7}, Coalesced: true}
	buf := make([]byte, 0, 64<<10)
	allocs := testing.AllocsPerRun(200, func() {
		buf = buf[:0]
		buf = AppendPDU(buf, cmd)
		buf = AppendPDU(buf, resp)
	})
	if allocs != 0 {
		t.Errorf("AppendPDU into reused buffer: %v allocs/op, want 0", allocs)
	}
}

func TestReaderZeroAllocCapsuleResp(t *testing.T) {
	skipIfRace(t)
	wire := Marshal(&CapsuleResp{Cpl: nvme.Completion{CID: 9}, Coalesced: true})
	rd := NewReader(&loopReader{data: wire}, true)
	// Warm the pools and grow the scratch before measuring.
	for i := 0; i < 16; i++ {
		p, err := rd.Next()
		if err != nil {
			t.Fatal(err)
		}
		ReleaseInbound(p)
	}
	allocs := testing.AllocsPerRun(200, func() {
		p, err := rd.Next()
		if err != nil {
			t.Fatal(err)
		}
		ReleaseInbound(p)
	})
	if allocs != 0 {
		t.Errorf("Reader.Next(CapsuleResp): %v allocs/op, want 0", allocs)
	}
}

func TestReaderZeroAllocCapsuleCmdWithPayload(t *testing.T) {
	skipIfRace(t)
	for _, size := range []int{4096, 128 << 10} {
		wire := Marshal(&CapsuleCmd{
			Cmd:  nvme.Command{Opcode: nvme.OpWrite, CID: 7, NSID: 1},
			Data: bytes.Repeat([]byte{0xAB}, size),
		})
		rd := NewReader(&loopReader{data: wire}, true)
		for i := 0; i < 16; i++ {
			p, err := rd.Next()
			if err != nil {
				t.Fatal(err)
			}
			ReleaseInbound(p)
		}
		allocs := testing.AllocsPerRun(200, func() {
			p, err := rd.Next()
			if err != nil {
				t.Fatal(err)
			}
			ReleaseInbound(p)
		})
		if allocs != 0 {
			t.Errorf("Reader.Next(CapsuleCmd+%d B): %v allocs/op, want 0", size, allocs)
		}
	}
}

// TestReaderPooledMatchesPlainDecode: one stream carrying every hot PDU
// type decodes the same in every reader mode, however the bytes arrive,
// and the same as Unmarshal frame by frame.
func TestReaderPooledMatchesPlainDecode(t *testing.T) {
	var wire []byte
	for _, p := range splitTestPDUs() {
		wire = AppendPDU(wire, p)
	}
	checkStreamMatchesUnmarshal(t, wire, len(splitTestPDUs())+1)
}

func TestBufPool(t *testing.T) {
	cases := []struct{ n, wantCap int }{
		{1, 512}, {512, 512}, {513, 1024}, {4096, 4096}, {4097, 8192}, {1 << 20, 1 << 20},
	}
	for _, c := range cases {
		b := GetBuf(c.n)
		if len(b) != c.n || cap(b) != c.wantCap {
			t.Errorf("GetBuf(%d): len=%d cap=%d, want len=%d cap=%d", c.n, len(b), cap(b), c.n, c.wantCap)
		}
		PutBuf(b)
	}
	// Oversized requests fall back to exact allocations and are never
	// pooled.
	big := GetBuf(maxBufClass + 1)
	if len(big) != maxBufClass+1 {
		t.Errorf("oversize GetBuf: len=%d", len(big))
	}
	PutBuf(big) // must not panic or poison the pool
	// A buffer whose capacity is not an exact class is dropped, not pooled.
	PutBuf(make([]byte, 100, 777))
	PutBuf(nil)
}

func TestRecycleClearsState(t *testing.T) {
	c := GetCapsuleCmd()
	c.Data = []byte{1}
	c.Tenant = 9
	Recycle(c)
	c2 := GetCapsuleCmd()
	if c2.Data != nil || c2.Tenant != 0 {
		t.Errorf("recycled CapsuleCmd not zeroed: %+v", c2)
	}
	Recycle(c2)
}

// skipIfRace skips allocation assertions under the race detector, whose
// instrumentation allocates on paths that are clean in normal builds.
func skipIfRace(t *testing.T) {
	t.Helper()
	if raceEnabled {
		t.Skip("allocation counts are not meaningful under -race")
	}
}
