package proto

// Tests for the scatter-gather split encoding (AppendPDUHeader +
// PayloadRef) and the zero-copy C2HData sink. The load-bearing property:
// header-then-payload must be byte-identical to AppendPDU for every PDU
// type, and both the staging path and the sink read path must stay
// allocation-free in steady state.

import (
	"bytes"
	"testing"

	"nvmeopf/internal/nvme"
)

// splitTestPDUs covers every PDU type, with and without payloads.
func splitTestPDUs() []PDU {
	return []PDU{
		&ICReq{PFV: 1, QueueDepth: 64, Prio: PrioThroughputCritical, NSID: 1},
		&ICResp{PFV: 1, Tenant: 3, MaxDataLen: 1 << 20, BlockSize: 4096, Capacity: 1 << 18},
		&CapsuleCmd{
			Cmd:    nvme.Command{Opcode: nvme.OpWrite, CID: 3, NSID: 1, SLBA: 8, NLB: 1},
			Prio:   PrioTCDraining,
			Tenant: 5,
			Data:   bytes.Repeat([]byte{0x5C}, 8192),
		},
		&CapsuleCmd{Cmd: nvme.Command{Opcode: nvme.OpRead, CID: 4, NSID: 1, SLBA: 16, NLB: 1}},
		&CapsuleResp{Cpl: nvme.Completion{CID: 3, Status: nvme.StatusSuccess}, Coalesced: true},
		&C2HData{CCCID: 3, Offset: 512, Data: bytes.Repeat([]byte{0x77}, 4096)},
		&C2HData{CCCID: 9, Offset: 0},
		&TermReq{Dir: TypeC2HTermReq, FES: 2, Reason: "bad offset"},
	}
}

// TestAppendPDUHeaderWireIdentity: AppendPDUHeader followed by the
// referenced payload must reproduce AppendPDU exactly — the invariant the
// vectored writer's byte stream rests on.
func TestAppendPDUHeaderWireIdentity(t *testing.T) {
	for _, p := range splitTestPDUs() {
		want := AppendPDU(nil, p)
		got := AppendPDUHeader(nil, p)
		got = append(got, PayloadRef(p)...)
		if !bytes.Equal(got, want) {
			t.Errorf("%v: split encoding differs (%d bytes vs %d)", p.PDUType(), len(got), len(want))
		}
	}
}

// TestPayloadRefAliases: for data-bearing PDUs the reference must be the
// caller's slice itself (no copy), so the writer's iovec points at the
// owner's memory.
func TestPayloadRefAliases(t *testing.T) {
	data := bytes.Repeat([]byte{9}, 2048)
	for _, p := range []PDU{
		&CapsuleCmd{Cmd: nvme.Command{Opcode: nvme.OpWrite, CID: 1, NSID: 1}, Data: data},
		&C2HData{CCCID: 1, Data: data},
	} {
		ref := PayloadRef(p)
		if len(ref) != len(data) || &ref[0] != &data[0] {
			t.Errorf("%v: PayloadRef does not alias the payload", p.PDUType())
		}
	}
	if PayloadRef(&CapsuleResp{}) != nil {
		t.Error("CapsuleResp has no payload; PayloadRef must be nil")
	}
}

// TestAppendPDUHeaderZeroAlloc pins the staging path at zero allocations:
// headers append into a reused buffer, payloads ride by reference.
func TestAppendPDUHeaderZeroAlloc(t *testing.T) {
	skipIfRace(t)
	cmd := &CapsuleCmd{
		Cmd:  nvme.Command{Opcode: nvme.OpWrite, CID: 7, NSID: 1, SLBA: 42},
		Data: make([]byte, 4096),
	}
	d := &C2HData{CCCID: 7, Offset: 0, Data: make([]byte, 8192)}
	buf := make([]byte, 0, 64<<10)
	allocs := testing.AllocsPerRun(200, func() {
		buf = buf[:0]
		buf = AppendPDUHeader(buf, cmd)
		buf = AppendPDUHeader(buf, d)
	})
	if allocs != 0 {
		t.Errorf("AppendPDUHeader into reused buffer: %v allocs/op, want 0", allocs)
	}
}

// TestSinkLandsPayloadInPlace: an accepting sink receives the wire bytes
// directly in the destination buffer and the PDU comes back Borrowed, so
// release paths leave the caller's memory alone.
func TestSinkLandsPayloadInPlace(t *testing.T) {
	payload := bytes.Repeat([]byte{0xC4}, 4096)
	wire := Marshal(&C2HData{CCCID: 11, Offset: 512, Data: payload})
	dst := make([]byte, 4096)
	var gotCID nvme.CID
	var gotOff, gotLen uint32
	rd := NewReader(bytes.NewReader(wire), true)
	rd.SetC2HSink(func(cccid nvme.CID, offset, length uint32) []byte {
		gotCID, gotOff, gotLen = cccid, offset, length
		return dst
	})
	p, err := rd.Next()
	if err != nil {
		t.Fatal(err)
	}
	d, ok := p.(*C2HData)
	if !ok {
		t.Fatalf("decoded %T", p)
	}
	if gotCID != 11 || gotOff != 512 || gotLen != 4096 {
		t.Fatalf("sink saw cccid=%d off=%d len=%d", gotCID, gotOff, gotLen)
	}
	if !d.Borrowed {
		t.Fatal("sink-landed PDU not marked Borrowed")
	}
	if len(d.Data) != 4096 || &d.Data[0] != &dst[0] {
		t.Fatal("payload did not land in the sink's destination")
	}
	if !bytes.Equal(dst, payload) {
		t.Fatal("payload bytes wrong in destination")
	}
	ReleaseInbound(p)
}

// TestSinkDeclineFallsBackToWireSizedBuffer: a declining sink (or one
// returning a wrong-length slice) falls back to a pooled buffer sized by
// the actual wire payload — never by the untrusted offset field.
func TestSinkDeclineFallsBackToWireSizedBuffer(t *testing.T) {
	payload := bytes.Repeat([]byte{0x3A}, 1024)
	// Hostile offset near 4 GiB: the fallback must still allocate 1 KiB.
	wire := Marshal(&C2HData{CCCID: 2, Offset: 0xFFFF_F000, Data: payload})
	for name, sink := range map[string]C2HSink{
		"decline":      func(nvme.CID, uint32, uint32) []byte { return nil },
		"wrong-length": func(nvme.CID, uint32, uint32) []byte { return make([]byte, 8) },
	} {
		rd := NewReader(bytes.NewReader(wire), true)
		rd.SetC2HSink(sink)
		p, err := rd.Next()
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		d := p.(*C2HData)
		if d.Borrowed {
			t.Fatalf("%s: fallback PDU marked Borrowed", name)
		}
		if len(d.Data) != 1024 || !bytes.Equal(d.Data, payload) {
			t.Fatalf("%s: fallback payload wrong (len %d)", name, len(d.Data))
		}
		if d.Offset != 0xFFFF_F000 {
			t.Fatalf("%s: offset not preserved for the consumer to reject", name)
		}
		ReleaseInbound(p)
	}
}

// TestSinkZeroLengthData: zero-payload C2HData PDUs skip the sink
// entirely and decode with nil Data.
func TestSinkZeroLengthData(t *testing.T) {
	wire := Marshal(&C2HData{CCCID: 5, Offset: 64})
	rd := NewReader(bytes.NewReader(wire), true)
	rd.SetC2HSink(func(nvme.CID, uint32, uint32) []byte {
		t.Error("sink consulted for a zero-length payload")
		return nil
	})
	p, err := rd.Next()
	if err != nil {
		t.Fatal(err)
	}
	d := p.(*C2HData)
	if d.Data != nil || d.Borrowed || d.CCCID != 5 || d.Offset != 64 {
		t.Fatalf("zero-length decode wrong: %+v", d)
	}
	ReleaseInbound(p)
}

// TestReleaseInboundSkipsBorrowed: releasing a Borrowed C2HData must NOT
// return the caller-owned destination to the buffer pool — if it did, the
// very next GetBuf of the same class would hand the caller's live memory
// to another owner.
func TestReleaseInboundSkipsBorrowed(t *testing.T) {
	for i := 0; i < 100; i++ {
		caller := make([]byte, 4096) // cap is an exact pool class
		d := GetC2HData()
		d.Data = caller
		d.Borrowed = true
		ReleaseInbound(d)
		got := GetBuf(4096)
		if &got[0] == &caller[0] {
			t.Fatal("Borrowed payload leaked into the buffer pool")
		}
		PutBuf(got)
	}
}

// TestReaderZeroAllocC2HDataSink pins the zero-copy read path: with a
// sink accepting every payload, Next + ReleaseInbound is allocation-free.
func TestReaderZeroAllocC2HDataSink(t *testing.T) {
	skipIfRace(t)
	wire := Marshal(&C2HData{CCCID: 1, Offset: 0, Data: bytes.Repeat([]byte{0xEE}, 4096)})
	dst := make([]byte, 4096)
	rd := NewReader(&loopReader{data: wire}, true)
	rd.SetC2HSink(func(_ nvme.CID, _, length uint32) []byte {
		if length != 4096 {
			return nil
		}
		return dst
	})
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
		t.Errorf("Reader.Next(C2HData via sink): %v allocs/op, want 0", allocs)
	}
}
