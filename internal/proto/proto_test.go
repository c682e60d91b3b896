package proto

import (
	"bytes"
	"io"
	"reflect"
	"testing"
	"testing/quick"

	"nvmeopf/internal/nvme"
)

func roundTrip(t *testing.T, p PDU) PDU {
	t.Helper()
	buf := Marshal(p)
	if len(buf) != p.WireSize() {
		t.Fatalf("%v: Marshal len %d != WireSize %d", p.PDUType(), len(buf), p.WireSize())
	}
	out, err := Unmarshal(buf)
	if err != nil {
		t.Fatalf("%v: Unmarshal: %v", p.PDUType(), err)
	}
	return out
}

func TestICReqRoundTrip(t *testing.T) {
	in := &ICReq{PFV: 1, QueueDepth: 128, Prio: PrioThroughputCritical, Window: 16, NSID: 3}
	out := roundTrip(t, in).(*ICReq)
	if *out != *in {
		t.Fatalf("got %+v, want %+v", out, in)
	}
	// The window rides in bytes 6-7 of the body, reserved before it was
	// declared, so the PDU keeps its size and older peers read zero there.
	if n := len(Marshal(in)); n != 24 {
		t.Fatalf("ICReq is %d bytes on the wire, want 24", n)
	}
}

func TestICRespRoundTrip(t *testing.T) {
	in := &ICResp{PFV: 1, Tenant: 42, MaxDataLen: 1 << 20}
	out := roundTrip(t, in).(*ICResp)
	if *out != *in {
		t.Fatalf("got %+v, want %+v", out, in)
	}
}

func TestCapsuleCmdRoundTrip(t *testing.T) {
	in := &CapsuleCmd{
		Cmd:    nvme.Command{Opcode: nvme.OpWrite, CID: 7, NSID: 1, SLBA: 100, NLB: 7},
		Prio:   PrioTCDraining,
		Tenant: 200,
		Data:   []byte("hello, in-capsule world"),
	}
	out := roundTrip(t, in).(*CapsuleCmd)
	if !reflect.DeepEqual(out, in) {
		t.Fatalf("got %+v, want %+v", out, in)
	}
}

func TestCapsuleCmdNoData(t *testing.T) {
	in := &CapsuleCmd{
		Cmd:  nvme.Command{Opcode: nvme.OpRead, CID: 9, NSID: 1, SLBA: 5, NLB: 0},
		Prio: PrioLatencySensitive,
	}
	out := roundTrip(t, in).(*CapsuleCmd)
	if out.Data != nil {
		t.Fatalf("read capsule grew data: %v", out.Data)
	}
	if out.Prio != PrioLatencySensitive || out.Cmd != in.Cmd {
		t.Fatalf("got %+v, want %+v", out, in)
	}
}

// TestWideTenantIDRoundTrip pins the 16-bit tenant field: IDs above 255
// survive the CapsuleCmd and ICResp wire encodings bit-exactly (they ride
// little-endian in SQE bytes 9..10 and ICResp body bytes 2..3), and the
// widening still costs zero extra wire bytes.
func TestWideTenantIDRoundTrip(t *testing.T) {
	for _, tenant := range []TenantID{0, 1, 255, 256, 0x1234, 65535} {
		cc := &CapsuleCmd{
			Cmd:    nvme.Command{Opcode: nvme.OpWrite, CID: 3, NSID: 1, SLBA: 8, NLB: 0},
			Prio:   PrioThroughputCritical,
			Tenant: tenant,
			Data:   []byte("0123456789abcdef"),
		}
		got := roundTrip(t, cc).(*CapsuleCmd)
		if got.Tenant != tenant {
			t.Fatalf("CapsuleCmd tenant %d round-tripped to %d", tenant, got.Tenant)
		}
		if got.Prio != PrioThroughputCritical {
			t.Fatalf("tenant %d clobbered priority: %v", tenant, got.Prio)
		}
		ic := &ICResp{PFV: 1, Tenant: tenant, MaxDataLen: 4096, BlockSize: 512, Capacity: 1 << 20}
		if out := roundTrip(t, ic).(*ICResp); out.Tenant != tenant {
			t.Fatalf("ICResp tenant %d round-tripped to %d", tenant, out.Tenant)
		}
	}
	narrow := &CapsuleCmd{Cmd: nvme.Command{Opcode: nvme.OpRead, CID: 1, NSID: 1}, Tenant: 7}
	wide := &CapsuleCmd{Cmd: nvme.Command{Opcode: nvme.OpRead, CID: 1, NSID: 1}, Tenant: 65535}
	if len(Marshal(narrow)) != len(Marshal(wide)) {
		t.Fatal("wide tenant IDs changed the wire size")
	}
}

// The priority extension must not change PDU sizes (§IV-A): a flagged
// capsule is byte-for-byte the same length as an unflagged one.
func TestPriorityExtensionAddsNoBytes(t *testing.T) {
	cmd := nvme.Command{Opcode: nvme.OpRead, CID: 1, NSID: 1, SLBA: 0, NLB: 7}
	plain := &CapsuleCmd{Cmd: cmd, Prio: PrioNormal, Tenant: 0}
	flagged := &CapsuleCmd{Cmd: cmd, Prio: PrioTCDraining, Tenant: 255}
	if plain.WireSize() != flagged.WireSize() {
		t.Fatalf("priority flags changed wire size: %d vs %d", plain.WireSize(), flagged.WireSize())
	}
	if len(Marshal(plain)) != len(Marshal(flagged)) {
		t.Fatal("encoded sizes differ")
	}
}

func TestCapsuleRespCoalescedFlag(t *testing.T) {
	in := &CapsuleResp{
		Cpl:       nvme.Completion{CID: 11, Status: nvme.StatusSuccess, SQHead: 4},
		Coalesced: true,
	}
	out := roundTrip(t, in).(*CapsuleResp)
	if !out.Coalesced {
		t.Fatal("coalesced flag lost")
	}
	if out.Cpl != in.Cpl {
		t.Fatalf("completion mismatch: %+v vs %+v", out.Cpl, in.Cpl)
	}
	in.Coalesced = false
	out = roundTrip(t, in).(*CapsuleResp)
	if out.Coalesced {
		t.Fatal("coalesced flag appeared from nowhere")
	}
}

func TestC2HDataRoundTrip(t *testing.T) {
	in := &C2HData{CCCID: 5, Offset: 4096, Data: bytes.Repeat([]byte{0xAB}, 4096)}
	out := roundTrip(t, in).(*C2HData)
	if !reflect.DeepEqual(out, in) {
		t.Fatal("C2HData round trip mismatch")
	}
}

// retiredH2CDataFrame is a well-formed frame of the spec's H2CData (type
// 0x06, a 16-byte PSH whose length field matches the n payload bytes that
// follow), a type this dialect no longer decodes.
func retiredH2CDataFrame(n int) []byte {
	wire := Marshal(&C2HData{CCCID: 6, Data: make([]byte, n)})
	wire[0] = 0x06
	return wire
}

// TestRetiredH2CDataRefused: Unmarshal and every Reader mode refuse a
// 0x06 frame at its type byte, so the Reader consumes only the common
// header and never reads a payload the peer declared.
func TestRetiredH2CDataRefused(t *testing.T) {
	wire := retiredH2CDataFrame(4096)
	if p, err := Unmarshal(wire); err == nil {
		t.Fatalf("Unmarshal decoded type 0x06 as %T", p)
	}
	for _, pooled := range []bool{false, true} {
		src := bytes.NewReader(wire)
		if p, err := NewReader(src, pooled).Next(); err == nil {
			t.Fatalf("pooled=%v: Next decoded type 0x06 as %T", pooled, p)
		}
		if read := len(wire) - src.Len(); read != chSize {
			t.Fatalf("pooled=%v: Next read %d bytes of a refused frame, want the %d-byte common header", pooled, read, chSize)
		}
	}
}

func TestTermReqRoundTrip(t *testing.T) {
	for _, dir := range []Type{TypeH2CTermReq, TypeC2HTermReq} {
		in := &TermReq{Dir: dir, FES: 2, Reason: "bad tenant id"}
		out := roundTrip(t, in).(*TermReq)
		if !reflect.DeepEqual(out, in) {
			t.Fatalf("TermReq round trip mismatch: %+v vs %+v", out, in)
		}
	}
}

func TestUnmarshalErrors(t *testing.T) {
	if _, err := Unmarshal(nil); err == nil {
		t.Error("nil buffer accepted")
	}
	if _, err := Unmarshal(make([]byte, 4)); err == nil {
		t.Error("short buffer accepted")
	}
	// Unknown type.
	buf := Marshal(&ICReq{})
	buf[0] = 0xEE
	if _, err := Unmarshal(buf); err == nil {
		t.Error("unknown type accepted")
	}
	// PLen mismatch.
	buf = Marshal(&ICReq{})
	buf[4] = 0xFF
	if _, err := Unmarshal(buf); err == nil {
		t.Error("PLen mismatch accepted")
	}
	// Truncated capsule body.
	buf = Marshal(&CapsuleCmd{Cmd: nvme.Command{Opcode: nvme.OpRead}})
	short := buf[:20]
	// Fix PLen to claim the short length so the body decoder sees it.
	short[4] = 20
	short[5], short[6], short[7] = 0, 0, 0
	if _, err := Unmarshal(short); err == nil {
		t.Error("truncated capsule accepted")
	}
	// C2HData with lying length field.
	c2h := Marshal(&C2HData{CCCID: 1, Data: []byte{1, 2, 3}})
	c2h[16] = 99 // corrupt DATAL
	if _, err := Unmarshal(c2h); err == nil {
		t.Error("corrupt C2HData length accepted")
	}
}

func TestReadWritePDUStream(t *testing.T) {
	var buf bytes.Buffer
	pdus := []PDU{
		&ICReq{PFV: 1, QueueDepth: 128, Prio: PrioLatencySensitive},
		&ICResp{PFV: 1, Tenant: 3, MaxDataLen: 65536},
		&CapsuleCmd{Cmd: nvme.Command{Opcode: nvme.OpWrite, CID: 1, NSID: 1, NLB: 7}, Prio: PrioThroughputCritical, Tenant: 3, Data: []byte("abc")},
		&CapsuleResp{Cpl: nvme.Completion{CID: 1}, Coalesced: true},
		&C2HData{CCCID: 2, Data: []byte("xyz")},
	}
	for _, p := range pdus {
		if err := WritePDU(&buf, p); err != nil {
			t.Fatal(err)
		}
	}
	for i, want := range pdus {
		got, err := ReadPDU(&buf)
		if err != nil {
			t.Fatalf("pdu %d: %v", i, err)
		}
		if !reflect.DeepEqual(got, want) {
			t.Fatalf("pdu %d: got %+v, want %+v", i, got, want)
		}
	}
	if _, err := ReadPDU(&buf); err != io.EOF {
		t.Fatalf("want EOF at stream end, got %v", err)
	}
}

func TestReadPDUBadPLen(t *testing.T) {
	// PLen below header size.
	raw := []byte{byte(TypeICReq), 0, 8, 8, 2, 0, 0, 0}
	if _, err := ReadPDU(bytes.NewReader(raw)); err == nil {
		t.Error("PLen < header accepted")
	}
	// PLen over the cap.
	raw = []byte{byte(TypeICReq), 0, 8, 8, 0xFF, 0xFF, 0xFF, 0x7F}
	if _, err := ReadPDU(bytes.NewReader(raw)); err == nil {
		t.Error("giant PLen accepted")
	}
	// Truncated body.
	buf := Marshal(&ICResp{})
	if _, err := ReadPDU(bytes.NewReader(buf[:10])); err == nil {
		t.Error("truncated stream accepted")
	}
}

func TestPriorityPredicates(t *testing.T) {
	cases := []struct {
		p Priority
		ls, tc,
		drain bool
	}{
		{PrioNormal, false, false, false},
		{PrioLatencySensitive, true, false, false},
		{PrioThroughputCritical, false, true, false},
		{PrioTCDraining, false, true, true},
	}
	for _, c := range cases {
		if c.p.LatencySensitive() != c.ls || c.p.ThroughputCritical() != c.tc || c.p.Draining() != c.drain {
			t.Errorf("%v predicates wrong", c.p)
		}
		if c.p.String() == "" {
			t.Errorf("%v has empty string", uint8(c.p))
		}
	}
}

func TestTypeStrings(t *testing.T) {
	for ty := Type(0); ty < 8; ty++ {
		if ty.String() == "" {
			t.Errorf("empty string for type %d", ty)
		}
	}
	if Type(0xAA).String() != "Type(0xaa)" {
		t.Errorf("unknown type string = %q", Type(0xAA).String())
	}
}

// Property: any CapsuleCmd round-trips, preserving flags and tenant ID for
// arbitrary command fields and payloads.
func TestCapsuleCmdProperty(t *testing.T) {
	f := func(op uint8, cid uint16, nsid uint32, slba uint64, nlb uint16, prio uint8, tenant uint8, data []byte) bool {
		in := &CapsuleCmd{
			Cmd:    nvme.Command{Opcode: nvme.Opcode(op), CID: cid, NSID: nsid, SLBA: slba, NLB: nlb},
			Prio:   Priority(prio % 4),
			Tenant: TenantID(tenant),
			Data:   data,
		}
		if len(data) == 0 {
			in.Data = nil
		}
		out, err := Unmarshal(Marshal(in))
		if err != nil {
			return false
		}
		return reflect.DeepEqual(out, in)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Fatal(err)
	}
}

// Property: Unmarshal never panics on arbitrary bytes with a consistent
// PLen header (fuzz-style robustness).
func TestUnmarshalRobustness(t *testing.T) {
	f := func(body []byte, typ uint8) bool {
		buf := make([]byte, chSize+len(body))
		buf[0] = typ % 10
		buf[2] = chSize
		buf[3] = chSize
		buf[4] = byte(len(buf))
		buf[5] = byte(len(buf) >> 8)
		buf[6] = byte(len(buf) >> 16)
		buf[7] = byte(len(buf) >> 24)
		copy(buf[chSize:], body)
		_, _ = Unmarshal(buf) // must not panic
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 500}); err != nil {
		t.Fatal(err)
	}
}

// FuzzUnmarshal ensures the PDU decoder never panics on arbitrary framed
// bytes (run with `go test -fuzz=FuzzUnmarshal ./internal/proto/` to
// explore; the seed corpus runs in every normal `go test`).
func FuzzUnmarshal(f *testing.F) {
	f.Add(Marshal(&ICReq{PFV: 1, QueueDepth: 8}))
	f.Add(Marshal(&ICResp{PFV: 1, Tenant: 2, BlockSize: 4096, Capacity: 100}))
	f.Add(Marshal(&CapsuleCmd{Cmd: nvme.Command{Opcode: nvme.OpWrite, CID: 1}, Data: []byte("abc")}))
	f.Add(Marshal(&CapsuleResp{Cpl: nvme.Completion{CID: 5}, Coalesced: true}))
	f.Add(Marshal(&C2HData{CCCID: 3, Data: []byte{1, 2, 3, 4}}))
	f.Add(Marshal(&TelemetryUpdate{SubBits: 6, Classes: []TelemetryClassDelta{{Class: PrioLatencySensitive, Buckets: []TelemetryBucket{{Index: 7, Count: 2}}}}}))
	f.Add(Marshal(&TelemetryAck{EchoHostClock: 5, TargetClock: 9}))
	f.Add([]byte{})
	f.Fuzz(func(t *testing.T, raw []byte) {
		p, err := Unmarshal(raw)
		if err != nil {
			return
		}
		// Whatever decoded must re-encode without panicking, at its own
		// declared size.
		buf := Marshal(p)
		if len(buf) != p.WireSize() {
			t.Fatalf("re-encode size %d != WireSize %d for %v", len(buf), p.WireSize(), p.PDUType())
		}
	})
}
