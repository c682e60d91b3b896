package proto

// Tests for the streamed decode: Reader.Next parses the fixed fields out
// of its scratch and reads a payload from the stream straight into its
// final buffer. What that has to get right, beyond decoding correctly:
// agree with Unmarshal however the stream is chunked, never grow the
// scratch, and — now that a PDU can fail with its payload half read —
// hand every pooled struct and buffer back exactly once.

import (
	"bytes"
	"encoding/binary"
	"errors"
	"fmt"
	"io"
	"testing"

	"nvmeopf/internal/nvme"
)

// flakyReader serves data[:k] in reads of at most chunk bytes, then fails
// with err (io.EOF: the stream just ends). k < 0 serves all of data.
type flakyReader struct {
	data   []byte
	chunk  int
	k, off int
	err    error
}

func (f *flakyReader) Read(p []byte) (int, error) {
	end := len(f.data)
	if f.k >= 0 {
		end = f.k
	}
	if f.off >= end {
		return 0, f.err
	}
	n := copy(p[:min(len(p), f.chunk)], f.data[f.off:end])
	f.off += n
	return n, nil
}

// readerModes are the three ways the transports build a Reader.
var readerModes = []struct {
	name         string
	pooled, sink bool
}{{"plain", false, false}, {"pooled", true, false}, {"pooled+sink", true, true}}

// newModeReader builds a Reader in the given mode; its sink, when asked
// for one, lands any payload that fits in dst.
func newModeReader(r io.Reader, pooled, sink bool, dst []byte) *Reader {
	rd := NewReader(r, pooled)
	if sink {
		rd.SetC2HSink(func(_ nvme.CID, _, length uint32) []byte {
			if int(length) <= len(dst) {
				return dst[:length]
			}
			return nil
		})
	}
	return rd
}

// nextFrame is the oracle: what the first PDU of b decodes to by framing
// it on PLen and handing the frame to Unmarshal.
func nextFrame(b []byte) (PDU, int, error) {
	switch {
	case len(b) == 0:
		return nil, 0, io.EOF
	case len(b) < chSize:
		return nil, 0, io.ErrUnexpectedEOF
	}
	plen := binary.LittleEndian.Uint32(b[4:])
	if plen < chSize || plen > MaxPDUSize {
		return nil, 0, fmt.Errorf("bad PLen %d", plen)
	}
	if int(plen) > len(b) {
		return nil, 0, io.ErrUnexpectedEOF
	}
	p, err := Unmarshal(b[:plen])
	return p, int(plen), err
}

// checkStreamMatchesUnmarshal runs Reader.Next over data in every reader
// mode, with the stream arriving a byte at a time, seven at a time and
// all at once: frame by frame it must yield a PDU equal to Unmarshal's, or
// fail on the frame where Unmarshal (or the framing) fails. A stream may
// end cleanly only between PDUs.
func checkStreamMatchesUnmarshal(t *testing.T, data []byte, maxPDUs int) {
	t.Helper()
	dst := make([]byte, 4096)
	for _, mode := range readerModes {
		for _, chunk := range []int{1, 7, len(data) + 1} {
			rd := newModeReader(&flakyReader{data: data, chunk: chunk, k: -1, err: io.EOF}, mode.pooled, mode.sink, dst)
			off := 0
			for i := 0; i < maxPDUs; i++ {
				want, size, wantErr := nextFrame(data[off:])
				got, err := rd.Next()
				if (err != nil) != (wantErr != nil) {
					t.Fatalf("%s chunk %d pdu %d at byte %d: Next err %v, Unmarshal err %v", mode.name, chunk, i, off, err, wantErr)
				}
				if err != nil {
					if (err == io.EOF) != (off == len(data)) {
						t.Fatalf("%s chunk %d: %v with %d of %d bytes consumed", mode.name, chunk, err, off, len(data))
					}
					break
				}
				if got.PDUType() != want.PDUType() || !bytes.Equal(Marshal(got), Marshal(want)) {
					t.Fatalf("%s chunk %d pdu %d: %v decoded differently from Unmarshal", mode.name, chunk, i, want.PDUType())
				}
				if d, ok := got.(*C2HData); ok && d.Borrowed != (mode.sink && len(d.Data) > 0 && len(d.Data) <= len(dst)) {
					t.Fatalf("%s chunk %d pdu %d: %d-byte C2HData has Borrowed=%v", mode.name, chunk, i, len(d.Data), d.Borrowed)
				}
				if mode.pooled {
					ReleaseInbound(got)
				}
				off += size
			}
		}
	}
}

// dataPDU builds one of the two data-bearing PDU types around payload.
func dataPDU(typ Type, payload []byte) PDU {
	if typ == TypeCapsuleCmd {
		return &CapsuleCmd{
			Cmd:  nvme.Command{Opcode: nvme.OpWrite, CID: 7, NSID: 1, SLBA: 64},
			Prio: PrioTCDraining, Tenant: 5, Data: payload,
		}
	}
	return &C2HData{CCCID: 7, Offset: 4096, Data: payload}
}

var dataTypes = []Type{TypeCapsuleCmd, TypeC2HData}

// TestReaderScratchStaysSmall: a payload never passes through the
// connection's scratch, so the largest PDU the protocol allows leaves it
// at its 4 KiB — the whole-PDU staging it replaces grew it to 2 MiB for
// the life of the connection. A control PDU too large for the scratch
// borrows a buffer for the one call.
func TestReaderScratchStaysSmall(t *testing.T) {
	payload := make([]byte, 1<<20)
	for i := range payload {
		payload[i] = byte(i * 31)
	}
	reason := string(bytes.Repeat([]byte{'r'}, 8192))
	for _, mode := range readerModes {
		for _, typ := range dataTypes {
			var wire []byte
			wire = AppendPDU(wire, dataPDU(typ, payload))
			wire = AppendPDU(wire, &TermReq{Dir: TypeH2CTermReq, FES: 1, Reason: reason})
			wire = AppendPDU(wire, &CapsuleResp{Cpl: nvme.Completion{CID: 7}})
			rd := newModeReader(bytes.NewReader(wire), mode.pooled, mode.sink, nil)
			p, err := rd.Next()
			if err != nil {
				t.Fatalf("%s %v: %v", mode.name, typ, err)
			}
			if !bytes.Equal(PayloadRef(p), payload) {
				t.Fatalf("%s %v: 1 MiB payload corrupted", mode.name, typ)
			}
			if mode.pooled {
				ReleaseInbound(p)
			}
			p, err = rd.Next()
			if err != nil {
				t.Fatalf("%s %v: TermReq after it: %v", mode.name, typ, err)
			}
			if tr, ok := p.(*TermReq); !ok || tr.Reason != reason {
				t.Fatalf("%s %v: oversized TermReq decoded as %T", mode.name, typ, p)
			}
			if p, err = rd.Next(); err != nil || p.PDUType() != TypeCapsuleResp {
				t.Fatalf("%s %v: stream lost framing after the large PDUs: %v", mode.name, typ, err)
			}
			if got := cap(rd.scratch); got > 4096 {
				t.Fatalf("%s %v: scratch grew to %d bytes", mode.name, typ, got)
			}
		}
	}
}

// TestReaderFailedReadReleasesOnce: a stream that ends, or errors, k bytes
// into a data-bearing PDU — for k on either side of the header, fixed-part
// and payload boundaries — fails Next with the right error, and a pooling
// Reader hands back what it had drawn by then exactly once. "Not twice" is
// read off the pools (two draws after the failure must be two objects, and
// never the sink's memory); "not zero times" off the allocator (failing
// over and over allocates nothing once the pools are warm).
func TestReaderFailedReadReleasesOnce(t *testing.T) {
	const payloadLen = 4096 // an exact pool class, like the sink's buffer
	errBoom := errors.New("boom")
	payload := bytes.Repeat([]byte{0xD7}, payloadLen)
	dst := make([]byte, payloadLen)
	for _, mode := range readerModes {
		for _, typ := range dataTypes {
			wire := Marshal(dataPDU(typ, payload))
			fixedEnd := len(wire) - payloadLen
			for _, failWith := range []error{io.EOF, errBoom} {
				for _, k := range []int{0, 1, chSize - 1, chSize, chSize + 1, fixedEnd - 1, fixedEnd, fixedEnd + 1, fixedEnd + payloadLen/2, len(wire) - 1} {
					name := fmt.Sprintf("%s %v k=%d err=%v", mode.name, typ, k, failWith)
					src := &flakyReader{data: wire, chunk: len(wire), k: k, err: failWith}
					rd := newModeReader(src, mode.pooled, mode.sink, dst)
					fail := func() error {
						src.off = 0
						p, err := rd.Next()
						if err == nil {
							t.Fatalf("%s: Next returned a %v", name, p.PDUType())
						}
						return err
					}
					want := failWith
					if failWith == io.EOF && k > 0 {
						want = io.ErrUnexpectedEOF
					}
					if err := fail(); err != want {
						t.Fatalf("%s: Next failed with %v, want %v", name, err, want)
					}
					if mode.pooled {
						checkPoolsHoldNoDuplicate(t, name, typ, payloadLen, dst)
						if !raceEnabled {
							if got := testing.AllocsPerRun(20, func() { fail() }); got != 0 {
								t.Fatalf("%s: %v allocs per failed Next, want 0: something drawn from a pool did not go back", name, got)
							}
						}
					}
				}
			}
		}
	}
}

// TestReaderLengthFieldMismatchReleasesOnce: a C2HData whose own length
// field disagrees with the payload PLen leaves is refused before any
// payload buffer is chosen, and the pooled struct goes back once: failing
// costs a pooling Reader exactly the struct less than it costs a plain
// one.
func TestReaderLengthFieldMismatchReleasesOnce(t *testing.T) {
	dst := make([]byte, 4096)
	for _, delta := range []int{-1, 1, 1 << 20} {
		wire := Marshal(dataPDU(TypeC2HData, make([]byte, 4096)))
		binary.LittleEndian.PutUint32(wire[chSize+8:], uint32(4096+delta))
		if _, err := Unmarshal(wire); err == nil {
			t.Fatalf("length %+d: Unmarshal accepted it", delta)
		}
		var plainAllocs float64
		for _, mode := range readerModes {
			name := fmt.Sprintf("%s length %+d", mode.name, delta)
			src := &flakyReader{data: wire, chunk: len(wire), k: -1, err: io.EOF}
			rd := newModeReader(src, mode.pooled, mode.sink, dst)
			fail := func() {
				src.off = 0
				if p, err := rd.Next(); err == nil {
					t.Fatalf("%s: Next returned a %v", name, p.PDUType())
				}
			}
			fail()
			if mode.pooled {
				checkPoolsHoldNoDuplicate(t, name, TypeC2HData, 4096, dst)
			}
			if raceEnabled {
				continue
			}
			allocs := testing.AllocsPerRun(20, fail)
			if !mode.pooled {
				plainAllocs = allocs
			} else if allocs != plainAllocs-1 {
				t.Fatalf("%s: %v allocs per failed Next, want %v (plain: %v)", name, allocs, plainAllocs-1, plainAllocs)
			}
		}
	}
}

// checkPoolsHoldNoDuplicate draws twice from the buffer class and from the
// type's struct pool: an object that was put back twice comes out twice.
// sinkBuf is caller-owned memory that must never come out at all.
func checkPoolsHoldNoDuplicate(t *testing.T, name string, typ Type, n int, sinkBuf []byte) {
	t.Helper()
	a, b := GetBuf(n), GetBuf(n)
	if &a[0] == &b[0] {
		t.Fatalf("%s: one payload buffer is in the pool twice", name)
	}
	if &a[0] == &sinkBuf[0] || &b[0] == &sinkBuf[0] {
		t.Fatalf("%s: the sink's buffer was put in the pool", name)
	}
	PutBuf(a)
	PutBuf(b)
	switch typ {
	case TypeCapsuleCmd:
		x, y := GetCapsuleCmd(), GetCapsuleCmd()
		if x == y {
			t.Fatalf("%s: one CapsuleCmd is in the pool twice", name)
		}
		if x.Data != nil || y.Data != nil {
			t.Fatalf("%s: a recycled CapsuleCmd still references a payload", name)
		}
		Recycle(x)
		Recycle(y)
	case TypeC2HData:
		x, y := GetC2HData(), GetC2HData()
		if x == y {
			t.Fatalf("%s: one C2HData is in the pool twice", name)
		}
		if x.Data != nil || y.Data != nil || x.Borrowed || y.Borrowed {
			t.Fatalf("%s: a recycled C2HData still references a payload", name)
		}
		Recycle(x)
		Recycle(y)
	}
}
