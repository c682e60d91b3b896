package proto

// Fuzz entry for the PDU decode surface: the Reader (pooled and plain,
// with and without a zero-copy sink, over a stream chunked three ways) and
// one-shot Unmarshal must agree on every frame, and never panic,
// over-allocate beyond MaxPDUSize, or mis-handle a truncated or hostile
// stream. CI runs this as a short -fuzztime smoke; longer local runs
// explore deeper.

import (
	"bytes"
	"encoding/binary"
	"testing"

	"nvmeopf/internal/nvme"
)

func FuzzPDUDecode(f *testing.F) {
	// One well-formed seed per PDU type.
	for _, p := range []PDU{
		&ICReq{PFV: 1, QueueDepth: 64, Prio: PrioThroughputCritical, NSID: 1},
		&ICResp{PFV: 1, Tenant: 3, MaxDataLen: 1 << 20, BlockSize: 4096, Capacity: 1 << 18},
		&CapsuleCmd{
			Cmd:  nvme.Command{Opcode: nvme.OpWrite, CID: 3, NSID: 1, SLBA: 8, NLB: 1},
			Data: bytes.Repeat([]byte{0x5C}, 512),
		},
		&CapsuleResp{Cpl: nvme.Completion{CID: 3}, Coalesced: true},
		&C2HData{CCCID: 3, Offset: 512, Data: bytes.Repeat([]byte{0x77}, 256)},
		&C2HData{CCCID: 9, Offset: 0},
		&TermReq{Dir: TypeC2HTermReq, FES: 2, Reason: "bad offset"},
	} {
		f.Add(Marshal(p))
	}
	// The retired H2CData code, framed as a peer of the spec would send it:
	// Unmarshal refuses it (TestRetiredH2CDataRefused), so Next must too.
	f.Add(retiredH2CDataFrame(3))
	// Adversarial seeds: truncated common header, PLen lies (oversized,
	// undersized, max), hostile C2HData offset, unknown type.
	f.Add([]byte{byte(TypeCapsuleCmd), 0, 8})
	big := make([]byte, chSize)
	big[0] = byte(TypeC2HData)
	binary.LittleEndian.PutUint32(big[4:], MaxPDUSize)
	f.Add(big)
	tiny := make([]byte, chSize)
	tiny[0] = byte(TypeCapsuleResp)
	binary.LittleEndian.PutUint32(tiny[4:], 1)
	f.Add(tiny)
	hostile := Marshal(&C2HData{CCCID: 1, Offset: 0, Data: make([]byte, 64)})
	binary.LittleEndian.PutUint32(hostile[chSize+4:], 0xFFFF_FFF0)
	f.Add(hostile)
	f.Add([]byte{0xEE, 0, 8, 8, 12, 0, 0, 0, 1, 2, 3, 4})

	f.Fuzz(func(t *testing.T, data []byte) {
		// One-shot decode.
		if p, err := Unmarshal(data); err == nil && p == nil {
			t.Fatal("Unmarshal returned nil PDU with nil error")
		}
		// Streaming decode, differentially: under each reader mode and
		// each chunking of the stream, every PDU Next yields must equal
		// what Unmarshal makes of the same frame, Next must fail on the
		// frame Unmarshal refuses, and pooled PDUs must survive a full
		// release cycle.
		checkStreamMatchesUnmarshal(t, data, 16)
	})
}
