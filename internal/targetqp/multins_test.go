package targetqp

import (
	"testing"

	"nvmeopf/internal/bdev"
	"nvmeopf/internal/hostqp"
	"nvmeopf/internal/nvme"
	"nvmeopf/internal/proto"
)

// nsBackend is a fakeBackend with a configurable namespace ID.
type nsBackend struct {
	fakeBackend
}

func newNSBackend(t *testing.T, nsid uint32) *nsBackend {
	t.Helper()
	b := &nsBackend{}
	b.ns = nvme.Namespace{ID: nsid, BlockSize: 512, Capacity: 2048}
	store, err := bdev.NewMemory(512, 2048)
	if err != nil {
		t.Fatal(err)
	}
	b.store = store
	b.auto = true
	return b
}

func TestNewTargetRejectsInvalidNamespace(t *testing.T) {
	b := &nsBackend{}
	b.ns = nvme.Namespace{ID: 0, BlockSize: 512, Capacity: 10}
	if _, err := NewTarget(Config{Clock: ticks()}, b); err == nil {
		t.Fatal("NSID 0 backend accepted")
	}
}

func TestConnectToUnknownNamespaceTerminated(t *testing.T) {
	tgt, err := NewTarget(Config{Mode: ModeOPF, Clock: ticks()}, newNSBackend(t, 1))
	if err != nil {
		t.Fatal(err)
	}
	var got []proto.PDU
	tsess, _ := tgt.NewSession(func(p proto.PDU) { got = append(got, p) })
	if err := tsess.HandlePDU(&proto.ICReq{PFV: ProtocolVersion, NSID: 9}); err == nil {
		t.Fatal("connect to unknown namespace accepted")
	}
	if len(got) != 1 {
		t.Fatalf("pdus = %d", len(got))
	}
	if _, ok := got[0].(*proto.TermReq); !ok {
		t.Fatalf("want TermReq, got %v", got[0].PDUType())
	}
}

func TestCommandToUnknownNamespaceErrors(t *testing.T) {
	tgt, err := NewTarget(Config{Mode: ModeOPF, Clock: ticks()}, newNSBackend(t, 1))
	if err != nil {
		t.Fatal(err)
	}
	// Connect against NS 1, then craft a command naming NS 7 directly on
	// the target session (the host helper always uses its config NSID).
	var got []proto.PDU
	tsess, _ := tgt.NewSession(func(p proto.PDU) { got = append(got, p) })
	if err := tsess.HandlePDU(&proto.ICReq{PFV: ProtocolVersion, NSID: 1}); err != nil {
		t.Fatal(err)
	}
	if err := tsess.HandlePDU(&proto.CapsuleCmd{
		Cmd:  nvme.Command{Opcode: nvme.OpRead, CID: 3, NSID: 7},
		Prio: proto.PrioLatencySensitive,
	}); err != nil {
		t.Fatal(err)
	}
	found := false
	for _, p := range got {
		if r, ok := p.(*proto.CapsuleResp); ok && r.Cpl.Status == nvme.StatusInvalidNSID {
			found = true
		}
	}
	if !found {
		t.Fatalf("no InvalidNSID response among %d PDUs", len(got))
	}
}

// Geometry in ICResp must describe the requested namespace.
func TestICRespDescribesRequestedNamespace(t *testing.T) {
	big := &nsBackend{}
	big.ns = nvme.Namespace{ID: 2, BlockSize: 4096, Capacity: 1 << 20}
	store, _ := bdev.NewMemory(4096, 1<<20)
	big.store, big.auto = store, true

	tgt, err := NewTarget(Config{Mode: ModeOPF, Clock: ticks()}, big)
	if err != nil {
		t.Fatal(err)
	}
	h, _ := pair(t, tgt, hostqp.Config{Class: proto.PrioLatencySensitive, Window: 1, QueueDepth: 1, NSID: 2})
	if h.BlockSize() != 4096 || h.Capacity() != 1<<20 {
		t.Fatalf("geometry %d/%d, want namespace 2's", h.BlockSize(), h.Capacity())
	}
}
