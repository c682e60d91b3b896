package targetqp

import (
	"testing"
	"time"

	"nvmeopf/internal/nvme"
	"nvmeopf/internal/proto"
)

// pooledBackend completes every command at once, reads with a 4 KiB buffer
// from the proto pool — what the TCP transport's inline device does.
type pooledBackend struct{}

func (pooledBackend) Namespace() nvme.Namespace {
	return nvme.Namespace{ID: 1, BlockSize: 4096, Capacity: 1 << 20}
}

func (pooledBackend) Submit(cmd nvme.Command, _ []byte, _ bool, done func(nvme.Completion, []byte)) {
	var out []byte
	if cmd.Opcode == nvme.OpRead {
		out = proto.GetBuf(4096)
	}
	done(nvme.Completion{CID: cmd.CID}, out)
}

// TestSteadyStateHandleAllocatesNothing pins the target's per-request
// bookkeeping at zero allocations: a window of sixteen 4 KiB TC reads —
// arrive, park, drain, execute, complete, ship data, coalesce the response —
// creates no object once the request pool, the PM's batch records and the
// session's slots are warm. The send function returns PDUs and payloads to
// their pools, as the transport's writer does.
func TestSteadyStateHandleAllocatesNothing(t *testing.T) {
	if raceEnabled {
		t.Skip("the race detector allocates on its own")
	}
	tgt, err := NewTarget(Config{
		Mode:           ModeOPF,
		PooledPayloads: true,
		Clock:          func() int64 { return time.Now().UnixNano() },
	}, pooledBackend{})
	if err != nil {
		t.Fatal(err)
	}
	resps, datas := 0, 0
	sess, err := tgt.NewSession(func(p proto.PDU) {
		switch v := p.(type) {
		case *proto.C2HData:
			datas++
			proto.PutBuf(v.Data)
			v.Data = nil
		case *proto.CapsuleResp:
			resps++
		}
		proto.Recycle(p)
	})
	if err != nil {
		t.Fatal(err)
	}
	const window = 16
	if err := sess.HandlePDU(&proto.ICReq{PFV: ProtocolVersion, QueueDepth: 64, Prio: proto.PrioThroughputCritical}); err != nil {
		t.Fatal(err)
	}
	cmd := &proto.CapsuleCmd{}
	round := func() {
		for k := 0; k < window; k++ {
			*cmd = proto.CapsuleCmd{
				Cmd:  nvme.Command{Opcode: nvme.OpRead, CID: nvme.CID(k), NSID: 1, SLBA: uint64(k)},
				Prio: proto.PrioThroughputCritical,
			}
			if k == window-1 {
				cmd.Prio = proto.PrioTCDraining
			}
			if err := sess.HandlePDU(cmd); err != nil {
				t.Fatal(err)
			}
		}
	}
	round() // warm the pools
	resps, datas = 0, 0
	const rounds = 500
	if allocs := testing.AllocsPerRun(rounds, round); allocs != 0 {
		t.Errorf("a window of %d reads makes %.1f allocations, want 0", window, allocs)
	}
	if want := (rounds + 1) * window; datas != want || resps != rounds+1 {
		t.Errorf("%d data PDUs and %d responses, want %d and %d (one coalesced response per window)", datas, resps, want, rounds+1)
	}
}
