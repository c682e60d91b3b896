package targetqp

import (
	"runtime/debug"
	"testing"

	"nvmeopf/internal/nvme"
	"nvmeopf/internal/proto"
	"nvmeopf/internal/telemetry"
)

// adoptPayload is the write size these tests use: a pool size class of
// its own, so what the pool hands out can be traced to the buffers the
// test made.
const adoptPayload = 8 << 10

// adoptingBackend keeps every write's payload, as a device that adopts
// whole-chunk writes does, and completes the write with a pooled buffer
// to release in its place. Completions wait until release, so a test can
// tear the session down under them.
type adoptingBackend struct {
	status nvme.Status
	keep   bool // false: complete without keeping the payload (nil data)
	held   []func()
	kept   [][]byte // payloads the device holds
	given  [][]byte // what it handed back for them
}

func (b *adoptingBackend) Namespace() nvme.Namespace {
	return nvme.Namespace{ID: 1, BlockSize: 4096, Capacity: 1 << 20}
}

func (b *adoptingBackend) SubmitRequest(r *Request, _ bool) {
	b.submit(r.Data(), r.Complete)
}

func (b *adoptingBackend) Submit(cmd nvme.Command, data []byte, _ bool, done func(nvme.Completion, []byte)) {
	b.submit(data, done)
}

func (b *adoptingBackend) submit(data []byte, done func(nvme.Completion, []byte)) {
	var back []byte
	if b.keep {
		back = proto.GetBuf(adoptPayload)
		b.kept, b.given = append(b.kept, data), append(b.given, back)
	}
	b.held = append(b.held, func() { done(nvme.Completion{Status: b.status}, back) })
}

func (b *adoptingBackend) release() {
	for _, fn := range b.held {
		fn()
	}
	b.held = nil
}

// poolBackend is the same device behind the plain Backend interface: the
// path a transport's executor pool takes, with the completion arriving
// through the done callback.
type poolBackend struct{ be *adoptingBackend }

func (b poolBackend) Namespace() nvme.Namespace { return b.be.Namespace() }

func (b poolBackend) Submit(cmd nvme.Command, data []byte, high bool, done func(nvme.Completion, []byte)) {
	b.be.Submit(cmd, data, high, done)
}

// pooledTimes draws buffers of the payload class from the pool until it
// has seen far more than any test here released, and reports how often
// each of bufs came out. With the GC off nothing leaves the pool by
// itself; under the race detector sync.Pool drops a quarter of what it is
// given, so there a release shows up at most once rather than once.
func pooledTimes(bufs [][]byte) []int {
	n := make([]int, len(bufs))
	for range 256 {
		got := proto.GetBuf(adoptPayload)
		for i, b := range bufs {
			if &got[0] == &b[0] {
				n[i]++
			}
		}
	}
	return n
}

// TestAdoptedWritePayloadOwnership: a write payload the backend kept is
// never released by the target — it never comes back out of the buffer
// pool — and the buffer the backend handed back for it is released exactly
// once, on every path a completion can take: success, a failed write, a
// session torn down with a window in flight and another one parked, and
// the plain Backend interface an executor pool completes through. Payloads
// the backend did not keep, and parked ones dropped at teardown, still go
// back once. Telemetry does not count the handed-back buffers as read data.
func TestAdoptedWritePayloadOwnership(t *testing.T) {
	defer debug.SetGCPercent(debug.SetGCPercent(-1))
	for _, tc := range []struct {
		name   string
		status nvme.Status
		keep   bool
		plain  bool // the Backend path, not RequestBackend
		close  bool // tear the session down with the window in flight
	}{
		{name: "success", keep: true},
		{name: "failed-write", status: nvme.StatusInternalError, keep: true},
		{name: "failed-write-not-kept", status: nvme.StatusInternalError},
		{name: "close-mid-window", keep: true, close: true},
		{name: "executor-pool", keep: true, plain: true},
	} {
		t.Run(tc.name, func(t *testing.T) {
			pooledTimes(nil) // empty the class of buffers earlier tests left
			be := &adoptingBackend{status: tc.status, keep: tc.keep}
			var backend Backend = be
			if tc.plain {
				backend = poolBackend{be}
			}
			reg := telemetry.New()
			tgt, err := NewTarget(Config{Mode: ModeOPF, Clock: ticks(), PooledPayloads: true, Telemetry: reg}, backend)
			if err != nil {
				t.Fatal(err)
			}
			var resps []nvme.Completion
			sess, err := tgt.NewSession(func(p proto.PDU) {
				if r, ok := p.(*proto.CapsuleResp); ok {
					resps = append(resps, r.Cpl)
				}
				proto.Recycle(p)
			})
			if err != nil {
				t.Fatal(err)
			}
			if err := sess.HandlePDU(&proto.ICReq{PFV: ProtocolVersion, QueueDepth: 16, Prio: proto.PrioThroughputCritical}); err != nil {
				t.Fatal(err)
			}
			write := func(cid nvme.CID, prio proto.Priority) []byte {
				cmd := proto.GetCapsuleCmd()
				cmd.Cmd = nvme.Command{Opcode: nvme.OpWrite, CID: cid, NSID: 1, SLBA: uint64(cid) * 2, NLB: 1}
				cmd.Prio, cmd.Data = prio, proto.GetBuf(adoptPayload)
				data := cmd.Data
				if err := sess.HandlePDU(cmd); err != nil {
					t.Fatal(err)
				}
				if cmd.Data != nil {
					t.Fatalf("CID %d: the target did not take the payload", cid)
				}
				proto.ReleaseInbound(cmd)
				return data
			}
			// A window of four, drained by its last write: all four are
			// executing and held by the backend.
			var sent [][]byte
			for cid := nvme.CID(0); cid < 4; cid++ {
				prio := proto.PrioThroughputCritical
				if cid == 3 {
					prio = proto.PrioTCDraining
				}
				sent = append(sent, write(cid, prio))
			}
			if len(be.held) != 4 {
				t.Fatalf("%d writes reached the backend, want 4", len(be.held))
			}
			var parked [][]byte
			if tc.close {
				// Two more of the next window park in the PM; teardown drops
				// them, and the four in flight complete into a dead session.
				parked = append(parked, write(4, proto.PrioThroughputCritical), write(5, proto.PrioThroughputCritical))
				tgt.CloseSession(sess)
			}
			be.release()

			switch {
			case tc.close && len(resps) != 0:
				t.Fatalf("%d responses from a torn-down session", len(resps))
			case !tc.close && (len(resps) != 1 || resps[0].CID != 3 || resps[0].Status != tc.status):
				t.Fatalf("responses %+v, want one coalesced response for CID 3 with status %v", resps, tc.status)
			}
			if got := tgt.Stats().Writes; got != 4 {
				t.Fatalf("%d writes executed, want 4", got)
			}
			if !tc.close {
				if ts := reg.Tenants(); len(ts) != 1 || ts[0].BytesRead != 0 || ts[0].BytesWritten != 4*adoptPayload {
					t.Fatalf("telemetry %+v: want 4 writes' bytes written and nothing read", ts)
				}
			}

			// Who may come back out of the pool, and how often.
			released := append(append([][]byte(nil), be.given...), parked...)
			if !tc.keep {
				released = append(released, sent...)
			}
			counts := pooledTimes(append(append([][]byte(nil), be.kept...), released...))
			for i := range be.kept {
				if counts[i] != 0 {
					t.Errorf("kept payload %d came back from the pool %d times", i, counts[i])
				}
			}
			for i, n := range counts[len(be.kept):] {
				if n > 1 || (n == 0 && !raceEnabled) {
					t.Errorf("released buffer %d came back from the pool %d times, want once", i, n)
				}
			}
		})
	}
}
