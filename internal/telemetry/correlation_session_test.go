package telemetry_test

import (
	"testing"

	"nvmeopf/internal/hostqp"
	"nvmeopf/internal/nvme"
	"nvmeopf/internal/proto"
	"nvmeopf/internal/targetqp"
	"nvmeopf/internal/telemetry"
)

// syncBackend completes every command on the caller's stack.
type syncBackend struct{}

func (syncBackend) Namespace() nvme.Namespace {
	return nvme.Namespace{ID: 1, BlockSize: 512, Capacity: 1 << 10}
}

func (syncBackend) Submit(cmd nvme.Command, _ []byte, _ bool, done func(nvme.Completion, []byte)) {
	done(nvme.Completion{CID: cmd.CID, Status: nvme.StatusSuccess}, nil)
}

// TestCorrelateReconstructsEveryWindowMember drives three TC drain windows
// through a real host session and target, both recording on one clock
// that advances at every reading — as a wall clock does between two events
// of one request, and a simulator's does not. Every request must
// reconstruct, the draining ones included: the request that carries the
// flag is the one whose latency defines its window, and the host used to
// emit its drain-mark ahead of its submit, which Monotonic rejects as soon
// as the two readings differ.
func TestCorrelateReconstructsEveryWindowMember(t *testing.T) {
	const window, windows = 4, 3
	var now int64
	clock := func() int64 { now += 7; return now }
	hostRec := telemetry.NewRecorder(telemetry.RecorderConfig{Clock: clock, Role: "host"})
	targetRec := telemetry.NewRecorder(telemetry.RecorderConfig{Clock: clock, Role: "target"})

	target, err := targetqp.NewTarget(targetqp.Config{Mode: targetqp.ModeOPF, Clock: clock, Trace: targetRec.Trace}, syncBackend{})
	if err != nil {
		t.Fatal(err)
	}
	var host *hostqp.Session
	tsess, err := target.NewSession(func(p proto.PDU) {
		if err := host.HandlePDU(p); err != nil {
			t.Errorf("host: %v", err)
		}
	})
	if err != nil {
		t.Fatal(err)
	}
	host, err = hostqp.New(hostqp.Config{
		Class: proto.PrioThroughputCritical, Window: window, QueueDepth: 2 * window, NSID: 1, Recorder: hostRec,
	}, func(p proto.PDU) {
		if err := tsess.HandlePDU(p); err != nil {
			t.Errorf("target: %v", err)
		}
	}, clock)
	if err != nil {
		t.Fatal(err)
	}
	host.Start()

	completed := 0
	for i := 0; i < window*windows; i++ {
		err := host.Submit(hostqp.IO{Op: nvme.OpWrite, LBA: uint64(i), Blocks: 1, Data: make([]byte, 512),
			Done: func(r hostqp.Result) {
				if r.Status.OK() {
					completed++
				}
			}})
		if err != nil {
			t.Fatal(err)
		}
	}
	if completed != window*windows {
		t.Fatalf("%d of %d writes completed", completed, window*windows)
	}

	dump := func(r *telemetry.Recorder) *telemetry.Dump {
		return &telemetry.Dump{Meta: telemetry.DumpMeta{Format: telemetry.DumpFormat, Role: r.Role()}, Events: r.Events()}
	}
	c := telemetry.Correlate(dump(hostRec), dump(targetRec))
	if c.Submitted != window*windows || c.CompleteCount() != c.Submitted {
		t.Fatalf("reconstructed %d of %d submitted requests, want all %d", c.CompleteCount(), c.Submitted, window*windows)
	}
	marks := 0
	for i := range c.Timelines {
		tl := &c.Timelines[i]
		if !tl.Has(telemetry.StageDrainMark) {
			continue
		}
		marks++
		submit, _ := tl.TS(telemetry.StageSubmit)
		if mark, _ := tl.TS(telemetry.StageDrainMark); mark <= submit {
			t.Errorf("CID %d epoch %d: drain-mark at %d is not after its submit at %d", tl.CID, tl.Epoch, mark, submit)
		}
		if !tl.Has(telemetry.StageReplay) {
			t.Errorf("CID %d epoch %d: draining request's timeline lacks its replay", tl.CID, tl.Epoch)
		}
	}
	if marks != windows {
		t.Errorf("%d timelines carry a drain-mark, want one per window (%d)", marks, windows)
	}
}
