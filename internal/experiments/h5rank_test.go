package experiments

import (
	"fmt"
	"reflect"
	"testing"
	"time"

	"nvmeopf/internal/hostqp"
	"nvmeopf/internal/nvme"
	"nvmeopf/internal/proto"
	"nvmeopf/internal/simcluster"
	"nvmeopf/internal/targetqp"
	"nvmeopf/internal/telemetry"
)

// h5Cmd is one command a rank submitted, or a Flush ("F").
type h5Cmd struct {
	Op     string
	LBA    uint64
	Blocks uint32
	Prio   proto.Priority
}

// recordingSession logs what a rank asks of its session and when each
// command completes, and tracks how many commands are in flight.
type recordingSession struct {
	*hostqp.Session
	log                   []h5Cmd
	done                  []int64 // CompletedAt, in completion order
	inflight, maxInflight int
}

func (s *recordingSession) Submit(io hostqp.IO) error {
	op := "W"
	if io.Op == nvme.OpRead {
		op = "R"
	}
	s.log = append(s.log, h5Cmd{op, io.LBA, io.Blocks, io.Prio})
	s.inflight++
	s.maxInflight = max(s.maxInflight, s.inflight)
	inner := io.Done
	io.Done = func(r hostqp.Result) {
		s.inflight--
		s.done = append(s.done, r.CompletedAt)
		inner(r)
	}
	return s.Session.Submit(io)
}

func (s *recordingSession) Flush() {
	s.log = append(s.log, h5Cmd{Op: "F"})
	s.Session.Flush()
}

// newTestRank connects one TC initiator (window 4, QD 2) to a backed oPF
// target of a CL-profile cluster with flight recorders attached, and
// returns a rank of two 3-block timesteps on the partition at base 1000,
// with the given read gap.
func newTestRank(t *testing.T, gap time.Duration) (*simcluster.Cluster, *h5Rank, *recordingSession) {
	t.Helper()
	cl := simcluster.New(simcluster.Options{Profile: simcluster.ProfileCL(), Mode: targetqp.ModeOPF, Seed: 3})
	cl.AttachFlightRecorders(telemetry.RecorderConfig{})
	tn, err := cl.NewTargetNode("tgt", true)
	if err != nil {
		t.Fatal(err)
	}
	ini, err := cl.NewInitiatorNode("ini", tn).Connect(hostqp.Config{
		Class: proto.PrioThroughputCritical, Window: 4, QueueDepth: 2, NSID: 1})
	if err != nil {
		t.Fatal(err)
	}
	rec := &recordingSession{Session: ini.Session}
	r := &h5Rank{sess: rec, eng: cl.Eng, base: 1000, blocks: 3, steps: 2, qd: 2, gap: gap}
	return cl, r, rec
}

// runBoth runs the rank's write phase, then its read phase, and fails the
// test unless both finish cleanly.
func runBoth(t *testing.T, cl *simcluster.Cluster, r *h5Rank, rec *recordingSession) {
	t.Helper()
	var errs []error
	finished := false
	rec.OnConnect(func() {
		r.writePhase(func(err error) {
			if err != nil {
				errs = append(errs, err)
				return
			}
			r.readPhase(func(err error) {
				if err != nil {
					errs = append(errs, err)
				}
				finished = true
			})
		})
	})
	cl.Run()
	if len(errs) > 0 || !finished {
		t.Fatalf("rank finished=%v errors=%v", finished, errs)
	}
}

func TestH5RankSequence(t *testing.T) {
	cl, r, rec := newTestRank(t, 0)
	runBoth(t, cl, r, rec)

	const ls = proto.PrioLatencySensitive
	flush := []h5Cmd{{"W", 1001, 64, ls}, {"W", 1000, 1, ls}}
	var want []h5Cmd
	for i := 0; i < h5CreateFlushes; i++ {
		want = append(want, flush...)
	}
	step := func(op string) []h5Cmd {
		return []h5Cmd{{op, 1065, 1, 0}, {op, 1066, 1, 0}, {Op: "F"}, {op, 1067, 1, 0}}
	}
	for i := 0; i < 2; i++ {
		want = append(want, step("W")...)
		want = append(want, flush...)
	}
	want = append(want, h5Cmd{"R", 1000, 1, ls}, h5Cmd{"R", 1001, 64, ls})
	for i := 0; i < 2; i++ {
		want = append(want, step("R")...)
	}
	if !reflect.DeepEqual(rec.log, want) {
		t.Fatalf("submitted\n%v\nwant\n%v", rec.log, want)
	}
	for _, p := range []*h5Phase{&r.write, &r.read} {
		if p.Bytes != 6*h5BlockBytes || p.Errors != 0 || p.OpLat.Count() != 6 || p.EndNs <= p.StartNs {
			t.Fatalf("phase %+v", p)
		}
	}
}

// A timestep whose block count is no multiple of the drain window still
// completes in both modes, and oPF's write bandwidth is at least SPDK's.
func TestH5RankPartialWindow(t *testing.T) {
	for _, blocks := range []uint64{3, 17, 129} {
		t.Run(fmt.Sprint(blocks), func(t *testing.T) {
			var bps [2]float64
			for i, mode := range []targetqp.Mode{targetqp.ModeBaseline, targetqp.ModeOPF} {
				r, err := runH5Case(QuickConfig(), mode, 1, 3, blocks*h5BlockBytes/4)
				if err != nil {
					t.Fatal(err)
				}
				bps[i] = r.WriteBps
			}
			if bps[1] < bps[0] {
				t.Fatalf("write: oPF %.1f < SPDK %.1f MB/s", bps[1]/1e6, bps[0]/1e6)
			}
		})
	}
}

// A timestep of 5 blocks ends on a window of one command. Every block
// still moves in both phases, and the timestep's Flush leaves no window
// open at the session.
func TestH5RankPartialTimestep(t *testing.T) {
	cl, r, rec := newTestRank(t, 0)
	r.blocks = 5
	runBoth(t, cl, r, rec)
	for _, p := range []*h5Phase{&r.write, &r.read} {
		if p.Bytes != 10*h5BlockBytes || p.OpLat.Count() != 10 {
			t.Fatalf("phase moved %d bytes in %d accesses, want 10 blocks", p.Bytes, p.OpLat.Count())
		}
	}
	if n := rec.PartialWindow(); n != 0 {
		t.Fatalf("%d TC commands left in an open window", n)
	}
}

// However many blocks a timestep holds, the rank keeps exactly qd of them
// in flight while it can, and every command completes.
func TestH5RankDepthBound(t *testing.T) {
	cl, r, rec := newTestRank(t, 0)
	r.blocks = 6
	runBoth(t, cl, r, rec)
	if rec.maxInflight != r.qd || rec.inflight != 0 {
		t.Fatalf("max in flight %d, left %d; want max %d, left 0", rec.maxInflight, rec.inflight, r.qd)
	}
	if submitted := len(rec.log) - 2*r.steps; len(rec.done) != submitted { // less one Flush per timestep and phase
		t.Fatalf("%d of %d commands completed", len(rec.done), submitted)
	}
}

// Metadata reaches the target latency-sensitive and data in the session's
// throughput-critical class: two LS commands per flush and for the open,
// one TC command per data block.
func TestH5RankMetaArrivesLatencySensitive(t *testing.T) {
	cl, r, rec := newTestRank(t, 0)
	runBoth(t, cl, r, rec)
	var ls, tc int
	for _, e := range cl.TargetRecorder().Events() {
		prio := proto.Priority(e.Prio)
		switch {
		case telemetry.Stage(e.Stage) != telemetry.StageArrive:
		case prio.LatencySensitive():
			ls++
		case prio.ThroughputCritical():
			tc++
		}
	}
	wantLS, wantTC := 2*(h5CreateFlushes+r.steps)+2, 2*r.steps*r.blocks
	if ls != wantLS || tc != wantTC {
		t.Fatalf("arrived %d LS and %d TC commands, want %d and %d", ls, tc, wantLS, wantTC)
	}
}

func TestH5RankLoadGapLowersReadBandwidth(t *testing.T) {
	readNs := func(gap time.Duration) int64 {
		cl, r, rec := newTestRank(t, gap)
		runBoth(t, cl, r, rec)
		return r.read.EndNs - r.read.StartNs
	}
	without, with := readNs(0), readNs(h5LoadGap)
	if with < without+2*int64(h5LoadGap) {
		t.Fatalf("read phase took %d ns with the load gap, %d ns without", with, without)
	}
}

// A read phase over a partition that was never written stops at its first
// block: the superblock reads back zeros. The check fails the rank in the
// instant the read completes.
func TestH5RankDetectsUnwrittenBlocks(t *testing.T) {
	cl, r, rec := newTestRank(t, 0)
	var got error
	rec.OnConnect(func() { r.readPhase(func(err error) { got = err }) })
	cl.Run()
	if got == nil || r.read.Errors != 1 {
		t.Fatalf("err=%v errors=%d, want a mismatch", got, r.read.Errors)
	}
	if len(rec.log) != 1 || len(rec.done) != 1 || r.read.EndNs != rec.done[0] {
		t.Fatalf("submitted %v, completed at %v, failed at %d", rec.log, rec.done, r.read.EndNs)
	}
}
