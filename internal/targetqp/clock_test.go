package targetqp

import (
	"testing"
	"time"

	"nvmeopf/internal/nvme"
	"nvmeopf/internal/proto"
	"nvmeopf/internal/telemetry"
)

// stepClock is an injected clock that counts how often it is read.
type stepClock struct {
	now   int64
	reads int
}

func (c *stepClock) read() int64 { c.reads++; return c.now }

// timedBackend takes deviceNS of clock time per command, completing it
// before Submit returns (an inline device) unless hold is set.
type timedBackend struct {
	clock    *stepClock
	deviceNS int64
	hold     bool
	held     []func()
}

func (b *timedBackend) Namespace() nvme.Namespace {
	return nvme.Namespace{ID: 1, BlockSize: 512, Capacity: 1 << 20}
}

func (b *timedBackend) Submit(cmd nvme.Command, _ []byte, _ bool, done func(nvme.Completion, []byte)) {
	complete := func() {
		b.clock.now += b.deviceNS
		done(nvme.Completion{CID: cmd.CID}, nil)
	}
	if b.hold {
		b.held = append(b.held, complete)
		return
	}
	complete()
}

// clockedSession builds a target on a stepClock and one handshaken session
// whose device-complete trace events (service latency in Aux) land in svc.
func clockedSession(t *testing.T, cfg Config, be *timedBackend) (*Target, *Session, *[]int64) {
	t.Helper()
	svc := new([]int64)
	cfg.Mode, cfg.Clock = ModeOPF, be.clock.read
	cfg.Trace = func(e telemetry.Event) {
		if e.Stage == telemetry.StageDeviceComplete {
			*svc = append(*svc, e.Aux)
		}
	}
	tgt, err := NewTarget(cfg, be)
	if err != nil {
		t.Fatal(err)
	}
	sess, err := tgt.NewSession(func(proto.PDU) {})
	if err != nil {
		t.Fatal(err)
	}
	if err := sess.HandlePDU(&proto.ICReq{PFV: ProtocolVersion, QueueDepth: 64}); err != nil {
		t.Fatal(err)
	}
	return tgt, sess, svc
}

func flushCmd(cid nvme.CID, prio proto.Priority) *proto.CapsuleCmd {
	return &proto.CapsuleCmd{Cmd: nvme.Command{Opcode: nvme.OpFlush, CID: cid, NSID: 1}, Prio: prio}
}

// TestServiceLatencySpansTheDeviceCall: a reactor stamps the clock once for
// a burst and delivers it through HandleStamped. Every command's service
// latency must still cover its own device time — the completion is stamped
// after the device returns, not with the burst's reading — and the whole
// burst must cost one clock read plus one per device completion: none for
// the arrival, none for either scavenger poll.
func TestServiceLatencySpansTheDeviceCall(t *testing.T) {
	clk := &stepClock{now: 1000}
	be := &timedBackend{clock: clk, deviceNS: 700}
	tgt, sess, svc := clockedSession(t, Config{ScavengerAging: time.Millisecond}, be)

	const burst = 8
	clk.reads = 0
	tgt.Stamp()
	for k := 0; k < burst; k++ {
		if err := sess.HandleStamped(flushCmd(nvme.CID(k), proto.PrioLatencySensitive)); err != nil {
			t.Fatal(err)
		}
	}
	if clk.reads != 1+burst {
		t.Errorf("a burst of %d executed commands read the clock %d times, want %d (once, plus once per device completion)", burst, clk.reads, 1+burst)
	}
	if len(*svc) != burst {
		t.Fatalf("%d service-latency samples, want %d", len(*svc), burst)
	}
	for k, lat := range *svc {
		if lat != 700 {
			t.Errorf("command %d: service latency %d ns, want the device's 700", k, lat)
		}
	}

	// Parked TC commands reach no device: the burst's one reading serves.
	clk.reads = 0
	tgt.Stamp()
	for k := 0; k < burst; k++ {
		if err := sess.HandleStamped(flushCmd(nvme.CID(k), proto.PrioThroughputCritical)); err != nil {
			t.Fatal(err)
		}
	}
	if clk.reads != 1 {
		t.Errorf("a burst of %d parked commands read the clock %d times, want 1", burst, clk.reads)
	}

	// Without a reactor, HandlePDU stamps for itself: one read on arrival,
	// one after the device.
	*svc = (*svc)[:0]
	clk.reads = 0
	if err := sess.HandlePDU(flushCmd(40, proto.PrioLatencySensitive)); err != nil {
		t.Fatal(err)
	}
	if clk.reads != 2 || len(*svc) != 1 || (*svc)[0] != 700 {
		t.Errorf("HandlePDU: %d clock reads, service latencies %v; want 2 reads and one 700 ns sample", clk.reads, *svc)
	}
}

// TestStampedScavengerStillAgesOut: under continuous foreground load (an LS
// request always in service, so no leftover capacity ever appears) a parked
// scavenger request is released by the aging bound, and a clock that only
// moves once per burst delays that by at most one burst.
func TestStampedScavengerStillAgesOut(t *testing.T) {
	const aging, burstNS = 5 * time.Millisecond, int64(800 * time.Microsecond)
	clk := &stepClock{now: 1}
	be := &timedBackend{clock: clk, hold: true}
	tgt, sess, _ := clockedSession(t, Config{ScavengerAging: aging}, be)

	tgt.Stamp()
	if err := sess.HandleStamped(flushCmd(0, proto.PrioLatencySensitive)); err != nil {
		t.Fatal(err)
	}
	if err := sess.HandleStamped(flushCmd(1, proto.PrioScavenger)); err != nil {
		t.Fatal(err)
	}
	parkedAt := clk.now
	if len(be.held) != 1 {
		t.Fatalf("%d commands at the device, want the LS request alone", len(be.held))
	}
	// Bursts of parked TC traffic, one stamp each; the poll after each
	// command is the only thing that can release the scavenger request.
	for cid := nvme.CID(2); len(be.held) == 1; cid++ {
		if cid == 63 {
			t.Fatal("the scavenger request never aged out")
		}
		clk.now += burstNS
		tgt.Stamp()
		if err := sess.HandleStamped(flushCmd(cid, proto.PrioThroughputCritical)); err != nil {
			t.Fatal(err)
		}
	}
	waited := clk.now - parkedAt
	if waited < int64(aging) || waited >= int64(aging)+burstNS {
		t.Errorf("scavenger request released after %v, want within [%v, %v + one %v burst)",
			time.Duration(waited), aging, aging, time.Duration(burstNS))
	}
	if st := tgt.PMStats(); st.ScavAgedDrains != 1 {
		t.Errorf("aged scavenger drains = %d, want 1", st.ScavAgedDrains)
	}
}

// TestStampedWatchdogStillFires: queue ages are anchored at a stamp and the
// watchdog compares them with a later one; the force-drain must come at the
// deadline all the same.
func TestStampedWatchdogStillFires(t *testing.T) {
	const deadline = 10 * time.Millisecond
	clk := &stepClock{now: 1}
	be := &timedBackend{clock: clk}
	tgt, sess, _ := clockedSession(t, Config{DrainWatchdog: deadline}, be)

	tgt.Stamp()
	for k := 0; k < 3; k++ {
		// The clock moves under the burst; its commands keep the stamp.
		clk.now += 100
		if err := sess.HandleStamped(flushCmd(nvme.CID(k), proto.PrioThroughputCritical)); err != nil {
			t.Fatal(err)
		}
	}
	clk.now = 1 + int64(deadline) - 1
	if n, err := tgt.CheckWatchdog(); n != 0 || err != nil {
		t.Fatalf("watchdog fired %d windows before the deadline (err %v)", n, err)
	}
	clk.now++
	if n, err := tgt.CheckWatchdog(); n != 1 || err != nil {
		t.Fatalf("watchdog fired %d windows at the deadline (err %v), want 1", n, err)
	}
	if st := tgt.PMStats(); st.WatchdogDrains != 1 || tgt.pm.QueueDepth(sess.Tenant()) != 0 {
		t.Errorf("after the deadline: %+v, %d still parked", st, tgt.pm.QueueDepth(sess.Tenant()))
	}
}
