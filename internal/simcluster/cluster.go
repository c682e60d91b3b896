package simcluster

import (
	"fmt"
	"time"

	"nvmeopf/internal/autotune"
	"nvmeopf/internal/hostqp"
	"nvmeopf/internal/nvme"
	"nvmeopf/internal/proto"
	"nvmeopf/internal/simnet"
	"nvmeopf/internal/ssdsim"
	"nvmeopf/internal/targetqp"
	"nvmeopf/internal/telemetry"
)

// Cluster is one simulated deployment: an engine plus the nodes built on
// it. Build target nodes first, then initiator nodes, then Connect
// initiators; run the engine through Run.
type Cluster struct {
	Eng       *simnet.Engine
	profile   Profile
	mode      targetqp.Mode
	shared    bool // shared-queue ablation
	seed      uint64
	atCfg     *autotune.Config
	scavAging int64
	hostTelNS int64
	telTicks  int // telemetry cadence events currently in the queue
	tel       *telemetry.Registry
	hostRec   *telemetry.Recorder
	targetRec *telemetry.Recorder
	errs      []error
	// freeTransits recycles PDU transit records (see transit). It belongs
	// to the cluster, not the package: clusters run in parallel.
	freeTransits *transit
}

// Options configures cluster-wide behaviour.
type Options struct {
	Profile Profile
	Mode    targetqp.Mode
	// SharedQueueAblation disables per-tenant queue isolation at every
	// target (ablation benchmark only).
	SharedQueueAblation bool
	// Seed drives every stochastic component (SSD jitter). Same seed,
	// same results.
	Seed uint64
	// Telemetry optionally attaches one live metrics registry to every
	// target node, recording the same target-side instruments the TCP
	// transport exposes — sim experiments assert on live signal instead
	// of only post-run histograms. Nil disables at zero cost. (Host-side
	// instruments attach per initiator via hostqp.Config.Telemetry.)
	Telemetry *telemetry.Registry
	// Autotune enables the closed-loop adaptive drain-window controller
	// at every target node (one controller per node, on the virtual clock,
	// recording its decisions in Telemetry). Nil runs the static windows
	// bit-identically to a cluster without the field.
	Autotune *autotune.Config
	// ScavengerAging bounds (in virtual nanoseconds) how long a parked
	// scavenger queue can starve behind continuous LS/TC traffic before
	// the target force-drains it anyway. The simulator needs no ticker:
	// the target re-polls on every command and completion, so foreground
	// traffic itself ages the parked window out. Zero disables the bound.
	ScavengerAging int64
	// HostTelemetryNS enables the in-band e2e feedback channel on every
	// initiator Connect creates: each emits one TelemetryUpdate every
	// HostTelemetryNS of virtual time (the simulated keep-alive cadence),
	// shipped through the same modelled NIC/link path as commands. Zero
	// (the default) disables — no update PDUs exist and the cluster is
	// bit-identical to one without the field.
	HostTelemetryNS int64
}

// New creates an empty cluster.
func New(opts Options) *Cluster {
	return &Cluster{
		Eng:       simnet.NewEngine(),
		profile:   opts.Profile,
		mode:      opts.Mode,
		shared:    opts.SharedQueueAblation,
		seed:      opts.Seed,
		atCfg:     opts.Autotune,
		scavAging: opts.ScavengerAging,
		hostTelNS: opts.HostTelemetryNS,
		tel:       opts.Telemetry,
	}
}

// Telemetry returns the cluster's target-side metrics registry (nil when
// telemetry is disabled).
func (c *Cluster) Telemetry() *telemetry.Registry { return c.tel }

// AttachFlightRecorders creates a host-side and a target-side flight
// recorder on the cluster's virtual clock and wires them into every node
// built afterwards: call it before NewTargetNode/Connect. The target
// recorder traces every target node; the host recorder attaches to each
// initiator created by Connect (unless that Config brings its own).
// cfg.Clock and cfg.Role are overridden.
func (c *Cluster) AttachFlightRecorders(cfg telemetry.RecorderConfig) (host, target *telemetry.Recorder) {
	hostCfg, targetCfg := cfg, cfg
	hostCfg.Clock, targetCfg.Clock = c.Eng.Now, c.Eng.Now
	hostCfg.Role, targetCfg.Role = "host", "target"
	c.hostRec = telemetry.NewRecorder(hostCfg)
	c.targetRec = telemetry.NewRecorder(targetCfg)
	return c.hostRec, c.targetRec
}

// HostRecorder returns the attached host-side flight recorder (nil when
// AttachFlightRecorders was not called).
func (c *Cluster) HostRecorder() *telemetry.Recorder { return c.hostRec }

// TargetRecorder returns the attached target-side flight recorder.
func (c *Cluster) TargetRecorder() *telemetry.Recorder { return c.targetRec }

func (c *Cluster) fail(err error) {
	if err != nil {
		c.errs = append(c.errs, err)
	}
}

// TargetNode is one storage server: a poller CPU, a NIC, one SSD, and one
// NVMe-oPF (or baseline) target serving every connected initiator.
type TargetNode struct {
	c      *Cluster
	Name   string
	CPU    *simnet.CPU
	NIC    *simnet.Link // shared ingress/egress pipe of this node
	SSD    *ssdsim.SSD
	Target *targetqp.Target
}

// NewTargetNode builds a target node. backed enables the SSD's in-memory
// data store (needed by data-integrity tests and the Fig. 9 ranks;
// timing-only experiments leave it off).
func (c *Cluster) NewTargetNode(name string, backed bool) (*TargetNode, error) {
	cpu := simnet.NewCPU(c.Eng, name+"/cpu", c.profile.TargetCPU)
	// The node NIC is modelled as a link with zero propagation: it only
	// adds the node's serialization bottleneck shared by all peers.
	nicCfg := c.profile.Link
	nicCfg.PropagationDelay = 0
	nic := simnet.NewLink(c.Eng, name+"/nic", nicCfg)

	ssdCfg := c.profile.SSD
	ssdCfg.Seed = c.seed*1315423911 + uint64(len(name)) + 1
	ssdCfg.Backed = backed
	ssd, err := ssdsim.New(c.Eng, ssdCfg)
	if err != nil {
		return nil, err
	}
	tn := &TargetNode{c: c, Name: name, CPU: cpu, NIC: nic, SSD: ssd}
	cfg := targetqp.Config{
		Mode:                c.mode,
		SharedQueueAblation: c.shared,
		ScavengerAging:      time.Duration(c.scavAging),
		Telemetry:           c.tel,
		Clock:               c.Eng.Now, // virtual time drives latency samples
		Autotune:            c.atCfg,
	}
	if c.targetRec != nil {
		cfg.Trace = c.targetRec.Trace
	}
	tgt, err := targetqp.NewTarget(cfg, &ssdBackend{node: tn})
	if err != nil {
		return nil, err
	}
	tn.Target = tgt
	return tn, nil
}

// ssdBackend adapts the simulated SSD to the targetqp.Backend interface,
// charging the target poller's submission cost.
type ssdBackend struct {
	node *TargetNode
}

// Namespace implements targetqp.Backend.
func (b *ssdBackend) Namespace() nvme.Namespace { return b.node.SSD.Namespace() }

// Submit implements targetqp.Backend.
func (b *ssdBackend) Submit(cmd nvme.Command, data []byte, highPrio bool, done func(nvme.Completion, []byte)) {
	node := b.node
	node.CPU.Exec(node.CPU.SubmitCost(),
		node.SSD.Deferred(ssdsim.Request{Cmd: cmd, Data: data, Done: done}, highPrio))
}

// InitiatorNode is one client machine: a poller CPU and a NIC-link to its
// target node. Several initiators (tenants) may run on one node, sharing
// both — the contention that scaling pattern 1 (Fig. 8(a–c)) measures.
type InitiatorNode struct {
	c      *Cluster
	Name   string
	CPU    *simnet.CPU
	Link   *simnet.Link // host NIC + cable to the target node
	target *TargetNode
}

// NewInitiatorNode builds a client node wired to one target node (the
// paper's experiments pair each initiator-node with a single target-node).
func (c *Cluster) NewInitiatorNode(name string, target *TargetNode) *InitiatorNode {
	cpu := simnet.NewCPU(c.Eng, name+"/cpu", c.profile.HostCPU)
	link := simnet.NewLink(c.Eng, name+"<->"+target.Name, c.profile.Link)
	return &InitiatorNode{c: c, Name: name, CPU: cpu, Link: link, target: target}
}

// Initiator is one tenant: a host queue pair connected over the node's
// link to the target node.
type Initiator struct {
	Node    *InitiatorNode
	Session *hostqp.Session
	tsess   *targetqp.Session
	// toTarget and toHost are the two directions of the connection.
	toTarget, toHost route
}

// route is one direction of a connection through the modelled fabric: the
// sender's poller stages the PDU, it serializes on two links in turn (the
// host's cable and the target node's NIC, in the order the direction
// crosses them), the receiver's poller takes delivery, the receiving
// protocol session handles it, and the sending side reclaims it.
type route struct {
	c      *Cluster
	tx, rx *simnet.CPU
	links  [2]*simnet.Link
	// sole[i]: links[i], in this direction, takes PDUs from the resource
	// before it on the route and from nothing else. The host's cable is
	// fed by the host's poller alone, the target NIC's egress by the
	// target's poller, and the cable back by that egress; the NIC's
	// ingress merges every initiator's cable.
	sole    [2]bool
	dir     int
	deliver func(proto.PDU) error
	// reclaim hands a handled PDU back to the side that made it: the host
	// session (capsules) or the target (data and responses). Everything
	// runs on the engine's goroutine, so their unsynchronized free lists
	// take the place of proto's process-wide pools.
	reclaim func(proto.PDU)
}

// handOff reports whether the resource before links[i] hands a PDU on to
// links[i] when the PDU is scheduled on it, rather than from an event when
// the PDU clears it. links[i] must take PDUs from that resource alone, so
// they reach it in the order the resource finishes them. Neither link
// involved may carry a fault profile: the one before could drop the PDU,
// and links[i]'s must be consulted at the real hand-off time, so that its
// seeded draws come in the order the per-hop path would make them.
func (r *route) handOff(i int) bool {
	return r.sole[i] && r.links[i].Faults() == nil && (i == 0 || r.links[0].Faults() == nil)
}

// transit is one PDU on its way along a route. The same record is handed
// from hop to hop: every Exec/SendAt that ends in an event gets step, a
// method value bound once when the record is made, so a hop costs at most
// one event on the hop's resource timeline and nothing else. Records
// recycle through the cluster's free list; one returns there just before
// its PDU is delivered, so the sends that delivery triggers reuse it
// straight away. (A PDU an attached fault profile drops never reaches
// delivery; its record is left to the GC.)
type transit struct {
	route      *route
	pdu        proto.PDU
	size       int  // wire bytes, for the links
	payload    int  // data bytes, for the per-byte CPU cost
	standalone bool // an isolated small send (see standalonePDU)
	hop        int
	step       func()
	next       *transit // free list
}

// send starts p along the route: the sender's poller stages it now.
func (r *route) send(p proto.PDU) {
	c := r.c
	t := c.freeTransits
	if t == nil {
		t = &transit{}
		t.step = t.advance
	} else {
		c.freeTransits = t.next
	}
	t.route, t.pdu, t.hop = r, p, 0
	t.size, t.payload, t.standalone = p.WireSize(), payloadBytes(p), standalonePDU(p)
	t.advance()
}

// advance moves the PDU on from the hop it has just cleared. While the
// next link takes it from the current resource alone (handOff), the PDU is
// handed over at once, at the instant it will clear the current one; the
// first resource shared with other senders gets step, and its event calls
// advance again. Either way each resource sees the PDU at the same instant,
// so only shared resources cost an event: the NIC's ingress and the
// receiving poller.
func (t *transit) advance() {
	r := t.route
	at := r.c.Eng.Now()
	for {
		hop := t.hop
		t.hop++
		switch hop {
		case 0:
			cost := r.tx.TxCost(t.payload, t.standalone)
			if r.handOff(0) {
				at = r.tx.Exec(cost, nil)
				continue
			}
			r.tx.Exec(cost, t.step)
		case 1, 2:
			l := r.links[hop-1]
			if hop == 1 && r.handOff(1) {
				at = l.SendAt(r.dir, t.size, at, nil)
				continue
			}
			l.SendAt(r.dir, t.size, at, t.step)
		case 3:
			r.rx.Exec(r.rx.RxCost(t.payload, t.standalone), t.step)
		default:
			p := t.pdu
			t.route, t.pdu = nil, nil
			t.next, r.c.freeTransits = r.c.freeTransits, t
			r.c.fail(r.deliver(p))
			// The receiver is done with the struct, as the live reader's
			// proto.ReleaseInbound assumes; the payload is not pooled here.
			r.reclaim(p)
		}
		return
	}
}

// payloadBytes returns the data bytes a PDU carries, which drive per-byte
// CPU costs (headers are covered by the fixed per-PDU cost).
func payloadBytes(p proto.PDU) int {
	switch pdu := p.(type) {
	case *proto.CapsuleCmd:
		return len(pdu.Data)
	case *proto.C2HData:
		return len(pdu.Data)
	default:
		return 0
	}
}

// standalonePDU reports whether a PDU is emitted as an isolated small send
// (a completion notification triggered by a device-completion event) as
// opposed to the batched submission/data path. Only the target emits them,
// so the surcharge lands on the target's transmit and the host's receive.
func standalonePDU(p proto.PDU) bool {
	_, isResp := p.(*proto.CapsuleResp)
	return isResp
}

// Connect creates one initiator of the given host configuration on this
// node and starts its handshake. Run the engine (even one event batch)
// before submitting I/O; Session.OnConnect sequences that naturally.
func (n *InitiatorNode) Connect(cfg hostqp.Config) (*Initiator, error) {
	c := n.c
	if cfg.Recorder == nil {
		cfg.Recorder = c.hostRec // nil when no recorders are attached
	}
	tn := n.target
	ini := &Initiator{Node: n}
	// Host -> target: host poller tx, host link, target NIC, target rx.
	ini.toTarget = route{c: c, tx: n.CPU, rx: tn.CPU,
		links: [2]*simnet.Link{n.Link, tn.NIC}, sole: [2]bool{true, false}, dir: simnet.DirAtoB}
	// Target -> host: target poller tx, target NIC, host link, host rx.
	ini.toHost = route{c: c, tx: tn.CPU, rx: n.CPU,
		links: [2]*simnet.Link{tn.NIC, n.Link}, sole: [2]bool{true, true}, dir: simnet.DirBtoA}

	tsess, err := tn.Target.NewSession(ini.toHost.send)
	if err != nil {
		return nil, err
	}
	ini.tsess = tsess
	ini.toTarget.deliver = tsess.HandlePDU
	ini.toHost.reclaim = tn.Target.Reclaim

	hostSend := ini.toTarget.send
	sess, err := hostqp.New(cfg, hostSend, c.Eng.Now)
	if err != nil {
		return nil, err
	}
	ini.Session = sess
	ini.toHost.deliver = sess.HandlePDU
	ini.toTarget.reclaim = sess.Reclaim
	sess.Start()
	if c.hostTelNS > 0 {
		sess.EnableE2E()
		var tick func()
		tick = func() {
			// Sample liveness before emitting, and count only non-cadence
			// events as work: the update we are about to send queues its
			// own delivery events, and other tenants' heartbeats sit in the
			// queue alongside real I/O — if either counted, the cadences
			// would keep each other (and Run()) alive forever on an idle
			// cluster. With the check first and sibling ticks excluded, an
			// otherwise-idle cluster gets one final update per tenant and
			// every cadence stops, so Run() still terminates.
			c.telTicks--
			alive := c.Eng.Pending() > c.telTicks
			if u := sess.BuildTelemetryUpdate(); u != nil {
				hostSend(u)
			}
			if alive {
				c.telTicks++
				c.Eng.Schedule(time.Duration(c.hostTelNS), tick)
			}
		}
		c.telTicks++
		c.Eng.Schedule(time.Duration(c.hostTelNS), tick)
	}
	return ini, nil
}

// Run processes events until the queue empties.
func (c *Cluster) Run() int64 { return c.Eng.Run() }

// CheckHealthy returns an error if any protocol error was recorded.
func (c *Cluster) CheckHealthy() error {
	if len(c.errs) > 0 {
		return fmt.Errorf("simcluster: %d protocol errors, first: %w", len(c.errs), c.errs[0])
	}
	return nil
}
