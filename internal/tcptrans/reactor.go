package tcptrans

import (
	"net"
	"sync/atomic"
	"time"

	"nvmeopf/internal/bdev"
	"nvmeopf/internal/nvme"
	"nvmeopf/internal/proto"
	"nvmeopf/internal/targetqp"
)

// maxQueuedPerConn bounds how many inbound PDUs one connection may have
// posted to its shard and not yet handled; the connection's reader waits
// for the reactor past it. Together with the PM's pending caps it is what
// bounds the inbound memory (decoded capsules and their pooled write
// payloads) one peer can pin.
const maxQueuedPerConn = 64

// maxBurst caps how many already-buffered PDUs a reader gathers into one
// post to its reactor.
const maxBurst = 32

// maxUnsentBytes is the outbound backlog — wire bytes the reactor has
// produced for a connection that its writer has not flushed — past which
// the connection's reader stops taking commands off the socket until the
// writer catches up. The reactor never waits for a writer, so this is what
// keeps a peer that pipelines reads faster than it consumes them from
// pinning a response (and a pooled read buffer) per command without limit.
// It is flow control, not a verdict: a deep honest queue crosses it freely
// and only slows its own intake. What was admitted before the mark was
// crossed still completes, so the backlog may overshoot by that much.
const maxUnsentBytes = 64 << 20

// stallAfter is how long a connection may hold unsent output while its
// writer flushes nothing before the peer is taken to have stopped reading
// and the connection is reset: a backlog of any size is fine as long as it
// moves. The check runs every stallAfter, so a reset lands between one and
// two periods into the stall. A variable so tests can shorten it.
var stallAfter = 5 * time.Second

// event is one entry of a shard's run queue.
type event struct {
	// conn with pdu set is an inbound PDU; conn alone is the connection's
	// teardown, posted behind every PDU it pipelined on the same lane.
	conn *srvConn
	pdu  proto.PDU
	// fn is control work that must run on the reactor: ticker checks,
	// stats snapshots, completions coming back from the executor pool.
	fn func()
}

// job is one device command waiting on a shard's ready list: the target's
// own request handle, not a copy of what it holds.
type job struct {
	be  *execBackend
	req *targetqp.Request
}

// jobList is a FIFO of jobs; its backing array is reused once drained.
type jobList struct {
	jobs []job
	head int
}

func (l *jobList) push(j job) { l.jobs = append(l.jobs, j) }

func (l *jobList) len() int { return len(l.jobs) - l.head }

func (l *jobList) pop() (job, bool) {
	if l.head == len(l.jobs) {
		return job{}, false
	}
	j := l.jobs[l.head]
	l.jobs[l.head] = job{}
	if l.head++; l.head == len(l.jobs) {
		l.jobs, l.head = l.jobs[:0], 0
	}
	return j, true
}

// shard is one run-to-completion reactor: a goroutine that solely owns
// one targetqp.Target and the sessions assigned to it, takes their inbound
// PDUs off its run queue, executes commands for non-blocking devices
// itself, and leaves the responses on each connection's outbound queue.
type shard struct {
	srv    *Server
	target *targetqp.Target
	q      burstQueue[event]
	// Commands for inline devices, in submission order: readyLS holds the
	// ones the target marked high priority (the LS bypass), ready the rest.
	readyLS, ready jobList
	// dirty lists the connections holding staged, unpublished output.
	dirty []*srvConn
	// handled counts the PDUs of the connection handledOf handled since its
	// queued count was last brought up to date (see credit).
	handledOf *srvConn
	handled   int32
}

// post schedules fn on this shard's reactor; false if the server is
// closed.
func (sh *shard) post(fn func()) bool { return sh.q.put(laneNormal, event{fn: fn}) }

// run is the reactor loop. Latency-sensitive work always goes first — the
// LS lane, then the LS ready list — and what it produced is published at
// once. Normal work then advances one unit per turn (one device command,
// else one event), so a drained TC window or a scavenger backlog gives way
// to an LS arrival between two requests, not after the batch. Everything
// else a burst of normal events produced is published once, when the burst
// and the commands it released are done.
//
// The reactor owns time: it stamps the target's clock once per burst it
// takes off the run queue, and the target stamps it again whenever a device
// command completes, so handling a PDU reads no clock of its own.
func (sh *shard) run() {
	var ls, normal []event
	next := 0 // normal[:next] is handled already
	for {
		lsWork := false
		if sh.q.urgent.Load() {
			ls = sh.q.take(laneLS, ls)
			sh.target.Stamp()
			for i := range ls {
				sh.handle(&ls[i])
			}
			sh.credit()
			clear(ls)
			lsWork = true
		}
		for j, ok := sh.readyLS.pop(); ok; j, ok = sh.readyLS.pop() {
			j.be.run(j)
			lsWork = true
		}
		if lsWork {
			sh.publish()
		}

		if j, ok := sh.ready.pop(); ok {
			j.be.run(j)
			continue
		}
		if next < len(normal) {
			sh.handle(&normal[next])
			next++
			continue
		}
		sh.credit()
		sh.publish()
		clear(normal)
		normal, next = sh.q.take(laneNormal, normal), 0
		if len(normal) == 0 {
			if !sh.q.wait() {
				return
			}
			continue
		}
		sh.target.Stamp()
	}
}

// runLent is a latency-sensitive connection's burst run to completion on
// its reader's goroutine, which borrowed the shard: the reactor was parked
// with nothing queued, so waking it for the burst would only add a hand-off.
// The reader does what the reactor's loop would — stamp, handle, credit,
// run the LS ready list, publish the output of every other connection —
// then gives the shard back, waking the reactor if work arrived meanwhile
// or the burst released normal commands. Only then does c's own output go
// out, inline through its writer when that is idle too: a socket write
// never holds a shard its neighbours need.
func (sh *shard) runLent(c *srvConn, burst []event) {
	sh.target.Stamp()
	for i := range burst {
		sh.handle(&burst[i])
	}
	sh.credit()
	for j, ok := sh.readyLS.pop(); ok; j, ok = sh.readyLS.pop() {
		j.be.run(j)
	}
	// c's staged output becomes the reader's, so the reactor may stage
	// more for c (a late completion) the moment the shard is back.
	own, bytes := c.staged, c.stagedBytes
	c.staged, c.stagedBytes = c.own, 0
	sh.publish() // c, if dirty, has nothing staged now
	sh.q.giveBack(sh.ready.len() > 0)
	c.own = c.deliver(own, bytes)
}

// handle runs one run-queue event.
func (sh *shard) handle(ev *event) {
	c := ev.conn
	switch {
	case ev.fn != nil:
		ev.fn()
	case ev.pdu == nil:
		// The connection is dead: tear its session down so its queued
		// requests are dropped, its tenant ID eventually recycles, and
		// in-flight completions stop trying to send. Late completions for
		// it still land here afterwards, where the tombstoned session
		// absorbs them.
		sh.target.CloseSession(c.sess)
	default:
		if c.sess == nil {
			// First PDU: the session is created here, on the reactor that
			// owns the target, not by a round trip from the accept path.
			sess, err := sh.target.NewSession(c.send)
			if err != nil {
				proto.ReleaseInbound(ev.pdu)
				c.nc.Close() // tenant-ID space exhausted: refuse the connection
				break
			}
			c.sess = sess
		}
		err := c.sess.HandleStamped(ev.pdu)
		proto.ReleaseInbound(ev.pdu)
		if err != nil {
			// A protocol violation, not a normal disconnect (those surface
			// as read errors in the read loop). The nil sentinel makes the
			// writer flush anything queued ahead of it — a TermReq
			// explaining the rejection — before closing the socket.
			sh.srv.cfg.Telemetry.IncTransportError()
			c.send(nil)
		}
	}
	if ev.pdu != nil {
		if sh.handledOf != c {
			sh.credit()
			sh.handledOf = c
		}
		// Half the bound at a time, so a connection that fills its quota
		// has its reader going again while the other half is handled.
		if sh.handled++; sh.handled == maxQueuedPerConn/2 {
			sh.credit()
		}
	}
}

// credit takes the PDUs handled for one connection off its queued count —
// one atomic for a run of them, where one per PDU bounced the counter's
// cache line between reader and reactor — and wakes the reader if that
// brought the count back under the bound.
func (sh *shard) credit() {
	if c, n := sh.handledOf, sh.handled; n > 0 {
		if left := c.queued.Add(-n); left < maxQueuedPerConn && left+n >= maxQueuedPerConn {
			c.wake()
		}
	}
	sh.handledOf, sh.handled = nil, 0
}

// publish moves every connection's staged output to its writer.
func (sh *shard) publish() {
	for i, c := range sh.dirty {
		c.publish()
		c.dirty = false
		sh.dirty[i] = nil
	}
	sh.dirty = sh.dirty[:0]
}

// srvConn is one initiator connection as its shard sees it.
type srvConn struct {
	sh *shard
	nc net.Conn
	// out is the writer's queue; the reactor is its only producer.
	// produced counts the wire bytes published to it and flushed the ones
	// the writer has put on the socket since; the difference is the unsent
	// backlog (maxUnsentBytes), and a flushed that stands still under a
	// backlog is a stalled peer (stallAfter).
	out               burstQueue[proto.PDU]
	produced, flushed atomic.Int64
	// queued counts PDUs posted to the shard and not yet handled. credit
	// wakes the reader, which waits while queued is at maxQueuedPerConn or
	// the backlog at maxUnsentBytes, whenever either may have fallen.
	queued atomic.Int32
	credit chan struct{}

	// Owned by the stall watchdog: what it saw on its previous sweep.
	sweptFlushed int64
	sweptBacklog bool

	// direct writes an LS connection's output without waking its writer
	// (nil when the socket cannot be written that way); own is the reader's
	// spare output slice for runLent.
	direct *direct
	own    []proto.PDU

	// Owned by the reactor.
	sess        *targetqp.Session
	staged      []proto.PDU // output of the current burst, not yet in out
	stagedBytes int
	dirty       bool
}

// send is the session's outbound hook. It runs on the reactor — possibly
// long after the connection is gone, for late device completions — and
// never blocks: the PDU is staged, and reaches the writer with the rest of
// the burst in one hand-off (earlier once a write batch's worth is
// staged, so large reads overlap their own transmission).
func (c *srvConn) send(p proto.PDU) {
	c.staged = append(c.staged, p)
	if p != nil {
		c.stagedBytes += p.WireSize()
	}
	if !c.dirty {
		c.dirty = true
		c.sh.dirty = append(c.sh.dirty, c)
	}
	if c.stagedBytes >= maxWriteBatch {
		c.publish()
	}
}

// publish hands the staged PDUs to the writer: one lock, at most one wake.
func (c *srvConn) publish() {
	c.staged, c.stagedBytes = c.hand(c.staged, c.stagedBytes), 0
}

// hand gives out — bytes of wire PDUs — to the writer, and returns out
// emptied for reuse. On a closed connection they are released instead.
func (c *srvConn) hand(out []proto.PDU, bytes int) []proto.PDU {
	if len(out) == 0 {
		return out
	}
	if c.out.put(laneNormal, out...) {
		c.produced.Add(int64(bytes))
	} else {
		for _, p := range out {
			if p != nil {
				releaseServerPDU(p)
			}
		}
	}
	clear(out)
	return out[:0]
}

// deliver is hand for an LS reader's own output: written inline when the
// writer is parked with nothing queued — so nothing of the connection is
// ahead of it — and it fits one non-blocking write, posted otherwise.
func (c *srvConn) deliver(out []proto.PDU, bytes int) []proto.PDU {
	if len(out) == 0 || c.direct == nil || !c.direct.fits(out) || !c.out.borrow() {
		return c.hand(out, bytes)
	}
	c.produced.Add(int64(bytes))
	c.out.giveBack(c.direct.send(out))
	clear(out)
	return out[:0]
}

// backlog is the connection's unsent output in wire bytes.
func (c *srvConn) backlog() int64 { return c.produced.Load() - c.flushed.Load() }

// wake gives the connection's paused reader a reason to look again.
func (c *srvConn) wake() {
	select {
	case c.credit <- struct{}{}:
	default:
	}
}

// onFlush is the writer's progress hook.
func (c *srvConn) onFlush(bytes int) {
	c.flushed.Add(int64(bytes))
	c.wake()
}

// execBackend executes one shard's device commands and delivers their
// completions on the shard's reactor. The device serves NSID 1.
type execBackend struct {
	sh  *shard
	dev bdev.Device
	// adopt is dev, when it can keep a write's payload buffer instead of
	// copying it; nil otherwise.
	adopt bdev.Adopter
	// inline: the device never blocks (it says so itself, and no service
	// latency is injected), so the reactor runs its commands in place from
	// the ready lists — no executor hand-off in either direction. Blocking
	// devices go to the server's executor pool.
	inline bool
}

func newExecBackend(sh *shard, dev bdev.Device) *execBackend {
	cfg := &sh.srv.cfg
	adopt, _ := dev.(bdev.Adopter)
	return &execBackend{sh: sh, dev: dev, adopt: adopt,
		inline: bdev.IsNonBlocking(dev) && cfg.ReadLatency == 0 && cfg.WriteLatency == 0}
}

// Namespace implements targetqp.Backend.
func (b *execBackend) Namespace() nvme.Namespace {
	return nvme.Namespace{ID: 1, BlockSize: b.dev.BlockSize(), Capacity: b.dev.NumBlocks()}
}

// SubmitRequest implements targetqp.RequestBackend, the entry point the
// target uses; it runs on the reactor. An inline device's command is only
// queued here — the reactor's loop runs it, so a completion that releases
// more commands (a drain, a scavenger chunk) extends a list instead of
// growing the stack — and highPrio selects the list the reactor empties
// first. A blocking device's goes to the executor pool through Submit.
func (b *execBackend) SubmitRequest(r *targetqp.Request, highPrio bool) {
	if !b.inline {
		b.Submit(*r.Command(), r.Data(), highPrio, r.Complete)
		return
	}
	l := &b.sh.ready
	if highPrio {
		l = &b.sh.readyLS
	}
	l.push(job{be: b, req: r})
}

// Submit implements targetqp.Backend on the executor pool: the command
// runs on a pool goroutine and its completion comes back through the run
// queue. highPrio gives it a goroutine of its own, so a deep backlog in the
// job queue cannot delay it — the real-transport analogue of the
// simulator's device-queue bypass.
func (b *execBackend) Submit(cmd nvme.Command, data []byte, highPrio bool, done func(nvme.Completion, []byte)) {
	lane := laneNormal
	if highPrio {
		lane = laneLS
	}
	run := func() {
		cpl, out := b.execute(&cmd, data)
		if !b.sh.q.put(lane, event{fn: func() { done(cpl, out) }}) {
			proto.PutBuf(out) // server closed under the command
		}
	}
	if highPrio {
		go run()
		return
	}
	select {
	case b.sh.srv.jobs <- run:
	default:
		// Job queue saturated: spill to a goroutine rather than dropping
		// or blocking the reactor.
		go run()
	}
}

// run executes one ready-list job and completes it, on the reactor.
func (b *execBackend) run(j job) { j.req.Complete(b.execute(j.req.Command(), j.req.Data())) }

// execute performs the device operation. Read buffers come from the
// proto buffer pool; the completion path (or the drop path, for dead
// sessions) returns them. A write goes to an Adopter device as an
// adoption: the payload is the request's pooled receive buffer, so when
// the device keeps it (a whole-chunk write) nothing is copied, and what
// the device handed back is returned as the completion's data for the
// target to release in the payload's place (targetqp.Request.Complete).
func (b *execBackend) execute(cmd *nvme.Command, data []byte) (nvme.Completion, []byte) {
	dev := b.dev
	ns := b.Namespace()
	cfg := &b.sh.srv.cfg
	cpl := nvme.Completion{CID: cmd.CID, Status: nvme.StatusSuccess}
	if cmd.Opcode != nvme.OpFlush {
		if st := ns.CheckRange(cmd.SLBA, cmd.Blocks()); !st.OK() {
			cpl.Status = st
			return cpl, nil
		}
	}
	switch cmd.Opcode {
	case nvme.OpRead:
		if cfg.ReadLatency > 0 {
			time.Sleep(cfg.ReadLatency)
		}
		out := proto.GetBuf(ns.Bytes(cmd.Blocks()))
		if err := dev.ReadBlocks(out, cmd.SLBA); err != nil {
			proto.PutBuf(out)
			cpl.Status = nvme.StatusInternalError
			return cpl, nil
		}
		return cpl, out
	case nvme.OpWrite:
		if cfg.WriteLatency > 0 {
			time.Sleep(cfg.WriteLatency)
		}
		if len(data) != ns.Bytes(cmd.Blocks()) {
			cpl.Status = nvme.StatusDataXferError
			return cpl, nil
		}
		if b.adopt == nil {
			if err := dev.WriteBlocks(data, cmd.SLBA); err != nil {
				cpl.Status = nvme.StatusInternalError
			}
			return cpl, nil
		}
		owned, err := b.adopt.AdoptBlocks(data, cmd.SLBA)
		if err != nil {
			cpl.Status = nvme.StatusInternalError
		}
		if owned == nil {
			owned = []byte{} // kept, with nothing to give back
		}
		return cpl, owned
	case nvme.OpFlush:
		if err := dev.Flush(); err != nil {
			cpl.Status = nvme.StatusInternalError
		}
		return cpl, nil
	default:
		cpl.Status = nvme.StatusInvalidOpcode
		return cpl, nil
	}
}
