package main

import (
	"errors"
	"fmt"
	"io"
	"time"

	"nvmeopf/internal/bdev"
	"nvmeopf/internal/hostqp"
	"nvmeopf/internal/nvme"
	"nvmeopf/internal/proto"
	"nvmeopf/internal/targetqp"
)

// The in-process pipeline drives a workload's first generated requests
// through hostqp.Session -> proto.AppendPDU -> proto.Reader.Next ->
// targetqp.Session.HandlePDU -> a bench-owned Backend over bdev.Memory and
// back, on one goroutine with no sockets, with a span around every call
// the bench makes into a layer. No span is inside the program.

// Layers a span can belong to; the names are the per-layer metric stems.
const (
	layerSubmit   = iota // hostqp.Session.Submit
	layerComplete        // hostqp.Session.HandlePDU
	layerEncode          // proto.AppendPDU, and returning the PDU to its pool
	layerDecode          // proto.Reader.Next, and proto.ReleaseInbound
	layerHandle          // targetqp.Session.HandlePDU
	layerRead            // bdev.Memory.ReadBlocks
	layerWrite           // bdev.Memory.WriteBlocks
	numLayers
)

var layerNames = [numLayers]string{
	"hostqp.submit", "hostqp.complete", "proto.encode", "proto.decode",
	"targetqp.handle", "bdev.read", "bdev.write",
}

// span is one timed call: name (layer), start, end, the span that caused
// it, and the request it served.
type span struct {
	Layer  uint8 `json:"layer"`
	Parent int32 `json:"parent"` // index of the enclosing span, -1 at top level
	Req    int32 `json:"req"`
	Start  int64 `json:"start_ns"`
	End    int64 `json:"end_ns"`
}

// tracer keeps every span in memory; nothing is written before the run
// ends.
type tracer struct {
	base  time.Time
	spans []span
	cur   int32 // innermost open span, -1 when none
}

func newTracer(capacity int) *tracer {
	return &tracer{base: time.Now(), spans: make([]span, 0, capacity), cur: -1}
}

// begin opens a span inside the current one. req < 0 inherits the
// enclosing span's request.
func (t *tracer) begin(layer uint8, req int32) int32 {
	if req < 0 && t.cur >= 0 {
		req = t.spans[t.cur].Req
	}
	id := int32(len(t.spans))
	t.spans = append(t.spans, span{Layer: layer, Parent: t.cur, Req: req, Start: int64(time.Since(t.base))})
	t.cur = id
	return id
}

func (t *tracer) end(id int32) {
	t.spans[id].End = int64(time.Since(t.base))
	t.cur = t.spans[id].Parent
}

// selfTimes sums each layer's self time: a span's duration minus the part
// its child spans cover.
func selfTimes(spans []span) [numLayers]int64 {
	var self [numLayers]int64
	for _, s := range spans {
		d := s.End - s.Start
		self[s.Layer] += d
		if s.Parent >= 0 {
			self[spans[s.Parent].Layer] -= d
		}
	}
	return self
}

// fifo is one direction of an in-process connection: PDUs are appended at
// the tail by AppendPDU and a proto.Reader consumes the head.
type fifo struct {
	b []byte
	r int
}

func (f *fifo) Read(p []byte) (int, error) {
	if f.r == len(f.b) {
		return 0, io.EOF
	}
	n := copy(p, f.b[f.r:])
	if f.r += n; f.r == len(f.b) {
		f.b, f.r = f.b[:0], 0
	}
	return n, nil
}

func (f *fifo) empty() bool { return f.r == len(f.b) }

// pipeBackend is the bench-owned targetqp.Backend: it executes on the
// caller's stack and completes before returning, so the only time it adds
// between targetqp and bdev is a pooled buffer fetch.
type pipeBackend struct {
	dev *bdev.Memory
	tr  *tracer
}

func (b *pipeBackend) Namespace() nvme.Namespace {
	return nvme.Namespace{ID: 1, BlockSize: b.dev.BlockSize(), Capacity: b.dev.NumBlocks()}
}

func (b *pipeBackend) Submit(cmd nvme.Command, data []byte, _ bool, done func(nvme.Completion, []byte)) {
	cpl := nvme.Completion{CID: cmd.CID, Status: nvme.StatusSuccess}
	var out []byte
	var err error
	switch cmd.Opcode {
	case nvme.OpRead:
		out = proto.GetBuf(int(cmd.Blocks()) * blockSize)
		id := b.tr.begin(layerRead, -1)
		err = b.dev.ReadBlocks(out, cmd.SLBA)
		b.tr.end(id)
	case nvme.OpWrite:
		id := b.tr.begin(layerWrite, -1)
		err = b.dev.WriteBlocks(data, cmd.SLBA)
		b.tr.end(id)
	}
	if err != nil {
		proto.PutBuf(out)
		cpl.Status, out = nvme.StatusInternalError, nil
	}
	done(cpl, out)
}

// pipeConn is one stream's in-process connection: a host session and its
// target session joined by two fifos.
type pipeConn struct {
	spec     *streamSpec
	id       int
	host     *hostqp.Session
	tsess    *targetqp.Session
	h2t, t2h fifo
	rdT, rdH *proto.Reader
	readBufs map[nvme.CID][]byte // the zero-copy read sink, as tcptrans keeps it
	cidReq   []int32             // request currently holding each CID
	buf      []byte              // write payload; the fifo copies it on encode
	issued   uint64
	quota    uint64
}

// pipeResult is what the pipeline yields: per-layer self time per request,
// and the spans themselves.
type pipeResult struct {
	requests int
	failed   int
	selfNS   [numLayers]float64 // mean self time per request
	spans    []span
}

// pipelineRequests bounds the pipeline at 200k requests or 2 GiB of
// payload, whichever is less.
func pipelineRequests(w *workload) int {
	var ioBytes int
	for _, s := range w.streams {
		ioBytes = max(ioBytes, int(s.blocks)*blockSize)
	}
	return min(200_000, (2<<30)/ioBytes)
}

func runPipeline(w *workload, seed uint64, total int) (*pipeResult, error) {
	dev, err := newDevice(len(w.streams), seed)
	if err != nil {
		return nil, err
	}
	// A 4 KiB read makes 14 spans; a span appended past the capacity would
	// charge the slice's regrowth to whichever layer was being timed.
	tr := newTracer(16*(total+256*len(w.streams)) + 64)
	clock := func() int64 { return time.Now().UnixNano() }
	target, err := targetqp.NewTarget(targetqp.Config{
		Mode: targetqp.ModeOPF, ScavengerAging: w.scavAging, Clock: clock, PooledPayloads: true,
	}, &pipeBackend{dev: dev, tr: tr})
	if err != nil {
		return nil, err
	}
	res := &pipeResult{}
	var next int32 // next request id
	conns := make([]*pipeConn, len(w.streams))
	for i := range w.streams {
		c := &pipeConn{spec: &w.streams[i], id: i,
			readBufs: map[nvme.CID][]byte{}, cidReq: make([]int32, 1<<16)}
		if c.spec.op == nvme.OpWrite {
			c.buf = make([]byte, int(c.spec.blocks)*blockSize)
		}
		// Whole windows only, so no partial window is left parked.
		per := uint64(max(total/len(w.streams), 1))
		c.quota = (per + uint64(c.spec.window) - 1) / uint64(c.spec.window) * uint64(c.spec.window)
		c.rdT, c.rdH = proto.NewReader(&c.h2t, true), proto.NewReader(&c.t2h, true)
		c.rdH.SetC2HSink(func(cid nvme.CID, off, n uint32) []byte {
			buf := c.readBufs[cid]
			if end := uint64(off) + uint64(n); buf == nil || end > uint64(len(buf)) {
				return nil
			}
			return buf[off : off+n]
		})
		c.host, err = hostqp.New(hostqp.Config{
			Class: c.spec.class, Window: c.spec.window, QueueDepth: c.spec.qd, NSID: 1,
			OnReadBuffer: func(cid nvme.CID, buf []byte) { c.readBufs[cid] = buf },
			OnReadRetire: func(cid nvme.CID) { delete(c.readBufs, cid) },
		}, func(p proto.PDU) {
			if cmd, ok := p.(*proto.CapsuleCmd); ok {
				c.cidReq[cmd.Cmd.CID] = tr.spans[tr.cur].Req // sent from inside Submit's span
			}
			id := tr.begin(layerEncode, -1)
			c.h2t.b = proto.AppendPDU(c.h2t.b, p)
			tr.end(id)
		}, clock)
		if err != nil {
			return nil, err
		}
		c.tsess, err = target.NewSession(func(p proto.PDU) {
			id := tr.begin(layerEncode, -1)
			c.t2h.b = proto.AppendPDU(c.t2h.b, p)
			if d, ok := p.(*proto.C2HData); ok {
				proto.PutBuf(d.Data)
				d.Data = nil
			}
			proto.Recycle(p)
			tr.end(id)
		})
		if err != nil {
			return nil, err
		}
		conns[i] = c
		c.host.Start()
		if err := c.pump(tr); err != nil {
			return nil, err
		}
		if !c.host.Connected() {
			return nil, errors.New("pipeline: handshake did not complete")
		}
	}
	tr.spans = tr.spans[:0] // the handshake is set-up, not a request

	want := 0
	for _, c := range conns {
		want += int(c.quota)
	}
	completed := 0
	for completed < want {
		before := completed + int(next)
		for _, c := range conns {
			c := c
			for c.issued < c.quota && c.host.CanSubmit() {
				lba := lbaAt(seed, c.id, c.spec, c.issued)
				c.issued++
				if c.buf != nil {
					stampBlocks(c.buf, lba, writeTag(seed))
				}
				id := tr.begin(layerSubmit, next)
				next++
				err := c.host.Submit(hostqp.IO{Op: c.spec.op, LBA: lba, Blocks: c.spec.blocks, Data: c.buf,
					Done: func(r hostqp.Result) {
						completed++
						if !r.Status.OK() || (c.spec.op == nvme.OpRead && !verifyBlocks(r.Data, lba, prefillTag(seed))) {
							res.failed++
						}
					}})
				tr.end(id)
				if err != nil {
					return nil, fmt.Errorf("pipeline submit: %w", err)
				}
			}
			if err := c.pump(tr); err != nil {
				return nil, err
			}
		}
		if completed+int(next) == before {
			return nil, fmt.Errorf("pipeline stalled: %d of %d requests completed", completed, next)
		}
	}
	res.requests = completed
	res.spans = tr.spans
	for l, ns := range selfTimes(tr.spans) {
		res.selfNS[l] = float64(ns) / float64(completed)
	}
	return res, nil
}

// pump moves PDUs across the connection until both directions are empty.
func (c *pipeConn) pump(tr *tracer) error {
	for !c.h2t.empty() || !c.t2h.empty() {
		for !c.h2t.empty() {
			if err := c.deliver(tr, c.rdT, layerHandle, c.tsess.HandlePDU); err != nil {
				return fmt.Errorf("pipeline target: %w", err)
			}
		}
		for !c.t2h.empty() {
			if err := c.deliver(tr, c.rdH, layerComplete, c.host.HandlePDU); err != nil {
				return fmt.Errorf("pipeline host: %w", err)
			}
		}
	}
	return nil
}

// deliver decodes one PDU and hands it to a session, as a transport's read
// loop does.
func (c *pipeConn) deliver(tr *tracer, rd *proto.Reader, layer uint8, handle func(proto.PDU) error) error {
	id := tr.begin(layerDecode, -1)
	p, err := rd.Next()
	tr.end(id)
	if err != nil {
		return err
	}
	req := int32(-1)
	switch v := p.(type) {
	case *proto.CapsuleCmd:
		req = c.cidReq[v.Cmd.CID]
	case *proto.C2HData:
		req = c.cidReq[v.CCCID]
	case *proto.CapsuleResp:
		req = c.cidReq[v.Cpl.CID]
	}
	tr.spans[id].Req = req

	id = tr.begin(layer, req)
	err = handle(p)
	tr.end(id)

	id = tr.begin(layerDecode, req)
	proto.ReleaseInbound(p)
	tr.end(id)
	return err
}
