package hostqp

// Read-buffer ownership: a read's destination is the caller's IO.Data or a
// buffer lent from the session's free list, and only the normal completion
// path ever puts a lent buffer back.

import (
	"bytes"
	"errors"
	"runtime"
	"testing"

	"nvmeopf/internal/nvme"
	"nvmeopf/internal/proto"
)

// connectGeometry completes the handshake with a 512-byte-block namespace.
func (h *harness) connectGeometry(t *testing.T) {
	t.Helper()
	h.sess.Start()
	h.out = nil
	err := h.sess.HandlePDU(&proto.ICResp{PFV: ProtocolVersion, Tenant: 3, MaxDataLen: 1 << 20, BlockSize: 512, Capacity: 1 << 20})
	if err != nil {
		t.Fatal(err)
	}
}

// answer completes the read with the given CID the way a target does: the
// data, then the response.
func (h *harness) answer(t *testing.T, cid nvme.CID, data []byte) {
	t.Helper()
	if err := h.sess.HandlePDU(&proto.C2HData{CCCID: cid, Data: data}); err != nil {
		t.Fatal(err)
	}
	if err := h.sess.HandlePDU(&proto.CapsuleResp{Cpl: nvme.Completion{CID: cid}}); err != nil {
		t.Fatal(err)
	}
}

func lsConfig(qd int) Config {
	return Config{Class: proto.PrioLatencySensitive, Window: 1, QueueDepth: qd, NSID: 1}
}

// sinkConfig is lsConfig with a read sink registered, as a transport that
// lands payloads in place has: reads without IO.Data get a lent buffer at
// Submit.
func sinkConfig(qd int) Config {
	cfg := lsConfig(qd)
	cfg.OnReadBuffer = func(nvme.CID, []byte) {}
	return cfg
}

// TestReadDestinationIsCallersBuffer: a supplied IO.Data receives the
// payload and is what Result.Data returns; one of the wrong length is
// rejected before a CID is taken or a PDU sent.
func TestReadDestinationIsCallersBuffer(t *testing.T) {
	h := newHarness(t, lsConfig(2))
	h.connectGeometry(t)

	for _, n := range []int{0, 511, 1023, 1025, 2048} {
		err := h.sess.Submit(IO{Op: nvme.OpRead, Blocks: 2, Data: make([]byte, n), Done: func(Result) {}})
		if err == nil {
			t.Fatalf("a %d-byte destination for a 1024-byte read was accepted", n)
		}
	}
	if h.sess.Outstanding() != 0 || len(h.out) != 0 || h.sess.Stats().Submitted != 0 {
		t.Fatalf("rejected reads left state: outstanding=%d sent=%d submitted=%d",
			h.sess.Outstanding(), len(h.out), h.sess.Stats().Submitted)
	}

	mine := make([]byte, 1024)
	payload := bytes.Repeat([]byte{0xC3}, 1024)
	var got Result
	if err := h.sess.Submit(IO{Op: nvme.OpRead, Blocks: 2, Data: mine, Done: func(r Result) { got = r }}); err != nil {
		t.Fatal(err)
	}
	h.answer(t, h.lastCmd(t).Cmd.CID, payload)
	if !got.Status.OK() || &got.Data[0] != &mine[0] || len(got.Data) != len(mine) {
		t.Fatalf("Result.Data does not alias the supplied destination (status %v)", got.Status)
	}
	if !bytes.Equal(mine, payload) {
		t.Fatal("payload did not land in the supplied destination")
	}
	if len(h.sess.freeBufs) != 0 {
		t.Fatal("a caller's buffer entered the session's free list")
	}
}

// TestWritePayloadMustMatchBlocks: a write whose payload is not Blocks
// namespace blocks long is refused before a CID, a slot or the PM's
// pending queue is touched; one that matches goes out.
func TestWritePayloadMustMatchBlocks(t *testing.T) {
	h := newHarness(t, Config{Class: proto.PrioThroughputCritical, Window: 4, QueueDepth: 4, NSID: 1})
	h.connectGeometry(t)

	for _, n := range []int{0, 511, 1023, 1025, 4096} {
		err := h.sess.Submit(IO{Op: nvme.OpWrite, Blocks: 2, Data: make([]byte, n), Done: func(Result) {}})
		if err == nil {
			t.Fatalf("a %d-byte payload for a 2-block write of 512-byte blocks was accepted", n)
		}
	}
	if h.sess.Outstanding() != 0 || len(h.out) != 0 || h.sess.Stats().Submitted != 0 ||
		h.sess.pm.Pending() != 0 || h.sess.pm.SinceDrain() != 0 {
		t.Fatalf("rejected writes left state: outstanding=%d sent=%d submitted=%d pending=%d",
			h.sess.Outstanding(), len(h.out), h.sess.Stats().Submitted, h.sess.pm.Pending())
	}
	if err := h.sess.Submit(IO{Op: nvme.OpWrite, Blocks: 2, Data: make([]byte, 1024), Done: func(Result) {}}); err != nil {
		t.Fatalf("a matching write was refused: %v", err)
	}
	if h.sess.Outstanding() != 1 || h.lastCmd(t).Cmd.NLB != 1 {
		t.Fatalf("matching write not sent: outstanding=%d", h.sess.Outstanding())
	}
}

// TestLentReadBufferRecycledOnlyOnCompletion: without IO.Data a session
// with a read sink lends a buffer that holds the payload while Done runs
// and serves the next read afterwards; a buffer whose read was failed by
// FailAll — the path a dead connection and a request timeout both take —
// is never lent again. (A session without a sink lends only for payloads
// that do not cover the read: TestWholePayloadKeptWithoutSink.)
func TestLentReadBufferRecycledOnlyOnCompletion(t *testing.T) {
	h := newHarness(t, sinkConfig(4))
	h.connectGeometry(t)

	var lent []*byte
	read := func(fill byte) {
		t.Helper()
		payload := bytes.Repeat([]byte{fill}, 512)
		ok := false
		err := h.sess.Submit(IO{Op: nvme.OpRead, Blocks: 1, Done: func(r Result) {
			ok = r.Status.OK() && bytes.Equal(r.Data, payload)
			lent = append(lent, &r.Data[0])
		}})
		if err != nil {
			t.Fatal(err)
		}
		h.answer(t, h.lastCmd(t).Cmd.CID, payload)
		if !ok {
			t.Fatalf("read %#x: wrong status or bytes while Done ran", fill)
		}
	}
	read(0x11)
	read(0x22)
	if lent[0] != lent[1] {
		t.Fatal("the second read did not reuse the first one's buffer")
	}

	// Two reads in flight when the connection dies.
	var failed []Result
	for i := 0; i < 2; i++ {
		if err := h.sess.Submit(IO{Op: nvme.OpRead, Blocks: 1, Done: func(r Result) { failed = append(failed, r) }}); err != nil {
			t.Fatal(err)
		}
	}
	if len(h.sess.freeBufs) != 0 {
		t.Fatalf("free list holds %d buffers with both lent out", len(h.sess.freeBufs))
	}
	if n := h.sess.FailAll(errors.New("link lost")); n != 2 || len(failed) != 2 {
		t.Fatalf("FailAll failed %d requests, %d callbacks ran", n, len(failed))
	}
	for _, r := range failed {
		if r.Status.OK() || r.Err == nil || r.Data != nil {
			t.Fatalf("failed read delivered status %v and %d bytes", r.Status, len(r.Data))
		}
	}
	if len(h.sess.freeBufs) != 0 {
		t.Fatal("FailAll recycled a buffer the transport's reader may still be writing")
	}
}

// TestSteadyStateReadAllocatesNoPayload pins the allocation budget of one
// read, submit through completion, once the free lists are warm: nothing.
// The capsule comes from the pool the send hook recycles it into, as the
// transport's writer does; no map bucket, no request state, never anything
// the size of the payload.
func TestSteadyStateReadAllocatesNoPayload(t *testing.T) {
	if raceEnabled {
		t.Skip("allocation counts are not meaningful under -race")
	}
	const blocks = 128 // 64 KiB reads
	var sent nvme.CID
	sess, err := New(lsConfig(8), func(p proto.PDU) {
		if c, ok := p.(*proto.CapsuleCmd); ok {
			sent = c.Cmd.CID
			// What the transport's writer does once the capsule is on
			// the wire.
			c.Data = nil
			proto.Recycle(c)
		}
	}, func() int64 { return 1 })
	if err != nil {
		t.Fatal(err)
	}
	sess.Start()
	if err := sess.HandlePDU(&proto.ICResp{PFV: ProtocolVersion, MaxDataLen: 1 << 20, BlockSize: 512, Capacity: 1 << 20}); err != nil {
		t.Fatal(err)
	}
	payload := make([]byte, blocks*512)
	data, resp := &proto.C2HData{}, &proto.CapsuleResp{}
	done := func(Result) {}
	round := func() {
		if err := sess.Submit(IO{Op: nvme.OpRead, Blocks: blocks, Done: done}); err != nil {
			t.Fatal(err)
		}
		*data = proto.C2HData{CCCID: sent, Data: payload}
		*resp = proto.CapsuleResp{Cpl: nvme.Completion{CID: sent}}
		if err := sess.HandlePDU(data); err != nil {
			t.Fatal(err)
		}
		if err := sess.HandlePDU(resp); err != nil {
			t.Fatal(err)
		}
	}
	round() // warm the free lists

	const rounds = 1000
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	allocs := testing.AllocsPerRun(rounds, round)
	runtime.ReadMemStats(&after)
	if allocs > 0 {
		t.Errorf("a steady-state read makes %.1f allocations, want 0", allocs)
	}
	// AllocsPerRun runs the function rounds+1 times.
	if perRead := (after.TotalAlloc - before.TotalAlloc) / (rounds + 1); perRead >= 1024 {
		t.Errorf("a steady-state %d-byte read allocates %d bytes: a payload-sized object per read", len(payload), perRead)
	}
}

// TestWholePayloadKeptWithoutSink: on a session without a read sink (the
// simulator's), a read submitted without IO.Data keeps a payload that
// covers it as Result.Data, uncopied. Every other read still gets its
// bytes copied into a buffer of its own: one assembled from fragments, one
// whose payload falls short, one with the caller's IO.Data, and any read
// on a session with a sink.
func TestWholePayloadKeptWithoutSink(t *testing.T) {
	const n = 1024 // two 512-byte blocks
	payload := func() []byte { return bytes.Repeat([]byte{0x5A}, n) }
	type frag struct{ off, end int }
	cases := []struct {
		name  string
		cfg   Config
		mine  bool   // submit with IO.Data
		frags []frag // of the payload, in arrival order
		kept  bool   // Result.Data is the payload itself
		ok    bool
	}{
		{"whole", lsConfig(2), false, []frag{{0, n}}, true, true},
		{"fragments", lsConfig(2), false, []frag{{0, n / 2}, {n / 2, n}}, false, true},
		{"fragments out of order", lsConfig(2), false, []frag{{n / 2, n}, {0, n / 2}}, false, true},
		{"short", lsConfig(2), false, []frag{{0, n / 2}}, false, false},
		{"caller's buffer", lsConfig(2), true, []frag{{0, n}}, false, true},
		{"sink", sinkConfig(2), false, []frag{{0, n}}, false, true},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			h := newHarness(t, tc.cfg)
			h.connectGeometry(t)
			var mine []byte
			if tc.mine {
				mine = make([]byte, n)
			}
			var got Result
			if err := h.sess.Submit(IO{Op: nvme.OpRead, Blocks: 2, Data: mine, Done: func(r Result) { got = r }}); err != nil {
				t.Fatal(err)
			}
			cid := h.lastCmd(t).Cmd.CID
			p := payload()
			for _, f := range tc.frags {
				if err := h.sess.HandlePDU(&proto.C2HData{CCCID: cid, Offset: uint32(f.off), Data: p[f.off:f.end]}); err != nil {
					t.Fatal(err)
				}
			}
			if err := h.sess.HandlePDU(&proto.CapsuleResp{Cpl: nvme.Completion{CID: cid}}); err != nil {
				t.Fatal(err)
			}
			if got.Status.OK() != tc.ok || len(got.Data) != n {
				t.Fatalf("status %v with %d bytes, want OK=%v with %d", got.Status, len(got.Data), tc.ok, n)
			}
			if kept := &got.Data[0] == &p[0]; kept != tc.kept {
				t.Fatalf("Result.Data is the payload: %v, want %v", kept, tc.kept)
			}
			if tc.mine && &got.Data[0] != &mine[0] {
				t.Fatal("Result.Data does not alias the caller's buffer")
			}
			if tc.ok && !bytes.Equal(got.Data, payload()) {
				t.Fatal("wrong bytes delivered")
			}
			if tc.kept && len(h.sess.freeBufs) != 0 {
				t.Fatal("a kept payload entered the session's free list")
			}
		})
	}
}
