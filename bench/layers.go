package main

import (
	"errors"
	"runtime"
	"time"

	"nvmeopf/internal/core"
	"nvmeopf/internal/hostqp"
	"nvmeopf/internal/nvme"
	"nvmeopf/internal/proto"
)

// Layers the pipeline cannot see from outside — the priority managers sit
// inside hostqp and targetqp, and allocations cannot be split per span —
// are measured by calling their public functions alone, in the order a
// request of the workload drives them.

// loopRequests is how many requests each of these loops drives.
const loopRequests = 200_000

// timePerRequest calls round, which drives n requests, until loopRequests
// have run, and returns the mean ns and allocations per request. The first
// round fills pools and maps and is not measured.
func timePerRequest(round func() (n int, err error)) (ns, allocs float64, err error) {
	if _, err := round(); err != nil {
		return 0, 0, err
	}
	var m0, m1 runtime.MemStats
	runtime.ReadMemStats(&m0)
	t := time.Now()
	done := 0
	for done < loopRequests {
		n, err := round()
		if err != nil {
			return 0, 0, err
		}
		done += n
	}
	took := time.Since(t)
	runtime.ReadMemStats(&m1)
	return float64(took.Nanoseconds()) / float64(done), float64(m1.Mallocs-m0.Mallocs) / float64(done), nil
}

// hostPMCost is core.HostPM per request at the workload's window: Stamp
// (Track for a scavenger) for each request of a window, then the coalesced
// OnResponse that replays it. LS requests never touch the HostPM, so a
// workload without a TC or scavenger stream costs nothing.
func hostPMCost(w *workload) (float64, error) {
	for _, s := range w.streams {
		if !s.class.ThroughputCritical() && !s.class.Scavenger() {
			continue
		}
		h := core.NewHostPM(proto.PrioThroughputCritical, s.window)
		ns, _, err := timePerRequest(func() (int, error) {
			for k := 0; k < s.window; k++ {
				if s.class.Scavenger() {
					h.Track(nvme.CID(k))
				} else {
					h.Stamp(nvme.CID(k))
				}
			}
			_, err := h.OnResponse(nvme.CID(s.window-1), true)
			return s.window, err
		})
		return ns, err
	}
	return 0, nil
}

// targetPMCost is core.TargetPM per request at the workload's class mix:
// every stream is a tenant sending one window per round through Admit ->
// OnCommand, and whatever the PM releases goes through OnDeviceCompletion
// -> Release.
func targetPMCost(w *workload) (float64, error) {
	var now int64
	pm := core.NewTargetPM(core.TargetPMConfig{
		Isolated: true, Clock: func() int64 { return now },
		ScavengerAgingNS: w.scavAging.Nanoseconds(),
	})
	complete := func(batch []core.TaggedCID, prio proto.Priority) {
		for _, m := range batch {
			pm.OnDeviceCompletion(m.Tenant, m.CID, nvme.StatusSuccess)
			pm.Release(m.Tenant, prio)
		}
	}
	ns, _, err := timePerRequest(func() (n int, err error) {
		for t, s := range w.streams {
			tenant := proto.TenantID(t)
			for k := 0; k < s.window; k++ {
				prio := s.class
				if prio.ThroughputCritical() && k == s.window-1 {
					prio = proto.PrioTCDraining
				}
				now++
				if !pm.Admit(tenant, prio) {
					return n, errors.New("TargetPM refused a request with no cap configured")
				}
				switch d, batch := pm.OnCommand(tenant, nvme.CID(k), prio); d {
				case core.DispositionExecute:
					complete([]core.TaggedCID{{Tenant: tenant, CID: nvme.CID(k)}}, prio)
				case core.DispositionDrainBatch:
					complete(batch, prio)
				}
				for _, batch := range pm.PollScavenger(now) {
					complete(batch, proto.PrioScavenger)
				}
				n++
			}
		}
		return n, nil
	})
	return ns, err
}

// protoAllocs is allocations per request in the wire codec alone:
// AppendPDU then a pooled Reader.Next over the PDUs one request of the
// workload's first stream puts on the wire.
func protoAllocs(w *workload) (float64, error) {
	s := w.streams[0]
	payload := make([]byte, int(s.blocks)*blockSize)
	cmd := &proto.CapsuleCmd{Cmd: nvme.Command{Opcode: s.op, CID: 1, NSID: 1, NLB: uint16(s.blocks - 1)}, Prio: s.class}
	data := &proto.C2HData{CCCID: 1}
	resp := &proto.CapsuleResp{Cpl: nvme.Completion{CID: 1}}
	var f fifo
	rd := proto.NewReader(&f, true)
	trip := func(p proto.PDU) error {
		f.b = proto.AppendPDU(f.b, p)
		q, err := rd.Next()
		if err != nil {
			return err
		}
		proto.ReleaseInbound(q)
		return nil
	}
	_, allocs, err := timePerRequest(func() (int, error) {
		if s.op == nvme.OpWrite {
			cmd.Data = payload
		}
		if err := trip(cmd); err != nil {
			return 0, err
		}
		if s.op == nvme.OpRead {
			data.Data = payload
			if err := trip(data); err != nil {
				return 0, err
			}
		}
		return 1, trip(resp)
	})
	return allocs, err
}

// hostqpAllocs is allocations per request in hostqp alone: Session.Submit
// with the PDU dropped, then HandlePDU fed the PDUs a target would answer
// with, for one window of the workload's first stream.
func hostqpAllocs(w *workload) (float64, error) {
	s := w.streams[0]
	var sent []nvme.CID
	host, err := hostqp.New(hostqp.Config{Class: s.class, Window: s.window, QueueDepth: s.qd, NSID: 1},
		func(p proto.PDU) {
			if c, ok := p.(*proto.CapsuleCmd); ok {
				sent = append(sent, c.Cmd.CID)
			}
		}, func() int64 { return time.Now().UnixNano() })
	if err != nil {
		return 0, err
	}
	host.Start()
	err = host.HandlePDU(&proto.ICResp{PFV: hostqp.ProtocolVersion, BlockSize: blockSize, Capacity: regionBlocks, MaxDataLen: 1 << 20})
	if err != nil {
		return 0, err
	}
	payload := make([]byte, int(s.blocks)*blockSize)
	done := func(hostqp.Result) {}
	data, resp := &proto.C2HData{}, &proto.CapsuleResp{}
	coalesce := s.class.ThroughputCritical() || s.class.Scavenger()
	_, allocs, err := timePerRequest(func() (int, error) {
		sent = sent[:0]
		for k := 0; k < s.window; k++ {
			io := hostqp.IO{Op: s.op, LBA: uint64(k) * uint64(s.blocks), Blocks: s.blocks, Done: done}
			if s.op == nvme.OpWrite {
				io.Data = payload
			}
			if err := host.Submit(io); err != nil {
				return 0, err
			}
		}
		for i, cid := range sent {
			if s.op == nvme.OpRead {
				*data = proto.C2HData{CCCID: cid, Data: payload}
				if err := host.HandlePDU(data); err != nil {
					return 0, err
				}
			}
			if last := i == len(sent)-1; last || !coalesce {
				*resp = proto.CapsuleResp{Cpl: nvme.Completion{CID: cid}, Coalesced: coalesce}
				if err := host.HandlePDU(resp); err != nil {
					return 0, err
				}
			}
		}
		return len(sent), nil
	})
	return allocs, err
}
