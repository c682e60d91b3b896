package ssdsim

import (
	"fmt"

	"nvmeopf/internal/nvme"
	"nvmeopf/internal/simnet"
)

// QueuePair is the local-access path to a simulated SSD: a submission
// ring and a completion ring polled by the application, the way SPDK's
// userspace NVMe driver drives a device over PCIe (§II-A: "SPDK's NVMe
// driver allows the userspace application to issue concurrent I/O
// requests to the NVMe-SSD"). The device consumes SQEs in ring order and
// posts CQEs as commands finish — out of order, which is what the
// NVMe-oPF initiator-side queue must reconcile (§IV-C).
type QueuePair struct {
	eng *simnet.Engine
	ssd *SSD
	sq  *nvme.SQ
	cq  *nvme.CQ
	// payloads carries write data per CID (the ring entry itself is the
	// 64-byte SQE; data travels via "PRP" out of band).
	payloads map[nvme.CID][]byte
	// readData stages read results per CID until the CQE is reaped.
	readData map[nvme.CID][]byte
	// doorbell models the submission doorbell write cost.
	doorbellCost simnet.Time
	inflight     int
}

// NewQueuePair attaches a queue pair of the given ring size to the SSD.
func NewQueuePair(eng *simnet.Engine, ssd *SSD, size int) (*QueuePair, error) {
	if size < 2 {
		return nil, fmt.Errorf("ssdsim: queue pair size %d < 2", size)
	}
	return &QueuePair{
		eng:          eng,
		ssd:          ssd,
		sq:           nvme.NewSQ(size),
		cq:           nvme.NewCQ(size),
		payloads:     make(map[nvme.CID][]byte),
		readData:     make(map[nvme.CID][]byte),
		doorbellCost: 200,
	}, nil
}

// Submit places a command in the submission ring. It returns false when
// the ring is full (the caller retries after reaping completions).
func (qp *QueuePair) Submit(cmd nvme.Command, data []byte) bool {
	if !qp.sq.Push(cmd) {
		return false
	}
	if data != nil {
		qp.payloads[cmd.CID] = data
	}
	return true
}

// Ring rings the submission doorbell: every queued SQE is handed to the
// device. Completions appear in the completion ring as the device
// finishes them, in any order.
func (qp *QueuePair) Ring() {
	for {
		cmd, ok := qp.sq.Pop()
		if !ok {
			return
		}
		data := qp.payloads[cmd.CID]
		delete(qp.payloads, cmd.CID)
		qp.inflight++
		qp.eng.Schedule(0, qp.ssd.Deferred(Request{
			Cmd:  cmd,
			Data: data,
			Done: func(cpl nvme.Completion, rd []byte) {
				qp.inflight--
				if rd != nil {
					qp.readData[cpl.CID] = rd
				}
				cpl.SQHead = qp.sq.Head()
				if !qp.cq.Push(cpl) {
					// A full CQ with SQ-sized rings cannot happen:
					// completions never outnumber submissions.
					panic("ssdsim: completion queue overflow")
				}
			},
		}, false))
	}
}

// Poll reaps up to max completions from the completion ring (SPDK's
// polled-mode reaping; max <= 0 drains everything available). Read data,
// if any, is returned alongside each CQE.
func (qp *QueuePair) Poll(max int) []PolledCompletion {
	var out []PolledCompletion
	for max <= 0 || len(out) < max {
		cpl, ok := qp.cq.Pop()
		if !ok {
			break
		}
		pc := PolledCompletion{Cpl: cpl}
		if data, ok := qp.readData[cpl.CID]; ok {
			pc.Data = data
			delete(qp.readData, cpl.CID)
		}
		out = append(out, pc)
	}
	return out
}

// PolledCompletion is one reaped CQE with its read payload.
type PolledCompletion struct {
	Cpl  nvme.Completion
	Data []byte
}

// Outstanding returns commands handed to the device but not yet posted to
// the completion ring.
func (qp *QueuePair) Outstanding() int { return qp.inflight }

// SQSpace returns how many more SQEs fit before the ring is full.
func (qp *QueuePair) SQSpace() int { return qp.sq.Size() - 1 - qp.sq.Len() }
