package simcluster

import (
	"math/rand"
	"testing"

	"nvmeopf/internal/hostqp"
	"nvmeopf/internal/nvme"
	"nvmeopf/internal/proto"
	"nvmeopf/internal/targetqp"
	"nvmeopf/internal/workload"
)

// Regression for the unbacked-read bug: read payload bytes must traverse
// the fabric even on timing-only devices, so a 10 Gbps link bounds read
// throughput at roughly line rate.
func TestReadThroughputBoundedByLink(t *testing.T) {
	res, _ := runOne(t, targetqp.ModeOPF, 10, 32, workload.ReadOnly, 60)
	iops := res.Recorded.IOPS(48_000_000)
	// 10 Gbps with ~4.35 KB wire bytes per read caps around 287K IOPS;
	// anything near the 320K device cap means payloads stopped flowing.
	if iops > 295_000 {
		t.Fatalf("read@10G IOPS = %.0f exceeds link capacity; data PDUs missing", iops)
	}
	if iops < 200_000 {
		t.Fatalf("read@10G IOPS = %.0f unexpectedly low", iops)
	}
}

// Reads must deliver a C2HData PDU per request even when coalescing
// suppresses the per-request completion notifications.
func TestReadDataPDUsAlwaysFlow(t *testing.T) {
	_, tn := runOne(t, targetqp.ModeOPF, 100, 32, workload.ReadOnly, 20)
	st := tn.Target.Stats()
	if st.DataPDUs < st.CmdPDUs*9/10 {
		t.Fatalf("data PDUs %d << commands %d", st.DataPDUs, st.CmdPDUs)
	}
	if st.RespPDUs*8 > st.CmdPDUs {
		t.Fatalf("coalescing broken: %d responses for %d commands", st.RespPDUs, st.CmdPDUs)
	}
}

// Randomized end-to-end invariant: any mix of tenant classes, windows, and
// queue depths completes every submitted request exactly once with no
// protocol errors, under the full network + device model.
func TestRandomMultiTenantInvariant(t *testing.T) {
	for trial := 0; trial < 8; trial++ {
		rng := rand.New(rand.NewSource(int64(trial) + 100))
		prof := ProfileCL()
		cl := New(Options{Profile: prof, Mode: targetqp.ModeOPF, Seed: uint64(trial)})
		tn, err := cl.NewTargetNode("t", false)
		if err != nil {
			t.Fatal(err)
		}
		nTenants := 1 + rng.Intn(5)
		type tracker struct {
			submitted int
			completed int
		}
		trackers := make([]*tracker, nTenants)
		for i := 0; i < nTenants; i++ {
			node := cl.NewInitiatorNode("n", tn)
			class := proto.PrioThroughputCritical
			qd := 1 + rng.Intn(64)
			window := 1 + rng.Intn(48)
			if rng.Intn(3) == 0 {
				class, qd, window = proto.PrioLatencySensitive, 1, 1
			}
			ini, err := node.Connect(hostqp.Config{Class: class, Window: window, QueueDepth: qd, NSID: 1})
			if err != nil {
				t.Fatal(err)
			}
			tr := &tracker{}
			trackers[i] = tr
			n := 1 + rng.Intn(300)
			sess := ini.Session
			sess.OnConnect(func() {
				var pump func()
				issued, flushed := 0, false
				pump = func() {
					for issued < n && sess.CanSubmit() {
						op := nvme.OpRead
						if rng.Intn(2) == 0 {
							op = nvme.OpWrite
						}
						var data []byte
						if op == nvme.OpWrite {
							data = make([]byte, 4096)
						}
						err := sess.Submit(hostqp.IO{
							Op: op, LBA: uint64(issued), Blocks: 1, Data: data,
							Done: func(r hostqp.Result) {
								tr.completed++
								pump()
							},
						})
						if err != nil {
							t.Errorf("trial %d: submit: %v", trial, err)
							return
						}
						issued++
						tr.submitted++
					}
					// Flush the tail window once everything is issued; keep
					// retrying from completions while the queue is full.
					if issued == n && !flushed && sess.PartialWindow() > 0 && sess.CanSubmit() {
						if sess.Submit(hostqp.IO{Op: nvme.OpFlush, Done: func(hostqp.Result) {}}) == nil {
							flushed = true
						}
					}
				}
				pump()
			})
		}
		cl.Run()
		if err := cl.CheckHealthy(); err != nil {
			t.Fatalf("trial %d: %v", trial, err)
		}
		for i, tr := range trackers {
			if tr.completed != tr.submitted {
				t.Fatalf("trial %d tenant %d: %d submitted, %d completed",
					trial, i, tr.submitted, tr.completed)
			}
		}
	}
}

// The no-bypass ablation must degrade LS tail latency relative to the full
// design, while the shared-queue ablation must degrade TC throughput.
func TestAblationDirections(t *testing.T) {
	type cfgFn func(*Options)
	run := func(mutate cfgFn, noBypass bool) (tcIOPS float64, lsTail int64) {
		prof := ProfileCL()
		opts := Options{Profile: prof, Mode: targetqp.ModeOPF, Seed: 5}
		if mutate != nil {
			mutate(&opts)
		}
		cl := New(opts)
		tn, err := cl.NewTargetNode("t", false)
		if err != nil {
			t.Fatal(err)
		}
		stop := int64(60_000_000)
		lsClass := proto.PrioLatencySensitive
		if noBypass {
			lsClass = proto.PrioNormal
		}
		lsIni, err := cl.NewInitiatorNode("ls", tn).Connect(hostqp.Config{Class: lsClass, Window: 1, QueueDepth: 1, NSID: 1})
		if err != nil {
			t.Fatal(err)
		}
		lsRun, err := workload.NewRunner(lsIni.Session, cl.Eng.Now, workload.Spec{
			Mix: workload.ReadOnly, Pattern: workload.Sequential, Blocks: 1, QueueDepth: 1,
			RegionStart: 0, RegionBlocks: 1 << 20, WarmupUntil: stop / 5, StopAt: stop, Seed: 1,
		})
		if err != nil {
			t.Fatal(err)
		}
		lsIni.Session.OnConnect(lsRun.Kick)
		var tcRunners []*workload.Runner
		for i := 0; i < 3; i++ {
			ini, err := cl.NewInitiatorNode("tc", tn).Connect(hostqp.Config{
				Class: proto.PrioThroughputCritical, Window: 32, QueueDepth: 128, NSID: 1,
			})
			if err != nil {
				t.Fatal(err)
			}
			r, err := workload.NewRunner(ini.Session, cl.Eng.Now, workload.Spec{
				Mix: workload.ReadOnly, Pattern: workload.Sequential, Blocks: 1, QueueDepth: 128,
				RegionStart: uint64(i+1) << 20, RegionBlocks: 1 << 20,
				WarmupUntil: stop / 5, StopAt: stop, Seed: uint64(i) + 2,
			})
			if err != nil {
				t.Fatal(err)
			}
			ini.Session.OnConnect(r.Kick)
			tcRunners = append(tcRunners, r)
		}
		cl.Run()
		if err := cl.CheckHealthy(); err != nil {
			t.Fatal(err)
		}
		for _, r := range tcRunners {
			tcIOPS += r.Result().Recorded.IOPS(stop * 4 / 5)
		}
		return tcIOPS, lsRun.Result().Latency.Tail()
	}

	fullTC, fullTail := run(nil, false)
	sharedTC, _ := run(func(o *Options) { o.SharedQueueAblation = true }, false)
	_, noBypassTail := run(nil, true)

	if sharedTC >= fullTC {
		t.Errorf("shared queue should cost throughput: %.0f >= %.0f", sharedTC, fullTC)
	}
	if noBypassTail <= fullTail {
		t.Errorf("no-bypass should cost LS tail: %d <= %d", noBypassTail, fullTail)
	}
	t.Logf("TC IOPS: full %.0f, shared %.0f | LS tail: full %dus, no-bypass %dus",
		fullTC, sharedTC, fullTail/1000, noBypassTail/1000)
}
