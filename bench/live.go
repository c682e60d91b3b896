package main

import (
	"fmt"
	"runtime"
	"slices"
	"sync"
	"syscall"
	"time"

	"nvmeopf/internal/bdev"
	"nvmeopf/internal/hostqp"
	"nvmeopf/internal/nvme"
	"nvmeopf/internal/targetqp"
	"nvmeopf/internal/tcptrans"
	"nvmeopf/internal/telemetry"
)

// requestTimeout turns a wedged target into failed requests (the
// connection resets and every outstanding CID completes aborted) well
// inside the benchmark's own deadline.
const requestTimeout = 5 * time.Second

// readbackSamples is how many requests of each write stream are read back
// from the device and verified after the measured window.
const readbackSamples = 1024

// slot is one queue-pair entry of a stream: the state of the request that
// currently holds it.
type slot struct {
	start time.Time
	lba   uint64
	buf   []byte // write payload, reused across requests
	done  func(hostqp.Result)
}

// stream drives one connection as a closed loop: a request is generated
// and submitted only when a slot (a CID) frees.
type stream struct {
	spec *streamSpec
	id   int
	seed uint64
	conn *tcptrans.Conn
	next uint64   // index of the next request to generate
	free chan int // free slot numbers, capacity qd
	slot []slot

	// The measured window is [t0, t0 + len(slices)*sliceDur); a completion
	// is counted in the slice its timestamp falls in, and not at all
	// outside the window (the warm-up has no slices).
	t0       time.Time
	sliceDur time.Duration

	// The fields below are written by Done callbacks on the connection's
	// reactor and read by the load goroutine only once run has collected
	// every slot again.
	slices    []sliceStats
	failed    int64 // error status or stamp mismatch, measured or not
	submitted int64
}

// sliceStats is what one stream completed in one slice of the window.
type sliceStats struct {
	completed int64
	lat       []int64 // submit->completion, ns
}

func newStream(id int, spec *streamSpec, seed uint64, conn *tcptrans.Conn) *stream {
	s := &stream{spec: spec, id: id, seed: seed, conn: conn,
		free: make(chan int, spec.qd), slot: make([]slot, spec.qd)}
	for i := range s.slot {
		i := i
		if spec.op == nvme.OpWrite {
			s.slot[i].buf = make([]byte, int(spec.blocks)*blockSize)
		}
		s.slot[i].done = func(r hostqp.Result) { s.complete(i, r) }
		s.free <- i
	}
	return s
}

func (s *stream) complete(i int, r hostqp.Result) {
	now := time.Now()
	sl := &s.slot[i]
	ok := r.Status.OK()
	if ok && s.spec.op == nvme.OpRead {
		ok = len(r.Data) == int(s.spec.blocks)*blockSize && verifyBlocks(r.Data, sl.lba, prefillTag(s.seed))
	}
	if !ok {
		s.failed++
	}
	if n := len(s.slices); n > 0 {
		if k := int(now.Sub(s.t0) / s.sliceDur); k >= 0 && k < n {
			s.slices[k].completed++
			s.slices[k].lat = append(s.slices[k].lat, int64(now.Sub(sl.start)))
		}
	}
	s.free <- i
}

// run submits count requests (count > 0), or requests until the end of a
// window of nSlices slices starting at t0 (count == 0), then waits for every
// outstanding one. It resets the stream's measurements first.
func (s *stream) run(count int, t0 time.Time, nSlices int, sliceDur time.Duration) {
	s.t0, s.sliceDur, s.slices = t0, sliceDur, make([]sliceStats, nSlices)
	s.failed, s.submitted = 0, 0
	until := t0.Add(time.Duration(nSlices) * sliceDur)
	for n := 0; count == 0 || n < count; n++ {
		i := <-s.free
		now := time.Now()
		if count == 0 && !now.Before(until) {
			s.free <- i
			break
		}
		sl := &s.slot[i]
		sl.lba = lbaAt(s.seed, s.id, s.spec, s.next)
		s.next++
		if sl.buf != nil {
			stampBlocks(sl.buf, sl.lba, writeTag(s.seed))
		}
		sl.start = now
		s.submitted++
		err := s.conn.Submit(hostqp.IO{Op: s.spec.op, LBA: sl.lba, Blocks: s.spec.blocks, Data: sl.buf, Done: sl.done})
		if err != nil { // connection closed under us: the request never ran
			s.failed++
			s.free <- i
		}
	}
	for range s.slot {
		<-s.free
	}
	for i := range s.slot {
		s.free <- i
	}
}

// newDevice makes an in-memory device with one region per stream, every
// block stamped with its LBA and the seed.
func newDevice(streams int, seed uint64) (*bdev.Memory, error) {
	dev, err := bdev.NewMemory(blockSize, uint64(streams)*regionBlocks)
	if err != nil {
		return nil, err
	}
	const chunk = 256 // blocks per prefill write: one bdev extent
	buf := make([]byte, chunk*blockSize)
	for lba := uint64(0); lba < dev.NumBlocks(); lba += chunk {
		stampBlocks(buf, lba, prefillTag(seed))
		if err := dev.WriteBlocks(buf, lba); err != nil {
			return nil, fmt.Errorf("prefill: %w", err)
		}
	}
	return dev, nil
}

// liveEnv is one set-up target with its connected, warmed-up streams.
type liveEnv struct {
	dev     *bdev.Memory
	srv     *tcptrans.Server
	streams []*stream
}

// setupLive builds the device, prefills every stream's region with
// stamped blocks (so reads hit materialised extents), starts the target on
// the loopback interface, dials and handshakes each stream's connection,
// and runs the warm-up I/Os. All of it is what setup_s times. Recorders
// are nil on timed runs.
func setupLive(w *workload, seed uint64, hostRec, targetRec *telemetry.Recorder) (*liveEnv, error) {
	dev, err := newDevice(len(w.streams), seed)
	if err != nil {
		return nil, err
	}
	srv, err := tcptrans.Listen("127.0.0.1:0", tcptrans.ServerConfig{
		Mode: targetqp.ModeOPF, Device: dev, Shards: w.shards,
		ScavengerAging: w.scavAging, Recorder: targetRec,
	})
	if err != nil {
		return nil, err
	}
	e := &liveEnv{dev: dev, srv: srv}
	for i := range w.streams {
		sp := &w.streams[i]
		conn, err := tcptrans.DialWith(srv.Addr(), hostqp.Config{
			Class: sp.class, Window: sp.window, QueueDepth: sp.qd, NSID: 1, Recorder: hostRec,
		}, tcptrans.DialConfig{RequestTimeout: requestTimeout})
		if err != nil {
			e.close()
			return nil, fmt.Errorf("dial stream %d: %w", i, err)
		}
		e.streams = append(e.streams, newStream(i, sp, seed, conn))
	}
	e.each(func(s *stream) { s.run(s.spec.warmup, time.Now(), 0, 0) })
	for _, s := range e.streams {
		if s.failed > 0 {
			e.close()
			return nil, fmt.Errorf("stream %d: %d of %d warm-up I/Os failed", s.id, s.failed, s.submitted)
		}
	}
	return e, nil
}

// each runs fn on every stream concurrently — one load goroutine per
// connection, two at most — and waits for all of them.
func (e *liveEnv) each(fn func(*stream)) {
	var wg sync.WaitGroup
	for _, s := range e.streams {
		wg.Add(1)
		go func(s *stream) {
			defer wg.Done()
			fn(s)
		}(s)
	}
	wg.Wait()
}

func (e *liveEnv) close() {
	for _, s := range e.streams {
		s.conn.Close()
	}
	e.srv.Close()
}

// counters snapshots the program's own counts: Server.Stats, Server.PMStats
// and each Conn.Stats, flattened so two snapshots subtract.
func (e *liveEnv) counters() map[string]int64 {
	st, pm := e.srv.Stats(), e.srv.PMStats()
	c := map[string]int64{
		"cmd_pdus": st.CmdPDUs, "resp_pdus": st.RespPDUs,
		"resps_sent": pm.RespsSent, "resps_suppressed": pm.RespsSuppressed,
		"ls_bypassed": pm.LSBypassed, "tc_queued": pm.TCQueued,
		"drains": pm.Drains, "forced_drains": pm.ForcedDrains,
		"busy_rejections": pm.BusyRejections,
		"scav_drains":     pm.ScavDrains, "scav_aged_drains": pm.ScavAgedDrains,
	}
	for _, s := range e.streams {
		c["host_errors"] += s.conn.Stats().Errors
	}
	return c
}

// liveResult is what measured windows yield. A window is cut into equal
// slices; each end-to-end metric is computed per slice and reported as the
// median over slices, so a transient (a GC cycle, a burst of host noise)
// moves one slice and not the run's figure.
type liveResult struct {
	// Per slice: payload MB/s of the bulk streams; midmean, median and p99
	// round trip of the lat streams; process CPU per completed I/O.
	mbps, midUS, p50US, tailUS, cpuUS []float64

	lat       []int64 // every measured round trip of the lat streams
	attempted int64   // requests submitted in the window, plus read-back checks
	failed    int64
	completed int64 // measured completions, all streams
	counts    map[string]int64
	proc      procDelta
}

// procDelta is what the whole process spent over an interval.
type procDelta struct {
	wall, cpu  time.Duration // cpu is user + system
	mallocs    uint64
	allocBytes uint64
	gcPause    time.Duration
}

func (p *procDelta) add(o procDelta) {
	p.wall, p.cpu, p.gcPause = p.wall+o.wall, p.cpu+o.cpu, p.gcPause+o.gcPause
	p.mallocs, p.allocBytes = p.mallocs+o.mallocs, p.allocBytes+o.allocBytes
}

// procSnap is the process's running totals at one instant.
type procSnap struct {
	at  time.Time
	cpu time.Duration
	mem runtime.MemStats
}

func takeProcSnap() *procSnap {
	p := &procSnap{}
	runtime.ReadMemStats(&p.mem)
	p.cpu, p.at = cpuNow(), time.Now()
	return p
}

func (p *procSnap) since() procDelta {
	q := takeProcSnap()
	return procDelta{
		wall: q.at.Sub(p.at), cpu: q.cpu - p.cpu,
		mallocs:    q.mem.Mallocs - p.mem.Mallocs,
		allocBytes: q.mem.TotalAlloc - p.mem.TotalAlloc,
		gcPause:    time.Duration(q.mem.PauseTotalNs - p.mem.PauseTotalNs),
	}
}

func cpuNow() time.Duration {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
}

// measure runs every stream's closed loop for a window of nSlices slices, then
// verifies what the write streams stored.
func (e *liveEnv) measure(nSlices int, sliceDur time.Duration) *liveResult {
	r := &liveResult{}
	before := e.counters()
	snap := takeProcSnap()
	t0 := snap.at
	// Process CPU time at every slice boundary.
	cpuAt := make([]time.Duration, nSlices+1)
	sampled := make(chan struct{})
	go func() {
		defer close(sampled)
		for k := range cpuAt {
			time.Sleep(time.Until(t0.Add(time.Duration(k) * sliceDur)))
			cpuAt[k] = cpuNow()
		}
	}()
	e.each(func(s *stream) { s.run(0, t0, nSlices, sliceDur) })
	<-sampled
	r.proc = snap.since()
	r.counts = e.counters()
	for k, v := range before {
		r.counts[k] -= v
	}
	for k := 0; k < nSlices; k++ {
		var bulkBytes, completed int64
		var lat []int64
		for _, s := range e.streams {
			sl := &s.slices[k]
			completed += sl.completed
			if s.spec.bulk {
				bulkBytes += sl.completed * int64(s.spec.blocks) * blockSize
			}
			if s.spec.lat {
				lat = append(lat, sl.lat...)
			}
		}
		slices.Sort(lat)
		r.mbps = append(r.mbps, float64(bulkBytes)/1e6/sliceDur.Seconds())
		r.midUS = append(r.midUS, midmean(lat)/1e3)
		r.p50US = append(r.p50US, us(quantile(lat, 0.5)))
		r.tailUS = append(r.tailUS, us(quantile(lat, 0.99)))
		r.cpuUS = append(r.cpuUS, float64((cpuAt[k+1]-cpuAt[k]).Nanoseconds())/1e3/float64(max(completed, 1)))
		r.completed += completed
		r.lat = append(r.lat, lat...)
	}
	for _, s := range e.streams {
		r.attempted += s.submitted
		r.failed += s.failed
		if s.spec.op == nvme.OpWrite {
			n, bad := e.readback(s)
			r.attempted += n
			r.failed += bad
		}
	}
	return r
}

// merge adds another window's slices, samples and counts to r.
func (r *liveResult) merge(o *liveResult) {
	r.mbps, r.midUS, r.p50US = append(r.mbps, o.mbps...), append(r.midUS, o.midUS...), append(r.p50US, o.p50US...)
	r.tailUS, r.cpuUS = append(r.tailUS, o.tailUS...), append(r.cpuUS, o.cpuUS...)
	r.lat = append(r.lat, o.lat...)
	r.attempted, r.failed, r.completed = r.attempted+o.attempted, r.failed+o.failed, r.completed+o.completed
	r.proc.add(o.proc)
	if r.counts == nil {
		r.counts = map[string]int64{}
	}
	for k, v := range o.counts {
		r.counts[k] += v
	}
}

// readback reads a seeded sample of the stream's completed writes straight
// from the device and checks the stamps the generator put in them. Every
// request below s.next has completed: run returns only after the last.
func (e *liveEnv) readback(s *stream) (checked, bad int64) {
	if s.next == 0 {
		return 0, 0
	}
	buf := make([]byte, int(s.spec.blocks)*blockSize)
	for k := uint64(0); k < readbackSamples; k++ {
		lba := lbaAt(s.seed, s.id, s.spec, mix64(s.seed+k)%s.next)
		checked++
		if err := e.dev.ReadBlocks(buf, lba); err != nil || !verifyBlocks(buf, lba, writeTag(s.seed)) {
			bad++
		}
	}
	return checked, bad
}
