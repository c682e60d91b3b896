// Command opf-target runs a real NVMe-oPF target over TCP, serving an
// in-memory or file-backed block device.
//
// Usage:
//
//	opf-target -addr :4420 -blocks 262144                  # 1 GiB RAM disk
//	opf-target -addr :4420 -file /tmp/disk.img -blocks 262144
//	opf-target -mode baseline                              # SPDK-equivalent
//	opf-target -metrics-addr 127.0.0.1:9110                # live /metrics + /debug
//	opf-target -slo 1ms -autotune-e2e                      # adaptive TC windows held to a 1 ms LS objective
package main

import (
	"flag"
	"fmt"
	"log"
	"os"
	"os/signal"
	"syscall"
	"time"

	"nvmeopf/internal/autotune"
	"nvmeopf/internal/bdev"
	"nvmeopf/internal/targetqp"
	"nvmeopf/internal/tcptrans"
	"nvmeopf/internal/telemetry"
)

// blockSize is the namespace block size: 4 KiB, the paper's I/O unit.
const blockSize = 4096

func main() {
	var (
		addr      = flag.String("addr", "127.0.0.1:4420", "listen address")
		mode      = flag.String("mode", "opf", "target mode: opf or baseline")
		file      = flag.String("file", "", "backing file (empty: in-memory)")
		blocks    = flag.Uint64("blocks", 1<<18, "device capacity in blocks")
		readLat   = flag.Duration("read-lat", 0, "injected per-read device latency")
		writeLat  = flag.Duration("write-lat", 0, "injected per-write device latency")
		shards    = flag.Int("shards", 0, "reactor shards owning sessions round-robin (0: GOMAXPROCS)")
		statsSec  = flag.Int("stats", 10, "stats print interval seconds (0: off)")
		metrics   = flag.String("metrics-addr", "", "serve /metrics and /debug endpoints on this address (empty: off)")
		recStall  = flag.Duration("recorder-stall", 0, "drain-stall anomaly threshold for auto snapshots (0: off)")
		sloObj    = flag.Duration("slo", 0, "LS latency objective: set, an adaptive controller fits TC drain windows to it (0: static windows, bit-identical behavior)")
		sloTarget = flag.Float64("slo-target", 0.999, "fraction of LS completions that must meet -slo")

		autoE2E = flag.Bool("autotune-e2e", false, "also judge host-reported e2e latency (in-band TelemetryUpdate deltas) against -slo; off: service-side signal only, bit-identical behavior")

		maxPendingTenant = flag.Int("max-pending-tenant", 0, "per-tenant pending-request cap: excess answered StatusBusy (0: off)")
		maxPendingGlobal = flag.Int("max-pending-global", 0, "global pending-request cap: excess answered StatusBusy (0: off)")
		lsHeadroom       = flag.Int("ls-headroom", 0, "slots of -max-pending-global reserved for latency-sensitive requests")
		scavHeadroom     = flag.Int("scavenger-headroom", 0, "additional slots of -max-pending-global scavenger requests may never occupy")
		drainWatchdog    = flag.Duration("drain-watchdog", 0, "force-drain a TC queue parked this long with no draining flag (0: off)")
		scavAging        = flag.Duration("scavenger-aging", 0, "force-drain a scavenger queue parked this long behind foreground traffic (0: drain only on idle capacity)")
	)
	flag.Parse()

	var m targetqp.Mode
	switch *mode {
	case "opf":
		m = targetqp.ModeOPF
	case "baseline":
		m = targetqp.ModeBaseline
	default:
		log.Fatalf("unknown mode %q (want opf or baseline)", *mode)
	}

	var dev bdev.Device
	var err error
	if *file != "" {
		var fd *bdev.File
		fd, err = bdev.OpenFile(*file, blockSize, *blocks)
		if err == nil {
			defer fd.Close()
			dev = fd
		}
	} else {
		dev, err = bdev.NewMemory(blockSize, *blocks)
	}
	if err != nil {
		log.Fatalf("device: %v", err)
	}

	var tel *telemetry.Registry
	var rec *telemetry.Recorder
	if *metrics != "" {
		tel = telemetry.New()
		rec = telemetry.NewRecorder(telemetry.RecorderConfig{
			StallThreshold: *recStall, // 4096 events per tenant
			Role:           "target",
		})
		tel.SetRecorder(rec) // serves JSONL dumps at /debug/trace
	}
	var atCfg *autotune.Config
	if *sloObj > 0 {
		atCfg = &autotune.Config{
			ObjectiveNS: sloObj.Nanoseconds(),
			BudgetPPM:   autotune.BudgetPPMForTarget(*sloTarget),
			E2E:         *autoE2E,
		}
	} else if *autoE2E {
		log.Fatalf("-autotune-e2e requires -slo (the objective its e2e term is judged against)")
	}
	srv, err := tcptrans.Listen(*addr, tcptrans.ServerConfig{
		Mode:                m,
		Device:              dev,
		Shards:              *shards,
		ReadLatency:         *readLat,
		WriteLatency:        *writeLat,
		MaxPendingPerTenant: *maxPendingTenant,
		MaxPendingGlobal:    *maxPendingGlobal,
		LSHeadroom:          *lsHeadroom,
		ScavengerHeadroom:   *scavHeadroom,
		DrainWatchdog:       *drainWatchdog,
		ScavengerAging:      *scavAging,
		Telemetry:           tel,
		Recorder:            rec,
		Autotune:            atCfg,
	})
	if err != nil {
		log.Fatalf("listen: %v", err)
	}
	defer srv.Close()
	log.Printf("nvme-opf target (%s, %d shards) serving %d x %dB blocks on %s", m, srv.Shards(), *blocks, blockSize, srv.Addr())
	if tel != nil {
		exp, merr := tel.Serve(*metrics)
		if merr != nil {
			log.Fatalf("metrics: %v", merr)
		}
		defer exp.Close()
		log.Printf("telemetry on http://%s/metrics (debug: /debug/tenants, /debug/autotune, /debug/e2e, /debug/trace)", exp.Addr())
	}
	stop := make(chan os.Signal, 1)
	signal.Notify(stop, os.Interrupt, syscall.SIGTERM)
	if *statsSec > 0 {
		ticker := time.NewTicker(time.Duration(*statsSec) * time.Second)
		defer ticker.Stop()
		for {
			select {
			case <-ticker.C:
				st := srv.Stats()
				fmt.Printf("conns=%d cmds=%d resps=%d data=%d reads=%d writes=%d errors=%d\n",
					st.Connections, st.CmdPDUs, st.RespPDUs, st.DataPDUs, st.Reads, st.Writes, st.Errors)
			case <-stop:
				log.Println("shutting down")
				return
			}
		}
	}
	<-stop
	log.Println("shutting down")
}
