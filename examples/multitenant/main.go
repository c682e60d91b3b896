// Multitenant: the paper's headline scenario on the real TCP transport.
// One latency-sensitive tenant shares a target with several
// throughput-critical tenants; the run is repeated against a baseline
// (SPDK-equivalent) target and an NVMe-oPF target, printing the LS
// latency distribution and the completion-notification counts both ways.
// The oPF run shows fewer response PDUs (coalescing) and a flatter LS
// tail (queue bypass).
package main

import (
	"fmt"
	"log"
	"sync"
	"time"

	"nvmeopf"
	"nvmeopf/internal/bdev"
	"nvmeopf/internal/stats"
)

const (
	tcTenants = 3
	tcQD      = 64
	window    = 16
	runFor    = 2 * time.Second
)

func run(mode nvmeopf.Mode) (lsHist *stats.Histogram, respPDUs, cmdPDUs int64) {
	dev, err := bdev.NewMemory(4096, 1<<16)
	if err != nil {
		log.Fatal(err)
	}
	srv, err := nvmeopf.Listen("127.0.0.1:0", nvmeopf.ServerConfig{
		Mode:   mode,
		Device: dev,
		// Make the RAM disk behave like flash so queueing is visible.
		ReadLatency:  100 * time.Microsecond,
		WriteLatency: 300 * time.Microsecond,
		Workers:      4,
	})
	if err != nil {
		log.Fatal(err)
	}
	defer srv.Close()

	stopAt := time.Now().Add(runFor)
	var wg sync.WaitGroup

	// Throughput-critical tenants hammer the target with writes.
	for i := 0; i < tcTenants; i++ {
		i := i
		wg.Add(1)
		go func() {
			defer wg.Done()
			conn, err := nvmeopf.Dial(srv.Addr(), nvmeopf.InitiatorConfig{
				Class: nvmeopf.ThroughputCritical, Window: window, QueueDepth: tcQD, NSID: 1,
			})
			if err != nil {
				log.Fatal(err)
			}
			defer conn.Close()
			var inner sync.WaitGroup
			buf := make([]byte, 4096)
			var submit func(lba uint64)
			submit = func(lba uint64) {
				if time.Now().After(stopAt) {
					inner.Done()
					return
				}
				err := conn.Submit(nvmeopf.IO{
					Op: nvmeopf.OpWrite, LBA: lba, Blocks: 1, Data: buf,
					Done: func(nvmeopf.Result) { submit((lba + 1) % 4096) },
				})
				if err != nil {
					inner.Done()
				}
			}
			for q := 0; q < tcQD; q++ {
				inner.Add(1)
				submit(uint64(i*8192 + q*64))
			}
			inner.Wait()
		}()
	}

	// The latency-sensitive tenant issues one read at a time and records
	// its latency distribution.
	var hist stats.Histogram
	wg.Add(1)
	go func() {
		defer wg.Done()
		conn, err := nvmeopf.Dial(srv.Addr(), nvmeopf.InitiatorConfig{
			Class: nvmeopf.LatencySensitive, Window: 1, QueueDepth: 1, NSID: 1,
		})
		if err != nil {
			log.Fatal(err)
		}
		defer conn.Close()
		for lba := uint64(60000); time.Now().Before(stopAt); lba++ {
			t0 := time.Now()
			if _, err := conn.Read(lba%4096+60000, 1, 0); err != nil {
				log.Fatal(err)
			}
			hist.Record(time.Since(t0).Nanoseconds())
		}
	}()

	wg.Wait()
	st := srv.Stats()
	return &hist, st.RespPDUs, st.CmdPDUs
}

func main() {
	fmt.Printf("multi-tenant demo: 1 LS reader + %d TC writers (QD %d, window %d) for %v per mode\n\n",
		tcTenants, tcQD, window, runFor)
	for _, mode := range []nvmeopf.Mode{nvmeopf.ModeBaseline, nvmeopf.ModeOPF} {
		hist, resp, cmd := run(mode)
		fmt.Printf("%-14s LS reads=%d p50=%s p99=%s max=%s | target: %d cmds -> %d completion PDUs\n",
			mode.String()+":", hist.Count(),
			stats.FormatNanos(hist.P50()), stats.FormatNanos(hist.P99()), stats.FormatNanos(hist.Max()),
			cmd, resp)
	}
	fmt.Println("\nNVMe-oPF coalesces completion notifications (fewer response PDUs)")
	fmt.Println("and bypasses the TC backlog for the latency-sensitive tenant.")
}
