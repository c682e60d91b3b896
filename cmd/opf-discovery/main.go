// Command opf-discovery runs the cluster control plane (cluster.
// DiscoveryServer): it tracks member liveness through TTL'd keep-alive
// registrations and maintains the shard → primary/replica map under a
// monotonic epoch, served as one JSON document at /cluster. Targets
// register via opf-target's -discovery/-nqn/-keepalive flags; hosts route
// replicated I/O with cluster.Dial (opf-perf -discovery).
//
// Usage:
//
//	opf-discovery -addr 127.0.0.1:4419
//	opf-discovery -addr :4419 -debug-addr 127.0.0.1:9119
//
// With -debug-addr set, the same map is served at /debug/cluster and the
// control-plane counters (TTL expiries, stale-epoch rejections, epoch,
// degradation) in /debug/tenants' global block.
package main

import (
	"errors"
	"flag"
	"log"
	"net"
	"net/http"
	"os"
	"os/signal"
	"syscall"

	"nvmeopf/internal/cluster"
	"nvmeopf/internal/telemetry"
)

func main() {
	var (
		addr      = flag.String("addr", "127.0.0.1:4419", "listen address")
		debugAddr = flag.String("debug-addr", "", "serve /debug/cluster and the telemetry routes on this address (empty: off)")
	)
	flag.Parse()

	tel := telemetry.New()
	d, err := cluster.ListenDiscovery(*addr, cluster.DiscoveryConfig{Telemetry: tel})
	if err != nil {
		log.Fatal(err)
	}
	defer d.Close()
	log.Printf("nvme-opf discovery control plane on %s", d.Addr())

	var debugLn net.Listener
	if *debugAddr != "" {
		debugLn, err = net.Listen("tcp", *debugAddr)
		if err != nil {
			log.Fatalf("debug listener: %v", err)
		}
		mux := http.NewServeMux()
		mux.Handle("/debug/cluster", d.ClusterHandler())
		mux.Handle("/", tel.Handler())
		go func() {
			if serr := http.Serve(debugLn, mux); serr != nil && !isClosed(serr) {
				log.Printf("debug server: %v", serr)
			}
		}()
		log.Printf("cluster state on http://%s/debug/cluster (counters: /debug/tenants)", debugLn.Addr())
	}

	// A control plane dies on operator interrupt AND on supervisor
	// SIGTERM; both paths close the listeners so in-flight registrations
	// finish and the port frees immediately.
	stop := make(chan os.Signal, 1)
	signal.Notify(stop, os.Interrupt, syscall.SIGTERM)
	sig := <-stop
	log.Printf("%v: shutting down", sig)
	if debugLn != nil {
		debugLn.Close()
	}
	if err := d.Close(); err != nil {
		log.Printf("close: %v", err)
	}
}

func isClosed(err error) bool {
	return errors.Is(err, http.ErrServerClosed) || errors.Is(err, net.ErrClosed)
}
