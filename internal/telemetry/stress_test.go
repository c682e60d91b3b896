package telemetry

import (
	"sync"
	"testing"

	"nvmeopf/internal/proto"
)

// TestRegistryConcurrentStress hammers every record path from many
// goroutines while readers scrape continuously. Run with -race (the CI
// race job covers this package): the registry must be completely
// lock-free-safe on the record path and consistent on the read path.
func TestRegistryConcurrentStress(t *testing.T) {
	r := New()
	const (
		writers = 16
		perG    = 2000
	)
	var wg sync.WaitGroup
	stop := make(chan struct{})

	// Scrapers: exercise every snapshot path concurrently with writers.
	for i := 0; i < 4; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				select {
				case <-stop:
					return
				default:
				}
				_ = r.Tenants()
				_ = r.Global()
				_ = r.PrometheusText()
			}
		}()
	}

	var writerWG sync.WaitGroup
	for g := 0; g < writers; g++ {
		writerWG.Add(1)
		go func(g int) {
			defer writerWG.Done()
			tid := proto.TenantID(g % 8)
			for i := 0; i < perG; i++ {
				r.IncSubmitted(tid, 4096)
				r.IncTCQueued(tid)
				r.SetQueueDepth(tid, i%64)
				r.IncCompleted(tid, proto.Priority(1+g%2), int64(i), 4096, i%100 != 0)
				r.IncSuppressed(tid)
				r.IncResponse(tid, i%16 == 0)
				r.ObserveDrain(tid, 16, i%2 == 0)
				r.IncConnection()
			}
		}(g)
	}
	writerWG.Wait()
	close(stop)
	wg.Wait()

	var submitted, completed, errors int64
	for _, s := range r.Tenants() {
		submitted += s.Submitted
		completed += s.Completed
		errors += s.Errors
	}
	const total = writers * perG
	if submitted != total || completed != total {
		t.Fatalf("lost updates: submitted=%d completed=%d, want %d", submitted, completed, total)
	}
	if errors != writers*(perG/100) {
		t.Fatalf("errors = %d, want %d", errors, writers*(perG/100))
	}
	if got := r.Global().Connections; got != total {
		t.Fatalf("connections = %d, want %d", got, total)
	}
}
