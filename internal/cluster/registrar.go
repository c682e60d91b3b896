package cluster

import (
	"errors"
	"net/url"
	"sync"
	"time"
)

// RegistrarConfig configures a target's keep-alive registration loop.
type RegistrarConfig struct {
	// DiscoveryAddr is the control plane endpoint.
	DiscoveryAddr string
	// NQN, Addr and Mode describe this target in the map.
	NQN  string
	Addr string
	Mode uint8
	// Shards are the namespace shards this target volunteers to serve.
	Shards []uint32
	// Interval is the re-registration cadence (default 500ms).
	Interval time.Duration
	// TTL is the liveness deadline the target promises to refresh within
	// (default 3×Interval — two missed heartbeats before expiry).
	TTL time.Duration
	// Dialer optionally replaces net.Dial for registration traffic
	// (fault injection partitions target↔discovery here).
	Dialer Dialer
}

// Registrar keeps one target registered with the control plane: it
// re-registers every Interval carrying the last map epoch the plane
// returned, so the plane can tell a heartbeat from a stale rejoin. If a
// registration is refused for a stale epoch (this target expired and
// the map moved on), the registrar re-discovers the current map first
// and rejoins with the fresh epoch — it may come back only as a standby,
// never silently resuming its old role.
type Registrar struct {
	cfg  RegistrarConfig
	disc endpoint
	quit chan struct{}
	wg   sync.WaitGroup

	mu    sync.Mutex
	epoch uint64
}

// StartRegistrar performs one synchronous registration and then keeps it
// alive in the background until Stop. It fails fast only when the control
// plane refuses the entry; a plane it cannot reach yet is retried on the
// keep-alive cadence, like one that restarts later.
func StartRegistrar(cfg RegistrarConfig) (*Registrar, error) {
	if cfg.Interval <= 0 {
		cfg.Interval = 500 * time.Millisecond
	}
	if cfg.TTL <= 0 {
		cfg.TTL = 3 * cfg.Interval
	}
	r := &Registrar{cfg: cfg, disc: newEndpoint(cfg.DiscoveryAddr, cfg.Dialer), quit: make(chan struct{})}
	var unreachable *url.Error // the request got no answer
	if err := r.registerOnce(); err != nil && !errors.As(err, &unreachable) {
		return nil, err
	}
	r.wg.Add(1)
	go r.loop()
	return r, nil
}

// Stop ends the keep-alive loop. The registration is left to expire via
// its TTL (a dying target cannot be relied on to say goodbye anyway).
func (r *Registrar) Stop() {
	r.mu.Lock()
	select {
	case <-r.quit:
		r.mu.Unlock()
		return
	default:
	}
	close(r.quit)
	r.mu.Unlock()
	r.wg.Wait()
}

func (r *Registrar) loop() {
	defer r.wg.Done()
	t := time.NewTicker(r.cfg.Interval)
	defer t.Stop()
	for {
		select {
		case <-r.quit:
			return
		case <-t.C:
			// Any other failure (a partition, a restarting plane) is
			// retried on the next tick, inside the TTL's slack.
			if err := r.registerOnce(); errors.Is(err, ErrStaleEpoch) {
				// Expired while partitioned: adopt the current map's
				// epoch, then rejoin acting on fresh state.
				if m, derr := r.disc.discover(); derr == nil {
					r.mu.Lock()
					r.epoch = m.Epoch
					r.mu.Unlock()
					_ = r.registerOnce()
				}
			}
		}
	}
}

func (r *Registrar) registerOnce() error {
	r.mu.Lock()
	epoch := r.epoch
	r.mu.Unlock()
	m, err := r.disc.register(Registration{
		NQN:    r.cfg.NQN,
		Addr:   r.cfg.Addr,
		Mode:   r.cfg.Mode,
		TTLMs:  r.cfg.TTL.Milliseconds(),
		Epoch:  epoch,
		Shards: r.cfg.Shards,
	})
	if err != nil {
		return err
	}
	r.mu.Lock()
	r.epoch = m.Epoch
	r.mu.Unlock()
	return nil
}
