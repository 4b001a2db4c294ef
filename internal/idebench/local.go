package idebench

import (
	"context"
	"math/rand"
	"net"
	"net/http"
	"time"

	"dex/internal/core"
	"dex/internal/server"
	"dex/internal/shard"
	"dex/internal/workload"
)

// LocalConfig parameterizes an in-process dexd target.
type LocalConfig struct {
	// Rows is the sales-table size (default 50_000), Seed its generator
	// seed.
	Rows int
	Seed int64
	// MaxInFlight / MaxQueue size the admission envelope. The defaults
	// (8 / 256) are deliberately larger than the server's own
	// GOMAXPROCS-derived default: the benchmark's job is to measure how
	// deadline behavior degrades as users pile up, which requires letting
	// them pile up rather than shedding at the door on a small host.
	MaxInFlight int
	MaxQueue    int
	// QueueTimeout bounds time-in-queue (default 500ms — longer than any
	// sensible interactive deadline, so the deadline, not the queue
	// policy, is what cuts a slow query).
	QueueTimeout time.Duration
	// CacheRows is the shared result-cache budget (default 1<<20 rows).
	// The cache is what prefetch warming fills, so disabling it (<0)
	// also disables the warming comparison.
	CacheRows int64
	// Shards, when > 0, spins an in-process worker fleet and makes the
	// server a coordinator: every sales query scatters across the shards
	// and gathers merged results, so the benchmark measures the
	// distributed path on the same HTTP surface.
	Shards int
}

// Local is an in-process dexd instance listening on a loopback port —
// the same HTTP surface as the real binary, so the driver measures real
// client/server/network behavior without needing a deployed server.
type Local struct {
	URL    string
	Server *server.Server

	httpSrv *http.Server
	lis     net.Listener
	fleet   *shard.LocalFleet
}

// StartLocal builds a seeded engine with the demo sales table, wraps it
// in a dexd service, and serves it on 127.0.0.1:0.
func StartLocal(cfg LocalConfig) (*Local, error) {
	if cfg.Rows <= 0 {
		cfg.Rows = 50_000
	}
	if cfg.MaxInFlight <= 0 {
		cfg.MaxInFlight = 8
	}
	if cfg.MaxQueue == 0 {
		cfg.MaxQueue = 256
	}
	if cfg.QueueTimeout <= 0 {
		cfg.QueueTimeout = 500 * time.Millisecond
	}
	if cfg.CacheRows == 0 {
		cfg.CacheRows = 1 << 20
	} else if cfg.CacheRows < 0 {
		cfg.CacheRows = 0
	}
	eng := core.New(core.Options{Seed: cfg.Seed, Degrade: true})
	sales, err := workload.Sales(rand.New(rand.NewSource(cfg.Seed)), cfg.Rows)
	if err != nil {
		return nil, err
	}
	if err := eng.Register(sales); err != nil {
		return nil, err
	}
	scfg := server.Config{
		MaxInFlight:  cfg.MaxInFlight,
		MaxQueue:     cfg.MaxQueue,
		QueueTimeout: cfg.QueueTimeout,
		CacheRows:    cfg.CacheRows,
	}
	var fleet *shard.LocalFleet
	if cfg.Shards > 0 {
		fleet, err = shard.StartLocalFleet(context.Background(), shard.FleetConfig{
			Shards: cfg.Shards,
			Rows:   cfg.Rows,
			Seed:   cfg.Seed,
		})
		if err != nil {
			return nil, err
		}
		scfg.Shard = fleet.Coord
	}
	svc := server.New(eng, scfg)
	lis, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		if fleet != nil {
			fleet.Close()
		}
		return nil, err
	}
	l := &Local{
		URL:     "http://" + lis.Addr().String(),
		Server:  svc,
		httpSrv: &http.Server{Handler: svc},
		lis:     lis,
		fleet:   fleet,
	}
	go l.httpSrv.Serve(lis)
	return l, nil
}

// Close drains in-flight queries briefly and tears the server (and any
// worker fleet) down.
func (l *Local) Close() {
	ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
	defer cancel()
	l.Server.Drain(ctx)
	l.httpSrv.Close()
	if l.fleet != nil {
		l.fleet.Close()
	}
}
