package idebench

import (
	"context"
	"math/rand"
	"net"
	"net/http"
	"time"

	"dex/internal/core"
	"dex/internal/server"
	"dex/internal/workload"
)

// LocalConfig parameterizes an in-process dexd target.
type LocalConfig struct {
	// Rows is the sales-table size (default 50_000), Seed its generator
	// seed.
	Rows int
	Seed int64
}

// The in-process server's admission envelope and result cache. The
// envelope is deliberately larger than the server's own GOMAXPROCS-derived
// default: the benchmark's job is to measure how deadline behavior
// degrades as users pile up, which requires letting them pile up rather
// than shedding at the door on a small host. The queue timeout is longer
// than any sensible interactive deadline, so the deadline, not the queue
// policy, is what cuts a slow query. The cache is what prefetch warming
// fills.
const (
	localMaxInFlight  = 8
	localMaxQueue     = 256
	localQueueTimeout = 500 * time.Millisecond
	localCacheRows    = 1 << 20
)

// Local is an in-process dexd instance listening on a loopback port —
// the same HTTP surface as the real binary, so the driver measures real
// client/server/network behavior without needing a deployed server.
type Local struct {
	URL    string
	Server *server.Server

	httpSrv *http.Server
}

// StartLocal builds a seeded engine with the demo sales table, wraps it
// in a dexd service, and serves it on 127.0.0.1:0.
func StartLocal(cfg LocalConfig) (*Local, error) {
	if cfg.Rows <= 0 {
		cfg.Rows = 50_000
	}
	eng := core.New(core.Options{Seed: cfg.Seed, Degrade: true})
	sales, err := workload.Sales(rand.New(rand.NewSource(cfg.Seed)), cfg.Rows)
	if err != nil {
		return nil, err
	}
	if err := eng.Register(sales); err != nil {
		return nil, err
	}
	svc := server.New(eng, server.Config{
		MaxInFlight:  localMaxInFlight,
		MaxQueue:     localMaxQueue,
		QueueTimeout: localQueueTimeout,
		CacheRows:    localCacheRows,
	})
	lis, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return nil, err
	}
	l := &Local{
		URL:     "http://" + lis.Addr().String(),
		Server:  svc,
		httpSrv: &http.Server{Handler: svc},
	}
	go l.httpSrv.Serve(lis)
	return l, nil
}

// Close drains in-flight queries briefly and tears the server down.
func (l *Local) Close() {
	ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
	defer cancel()
	l.Server.Drain(ctx)
	l.httpSrv.Close()
}
