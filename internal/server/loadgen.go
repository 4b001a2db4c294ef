package server

import (
	"context"
	"errors"
	"fmt"
	"math/rand"
	"sync"
	"time"

	"dex/internal/metrics"
	"dex/internal/workload"
)

// LoadConfig parameterizes one closed-loop load run against a dexd
// instance: Clients concurrent synthetic explorers, each replaying a
// seeded exploration session with think time between queries — the
// IDEBench shape of interactive workloads, where a user reads the last
// result before issuing the next query.
type LoadConfig struct {
	Clients          int
	QueriesPerClient int
	// Think is the pause between a response and the next query (0 = none:
	// a saturating closed loop).
	Think time.Duration
	// Seed makes the query streams reproducible; client i uses Seed+i.
	Seed int64
	// Mode is the execution mode every query requests ("" = exact).
	Mode string
	// Timeout is the per-query deadline sent as timeout_ms (0 = server
	// default).
	Timeout time.Duration
	// MaxRetries bounds how often a load-shed (429/503) query is retried
	// after the server's Retry-After hint before being dropped (default 3).
	MaxRetries int
}

// LoadReport is the outcome of one load run.
type LoadReport struct {
	Clients  int   `json:"clients"`
	Queries  int64 `json:"queries"`
	Rejected int64 `json:"rejected"` // load-shed responses (pre-retry)
	Dropped  int64 `json:"dropped"`  // queries abandoned after MaxRetries
	// Failed counts queries the server answered with a non-admission error
	// (bad SQL, unknown session, internal failure) — something is wrong
	// with the workload or the server, and retrying would not help.
	Failed int64 `json:"failed"`
	// Transport counts queries that never got an HTTP response: connection
	// refused, reset, EOF mid-body. Separated from Failed because the
	// remedies differ — transport errors mean the server is unreachable or
	// flapping, not that the queries are wrong.
	Transport int64 `json:"transport_errors"`
	// Degraded counts completed queries whose answer was an approximate
	// stand-in for an over-deadline exact result (degraded:true on the wire).
	Degraded  int64   `json:"degraded"`
	WallS     float64 `json:"wall_s"`
	Qps       float64 `json:"qps"`
	MeanMS    float64 `json:"mean_ms"`
	P50MS     float64 `json:"p50_ms"`
	P95MS     float64 `json:"p95_ms"`
	P99MS     float64 `json:"p99_ms"`
	MaxMS     float64 `json:"max_ms"`
	CacheHits int64   `json:"cache_hits"`
}

// RunLoad drives cfg.Clients concurrent sessions against the service and
// reports completed-query throughput and client-observed latency quantiles.
// Latency is measured around the whole HTTP round trip — what the user
// feels — and only successful queries are sampled.
func RunLoad(ctx context.Context, cl *Client, cfg LoadConfig) (*LoadReport, error) {
	if cfg.Clients <= 0 {
		cfg.Clients = 1
	}
	if cfg.QueriesPerClient <= 0 {
		cfg.QueriesPerClient = 20
	}
	if cfg.MaxRetries <= 0 {
		cfg.MaxRetries = 3
	}

	type clientResult struct {
		hist      *metrics.LogHist
		completed int64
		rejected  int64
		dropped   int64
		failed    int64
		transport int64
		degraded  int64
		cacheHits int64
		err       error
	}
	results := make([]clientResult, cfg.Clients)
	var wg sync.WaitGroup
	start := time.Now()
	for c := 0; c < cfg.Clients; c++ {
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			res := &results[c]
			res.hist = metrics.NewLogHist()
			id, err := cl.CreateSession(ctx)
			var shed *RejectedError
			if errors.As(err, &shed) {
				// Shed at the door (503 draining): this user's whole
				// session is load the server refused, not a harness
				// failure — the same bucket a shed query lands in.
				res.rejected++
				res.dropped += int64(cfg.QueriesPerClient)
				return
			}
			if err != nil {
				res.err = fmt.Errorf("client %d: create session: %w", c, err)
				return
			}
			defer cl.EndSession(ctx, id)
			stmts := workload.ExplorationSQL(rand.New(rand.NewSource(cfg.Seed+int64(c))), cfg.QueriesPerClient)
			for _, sql := range stmts {
				req := QueryRequest{SQL: sql, Mode: cfg.Mode, TimeoutMS: cfg.Timeout.Milliseconds()}
				var rej *RejectedError
				retries := 0
			attempt:
				t0 := time.Now()
				out, err := cl.Query(ctx, id, req)
				switch {
				case err == nil:
					res.hist.Add(time.Since(t0).Seconds())
					res.completed++
					if out.Cached {
						res.cacheHits++
					}
					if out.Degraded {
						res.degraded++
					}
				case errors.As(err, &rej):
					// Well-behaved client: honor Retry-After, retry a
					// bounded number of times, then give up on this query.
					res.rejected++
					if retries++; retries <= cfg.MaxRetries {
						backoff := rej.RetryAfter
						if backoff <= 0 {
							backoff = 50 * time.Millisecond
						}
						select {
						case <-time.After(backoff):
						case <-ctx.Done():
							res.err = ctx.Err()
							return
						}
						goto attempt
					}
					res.dropped++
				case ctx.Err() != nil:
					res.err = ctx.Err()
					return
				case IsTransport(err):
					// The server never answered. Retrying is the client
					// retry policy's job (if one is set, it already gave
					// up); here we just refuse to miscount an unreachable
					// server as a workload failure.
					res.transport++
				default:
					res.failed++
				}
				if cfg.Think > 0 {
					select {
					case <-time.After(cfg.Think):
					case <-ctx.Done():
						res.err = ctx.Err()
						return
					}
				}
			}
		}(c)
	}
	wg.Wait()
	wall := time.Since(start)

	merged := metrics.NewLogHist()
	rep := &LoadReport{Clients: cfg.Clients, WallS: wall.Seconds()}
	for i := range results {
		r := &results[i]
		if r.err != nil {
			return nil, r.err
		}
		merged.Merge(r.hist)
		rep.Queries += r.completed
		rep.Rejected += r.rejected
		rep.Dropped += r.dropped
		rep.Failed += r.failed
		rep.Transport += r.transport
		rep.Degraded += r.degraded
		rep.CacheHits += r.cacheHits
	}
	if wall > 0 {
		rep.Qps = float64(rep.Queries) / wall.Seconds()
	}
	rep.MeanMS = merged.Mean() * 1e3
	rep.P50MS = merged.Quantile(0.5) * 1e3
	rep.P95MS = merged.Quantile(0.95) * 1e3
	rep.P99MS = merged.Quantile(0.99) * 1e3
	rep.MaxMS = merged.Max() * 1e3
	return rep, nil
}
