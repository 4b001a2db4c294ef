// Command dexcluster launches a local dex cluster: N shard worker
// processes (re-executions of this binary) plus a coordinator dexd
// serving the usual HTTP API. It exists so the distributed path can be
// exercised and measured across real process boundaries with one
// command.
//
// Usage:
//
//	dexcluster [-shards 2] [-rows 1000000] [-seed 1] [-scheme hash]
//	           [-kind sales] [-col amount] [-addr :8080]
//	dexcluster -smoke [-shards 2] [-rows 200000]
//
// -smoke runs the CI drill instead of serving: one query per execution
// mode through the full coordinator/worker stack, then a shard kill and
// a degradation check (degraded:true with an accurate coverage
// fraction); with -heal (the default) the killed worker is then
// restarted blank and the drill gates on the healer returning coverage
// to exactly 1.0 with the full count restored. Exits non-zero on any
// failure.
package main

import (
	"context"
	"flag"
	"fmt"
	"log"
	"net/http"
	"net/http/httptest"
	"os"
	"os/signal"
	"syscall"
	"time"

	"dex/internal/core"
	"dex/internal/fault"
	"dex/internal/protocol"
	"dex/internal/server"
	"dex/internal/shard"
)

func main() {
	// Children spawned by SpawnWorkers re-enter main here and become
	// workers; this call never returns in that case.
	shard.MaybeWorkerProcess()

	shards := flag.Int("shards", 2, "worker process count")
	rows := flag.Int("rows", 1_000_000, "demo table rows")
	seed := flag.Int64("seed", 1, "data + engine seed")
	scheme := flag.String("scheme", "hash", "partition scheme (hash|range)")
	kind := flag.String("kind", "sales", "demo table (sales|sky|ticks)")
	col := flag.String("col", "amount", "partition column")
	addr := flag.String("addr", ":8080", "coordinator HTTP listen address")
	smoke := flag.Bool("smoke", false, "run the cluster smoke drill and exit")
	heal := flag.Bool("heal", true, "re-stage or re-partition lost shards automatically")
	healInterval := flag.Duration("heal-interval", 500*time.Millisecond, "how often the healer re-checks lost shards")
	repartitionAfter := flag.Duration("repartition-after", 10*time.Second, "how long a shard stays lost before survivors adopt its rows (<0 = never)")
	flag.Parse()

	logger := log.New(os.Stderr, "dexcluster ", log.LstdFlags)
	if err := fault.InitFromEnv(); err != nil {
		logger.Fatalf("bad %s: %v", fault.EnvPoints, err)
	}

	sc, err := shard.ParseScheme(*scheme)
	if err != nil {
		logger.Fatal(err)
	}
	fleet, err := shard.SpawnWorkers(*shards, *seed)
	if err != nil {
		logger.Fatal(err)
	}
	defer fleet.Close()
	logger.Printf("spawned %d worker processes: %v", *shards, fleet.Addrs)

	coord, err := shard.New(shard.Config{
		Spec:             shard.Spec{Table: *kind, Column: *col, Scheme: sc},
		Workers:          fleet.Addrs,
		Heal:             *heal,
		HealInterval:     *healInterval,
		RepartitionAfter: *repartitionAfter,
	})
	if err != nil {
		logger.Fatal(err)
	}
	bctx, bcancel := context.WithTimeout(context.Background(), 2*time.Minute)
	err = coord.Bootstrap(bctx, protocol.Load{Kind: *kind, Rows: *rows, Seed: *seed})
	bcancel()
	if err != nil {
		logger.Fatal(err)
	}
	snap := coord.Snapshot()
	logger.Printf("partitioned %q: %d rows over %d shards (%s on %s)",
		snap.Table, snap.Rows, len(snap.Shards), snap.Scheme, snap.Column)

	eng := core.New(core.Options{Seed: *seed})
	svc := server.New(eng, server.Config{Log: logger, Shard: coord})

	if *smoke {
		if err := runSmoke(svc, fleet, snap.Rows, *heal); err != nil {
			logger.Fatalf("SMOKE FAIL: %v", err)
		}
		logger.Printf("SMOKE OK")
		return
	}

	httpSrv := &http.Server{Addr: *addr, Handler: svc}
	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()
	go func() {
		<-ctx.Done()
		logger.Printf("signal received; shutting down")
		shutCtx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
		defer cancel()
		httpSrv.Shutdown(shutCtx)
	}()
	logger.Printf("coordinator serving on %s", *addr)
	httpSrv.ListenAndServe()
}

// runSmoke drives the coordinator HTTP surface end to end: one query per
// execution mode, then a worker kill and a degradation check, and — with
// healing on — a blank restart of the killed worker followed by a gate on
// coverage returning to exactly 1.0 with the full count restored.
func runSmoke(svc *server.Server, fleet *shard.ProcFleet, totalRows int64, heal bool) error {
	ts := httptest.NewServer(svc)
	defer ts.Close()
	cl := server.NewClient(ts.URL)
	cl.HTTP = ts.Client()
	ctx := context.Background()

	sid, err := cl.CreateSession(ctx)
	if err != nil {
		return fmt.Errorf("create session: %w", err)
	}
	query := func(sql, mode string) (*server.QueryResult, error) {
		return cl.Query(ctx, sid, server.QueryRequest{SQL: sql, Mode: mode})
	}

	for _, mode := range []string{"exact", "cracked", "approx", "online"} {
		res, err := query("SELECT count(*) FROM sales", mode)
		if err != nil {
			return fmt.Errorf("mode %s: %w", mode, err)
		}
		if len(res.Rows) == 0 {
			return fmt.Errorf("mode %s: empty result", mode)
		}
		if res.Degraded || res.Coverage != 1 {
			return fmt.Errorf("mode %s: healthy fleet answered degraded=%v coverage=%v",
				mode, res.Degraded, res.Coverage)
		}
	}
	exact, err := query("SELECT count(*) FROM sales", "exact")
	if err != nil {
		return err
	}
	full := toI64(exact.Rows[0][0])
	if full != totalRows {
		return fmt.Errorf("full count %d != placed rows %d", full, totalRows)
	}

	// Kill one worker: the next exact count must degrade with a coverage
	// fraction matching the surviving rows exactly.
	fleet.Kill(0)
	deadline := time.Now().Add(15 * time.Second)
	for {
		res, err := query("SELECT count(*) FROM sales", "exact")
		if err != nil {
			return fmt.Errorf("post-kill query: %w", err)
		}
		if res.Degraded {
			got := toI64(res.Rows[0][0])
			wantCov := float64(got) / float64(totalRows)
			if res.Coverage <= 0 || res.Coverage >= 1 {
				return fmt.Errorf("degraded result with coverage %v", res.Coverage)
			}
			if diff := res.Coverage - wantCov; diff > 1e-9 || diff < -1e-9 {
				return fmt.Errorf("coverage %v does not match surviving rows %d/%d (%v)",
					res.Coverage, got, totalRows, wantCov)
			}
			break
		}
		if time.Now().After(deadline) {
			return fmt.Errorf("killed shard never degraded a query")
		}
	}
	if !heal {
		return nil
	}

	// Restart the worker blank on its old address: the coordinator's healer
	// must re-stage its partition and return the fleet to exactly full
	// coverage — no coordinator restart, full counts again.
	if err := fleet.Restart(0); err != nil {
		return fmt.Errorf("restart worker 0: %w", err)
	}
	deadline = time.Now().Add(30 * time.Second)
	for {
		res, err := query("SELECT count(*) FROM sales", "exact")
		if err != nil {
			return fmt.Errorf("post-restart query: %w", err)
		}
		if !res.Degraded && res.Coverage == 1 {
			if got := toI64(res.Rows[0][0]); got != totalRows {
				return fmt.Errorf("healed count %d != placed rows %d", got, totalRows)
			}
			return nil
		}
		if time.Now().After(deadline) {
			return fmt.Errorf("fleet never healed to full coverage (degraded=%v coverage=%v)",
				res.Degraded, res.Coverage)
		}
		time.Sleep(50 * time.Millisecond)
	}
}

func toI64(v any) int64 {
	if x, ok := v.(float64); ok {
		return int64(x)
	}
	return -1
}
