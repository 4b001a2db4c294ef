// Command dexd serves the exploration engine over HTTP: per-connection
// sessions, four execution modes, per-request deadlines, client-disconnect
// cancellation, admission control and live stats.
//
// Usage:
//
//	dexd [-addr :8080] [-load name=path.csv]... [-demo sales -rows 1000000]
//	     [-parallel N] [-morsel N] [-seed 1] [-degrade]
//	     [-slowms 500] [-pprof] [-reqlog]
//	dexd smoke
//	dexd load  [-addr http://host:8080] [-users 4] [-ops 12] [-think 1] ...
//	dexd chaos [-seed 1] [-users 3] [-ops 10] [-fault AT:SITE=SPEC[:FOR]]... ...
//
// Observability: /metrics serves Prometheus text exposition, /admin/slow
// the traces of queries slower than -slowms, -pprof mounts
// net/http/pprof, and -reqlog logs one structured line per query.
//
// On SIGINT/SIGTERM it drains gracefully: new queries get 503 while every
// admitted query runs to completion (up to 30s).
//
// Cluster modes (see DESIGN.md "Distributed execution"):
//
//	dexd -worker :9090                 serve the shard protocol, no HTTP;
//	                                   the coordinator loads and partitions it
//	dexd -shard-workers a:9090,b:9090  coordinate a fleet: hash-partition
//	     [-shard-col amount]           -demo across the workers and
//	                                   scatter/gather queries on that table;
//	                                   other tables stay local
//
// The subcommands drive a server rather than being one: smoke boots this
// binary as a child dexd and checks its observability surfaces, load runs
// the IDEBench session driver against -addr (or an in-process server), and
// chaos replays sessions against an in-process server under a seeded
// failpoint schedule. Run `dexd <subcommand> -h` for their flags.
package main

import (
	"context"
	"errors"
	"flag"
	"log"
	"log/slog"
	"math/rand"
	"net"
	"net/http"
	"os"
	"os/signal"
	"strings"
	"syscall"
	"time"

	"dex/internal/core"
	"dex/internal/exec"
	"dex/internal/fault"
	"dex/internal/protocol"
	"dex/internal/server"
	"dex/internal/shard"
	"dex/internal/workload"
)

const (
	// cacheRows is the shared result cache budget in rows.
	cacheRows = 1_000_000
	// drainTimeout bounds how long shutdown waits for in-flight queries.
	drainTimeout = 30 * time.Second
)

var subcommands = map[string]func(args []string) error{
	"smoke": runSmoke,
	"load":  runLoad,
	"chaos": runChaos,
}

func main() {
	if len(os.Args) > 1 {
		if run, ok := subcommands[os.Args[1]]; ok {
			log.SetFlags(0)
			log.SetPrefix("dexd " + os.Args[1] + ": ")
			if err := run(os.Args[2:]); err != nil {
				log.Fatal(err)
			}
			return
		}
	}
	serve()
}

// runFlags are the flags the load and chaos subcommands share; each
// subcommand presets its own defaults before registering them.
type runFlags struct {
	seed    int64
	rows    int
	users   int
	ops     int
	mode    string
	timeout time.Duration
}

func (r *runFlags) register(fs *flag.FlagSet) {
	fs.Int64Var(&r.seed, "seed", r.seed, "run seed: user u replays session seed+u")
	fs.IntVar(&r.rows, "rows", r.rows, "sales table rows of the in-process server")
	fs.IntVar(&r.users, "users", r.users, "concurrent simulated users")
	fs.IntVar(&r.ops, "ops", r.ops, "queries per user session")
	fs.StringVar(&r.mode, "mode", r.mode, "execution mode of every query (exact|cracked|approx|online)")
	fs.DurationVar(&r.timeout, "timeout", r.timeout, "per-query deadline sent to the server")
}

type repeatedFlag []string

func (r *repeatedFlag) String() string     { return strings.Join(*r, ",") }
func (r *repeatedFlag) Set(v string) error { *r = append(*r, v); return nil }

func serve() {
	var loads repeatedFlag
	addr := flag.String("addr", ":8080", "listen address")
	flag.Var(&loads, "load", "name=path.csv to load eagerly (repeatable)")
	demo := flag.String("demo", "", "load a synthetic demo table at startup (sales|sky|ticks)")
	rows := flag.Int("rows", 1_000_000, "demo table size")
	seed := flag.Int64("seed", 1, "engine + demo data seed")
	parallel := flag.Int("parallel", 0, "worker parallelism for exact queries (0 = GOMAXPROCS)")
	morsel := flag.Int("morsel", 0, "rows per parallel scheduling unit (0 = default)")
	degrade := flag.Bool("degrade", false, "answer over-deadline exact queries with a sampled approximation tagged degraded:true")
	slowMS := flag.Int64("slowms", 500, "keep traces of queries at or above this many milliseconds in /admin/slow (0 = off)")
	pprofOn := flag.Bool("pprof", false, "mount net/http/pprof under /debug/pprof/")
	reqLog := flag.Bool("reqlog", false, "log one structured line per query request to stderr")
	workerAddr := flag.String("worker", "", "run as a shard worker serving the fleet protocol on this address (no HTTP)")
	shardWorkers := flag.String("shard-workers", "", "comma-separated worker addresses; makes this dexd a cluster coordinator")
	shardCol := flag.String("shard-col", "amount", "partition column for the sharded table")
	heal := flag.Bool("heal", true, "re-stage or re-partition lost shards automatically (coordinator only)")
	healInterval := flag.Duration("heal-interval", 500*time.Millisecond, "how often the healer re-checks lost shards")
	repartitionAfter := flag.Duration("repartition-after", 10*time.Second, "how long a shard stays lost before survivors adopt its rows (<0 = never)")
	flag.Parse()

	logger := log.New(os.Stderr, "dexd ", log.LstdFlags)
	// Failpoints from the environment (DEX_FAILPOINTS / DEX_FAULT_SEED):
	// inert unless set, so production runs pay one atomic load per site.
	if err := fault.InitFromEnv(); err != nil {
		logger.Fatalf("bad %s: %v", fault.EnvPoints, err)
	}
	if active := fault.Active(); len(active) > 0 {
		logger.Printf("FAULT INJECTION ACTIVE (seed %d): %v", fault.Seed(), active)
	}

	// Worker mode: serve the shard protocol and nothing else. The engine
	// starts empty; the coordinator stages and partitions the data.
	if *workerAddr != "" {
		lis, err := net.Listen("tcp", *workerAddr)
		if err != nil {
			logger.Fatal(err)
		}
		w := shard.NewWorker(*seed)
		logger.Printf("shard worker serving on %s", lis.Addr())
		ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
		defer stop()
		go func() {
			<-ctx.Done()
			w.Close()
		}()
		w.Serve(lis)
		return
	}

	eng := core.New(core.Options{
		Seed:    *seed,
		Exec:    exec.ExecOptions{Parallelism: *parallel, MorselSize: *morsel},
		Degrade: *degrade,
	})
	for _, spec := range loads {
		name, path, ok := strings.Cut(spec, "=")
		if !ok {
			logger.Fatalf("bad -load %q (want name=path)", spec)
		}
		if err := eng.LoadCSV(name, path); err != nil {
			logger.Fatal(err)
		}
		logger.Printf("loaded table %q from %s", name, path)
	}
	if *demo != "" {
		t, err := workload.Demo(*demo, rand.New(rand.NewSource(*seed)), *rows)
		if err == nil {
			err = eng.Register(t)
		}
		if err != nil {
			logger.Fatal(err)
		}
		logger.Printf("loaded demo table %q (%d rows)", t.Name(), t.NumRows())
	}

	cfg := server.Config{
		CacheRows:     cacheRows,
		Log:           logger,
		SlowThreshold: time.Duration(*slowMS) * time.Millisecond,
		Pprof:         *pprofOn,
	}
	if *reqLog {
		cfg.RequestLog = slog.New(slog.NewTextHandler(os.Stderr, nil))
	}
	if *shardWorkers != "" {
		kind := *demo
		if kind == "" {
			kind = "sales"
		}
		coord, err := shard.New(shard.Config{
			Spec:             shard.Spec{Table: kind, Column: *shardCol},
			Workers:          strings.Split(*shardWorkers, ","),
			Heal:             *heal,
			HealInterval:     *healInterval,
			RepartitionAfter: *repartitionAfter,
		})
		if err != nil {
			logger.Fatal(err)
		}
		bctx, bcancel := context.WithTimeout(context.Background(), 2*time.Minute)
		if err := coord.Bootstrap(bctx, protocol.Load{Kind: kind, Rows: *rows, Seed: *seed}); err != nil {
			logger.Fatal(err)
		}
		bcancel()
		snap := coord.Snapshot()
		logger.Printf("coordinating table %q over %d shards (%s on %s, %d rows)",
			snap.Table, len(snap.Shards), snap.Scheme, snap.Column, snap.Rows)
		cfg.Shard = coord
	}
	svc := server.New(eng, cfg)
	httpSrv := &http.Server{Addr: *addr, Handler: svc}

	// SIGINT/SIGTERM starts the drain: the listener keeps accepting (so
	// in-flight clients can read responses and late arrivals get a clean
	// 503), admitted queries run to completion, then the listener closes.
	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()
	done := make(chan struct{})
	go func() {
		defer close(done)
		<-ctx.Done()
		logger.Printf("signal received; draining (up to %s)", drainTimeout)
		drainCtx, cancel := context.WithTimeout(context.Background(), drainTimeout)
		defer cancel()
		if err := svc.Drain(drainCtx); err != nil {
			logger.Printf("drain incomplete: %v", err)
		} else {
			logger.Printf("drained; all in-flight queries completed")
		}
		shutCtx, cancel2 := context.WithTimeout(context.Background(), 5*time.Second)
		defer cancel2()
		_ = httpSrv.Shutdown(shutCtx)
	}()

	logger.Printf("serving on %s (tables: %v)", *addr, eng.Tables())
	if err := httpSrv.ListenAndServe(); err != nil && !errors.Is(err, http.ErrServerClosed) {
		logger.Fatal(err)
	}
	<-done
}
