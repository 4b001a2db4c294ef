// Package chaos is the seeded fault-schedule harness for the dexd service:
// it stands up an in-process server, replays synthetic exploration sessions
// against it while a scheduler arms and disarms failpoints at planned
// offsets, and checks the three liveness invariants the service claims to
// hold under faults:
//
//  1. No goroutine leaks: after the run drains and every connection
//     closes, the process settles back to its pre-run goroutine count.
//  2. Every issued query terminates: it completes (possibly degraded),
//     is rejected with a typed load-shed error, or fails with a typed
//     HTTP/transport error. Nothing hangs, nothing returns an error the
//     client cannot classify.
//  3. The server drains cleanly mid-chaos: Drain — exactly what dexd runs
//     on SIGTERM — returns with zero queries in flight while faults are
//     still firing.
//  4. The fleet heals: when a sharded run schedules a worker kill and a
//     blank restart with the coordinator's healer enabled, coverage must
//     return to exactly 1.0 after the workload — full answers, no
//     coordinator restart.
//
// Everything is seeded: the workload streams, the retry jitter, and the
// failpoint decision streams all derive from Config.Seed, so a failing
// run is replayed by re-running its seed (see `dexd chaos`).
package chaos

import (
	"context"
	"fmt"
	"log"
	"math/rand"
	"net/http/httptest"
	"runtime"
	"sort"
	"strings"
	"sync"
	"time"

	"dex/internal/core"
	"dex/internal/exec"
	"dex/internal/fault"
	"dex/internal/idebench"
	"dex/internal/metrics"
	"dex/internal/server"
	"dex/internal/shard"
	"dex/internal/workload"
)

// FaultEvent arms one failpoint at an offset from run start. A zero For
// leaves it armed until the run ends. A negative At arms the site for the
// setup phase instead: engine construction and data registration, before
// the workload starts — the only window where load-time seams like
// storage/segment-encode can fire. Setup events are disarmed again before
// the goroutine baseline is taken.
type FaultEvent struct {
	At   time.Duration `json:"at"`
	Site string        `json:"site"`
	Spec string        `json:"spec"`
	For  time.Duration `json:"for,omitempty"`
}

// Config parameterizes one chaos run.
type Config struct {
	Seed             int64
	Clients          int           // concurrent synthetic explorers (default 3)
	QueriesPerClient int           // statements per session (default 10)
	Rows             int           // demo table size (default 20000)
	Mode             string        // execution mode ("" = exact)
	Timeout          time.Duration // per-query deadline (default 150ms)
	Faults           []FaultEvent  // the fault schedule
	// DrainAt, when > 0, initiates a server drain (the SIGTERM path) at
	// that offset; queries issued afterwards must get clean 503s.
	DrainAt     time.Duration
	Parallelism int
	MorselSize  int
	Log         *log.Logger // optional narration of the fault schedule
	// Shards, when > 0, runs the server as a coordinator over an
	// in-process worker fleet: sales queries scatter/gather, and two
	// extra invariants apply — a degraded distributed answer must report
	// coverage strictly below 1, and a non-degraded one exactly 1.
	Shards int
	// KillShardAt, when > 0 (requires Shards), hard-kills one worker at
	// that offset — the crash the degradation contract is about.
	KillShardAt time.Duration
	// RestartShardAt, when > 0 (requires KillShardAt), brings the killed
	// worker back — blank — at that offset, the crash-and-rejoin shape the
	// coordinator's healer re-stages.
	RestartShardAt time.Duration
	// Heal enables the coordinator's self-healing state machine; with a
	// kill and restart scheduled, the run gains a fourth invariant: the
	// fleet must return to exactly full coverage after the workload ends.
	Heal             bool
	HealInterval     time.Duration
	RepartitionAfter time.Duration
}

// Outcome buckets: every issued query must land in exactly one.
type Outcomes struct {
	Completed int64 `json:"completed"` // 2xx, exact or cached
	Degraded  int64 `json:"degraded"`  // 2xx with degraded:true
	Rejected  int64 `json:"rejected"`  // load-shed (429/503) after retries
	Typed     int64 `json:"typed"`     // other HTTP status errors (4xx/5xx)
	Transport int64 `json:"transport"` // network-level failures after retries
	Timeout   int64 `json:"timeout"`   // 504: deadline exceeded, not degradable
}

func (o *Outcomes) total() int64 {
	return o.Completed + o.Degraded + o.Rejected + o.Typed + o.Transport + o.Timeout
}

// Report is the outcome of one chaos run. Violations is the verdict:
// empty means every invariant held.
type Report struct {
	Seed       int64                       `json:"seed"`
	Issued     int64                       `json:"issued"`
	Outcomes   Outcomes                    `json:"outcomes"`
	Drained    bool                        `json:"drained"`
	DrainMS    float64                     `json:"drain_ms,omitempty"`
	WallS      float64                     `json:"wall_s"`
	Goroutines [2]int                      `json:"goroutines"` // [baseline, settled]
	FaultStats map[string]fault.PointStats `json:"fault_stats"`
	// Coverage and Heals describe the fleet after the run when a sharded
	// run scheduled a kill: final healthy-placement fraction and completed
	// heal operations by kind.
	Coverage   float64          `json:"coverage,omitempty"`
	Heals      map[string]int64 `json:"heals,omitempty"`
	Violations []string         `json:"violations"`
}

func (c *Config) fill() {
	if c.Clients <= 0 {
		c.Clients = 3
	}
	if c.QueriesPerClient <= 0 {
		c.QueriesPerClient = 10
	}
	if c.Rows <= 0 {
		c.Rows = 20_000
	}
	if c.Timeout <= 0 {
		c.Timeout = 150 * time.Millisecond
	}
}

func (c *Config) logf(format string, args ...any) {
	if c.Log != nil {
		c.Log.Printf(format, args...)
	}
}

// Run executes one seeded chaos run and reports whether the invariants
// held. It owns the global failpoint registry for its duration: it resets
// every site on entry and on exit.
func Run(cfg Config) (*Report, error) {
	cfg.fill()
	rep := &Report{Seed: cfg.Seed}

	// The failpoint decision streams derive from the run seed.
	fault.Reset()
	defer fault.Reset()
	fault.SetSeed(cfg.Seed)

	// Setup-phase faults (negative At): armed across engine construction
	// and data registration, disarmed before the workload baseline.
	for _, ev := range cfg.Faults {
		if ev.At < 0 {
			cfg.logf("chaos    setup arm    %s=%s", ev.Site, ev.Spec)
			if err := fault.Enable(ev.Site, ev.Spec); err != nil {
				cfg.logf("chaos: arm %s=%s: %v", ev.Site, ev.Spec, err)
			}
		}
	}

	// In-process service: degradation on, a small admission envelope so
	// the schedule can actually saturate it.
	eng := core.New(core.Options{
		Seed:    cfg.Seed,
		Degrade: true,
		Exec:    exec.ExecOptions{Parallelism: cfg.Parallelism, MorselSize: cfg.MorselSize},
	})
	sales, err := workload.Sales(rand.New(rand.NewSource(42)), cfg.Rows)
	if err != nil {
		return nil, err
	}
	if err := eng.Register(sales); err != nil {
		return nil, err
	}
	for _, ev := range cfg.Faults {
		if ev.At < 0 {
			cfg.logf("chaos    setup disarm %s", ev.Site)
			fault.Disable(ev.Site)
		}
	}
	scfg := server.Config{
		MaxInFlight:  4,
		MaxQueue:     8,
		QueueTimeout: 100 * time.Millisecond,
		// Tracing on: the slow ring must keep working while faults fire,
		// and the post-run scrape validates /metrics under chaos.
		SlowThreshold: 25 * time.Millisecond,
		SlowRing:      32,
	}
	var fleet *shard.LocalFleet
	if cfg.Shards > 0 {
		fleet, err = shard.StartLocalFleet(context.Background(), shard.FleetConfig{
			Shards:           cfg.Shards,
			Rows:             cfg.Rows,
			Seed:             42, // same generator seed as the local sales table
			Heal:             cfg.Heal,
			HealInterval:     cfg.HealInterval,
			RepartitionAfter: cfg.RepartitionAfter,
		})
		if err != nil {
			return nil, fmt.Errorf("chaos: fleet: %w", err)
		}
		defer fleet.Close()
		scfg.Shard = fleet.Coord
	}
	srv := server.New(eng, scfg)
	ts := httptest.NewServer(srv)
	defer ts.Close()

	// Warm the server (TCP pool, lazy engine state) before taking the
	// goroutine baseline, so steady-state helpers are not counted as leaks.
	warm := server.NewClient(ts.URL)
	if _, err := warm.Tables(context.Background()); err != nil {
		return nil, fmt.Errorf("chaos: warmup: %w", err)
	}
	warm.HTTP.CloseIdleConnections()
	if fleet != nil {
		// Dial every worker before the baseline: the coordinator's
		// per-shard connections and their read loops are steady state,
		// not leaks.
		if _, err := fleet.Coord.Execute(context.Background(), fleet.Coord.Table(),
			exec.Query{Select: []exec.SelectItem{{Col: "*", Agg: exec.AggCount}}}, core.Exact); err != nil {
			return nil, fmt.Errorf("chaos: fleet warmup: %w", err)
		}
	}
	baseline := runtime.NumGoroutine()

	// The fault scheduler: a sorted timeline of arm/disarm actions.
	type action struct {
		at   time.Duration
		site string
		spec string // "" = disarm
	}
	var timeline []action
	for _, ev := range cfg.Faults {
		if ev.At < 0 {
			continue // setup-phase event, already handled
		}
		timeline = append(timeline, action{ev.At, ev.Site, ev.Spec})
		if ev.For > 0 {
			timeline = append(timeline, action{ev.At + ev.For, ev.Site, ""})
		}
	}
	sort.SliceStable(timeline, func(i, j int) bool { return timeline[i].at < timeline[j].at })

	start := time.Now()
	stopSched := make(chan struct{})
	var schedWG sync.WaitGroup
	schedWG.Add(1)
	go func() {
		defer schedWG.Done()
		for _, act := range timeline {
			wait := act.at - time.Since(start)
			if wait > 0 {
				select {
				case <-time.After(wait):
				case <-stopSched:
					return
				}
			}
			if act.spec == "" {
				cfg.logf("chaos %8s disarm %s", time.Since(start).Round(time.Millisecond), act.site)
				fault.Disable(act.site)
			} else {
				cfg.logf("chaos %8s arm    %s=%s", time.Since(start).Round(time.Millisecond), act.site, act.spec)
				if err := fault.Enable(act.site, act.spec); err != nil {
					cfg.logf("chaos: arm %s=%s: %v", act.site, act.spec, err)
				}
			}
		}
	}()

	// Mid-run shard kill: a hard worker crash, not a graceful exit. With
	// RestartShardAt set, the same worker comes back blank later — the
	// kill→re-join shape whose healing invariant is checked after the run.
	if fleet != nil && cfg.KillShardAt > 0 {
		victim := int(cfg.Seed) % cfg.Shards
		if victim < 0 {
			victim += cfg.Shards
		}
		schedWG.Add(1)
		go func() {
			defer schedWG.Done()
			select {
			case <-time.After(cfg.KillShardAt):
				cfg.logf("chaos %8s kill   shard %d", time.Since(start).Round(time.Millisecond), victim)
				fleet.KillShard(victim)
			case <-stopSched:
				return
			}
			if cfg.RestartShardAt <= cfg.KillShardAt {
				return
			}
			// The restart is not cancelled by the workload ending: the heal
			// invariant needs the worker back even if every client finished
			// while it was down.
			time.Sleep(cfg.RestartShardAt - cfg.KillShardAt)
			cfg.logf("chaos %8s restart shard %d (blank)", time.Since(start).Round(time.Millisecond), victim)
			if err := fleet.RestartShard(victim); err != nil {
				cfg.logf("chaos: restart shard %d: %v", victim, err)
			}
		}()
	}

	// Mid-run drain: the same call dexd makes on SIGTERM.
	drainDone := make(chan struct{})
	if cfg.DrainAt > 0 {
		go func() {
			defer close(drainDone)
			time.Sleep(cfg.DrainAt)
			cfg.logf("chaos %8s drain  (SIGTERM path)", time.Since(start).Round(time.Millisecond))
			t0 := time.Now()
			dctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
			defer cancel()
			err := srv.Drain(dctx)
			rep.DrainMS = float64(time.Since(t0).Microseconds()) / 1e3
			rep.Drained = err == nil
		}()
	} else {
		close(drainDone)
	}

	// The synthetic explorers. Each files every query under the bucket
	// idebench.Classify picks for it; with no deadline passed nothing is
	// Late, and anything unclassifiable is an invariant-2 violation.
	var (
		mu         sync.Mutex
		counts     [idebench.OutcomeUnclassified + 1]int64
		issued     int64
		violations []string
	)
	violate := func(format string, args ...any) {
		mu.Lock()
		violations = append(violations, fmt.Sprintf(format, args...))
		mu.Unlock()
	}
	classify := func(c int, res *server.QueryResult, err error, n int64) {
		oc := idebench.Classify(res, err, 0, 0)
		mu.Lock()
		issued += n
		counts[oc] += n
		mu.Unlock()
		if oc == idebench.OutcomeUnclassified {
			violate("client %d: untyped error: %v", c, err)
		}
	}
	var wg sync.WaitGroup
	for c := 0; c < cfg.Clients; c++ {
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			cl := server.NewClient(ts.URL)
			cl.Retry = &server.RetryPolicy{
				MaxAttempts: 3,
				BaseBackoff: 5 * time.Millisecond,
				MaxBackoff:  100 * time.Millisecond,
				Seed:        cfg.Seed + int64(c),
			}
			defer cl.HTTP.CloseIdleConnections()
			ctx := context.Background()
			id, err := cl.CreateSession(ctx)
			if err != nil {
				// The server may already be draining or the transport
				// faulted past the retry budget: a typed, terminal answer
				// for the whole session is a legal outcome for each of its
				// queries.
				classify(c, nil, err, int64(cfg.QueriesPerClient))
				return
			}
			defer cl.EndSession(ctx, id)
			stmts := workload.ExplorationSQL(rand.New(rand.NewSource(cfg.Seed+int64(c))), cfg.QueriesPerClient)
			for _, sql := range stmts {
				req := server.QueryRequest{SQL: sql, Mode: cfg.Mode, TimeoutMS: cfg.Timeout.Milliseconds()}
				res, err := cl.Query(ctx, id, req)
				// Distributed answers carry a coverage fraction; the
				// contract is exact: degraded means strictly partial,
				// healthy means complete, never an extrapolation.
				if err == nil && res.Coverage != 0 {
					if res.Coverage < 0 || res.Coverage > 1 {
						violate("client %d: coverage %v out of range", c, res.Coverage)
					} else if res.Degraded && res.Coverage >= 1 {
						violate("client %d: degraded answer claims full coverage", c)
					} else if !res.Degraded && res.Coverage != 1 {
						violate("client %d: healthy answer claims coverage %v", c, res.Coverage)
					}
				}
				classify(c, res, err, 1)
			}
		}(c)
	}
	wg.Wait()
	close(stopSched)
	schedWG.Wait()
	<-drainDone
	rep.WallS = time.Since(start).Seconds()
	rep.FaultStats = fault.Stats()
	fault.Reset() // disarm everything before the invariant checks

	// Observability must survive the chaos it just observed: /metrics has
	// to parse as valid Prometheus exposition and /admin/slow has to answer
	// after a run full of injected failures.
	scrapeCl := server.NewClient(ts.URL)
	if expo, err := scrapeCl.Metrics(context.Background()); err != nil {
		violate("post-run /metrics scrape failed: %v", err)
	} else if err := metrics.ValidateExposition(strings.NewReader(expo)); err != nil {
		violate("post-run /metrics exposition invalid: %v", err)
	}
	if _, err := scrapeCl.Slow(context.Background()); err != nil {
		violate("post-run /admin/slow fetch failed: %v", err)
	}
	scrapeCl.HTTP.CloseIdleConnections()

	// Invariant 4 (healing): with the healer on and a kill→restart
	// scheduled, the fleet must return to exactly full coverage. The poll
	// issues real coordinator queries so a crash no client happened to
	// observe still gets classified (lost) and healed, and so the final
	// answer is checked end to end: complete, not degraded, coverage 1.
	if fleet != nil && cfg.KillShardAt > 0 {
		if cfg.Heal && cfg.RestartShardAt > cfg.KillShardAt {
			healed := false
			countQ := exec.Query{Select: []exec.SelectItem{{Col: "*", Agg: exec.AggCount}}}
			for deadline := time.Now().Add(15 * time.Second); time.Now().Before(deadline); {
				res, err := fleet.Coord.Execute(context.Background(), fleet.Coord.Table(), countQ, core.Exact)
				if err == nil && !res.Degraded && res.Coverage == 1 && fleet.Coord.Coverage() == 1 {
					healed = true
					break
				}
				time.Sleep(20 * time.Millisecond)
			}
			if !healed {
				violate("fleet did not heal to full coverage after kill+restart")
			}
		}
		snap := fleet.Coord.Snapshot()
		rep.Coverage = snap.Coverage
		rep.Heals = snap.Heals
	}

	// Invariant 3: if a drain was scheduled it must have finished cleanly
	// with no queries left in flight.
	if cfg.DrainAt > 0 {
		if !rep.Drained {
			violate("drain did not complete within its deadline")
		}
		if n := srv.Stats().Active; n != 0 {
			violate("%d queries still in flight after drain", n)
		}
	}

	// Invariant 2: the books must balance — every issued query landed in
	// exactly one bucket (untyped errors were flagged as they happened).
	rep.Issued = issued
	rep.Outcomes = Outcomes{
		Completed: counts[idebench.OutcomeOK],
		Degraded:  counts[idebench.OutcomeDegraded],
		Rejected:  counts[idebench.OutcomeRejected],
		Typed:     counts[idebench.OutcomeFailed],
		Transport: counts[idebench.OutcomeTransport],
		Timeout:   counts[idebench.OutcomeTimeout],
	}
	if got := rep.Outcomes.total(); got != issued {
		violate("outcome accounting: %d issued, %d classified", issued, got)
	}

	// Invariant 1: tear everything down and wait for the goroutine count
	// to settle back to the baseline (small slack for runtime helpers).
	ts.Close()
	settled := runtime.NumGoroutine()
	for deadline := time.Now().Add(5 * time.Second); time.Now().Before(deadline); {
		settled = runtime.NumGoroutine()
		if settled <= baseline+2 {
			break
		}
		time.Sleep(20 * time.Millisecond)
	}
	rep.Goroutines = [2]int{baseline, settled}
	if settled > baseline+2 {
		violate("goroutine leak: %d before run, %d after settle", baseline, settled)
	}

	rep.Violations = violations
	return rep, nil
}
