package shard

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"sync"
	"time"

	"dex/internal/core"
	"dex/internal/exec"
	"dex/internal/metrics"
	"dex/internal/protocol"
	"dex/internal/sqlparse"
	"dex/internal/storage"
	"dex/internal/trace"
)

// ErrNotSharded is returned for queries on tables the coordinator does
// not own; the serving layer falls back to its local engine.
var ErrNotSharded = errors.New("shard: table is not sharded here")

// ErrAllShardsFailed is returned when no shard produced a partial: there
// is nothing to degrade to.
var ErrAllShardsFailed = errors.New("shard: all shards failed")

// Config parameterizes a coordinator.
type Config struct {
	// Spec names the partitioned table, column and scheme. Bounds may be
	// left empty for Range — workers derive identical equi-depth bounds
	// from the staged data.
	Spec Spec
	// Workers are the shard addresses, index-aligned with shard ids.
	Workers []string
	// ShardTimeout is the per-shard, per-attempt deadline (default 10s).
	ShardTimeout time.Duration
	// Retries is how many extra attempts a retryable shard failure gets
	// (default 1). Only transport errors and worker-internal failures
	// retry; user errors and per-shard deadline overruns do not.
	Retries int
	// Heal enables the self-healing state machine: a shard that fails
	// past retries (transport, or the typed unknown-table error a blank
	// restarted worker returns) is marked lost and skipped by queries
	// while a background healer re-stages its partitions onto the
	// (re)started worker — or, past RepartitionAfter, re-partitions them
	// across the survivors — driving coverage back to exactly 1.0 without
	// a coordinator restart. Off by default: a non-healing fleet degrades
	// forever, exactly as before.
	Heal bool
	// HealInterval is the healer's probe cadence (default 500ms).
	HealInterval time.Duration
	// RepartitionAfter is how long a lost worker may stay unreachable
	// before the healer re-partitions its rows across the survivors
	// (default 10s; negative never re-partitions — the healer then only
	// waits for the worker to come back).
	RepartitionAfter time.Duration
}

// Result is one distributed answer.
type Result struct {
	Table *storage.Table
	Mode  core.Mode
	// Degraded marks a partial answer: at least one shard was lost after
	// retries and the merge covers only the survivors.
	Degraded bool
	// Coverage is the fraction of the table's rows that contributed,
	// from the placement map. 1.0 on a healthy fleet. Results are never
	// extrapolated; coverage makes the truncation explicit.
	Coverage float64
}

// Coordinator scatters queries across a worker fleet and gathers the
// partials. It is safe for concurrent use.
type Coordinator struct {
	cfg     Config
	clients []*Client

	mu        sync.Mutex
	placement []int64 // rows currently placed per shard (Σ partRows over owned)
	total     int64
	schema    storage.Schema
	// Healing state (all guarded by mu): the per-shard state machine,
	// which partition indices each shard owns, the static per-partition
	// row counts from Bootstrap, and the Load that staged the source —
	// the provenance the healer replays to re-stage a shard.
	states    []ShardState
	lostSince []time.Time
	owned     [][]int
	partRows  []int64
	load      protocol.Load
	booted    bool

	statsMu   sync.Mutex
	lastStats []protocol.WorkerStats
	haveStats []bool

	healStop  chan struct{}
	healWG    sync.WaitGroup
	closeOnce sync.Once

	met *coordMetrics
}

// coordMetrics aggregates per-shard RPC latency, error and retry
// counters plus the fleet-level gather (merge) histogram and outcome
// counts — the numbers behind the dex_shard_* exposition families.
type coordMetrics struct {
	mu       sync.Mutex
	rpc      []*metrics.LogHist
	gather   *metrics.LogHist
	errors   []int64
	retries  []int64
	outcomes map[string]int64
	heals    map[string]int64
}

// New builds a coordinator over a fleet of worker addresses. Call
// Bootstrap before Execute.
func New(cfg Config) (*Coordinator, error) {
	if len(cfg.Workers) == 0 {
		return nil, errors.New("shard: coordinator needs at least one worker")
	}
	if cfg.Spec.Shards == 0 {
		cfg.Spec.Shards = len(cfg.Workers)
	}
	if cfg.Spec.Shards != len(cfg.Workers) {
		return nil, fmt.Errorf("shard: spec says %d shards but %d workers given", cfg.Spec.Shards, len(cfg.Workers))
	}
	if cfg.ShardTimeout <= 0 {
		cfg.ShardTimeout = 10 * time.Second
	}
	if cfg.Retries < 0 {
		cfg.Retries = 0
	} else if cfg.Retries == 0 {
		cfg.Retries = 1
	}
	if cfg.HealInterval <= 0 {
		cfg.HealInterval = 500 * time.Millisecond
	}
	if cfg.RepartitionAfter == 0 {
		cfg.RepartitionAfter = 10 * time.Second
	}
	c := &Coordinator{
		cfg:       cfg,
		placement: make([]int64, len(cfg.Workers)),
		states:    make([]ShardState, len(cfg.Workers)),
		lostSince: make([]time.Time, len(cfg.Workers)),
		owned:     make([][]int, len(cfg.Workers)),
		healStop:  make(chan struct{}),
		met: &coordMetrics{
			rpc:      make([]*metrics.LogHist, len(cfg.Workers)),
			gather:   metrics.NewLogHist(),
			errors:   make([]int64, len(cfg.Workers)),
			retries:  make([]int64, len(cfg.Workers)),
			outcomes: map[string]int64{},
			heals:    map[string]int64{},
		},
	}
	for i, addr := range cfg.Workers {
		c.clients = append(c.clients, NewClient(i, addr))
		c.met.rpc[i] = metrics.NewLogHist()
	}
	return c, nil
}

// Table returns the sharded table's name.
func (c *Coordinator) Table() string { return c.cfg.Spec.Table }

// Schema returns the sharded table's schema (for star expansion).
func (c *Coordinator) Schema() storage.Schema {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.schema
}

// Close stops the healer and tears down the worker connections (the
// workers keep running).
func (c *Coordinator) Close() {
	c.closeOnce.Do(func() { close(c.healStop) })
	c.healWG.Wait()
	for _, cl := range c.clients {
		cl.Close()
	}
}

// Bootstrap stages the source table on every worker and assigns
// partitions: each worker rebuilds the same seeded source (or reads the
// same CSV) and keeps its own slice, so no rows cross the wire. The
// returned per-shard row counts become the placement map coverage is
// computed from.
func (c *Coordinator) Bootstrap(ctx context.Context, load protocol.Load) error {
	load.Name = c.cfg.Spec.Table
	var wg sync.WaitGroup
	errs := make([]error, len(c.clients))
	kept := make([]int64, len(c.clients))
	schemas := make([]storage.Schema, len(c.clients))
	for i, cl := range c.clients {
		wg.Add(1)
		go func(i int, cl *Client) {
			defer wg.Done()
			if _, err := cl.Load(ctx, load); err != nil {
				errs[i] = fmt.Errorf("shard %d: load: %w", i, err)
				return
			}
			rows, schema, err := c.partitionOne(ctx, cl, i)
			if err != nil {
				errs[i] = err
				return
			}
			kept[i], schemas[i] = rows, schema
		}(i, cl)
	}
	wg.Wait()
	if err := errors.Join(errs...); err != nil {
		return err
	}
	c.mu.Lock()
	c.total = 0
	for i, k := range kept {
		c.placement[i] = k
		c.total += k
	}
	c.schema = schemas[0]
	// Record the provenance the healer replays: the Load that staged the
	// source, the static per-partition row counts, and the 1:1 bootstrap
	// ownership (shard i owns partition index i).
	c.load = load
	c.partRows = append([]int64(nil), kept...)
	for i := range c.owned {
		c.owned[i] = []int{i}
		c.states[i] = StateHealthy
	}
	booted := c.booted
	c.booted = true
	c.mu.Unlock()
	if c.cfg.Heal && !booted {
		c.healWG.Add(1)
		go c.healLoop()
	}
	return nil
}

// partitionOne sends one worker its Partition assignment and decodes the
// kept-row count and partition schema from the reply.
func (c *Coordinator) partitionOne(ctx context.Context, cl *Client, i int) (int64, storage.Schema, error) {
	m := protocol.Partition{
		Table:  c.cfg.Spec.Table,
		Column: c.cfg.Spec.Column,
		Scheme: c.cfg.Spec.Scheme.String(),
		Index:  i,
		Count:  c.cfg.Spec.Shards,
		Bounds: c.cfg.Spec.Bounds,
	}
	payload, _, err := cl.call(ctx, protocol.MsgPartition, func(id uint64) any { m.ID = id; return m })
	if err != nil {
		return 0, nil, fmt.Errorf("shard %d: partition: %w", i, err)
	}
	var res protocol.Result
	if err := json.Unmarshal(payload, &res); err != nil {
		return 0, nil, fmt.Errorf("shard %d: malformed partition result", i)
	}
	schemaTable, err := res.Table.ToTable()
	if err != nil {
		return 0, nil, fmt.Errorf("shard %d: partition schema: %w", i, err)
	}
	return res.Rows, schemaTable.Schema(), nil
}

// Execute runs one query across the fleet: rewrite per the merge plan,
// scatter with per-shard deadlines and retry, gather and merge. A lost
// shard degrades the answer (Coverage < 1) instead of failing it; a
// deterministic query error from any shard fails the whole query.
func (c *Coordinator) Execute(ctx context.Context, table string, q exec.Query, mode core.Mode) (Result, error) {
	if table != c.cfg.Spec.Table {
		return Result{}, fmt.Errorf("%q: %w", table, ErrNotSharded)
	}
	c.mu.Lock()
	schema := c.schema
	placement := append([]int64(nil), c.placement...)
	total := c.total
	var skip []bool
	if c.cfg.Heal {
		// Non-healthy shards are never queried: a lost worker would burn
		// the attempt budget, and a restaging one may hold a partial or
		// duplicate slice mid-swap. The healer is the only path back to
		// StateHealthy.
		skip = make([]bool, len(c.clients))
		for i, st := range c.states {
			skip[i] = st != StateHealthy
		}
	}
	c.mu.Unlock()
	if schema == nil {
		return Result{}, errors.New("shard: coordinator not bootstrapped")
	}
	q = sqlparse.ExpandStar(q, schema)
	plan, err := PlanQuery(q, mode == core.Approx || mode == core.Online)
	if err != nil {
		return Result{}, err
	}

	ssp := trace.FromContext(ctx).Child("scatter")
	ssp.SetInt("shards", int64(len(c.clients)))
	ssp.SetStr("mode", mode.String())
	parts := make([]*storage.Table, len(c.clients))
	shardErrs := make([]error, len(c.clients))
	var wg sync.WaitGroup
	for i, cl := range c.clients {
		if skip != nil && skip[i] {
			shardErrs[i] = fmt.Errorf("shard %d: %w", i, errShardNotHealthy)
			continue
		}
		wg.Add(1)
		go func(i int, cl *Client) {
			defer wg.Done()
			parts[i], shardErrs[i] = c.queryShard(ctx, ssp, cl, table, mode, plan.Push)
		}(i, cl)
	}
	wg.Wait()
	ssp.End()

	if err := ctx.Err(); err != nil {
		return Result{}, err
	}
	var survivors []*storage.Table
	var covered int64
	var failures []error
	for i, p := range parts {
		if shardErrs[i] != nil {
			if errors.Is(shardErrs[i], errShardNotHealthy) {
				// A skipped shard that owns no rows (its partitions were
				// adopted by survivors) subtracts nothing from coverage and
				// is not a failure; one that still owns rows degrades the
				// answer like any lost shard.
				if placement[i] > 0 {
					failures = append(failures, shardErrs[i])
				}
				continue
			}
			var re *RemoteError
			if errors.As(shardErrs[i], &re) && re.Code == protocol.CodeBadQuery {
				// Deterministic query error: every shard would refuse it the
				// same way. Surface it instead of degrading around it.
				c.countOutcome("failed")
				return Result{}, fmt.Errorf("shard: %s", re.Msg)
			}
			// Transport failures past retries and the typed unknown-table
			// error (a blank restarted worker) hand the shard to the healer;
			// worker-side cancellations are the query's own deadline, not a
			// sick shard.
			if errors.Is(shardErrs[i], ErrTransport) ||
				(errors.As(shardErrs[i], &re) && re.Code == protocol.CodeUnknownTable) {
				c.markLost(i)
			}
			failures = append(failures, shardErrs[i])
			continue
		}
		survivors = append(survivors, p)
		covered += placement[i]
	}
	if len(survivors) == 0 {
		c.countOutcome("failed")
		return Result{}, fmt.Errorf("%w: %v", ErrAllShardsFailed, errors.Join(failures...))
	}

	gsp := trace.FromContext(ctx).Child("gather")
	gsp.SetInt("partials", int64(len(survivors)))
	gStart := time.Now()
	merged, err := plan.Merge(survivors)
	c.met.mu.Lock()
	c.met.gather.Add(time.Since(gStart).Seconds())
	c.met.mu.Unlock()
	if err == nil {
		gsp.SetInt("rows_out", int64(merged.NumRows()))
	}
	gsp.End()
	if err != nil {
		c.countOutcome("failed")
		return Result{}, err
	}
	res := Result{Table: merged, Mode: mode, Coverage: 1}
	if total > 0 {
		res.Coverage = float64(covered) / float64(total)
	}
	if len(failures) > 0 {
		res.Degraded = true
		c.countOutcome("degraded")
	} else {
		c.countOutcome("ok")
	}
	return res, nil
}

// queryShard runs the per-shard attempt loop: per-attempt deadline, the
// shard/rpc failpoint (inside Client.Query), retry on transport or
// worker-internal errors, a trace child per attempt.
func (c *Coordinator) queryShard(ctx context.Context, parent *trace.Span, cl *Client, table string, mode core.Mode, push exec.Query) (*storage.Table, error) {
	attempts := 1 + c.cfg.Retries
	var lastErr error
	for a := 0; a < attempts; a++ {
		if err := ctx.Err(); err != nil {
			return nil, err
		}
		sp := parent.Child("shard")
		sp.SetInt("shard", int64(cl.Shard))
		sp.SetInt("attempt", int64(a))
		sctx, cancel := context.WithTimeout(ctx, c.cfg.ShardTimeout)
		t0 := time.Now()
		part, err := cl.Query(sctx, table, mode.String(), push, c.cfg.ShardTimeout)
		cancel()
		c.met.mu.Lock()
		c.met.rpc[cl.Shard].Add(time.Since(t0).Seconds())
		if err != nil {
			c.met.errors[cl.Shard]++
		}
		c.met.mu.Unlock()
		if err == nil {
			sp.SetInt("rows", int64(part.NumRows()))
			sp.End()
			return part, nil
		}
		sp.SetStr("error", err.Error())
		sp.End()
		lastErr = err
		if ctx.Err() != nil {
			return nil, ctx.Err() // the query's own deadline or client gone
		}
		var re *RemoteError
		retryable := errors.Is(err, ErrTransport) || (errors.As(err, &re) && re.Retryable())
		if !retryable || a == attempts-1 {
			return nil, lastErr
		}
		c.met.mu.Lock()
		c.met.retries[cl.Shard]++
		c.met.mu.Unlock()
	}
	return nil, lastErr
}

func (c *Coordinator) countOutcome(o string) {
	c.met.mu.Lock()
	c.met.outcomes[o]++
	c.met.mu.Unlock()
}

// ---- observability ----

// ShardStat is one shard's snapshot row. The worker-local counters
// (rows scanned, morsels the value index skipped and served, bucket-cell queries,
// crack pieces/cracks)
// come from the best-effort Stats probe: a dead worker keeps its
// last-known numbers.
type ShardStat struct {
	Shard        int     `json:"shard"`
	Addr         string  `json:"addr"`
	State        string  `json:"state"`
	Owned        []int   `json:"owned,omitempty"`
	Rows         int64   `json:"rows"`
	Queries      int64   `json:"queries"`
	Errors       int64   `json:"errors"`
	Retries      int64   `json:"retries"`
	P50MS        float64 `json:"p50_ms"`
	P95MS        float64 `json:"p95_ms"`
	RowsScanned  int64   `json:"rows_scanned"`
	ZoneSkipped  int64   `json:"zone_skipped"` // morsels the value index skipped whole
	IndexMorsels int64   `json:"index_morsels"`
	CellQueries  int64   `json:"cell_queries"`
	CrackPieces  int64   `json:"crack_pieces"`
	Cracks       int64   `json:"cracks"`
}

// Snapshot is the coordinator's /admin/stats section.
type Snapshot struct {
	Table       string           `json:"table"`
	Column      string           `json:"column"`
	Scheme      string           `json:"scheme"`
	Rows        int64            `json:"rows"`
	Coverage    float64          `json:"coverage"`
	Shards      []ShardStat      `json:"shards"`
	Outcomes    map[string]int64 `json:"outcomes"`
	Heals       map[string]int64 `json:"heals,omitempty"`
	GatherP95MS float64          `json:"gather_p95_ms"`
}

// Snapshot renders the coordinator's counters, refreshing the per-worker
// stats from reachable workers first (bounded, parallel, best-effort).
func (c *Coordinator) Snapshot() Snapshot {
	workers := c.refreshWorkerStats(context.Background())
	c.mu.Lock()
	placement := append([]int64(nil), c.placement...)
	states := append([]ShardState(nil), c.states...)
	owned := make([][]int, len(c.owned))
	for i, ow := range c.owned {
		owned[i] = append([]int(nil), ow...)
	}
	total := c.total
	coverage := c.coverageLocked()
	c.mu.Unlock()
	c.met.mu.Lock()
	defer c.met.mu.Unlock()
	snap := Snapshot{
		Table:       c.cfg.Spec.Table,
		Column:      c.cfg.Spec.Column,
		Scheme:      c.cfg.Spec.Scheme.String(),
		Rows:        total,
		Coverage:    coverage,
		Outcomes:    map[string]int64{},
		Heals:       map[string]int64{},
		GatherP95MS: c.met.gather.Quantile(0.95) * 1e3,
	}
	for k, v := range c.met.outcomes {
		snap.Outcomes[k] = v
	}
	for k, v := range c.met.heals {
		snap.Heals[k] = v
	}
	for i, cl := range c.clients {
		h := c.met.rpc[i]
		st := ShardStat{
			Shard:   i,
			Addr:    cl.Addr,
			State:   states[i].String(),
			Owned:   owned[i],
			Rows:    placement[i],
			Queries: h.N(),
			Errors:  c.met.errors[i],
			Retries: c.met.retries[i],
			P50MS:   h.Quantile(0.5) * 1e3,
			P95MS:   h.Quantile(0.95) * 1e3,
		}
		if i < len(workers) {
			ws := workers[i]
			st.RowsScanned = ws.RowsScanned
			st.ZoneSkipped = ws.ZoneSkipped
			st.IndexMorsels = ws.IndexMorsels
			st.CellQueries = ws.CellQueries
			for _, ci := range ws.Cracks {
				st.CrackPieces += int64(ci.Pieces)
				st.Cracks += ci.Cracks
			}
		}
		snap.Shards = append(snap.Shards, st)
	}
	return snap
}

// refreshWorkerStats probes every worker for its shard-local counters
// under one shared probe budget and merges the answers into the
// last-known cache — an unreachable worker keeps its final numbers.
func (c *Coordinator) refreshWorkerStats(ctx context.Context) []protocol.WorkerStats {
	ctx, cancel := context.WithTimeout(ctx, probeTimeout)
	defer cancel()
	fresh := make([]protocol.WorkerStats, len(c.clients))
	ok := make([]bool, len(c.clients))
	var wg sync.WaitGroup
	for i, cl := range c.clients {
		wg.Add(1)
		go func(i int, cl *Client) {
			defer wg.Done()
			if st, err := cl.Stats(ctx); err == nil {
				fresh[i], ok[i] = st, true
			}
		}(i, cl)
	}
	wg.Wait()
	c.statsMu.Lock()
	defer c.statsMu.Unlock()
	if c.lastStats == nil {
		c.lastStats = make([]protocol.WorkerStats, len(c.clients))
		c.haveStats = make([]bool, len(c.clients))
	}
	for i := range fresh {
		if ok[i] {
			c.lastStats[i] = fresh[i]
			c.haveStats[i] = true
		}
	}
	return append([]protocol.WorkerStats(nil), c.lastStats...)
}

// Histograms returns deep copies of the per-shard RPC histograms and the
// gather histogram for the /metrics renderer.
func (c *Coordinator) Histograms() (rpc []*metrics.LogHist, gather *metrics.LogHist) {
	c.met.mu.Lock()
	defer c.met.mu.Unlock()
	for _, h := range c.met.rpc {
		rpc = append(rpc, h.Clone())
	}
	return rpc, c.met.gather.Clone()
}
