package shard_test

import (
	"context"
	"fmt"
	"net"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"dex/internal/core"
	"dex/internal/protocol"
	"dex/internal/shard"
	"dex/internal/sqlparse"
)

// waitFor polls cond until it holds or the deadline passes.
func waitFor(t *testing.T, d time.Duration, what string, cond func() bool) {
	t.Helper()
	deadline := time.Now().Add(d)
	for time.Now().Before(deadline) {
		if cond() {
			return
		}
		time.Sleep(10 * time.Millisecond)
	}
	t.Fatalf("timed out waiting for %s", what)
}

func fleetCount(t *testing.T, f *shard.LocalFleet) (shard.Result, error) {
	t.Helper()
	st, err := sqlparse.Parse("SELECT count(*) FROM sales")
	if err != nil {
		t.Fatal(err)
	}
	return f.Coord.Execute(context.Background(), st.Table, st.Query, core.Exact)
}

// TestFleetHealRestage: kill a worker, restart it blank, and watch the
// healer re-stage its partition — coverage returns to exactly 1.0 and
// degraded answers stop, without touching the coordinator.
func TestFleetHealRestage(t *testing.T) {
	const rows = 9_000
	ctx := context.Background()
	f, err := shard.StartLocalFleet(ctx, shard.FleetConfig{
		Shards: 3, Rows: rows, Seed: 5,
		Heal: true, HealInterval: 20 * time.Millisecond, RepartitionAfter: -1,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()

	f.KillShard(0)
	res, err := fleetCount(t, f)
	if err != nil {
		t.Fatalf("degraded query must still answer: %v", err)
	}
	if !res.Degraded || res.Coverage >= 1 {
		t.Fatalf("killed shard must degrade: degraded=%v coverage=%v", res.Degraded, res.Coverage)
	}

	if err := f.RestartShard(0); err != nil {
		t.Fatal(err)
	}
	waitFor(t, 10*time.Second, "coverage to heal to 1.0", func() bool {
		return f.Coord.Coverage() == 1
	})

	res, err = fleetCount(t, f)
	if err != nil {
		t.Fatalf("healed fleet query: %v", err)
	}
	if res.Degraded || res.Coverage != 1 {
		t.Fatalf("healed fleet must answer fully: degraded=%v coverage=%v", res.Degraded, res.Coverage)
	}
	if got := res.Table.Column(0).Value(0).AsInt(); got != rows {
		t.Fatalf("healed count(*) = %d, want %d", got, rows)
	}
	snap := f.Coord.Snapshot()
	if snap.Heals["restage"] == 0 {
		t.Fatalf("heal counters missed the restage: %v", snap.Heals)
	}
	for _, s := range snap.Shards {
		if s.State != "healthy" {
			t.Fatalf("shard %d state %q after heal, want healthy", s.Shard, s.State)
		}
	}
}

// TestFleetHealRepartitionAndRejoin: a worker that stays down past the
// threshold has its partition re-partitioned onto survivors (coverage
// back to 1.0 with the worker still dead), and when it finally returns
// it rejoins: the adopter shrinks first, then the returning worker
// stages its home slice — placement ends exactly where bootstrap put it.
func TestFleetHealRepartitionAndRejoin(t *testing.T) {
	const rows = 9_000
	ctx := context.Background()
	f, err := shard.StartLocalFleet(ctx, shard.FleetConfig{
		Shards: 3, Rows: rows, Seed: 6,
		Heal: true, HealInterval: 20 * time.Millisecond, RepartitionAfter: 50 * time.Millisecond,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	base := f.Coord.Snapshot()

	f.KillShard(2)
	if res, err := fleetCount(t, f); err != nil || !res.Degraded {
		t.Fatalf("killed shard must degrade first: res=%+v err=%v", res, err)
	}
	waitFor(t, 10*time.Second, "repartition to restore coverage", func() bool {
		return f.Coord.Coverage() == 1
	})

	// Full answers with the worker still dead: survivors adopted its rows.
	res, err := fleetCount(t, f)
	if err != nil {
		t.Fatalf("repartitioned fleet query: %v", err)
	}
	if res.Degraded || res.Coverage != 1 {
		t.Fatalf("repartitioned fleet must answer fully: degraded=%v coverage=%v", res.Degraded, res.Coverage)
	}
	if got := res.Table.Column(0).Value(0).AsInt(); got != rows {
		t.Fatalf("repartitioned count(*) = %d, want %d", got, rows)
	}
	snap := f.Coord.Snapshot()
	if snap.Heals["repartition"] == 0 {
		t.Fatalf("heal counters missed the repartition: %v", snap.Heals)
	}
	if st := snap.Shards[2].State; st != "repartitioned" {
		t.Fatalf("dead shard state %q, want repartitioned", st)
	}
	if snap.Shards[2].Rows != 0 {
		t.Fatalf("repartitioned shard still places %d rows", snap.Shards[2].Rows)
	}

	// The worker comes back: it gets its home partition back from the
	// adopter and the placement map returns to the bootstrap layout.
	if err := f.RestartShard(2); err != nil {
		t.Fatal(err)
	}
	waitFor(t, 10*time.Second, "rejoin to restore bootstrap placement", func() bool {
		s := f.Coord.Snapshot()
		for i, sh := range s.Shards {
			if sh.State != "healthy" || sh.Rows != base.Shards[i].Rows {
				return false
			}
		}
		return true
	})
	res, err = fleetCount(t, f)
	if err != nil || res.Degraded || res.Coverage != 1 {
		t.Fatalf("rejoined fleet must answer fully: res=%+v err=%v", res, err)
	}
	if got := res.Table.Column(0).Value(0).AsInt(); got != rows {
		t.Fatalf("rejoined count(*) = %d, want %d", got, rows)
	}
	if h := f.Coord.Snapshot().Heals; h["rejoin"] == 0 {
		t.Fatalf("heal counters missed the rejoin: %v", h)
	}
}

// TestFleetUnknownTableDegradesNotFails pins the retry-misclassification
// fix: a blank restarted worker answers with the typed unknown-table
// error, which is non-retryable (no attempts burned) and degrades the
// answer instead of failing the whole query as a user error.
func TestFleetUnknownTableDegradesNotFails(t *testing.T) {
	if (&shard.RemoteError{Code: protocol.CodeUnknownTable}).Retryable() {
		t.Fatal("unknown_table must not be retryable")
	}
	const rows = 6_000
	ctx := context.Background()
	// Healing off: the fleet must still classify the blank worker
	// honestly (degrade, don't fail, don't retry) even when nobody heals.
	f, err := shard.StartLocalFleet(ctx, shard.FleetConfig{Shards: 2, Rows: rows, Seed: 7, Retries: 2})
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	snap := f.Coord.Snapshot()

	f.KillShard(1)
	if err := f.RestartShard(1); err != nil {
		t.Fatal(err)
	}
	// The first query may burn one retry on the stale connection the kill
	// left behind (a real transport error) before redialing into the blank
	// worker; that is correct. What must NOT happen is the unknown-table
	// answer itself burning retries, so measure the delta on the second
	// query, which runs over the live redialed connection.
	res, err := fleetCount(t, f)
	if err != nil {
		t.Fatalf("blank worker must degrade, not fail the query: %v", err)
	}
	if !res.Degraded {
		t.Fatal("blank worker must mark the answer degraded")
	}
	survivors := snap.Rows - snap.Shards[1].Rows
	if got := res.Table.Column(0).Value(0).AsInt(); got != survivors {
		t.Fatalf("degraded count(*) = %d, want surviving rows %d", got, survivors)
	}
	before := f.Coord.Snapshot().Shards[1].Retries
	if res, err = fleetCount(t, f); err != nil || !res.Degraded {
		t.Fatalf("second degraded query: res=%+v err=%v", res, err)
	}
	if after := f.Coord.Snapshot().Shards[1].Retries; after != before {
		t.Fatalf("unknown_table burned %d retries, want 0 (non-retryable)", after-before)
	}
}

// TestFleetPlacementRace drives concurrent queries, snapshots and
// kill/restart/heal cycles under the race detector, asserting the
// placement-map invariants the healer must preserve: partitions are
// owned by exactly one shard, per-shard placement is the sum of its
// owned partitions' static row counts, and the fleet total never drifts.
func TestFleetPlacementRace(t *testing.T) {
	const rows = 3_000
	ctx := context.Background()
	f, err := shard.StartLocalFleet(ctx, shard.FleetConfig{
		Shards: 3, Rows: rows, Seed: 8,
		Heal: true, HealInterval: 10 * time.Millisecond, RepartitionAfter: 40 * time.Millisecond,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	base := f.Coord.Snapshot()
	partRows := make([]int64, len(base.Shards))
	for i, s := range base.Shards {
		partRows[i] = s.Rows
	}

	var stop atomic.Bool
	var wg sync.WaitGroup
	errs := make(chan string, 64)
	report := func(format string, args ...any) {
		select {
		case errs <- fmt.Sprintf(format, args...):
		default:
		}
	}

	wg.Add(1)
	go func() { // query load
		defer wg.Done()
		for !stop.Load() {
			fleetCount(t, f)
		}
	}()
	wg.Add(1)
	go func() { // invariant checker
		defer wg.Done()
		for !stop.Load() {
			snap := f.Coord.Snapshot()
			var sum int64
			seen := map[int]int{}
			for _, s := range snap.Shards {
				sum += s.Rows
				var want int64
				for _, p := range s.Owned {
					want += partRows[p]
					seen[p]++
				}
				if s.Rows != want {
					report("shard %d places %d rows but owns partitions worth %d", s.Shard, s.Rows, want)
				}
			}
			if sum != snap.Rows {
				report("placement sum %d != total %d", sum, snap.Rows)
			}
			for p, n := range seen {
				if n > 1 {
					report("partition %d owned by %d shards", p, n)
				}
			}
			f.Coord.Coverage()
		}
	}()

	for cycle := 0; cycle < 3; cycle++ {
		f.KillShard(1)
		time.Sleep(150 * time.Millisecond) // past RepartitionAfter
		if err := f.RestartShard(1); err != nil {
			t.Fatal(err)
		}
		time.Sleep(250 * time.Millisecond) // let it rejoin
	}
	stop.Store(true)
	wg.Wait()
	close(errs)
	for msg := range errs {
		t.Error(msg)
	}
	waitFor(t, 10*time.Second, "final heal to 1.0", func() bool {
		return f.Coord.Coverage() == 1
	})
}

// TestWorkersRunTheTypedPipeline is "by construction" for the fleet: a
// worker is built from the zero engine options, and still its partition is
// dictionary-coded and the benchmark's filtered group-by runs on the typed
// sink — after the bootstrap Load+Partition and again after the healer
// re-stages a blank restart. The typed group sink only compiles over a
// *storage.DictColumn (a plain string column is the pinned "group column
// type" fallback), so a hit with no fallback on each worker is the
// assertion that the low-cardinality string column it holds is encoded.
func TestWorkersRunTheTypedPipeline(t *testing.T) {
	ctx := context.Background()
	f, err := shard.StartLocalFleet(ctx, shard.FleetConfig{
		Shards: 2, Rows: 8_000, Seed: 7,
		Heal: true, HealInterval: 20 * time.Millisecond, RepartitionAfter: -1,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	st, err := sqlparse.Parse("SELECT region, sum(amount) FROM sales WHERE amount >= 60 AND amount < 120 GROUP BY region")
	if err != nil {
		t.Fatal(err)
	}
	check := func(when string) {
		t.Helper()
		type counts struct{ hits, falls int64 }
		before := make([]counts, len(f.Workers))
		for i, w := range f.Workers {
			before[i] = counts{w.Engine().AggKernelHits(), w.Engine().AggKernelFallbacks()}
		}
		res, err := f.Coord.Execute(ctx, st.Table, st.Query, core.Exact)
		if err != nil || res.Degraded {
			t.Fatalf("%s: fleet query: err=%v degraded=%v", when, err, res.Degraded)
		}
		if res.Table.NumRows() != 4 {
			t.Fatalf("%s: %d regions, want 4", when, res.Table.NumRows())
		}
		for i, w := range f.Workers {
			hits := w.Engine().AggKernelHits() - before[i].hits
			falls := w.Engine().AggKernelFallbacks() - before[i].falls
			if hits < 1 || falls != 0 {
				t.Fatalf("%s: worker %d agg_kernel hits=+%d fallbacks=+%d, want the typed dict sink", when, i, hits, falls)
			}
		}
	}
	check("after bootstrap")

	f.KillShard(0)
	if res, err := fleetCount(t, f); err != nil || !res.Degraded {
		t.Fatalf("killed shard must degrade, not fail: err=%v degraded=%v", err, res.Degraded)
	}
	if err := f.RestartShard(0); err != nil {
		t.Fatal(err)
	}
	waitFor(t, 10*time.Second, "coverage to heal to 1.0", func() bool {
		return f.Coord.Coverage() == 1
	})
	check("after heal re-stage")
}

// TestFleetCrackedSessionsAcrossAdoption keeps cracked and approx sessions
// running on the survivors while they adopt a dead shard's partition and
// then hand it back: each move replaces a worker's table under queries in
// flight. A crack index built by a query that a re-partition overtook must
// stay with the slice it was built from — served to the next slice it
// answers wrong counts, or indexes past the end and takes the worker down.
// Once the fleet is back in its bootstrap placement, cracked answers at
// coverage 1 must equal exact ones, and the widest count every row.
func TestFleetCrackedSessionsAcrossAdoption(t *testing.T) {
	const rows = 9_000
	ctx := context.Background()
	f, err := shard.StartLocalFleet(ctx, shard.FleetConfig{
		Shards: 3, Rows: rows, Seed: 9,
		Heal: true, HealInterval: 20 * time.Millisecond, RepartitionAfter: 50 * time.Millisecond,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	base := f.Coord.Snapshot()
	parse := func(sql string) *sqlparse.Statement {
		st, err := sqlparse.Parse(sql)
		if err != nil {
			t.Fatal(err)
		}
		return st
	}
	query := func(st *sqlparse.Statement, mode core.Mode) (shard.Result, error) {
		return f.Coord.Execute(ctx, st.Table, st.Query, mode)
	}

	sessions := []struct {
		sql  string
		mode core.Mode
	}{
		{"SELECT count(*) FROM sales WHERE amount >= 40 AND amount < 90", core.Cracked},
		{"SELECT sum(qty) FROM sales WHERE amount >= 55 AND amount < 70", core.Cracked},
		{"SELECT amount, qty FROM sales WHERE amount >= 60 AND amount < 61", core.Cracked},
		{"SELECT avg(amount) FROM sales", core.Approx},
	}
	var stop atomic.Bool
	var answered atomic.Int64
	var wg sync.WaitGroup
	for _, s := range sessions {
		st := parse(s.sql)
		wg.Add(1)
		go func() {
			defer wg.Done()
			for !stop.Load() {
				// Answers while a shard is down are partial by contract;
				// only the answers after the rejoin are checked.
				if _, err := query(st, s.mode); err == nil {
					answered.Add(1)
				}
			}
		}()
	}
	// settle waits until every session has answered a few more queries.
	settle := func() {
		n := answered.Load()
		waitFor(t, 10*time.Second, "sessions to keep answering", func() bool {
			return answered.Load() >= n+int64(4*len(sessions))
		})
	}

	for cycle := 0; cycle < 3; cycle++ {
		settle()
		f.KillShard(2)
		waitFor(t, 10*time.Second, "survivors to adopt the dead partition", func() bool {
			return f.Coord.Coverage() == 1
		})
		settle()
		if err := f.RestartShard(2); err != nil {
			t.Fatal(err)
		}
		waitFor(t, 10*time.Second, "rejoin to restore bootstrap placement", func() bool {
			s := f.Coord.Snapshot()
			for i, sh := range s.Shards {
				if sh.State != "healthy" || sh.Rows != base.Shards[i].Rows {
					return false
				}
			}
			return true
		})
	}
	settle()
	stop.Store(true)
	wg.Wait()

	for i, sql := range []string{
		"SELECT count(*) FROM sales WHERE amount < 1000000", // every row
		"SELECT count(*) FROM sales WHERE amount >= 40 AND amount < 90",
		"SELECT sum(qty) FROM sales WHERE amount >= 55 AND amount < 70",
		"SELECT count(*) FROM sales WHERE amount >= 60 AND amount < 61",
	} {
		st := parse(sql)
		exact, err := query(st, core.Exact)
		if err != nil || exact.Degraded || exact.Coverage != 1 {
			t.Fatalf("exact %s: err=%v degraded=%v coverage=%v", sql, err, exact.Degraded, exact.Coverage)
		}
		want := exact.Table.Column(0).Value(0).AsInt()
		for round := 0; round < 2; round++ { // round 1 reuses the cuts
			res, err := query(st, core.Cracked)
			if err != nil || res.Degraded || res.Coverage != 1 {
				t.Fatalf("cracked %s: err=%v degraded=%v coverage=%v", sql, err, res.Degraded, res.Coverage)
			}
			if got := res.Table.Column(0).Value(0).AsInt(); got != want {
				t.Errorf("cracked %s = %d, exact %d", sql, got, want)
			}
		}
		if i == 0 && want != rows {
			t.Errorf("%s = %d, want every row (%d)", sql, want, rows)
		}
	}
}

// TestWorkerDropsStagedSourceAfterPartition: a worker keeps only the slice
// it serves. After Bootstrap's Load + Partition its staged source is gone,
// so a bare Partition fails as not staged — which is why every healer path
// that re-cuts a slice sends Load first — and a Partition after a fresh
// Load cuts the same slice again.
func TestWorkerDropsStagedSourceAfterPartition(t *testing.T) {
	const rows = 2_000
	ctx := context.Background()
	lis, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	w := shard.NewWorker(8)
	w.Start(lis)
	defer w.Close()
	addr := lis.Addr().String()
	coord, err := shard.New(shard.Config{Spec: shard.Spec{Table: "sales", Column: "amount", Shards: 1}, Workers: []string{addr}})
	if err != nil {
		t.Fatal(err)
	}
	defer coord.Close()
	load := protocol.Load{Name: "sales", Kind: "sales", Rows: rows, Seed: 8}
	if err := coord.Bootstrap(ctx, load); err != nil {
		t.Fatal(err)
	}
	cl := shard.NewClient(0, addr)
	defer cl.Close()
	part := protocol.Partition{Table: "sales", Column: "amount", Scheme: shard.Hash.String(), Index: 0, Count: 1}
	if _, err := cl.Partition(ctx, part); err == nil || !strings.Contains(err.Error(), "not staged") {
		t.Fatalf("bare Partition after Bootstrap: err=%v, want not staged", err)
	}
	if _, err := cl.Load(ctx, load); err != nil {
		t.Fatal(err)
	}
	if kept, err := cl.Partition(ctx, part); err != nil || kept != rows {
		t.Fatalf("Partition after a fresh Load: kept=%d err=%v, want %d rows", kept, err, rows)
	}
}
