package shard

import (
	"context"
	"fmt"
	"net"
	"time"

	"dex/internal/protocol"
)

// FleetConfig parameterizes a local in-process fleet.
type FleetConfig struct {
	// Shards is the worker count (default 2).
	Shards int
	// Rows per demo table (default 100k) and the shared generator Seed.
	Rows int
	Seed int64
	// Kind is the demo workload (sales|sky|ticks, default sales); Table
	// and Column name the sharded table and its partition column
	// (defaults sales/amount — the crack column).
	Kind   string
	Table  string
	Column string
	Scheme Scheme
	// ShardTimeout and Retries pass through to the coordinator.
	ShardTimeout time.Duration
	Retries      int
	// Heal, HealInterval and RepartitionAfter pass through to the
	// coordinator's self-healing state machine.
	Heal             bool
	HealInterval     time.Duration
	RepartitionAfter time.Duration
}

func (c *FleetConfig) defaults() {
	if c.Shards <= 0 {
		c.Shards = 2
	}
	if c.Rows <= 0 {
		c.Rows = 100_000
	}
	if c.Kind == "" {
		c.Kind = "sales"
	}
	if c.Table == "" {
		c.Table = c.Kind
	}
	if c.Column == "" {
		c.Column = "amount"
	}
}

// LocalFleet is an in-process worker fleet plus its coordinator — the
// shape the fleet benchmark and the shard tests run: real TCP loopback and
// real frames, no extra processes.
type LocalFleet struct {
	Coord   *Coordinator
	Workers []*Worker
	addrs   []string
	seed    int64
	killed  []bool
}

// StartLocalFleet boots n workers on loopback listeners, builds a
// coordinator over them and bootstraps the demo table.
func StartLocalFleet(ctx context.Context, cfg FleetConfig) (*LocalFleet, error) {
	cfg.defaults()
	f := &LocalFleet{killed: make([]bool, cfg.Shards), seed: cfg.Seed}
	addrs := make([]string, cfg.Shards)
	for i := 0; i < cfg.Shards; i++ {
		lis, err := net.Listen("tcp", "127.0.0.1:0")
		if err != nil {
			f.Close()
			return nil, fmt.Errorf("shard: listen worker %d: %w", i, err)
		}
		w := NewWorker(cfg.Seed)
		w.Start(lis)
		f.Workers = append(f.Workers, w)
		addrs[i] = lis.Addr().String()
	}
	f.addrs = addrs
	coord, err := New(Config{
		Spec:             Spec{Table: cfg.Table, Column: cfg.Column, Scheme: cfg.Scheme, Shards: cfg.Shards},
		Workers:          addrs,
		ShardTimeout:     cfg.ShardTimeout,
		Retries:          cfg.Retries,
		Heal:             cfg.Heal,
		HealInterval:     cfg.HealInterval,
		RepartitionAfter: cfg.RepartitionAfter,
	})
	if err != nil {
		f.Close()
		return nil, err
	}
	f.Coord = coord
	if err := coord.Bootstrap(ctx, protocol.Load{Kind: cfg.Kind, Rows: cfg.Rows, Seed: cfg.Seed}); err != nil {
		f.Close()
		return nil, err
	}
	return f, nil
}

// KillShard tears down one worker (listener and live connections) so the
// fleet degrades: queries that land on it fail as transport errors,
// retries hit connection-refused, and the coordinator merges survivors.
func (f *LocalFleet) KillShard(i int) {
	if i < 0 || i >= len(f.Workers) || f.killed[i] {
		return
	}
	f.killed[i] = true
	f.Workers[i].Close()
}

// RestartShard brings a killed worker back on its original address —
// blank, exactly like a restarted dexd process: staged tables, crack
// indexes and samples are gone until the coordinator's healer re-stages
// it. Without healing the restarted worker answers queries with the
// typed unknown-table error and the fleet keeps degrading.
func (f *LocalFleet) RestartShard(i int) error {
	if i < 0 || i >= len(f.Workers) || !f.killed[i] {
		return fmt.Errorf("shard: restart: worker %d is not killed", i)
	}
	lis, err := net.Listen("tcp", f.addrs[i])
	if err != nil {
		return fmt.Errorf("shard: restart worker %d: %w", i, err)
	}
	w := NewWorker(f.seed)
	w.Start(lis)
	f.Workers[i] = w
	f.killed[i] = false
	return nil
}

// Close tears down the coordinator and every still-running worker.
func (f *LocalFleet) Close() {
	if f.Coord != nil {
		f.Coord.Close()
	}
	for i, w := range f.Workers {
		if !f.killed[i] {
			f.killed[i] = true
			w.Close()
		}
	}
}
