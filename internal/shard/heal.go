package shard

import (
	"context"
	"errors"
	"sort"
	"time"

	"dex/internal/protocol"
)

// Fleet healing. The coordinator keeps the partition spec, the Load that
// staged the source, and the static per-partition row counts (Bootstrap's
// provenance), so any shard's slice can be rebuilt on any worker without
// shipping rows: Load regenerates the seeded source, Partition keeps the
// owned slices. A background healer drives the per-shard state machine
//
//	healthy ──(transport / unknown-table past retries)──▶ lost
//	lost ──(worker answers again)──▶ restaging ──▶ healthy
//	lost ──(down past RepartitionAfter)──▶ repartitioned
//	repartitioned ──(worker answers again)──▶ restaging ──▶ healthy
//
// with two invariants: non-healthy shards are never queried, and
// ownership of a partition moves only after the receiving worker
// confirms it holds the rows — so at every instant at most one queried
// worker holds any partition, and coverage (computed from the placement
// map) never overstates what a query actually touched. Both heal shapes
// end at coverage exactly 1.0; the dip in between is reported honestly.

// ShardState is one shard's position in the healing state machine.
type ShardState uint8

const (
	// StateHealthy: the worker holds its owned partitions and is queried.
	StateHealthy ShardState = iota
	// StateLost: the shard failed past retries; queries skip it until the
	// healer re-stages it or re-partitions its rows away.
	StateLost
	// StateRestaging: a staging RPC is in flight for this worker (initial
	// re-stage, adoption, or rejoin shrink); skipped by queries because
	// its registered slice is mid-swap.
	StateRestaging
	// StateRepartitioned: the worker stayed down past RepartitionAfter
	// and survivors adopted its partitions; it owns nothing until it
	// comes back and rejoins.
	StateRepartitioned
)

// String names the state (the dex_shard_state gauge renders the ordinal).
func (s ShardState) String() string {
	switch s {
	case StateHealthy:
		return "healthy"
	case StateLost:
		return "lost"
	case StateRestaging:
		return "restaging"
	case StateRepartitioned:
		return "repartitioned"
	default:
		return "unknown"
	}
}

// errShardNotHealthy marks a shard the scatter skipped because the
// healer owns it; it degrades the answer like any lost shard (unless the
// shard owns no rows) but never re-triggers failure classification.
var errShardNotHealthy = errors.New("shard not healthy, awaiting heal")

// probeTimeout bounds the healer's Stats probe and the best-effort stats
// refresh; stageTimeout bounds one Load+Partition staging sequence.
const (
	probeTimeout = 2 * time.Second
	stageTimeout = 30 * time.Second
)

// markLost flips a healthy shard to lost. Only Execute's failure
// classification calls it; every transition out of lost belongs to the
// healer goroutine.
func (c *Coordinator) markLost(i int) {
	if !c.cfg.Heal {
		return
	}
	c.mu.Lock()
	if c.states[i] == StateHealthy {
		c.states[i] = StateLost
		c.lostSince[i] = time.Now()
	}
	c.mu.Unlock()
}

// ShardStates returns the per-shard state vector.
func (c *Coordinator) ShardStates() []ShardState {
	c.mu.Lock()
	defer c.mu.Unlock()
	return append([]ShardState(nil), c.states...)
}

// Coverage returns the fraction of placed rows a query issued now would
// cover: Σ placement over healthy shards / total. Exactly 1.0 on a
// healed fleet.
func (c *Coordinator) Coverage() float64 {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.coverageLocked()
}

func (c *Coordinator) coverageLocked() float64 {
	if c.total == 0 {
		return 1
	}
	var covered int64
	for i, st := range c.states {
		if st == StateHealthy {
			covered += c.placement[i]
		}
	}
	return float64(covered) / float64(c.total)
}

// healLoop is the healer goroutine: one pass over the fleet per tick.
func (c *Coordinator) healLoop() {
	defer c.healWG.Done()
	tick := time.NewTicker(c.cfg.HealInterval)
	defer tick.Stop()
	for {
		select {
		case <-c.healStop:
			return
		case <-tick.C:
			c.healTick()
		}
	}
}

// healTick resolves every non-healthy shard it can this pass. Work is
// sequential: the healer is the only goroutine that mutates ownership,
// which keeps the placement map's invariants single-writer.
func (c *Coordinator) healTick() {
	c.mu.Lock()
	states := append([]ShardState(nil), c.states...)
	c.mu.Unlock()
	for i, st := range states {
		select {
		case <-c.healStop:
			return
		default:
		}
		switch st {
		case StateLost:
			c.healLost(i)
		case StateRepartitioned:
			c.healRejoin(i)
		}
	}
}

// healLost probes a lost shard. A reachable worker that still holds its
// exact slice just reattaches (the loss was a transient blip); a
// reachable blank one is re-staged; an unreachable one is re-partitioned
// once it has been down past the threshold.
func (c *Coordinator) healLost(i int) {
	ctx, cancel := context.WithTimeout(context.Background(), probeTimeout)
	st, err := c.clients[i].Stats(ctx)
	cancel()
	if err != nil {
		c.maybeRepartition(i)
		return
	}
	c.mu.Lock()
	expect := c.rowsOf(c.owned[i])
	table := c.cfg.Spec.Table
	c.mu.Unlock()
	if expect > 0 {
		for _, t := range st.Tables {
			if t.Name == table && t.Rows == expect {
				c.mu.Lock()
				reattached := c.states[i] == StateLost
				if reattached {
					c.states[i] = StateHealthy
				}
				c.mu.Unlock()
				if reattached {
					c.countHeal("reattach")
				}
				return
			}
		}
	}
	c.restage(i)
}

// restage rebuilds shard i's owned partitions on its (re)started worker.
func (c *Coordinator) restage(i int) {
	c.mu.Lock()
	if c.states[i] != StateLost {
		c.mu.Unlock()
		return
	}
	if len(c.owned[i]) == 0 {
		// Owns nothing — that is the repartitioned condition; the rejoin
		// path will hand its home partition back.
		c.states[i] = StateRepartitioned
		c.mu.Unlock()
		return
	}
	c.states[i] = StateRestaging
	ok := c.stage(i, append([]int(nil), c.owned[i]...))
	if ok {
		c.states[i] = StateHealthy
	} else {
		// Back to lost; lostSince keeps its original clock so the
		// repartition threshold measures from the first failure.
		c.states[i] = StateLost
	}
	c.mu.Unlock()
	if ok {
		c.countHeal("restage")
	}
}

// stage runs the Load+Partition staging sequence that gives worker i the
// owned partitions, under stageTimeout, and reports whether it confirmed
// every row they hold. The caller holds c.mu, which stage releases while
// the worker stages and holds again when it returns.
func (c *Coordinator) stage(i int, owned []int) bool {
	load, part, expect := c.load, c.partitionMsgFor(i, owned), c.rowsOf(owned)
	c.mu.Unlock()
	defer c.mu.Lock()
	ctx, cancel := context.WithTimeout(context.Background(), stageTimeout)
	defer cancel()
	if _, err := c.clients[i].Load(ctx, load); err != nil {
		return false
	}
	rows, err := c.clients[i].Partition(ctx, part)
	return err == nil && rows == expect
}

// maybeRepartition moves a long-dead shard's partitions onto survivors,
// one adoption at a time, returning fleet coverage to 1.0 without the
// dead worker.
func (c *Coordinator) maybeRepartition(i int) {
	if c.cfg.RepartitionAfter < 0 {
		return
	}
	c.mu.Lock()
	if c.states[i] != StateLost || time.Since(c.lostSince[i]) < c.cfg.RepartitionAfter {
		c.mu.Unlock()
		return
	}
	orphans := append([]int(nil), c.owned[i]...)
	var healthy []int
	for j, st := range c.states {
		if j != i && st == StateHealthy {
			healthy = append(healthy, j)
		}
	}
	if len(orphans) == 0 {
		c.states[i] = StateRepartitioned
		c.mu.Unlock()
		return
	}
	if len(healthy) == 0 {
		c.mu.Unlock()
		return // nobody to adopt; keep waiting for the worker instead
	}
	c.mu.Unlock()

	moved := 0
	for n, p := range orphans {
		if c.adopt(healthy[n%len(healthy)], i, p) {
			moved++
		}
	}
	if moved == len(orphans) {
		c.mu.Lock()
		if c.states[i] == StateLost {
			c.states[i] = StateRepartitioned
		}
		c.mu.Unlock()
		c.countHeal("repartition")
	}
}

// adopt moves partition p from shard `from` (lost) onto shard j: the
// adopter leaves query rotation while its worker re-stages the enlarged
// slice (Load, then Partition: a worker keeps no source once its slice is
// cut), and ownership (and so coverage) moves only after the worker
// confirms the expected row count.
func (c *Coordinator) adopt(j, from, p int) bool {
	c.mu.Lock()
	if c.states[j] != StateHealthy {
		c.mu.Unlock()
		return false
	}
	c.states[j] = StateRestaging
	newOwned := append(append([]int(nil), c.owned[j]...), p)
	sort.Ints(newOwned)
	ok := c.stage(j, newOwned)
	if ok {
		c.owned[j] = newOwned
		c.placement[j] += c.partRows[p]
		c.owned[from] = removeInt(c.owned[from], p)
		c.placement[from] -= c.partRows[p]
		c.states[j] = StateHealthy
	} else {
		// The adopter's registered slice is now unknown (the staging may
		// or may not have landed); hand it to the lost path, which rebuilds
		// exactly its still-unchanged owned set.
		c.states[j] = StateLost
		c.lostSince[j] = time.Now()
	}
	c.mu.Unlock()
	return ok
}

// healRejoin probes a repartitioned worker; once it answers again the
// healer hands back its home partition: the current holder shrinks first
// (ownership and coverage move with the confirmation), then the
// returning worker stages its slice — at no instant do two queried
// workers hold the same partition.
func (c *Coordinator) healRejoin(i int) {
	ctx, cancel := context.WithTimeout(context.Background(), probeTimeout)
	_, err := c.clients[i].Stats(ctx)
	cancel()
	if err != nil {
		return // still down
	}
	home := i // Bootstrap's 1:1 layout: partition index i is shard i's home
	c.mu.Lock()
	if c.states[i] != StateRepartitioned {
		c.mu.Unlock()
		return
	}
	holder := -1
	for j, ow := range c.owned {
		for _, p := range ow {
			if p == home {
				holder = j
				break
			}
		}
	}
	if holder == i {
		// Already ours on paper (a previous rejoin died mid-stage); let
		// the lost path finish the staging.
		c.states[i] = StateLost
		c.lostSince[i] = time.Now()
		c.mu.Unlock()
		return
	}
	if holder >= 0 {
		if c.states[holder] != StateHealthy {
			c.mu.Unlock()
			return // holder busy; try again next tick
		}
		c.states[holder] = StateRestaging
		shrunk := removeInt(append([]int(nil), c.owned[holder]...), home)
		if !c.stage(holder, shrunk) {
			c.states[holder] = StateLost
			c.lostSince[holder] = time.Now()
			c.mu.Unlock()
			return
		}
		c.owned[holder] = shrunk
		c.placement[holder] -= c.partRows[home]
		c.states[holder] = StateHealthy
	}
	// Ownership transfers to the returning worker before it holds the
	// rows; it stays out of query rotation (Restaging) until staged, so
	// coverage dips honestly rather than overstating.
	c.owned[i] = []int{home}
	c.placement[i] = c.partRows[home]
	c.states[i] = StateRestaging
	ok := c.stage(i, []int{home})
	if ok {
		c.states[i] = StateHealthy
	} else {
		c.states[i] = StateLost
		c.lostSince[i] = time.Now()
	}
	c.mu.Unlock()
	if ok {
		c.countHeal("rejoin")
	}
}

// rowsOf is Σ partRows over the owned partitions. Callers hold c.mu.
func (c *Coordinator) rowsOf(owned []int) int64 {
	var n int64
	for _, p := range owned {
		n += c.partRows[p]
	}
	return n
}

// partitionMsgFor builds a Partition message assigning shard i the given
// owned set.
func (c *Coordinator) partitionMsgFor(i int, owned []int) protocol.Partition {
	return protocol.Partition{
		Table:  c.cfg.Spec.Table,
		Column: c.cfg.Spec.Column,
		Scheme: c.cfg.Spec.Scheme.String(),
		Index:  i,
		Count:  c.cfg.Spec.Shards,
		Bounds: c.cfg.Spec.Bounds,
		Owned:  owned,
	}
}

func (c *Coordinator) countHeal(kind string) {
	c.met.mu.Lock()
	c.met.heals[kind]++
	c.met.mu.Unlock()
}

func removeInt(s []int, v int) []int {
	out := s[:0]
	for _, x := range s {
		if x != v {
			out = append(out, x)
		}
	}
	return out
}
