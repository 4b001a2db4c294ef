package server

import (
	"sync"
	"time"

	"dex/internal/cache"
	"dex/internal/metrics"
	"dex/internal/shard"
)

// stats aggregates the service's observability counters: per-mode latency
// histograms (built on metrics.LogHist), query outcome counters, and
// session gauges. The admission gauges and the engine's rows-scanned
// counter live elsewhere and are folded in at snapshot time.
type stats struct {
	mu        sync.Mutex
	perMode   map[string]*metrics.LogHist
	completed int64
	cacheHits int64
	cancelled int64
	// cancelledInternal counts context.Canceled surfacing with the client
	// still connected and no deadline fired — an engine bug, not a user
	// action, reported as 500 and tracked apart from benign cancels.
	cancelledInternal int64
	timedOut          int64
	failed            int64
	degraded          int64 // deadline overruns answered approximately
	injected          int64 // failures injected by an armed failpoint
	rejBusy           int64 // 429: queue full or queue timeout
	rejDrain          int64 // 503: draining

	sessionsCreated int64
	sessionsEnded   int64
}

// statCached is the perMode series cache hits are observed under: hits
// record the real lookup latency there, keeping the engine-mode
// histograms (exact, cracked, ...) pure engine executions.
const statCached = "cached"

func newStats() *stats {
	return &stats{perMode: map[string]*metrics.LogHist{}}
}

// observe records one completed query's latency under its mode.
func (s *stats) observe(mode string, d time.Duration, cached bool) {
	s.mu.Lock()
	defer s.mu.Unlock()
	h, ok := s.perMode[mode]
	if !ok {
		h = metrics.NewLogHist()
		s.perMode[mode] = h
	}
	h.Add(d.Seconds())
	s.completed++
	if cached {
		s.cacheHits++
	}
}

func (s *stats) count(field *int64) {
	s.mu.Lock()
	*field++
	s.mu.Unlock()
}

// histograms returns deep copies of the per-mode latency histograms, so
// the /metrics renderer can walk full bucket arrays outside the lock.
func (s *stats) histograms() map[string]*metrics.LogHist {
	s.mu.Lock()
	defer s.mu.Unlock()
	out := make(map[string]*metrics.LogHist, len(s.perMode))
	for mode, h := range s.perMode {
		out[mode] = h.Clone()
	}
	return out
}

// ModeStats is the latency summary of one execution mode in a snapshot.
type ModeStats struct {
	Count  int64   `json:"count"`
	MeanMS float64 `json:"mean_ms"`
	P50MS  float64 `json:"p50_ms"`
	P95MS  float64 `json:"p95_ms"`
	P99MS  float64 `json:"p99_ms"`
	MaxMS  float64 `json:"max_ms"`
}

// QueryStats groups the query outcome counters in a snapshot.
type QueryStats struct {
	Completed int64 `json:"completed"`
	CacheHits int64 `json:"cache_hits"`
	Cancelled int64 `json:"cancelled"`
	// CancelledInternal counts cancellations that had no external cause
	// (client connected, no deadline) — server-side failures, see stats.
	CancelledInternal int64 `json:"cancelled_internal"`
	TimedOut          int64 `json:"timed_out"`
	Failed            int64 `json:"failed"`
	Degraded          int64 `json:"degraded"`
	Injected          int64 `json:"injected"`
	RejectedBusy      int64 `json:"rejected_busy"`
	RejectedDrain     int64 `json:"rejected_drain"`
}

// SessionStats groups the session gauges in a snapshot.
type SessionStats struct {
	Active  int   `json:"active"`
	Created int64 `json:"created"`
	Ended   int64 `json:"ended"`
}

// CacheStats mirrors the result cache counters in a snapshot.
type CacheStats struct {
	Enabled   bool    `json:"enabled"`
	Entries   int     `json:"entries"`
	UsedRows  int64   `json:"used_rows"`
	Hits      int64   `json:"hits"`
	Misses    int64   `json:"misses"`
	Evictions int64   `json:"evictions"`
	HitRate   float64 `json:"hit_rate"`
}

// StatsSnapshot is the /admin/stats payload: a point-in-time view of the
// service. RowsScanned advances live while queries run, so two snapshots
// taken apart bound the work done in between — the signal the cancellation
// tests use to prove a disconnected query actually stopped.
type StatsSnapshot struct {
	Active      int   `json:"active"`
	Queued      int   `json:"queued"`
	Draining    bool  `json:"draining"`
	RowsScanned int64 `json:"rows_scanned"`
	// ZoneSkipped counts morsels the value index skipped whole, as holding
	// no candidate; IndexMorsels those it served in place of a scan
	// (skipped, or answered from its candidates); CellQueries the
	// aggregate queries answered from bucket cells: behind one range, in
	// exact or cracked mode, two, or no WHERE.
	ZoneSkipped  int64 `json:"zone_skipped"`
	IndexMorsels int64 `json:"index_morsels"`
	CellQueries  int64 `json:"cell_queries"`
	// AggKernelHits / AggKernelFallbacks split aggregate queries by whether
	// the typed accumulation kernels answered them or they fell back to the
	// generic path (multi-column groups, wide dicts, string agg inputs).
	AggKernelHits      int64                `json:"agg_kernel_hits"`
	AggKernelFallbacks int64                `json:"agg_kernel_fallbacks"`
	Queries            QueryStats           `json:"queries"`
	Sessions           SessionStats         `json:"sessions"`
	Cache              CacheStats           `json:"cache"`
	Modes              map[string]ModeStats `json:"modes"`
	// Shard is the coordinator's fleet view; absent on non-coordinators.
	Shard *shard.Snapshot `json:"shard,omitempty"`
}

// snapshot renders the counters; the caller fills the admission gauges and
// engine counter.
func (s *stats) snapshot(activeSessions int, cacheStats *cache.Stats, cacheEntries int, cacheUsed int64) StatsSnapshot {
	s.mu.Lock()
	defer s.mu.Unlock()
	snap := StatsSnapshot{
		Queries: QueryStats{
			Completed:         s.completed,
			CacheHits:         s.cacheHits,
			Cancelled:         s.cancelled,
			CancelledInternal: s.cancelledInternal,
			TimedOut:          s.timedOut,
			Failed:            s.failed,
			Degraded:          s.degraded,
			Injected:          s.injected,
			RejectedBusy:      s.rejBusy,
			RejectedDrain:     s.rejDrain,
		},
		Sessions: SessionStats{
			Active:  activeSessions,
			Created: s.sessionsCreated,
			Ended:   s.sessionsEnded,
		},
		Modes: make(map[string]ModeStats, len(s.perMode)),
	}
	for mode, h := range s.perMode {
		snap.Modes[mode] = ModeStats{
			Count:  h.N(),
			MeanMS: h.Mean() * 1e3,
			P50MS:  h.Quantile(0.5) * 1e3,
			P95MS:  h.Quantile(0.95) * 1e3,
			P99MS:  h.Quantile(0.99) * 1e3,
			MaxMS:  h.Max() * 1e3,
		}
	}
	if cacheStats != nil {
		snap.Cache = CacheStats{
			Enabled:   true,
			Entries:   cacheEntries,
			UsedRows:  cacheUsed,
			Hits:      cacheStats.Hits,
			Misses:    cacheStats.Misses,
			Evictions: cacheStats.Evictions,
			HitRate:   cacheStats.HitRate(),
		}
	}
	return snap
}
