package bench

import (
	"context"
	"encoding/json"
	"fmt"
	"io"
	"math/rand"
	"os"
	"runtime"
	"sync"
	"sync/atomic"
	"time"

	"dex/internal/crack"
	"dex/internal/exec"
	"dex/internal/expr"
	"dex/internal/storage"
	"dex/internal/trace"
	"dex/internal/workload"
)

func init() {
	register(Experiment{
		ID:     "E30",
		Title:  "Concurrent cracked probes and value-index morsel skipping",
		Source: "database cracking (Idreos et al., CIDR 2007); small materialized aggregates (Moerkotte, VLDB 1998)",
		Run:    runE30,
	})
}

// e30JSON is the machine-readable baseline BENCH_concurrency.json records.
type e30JSON struct {
	Rows       int              `json:"rows"`
	GOMAXPROCS int              `json:"gomaxprocs"`
	Concurrent []e30Concurrency `json:"concurrent_probes"`
	Skipping   []e30Skip        `json:"index_skipping"`
}

type e30Concurrency struct {
	Clients        int     `json:"clients"`
	QPS            float64 `json:"qps"`
	SerializedQPS  float64 `json:"serialized_qps"`
	VsSerialized   float64 `json:"vs_serialized"`
	ReadLockedFrac float64 `json:"read_locked_frac"`
}

type e30Skip struct {
	Selectivity   float64 `json:"selectivity"`
	Morsels       int64   `json:"morsels"`
	Skipped       int64   `json:"skipped"`
	SkipFrac      float64 `json:"skip_frac"`
	UnclusteredMS float64 `json:"unclustered_ms"` // same rows in load order: nothing is skipped
	ClusteredMS   float64 `json:"clustered_ms"`   // sorted by the predicate column
	Speedup       float64 `json:"speedup"`
}

// runE30 measures the two halves of the concurrency PR.
//
// Part 1: throughput of concurrent probes against one converged cracker
// index, 1→16 clients, versus the same probe stream pushed through a
// single global mutex — the engine-wide crack lock this PR removed. On a
// converged index every probe takes the shared read lock, so the scaling
// gap between the two columns is exactly what the removal bought. (On a
// single-core host both curves are flat; the read-locked fraction still
// certifies the lock path, and the race-detector parity harness certifies
// correctness.)
//
// Part 2: value-index morsel skipping and speedup of a parallel filtered
// scan over a value-clustered table at decreasing selectivity, against the
// same rows in load order. Skipping a morsel whole needs physical
// locality: the sales table is sorted by the probed column, the
// favorable-but-honest case (the unsorted table skips ~nothing, as the
// exec tests pin, though the index still refines its candidates there).
func runE30(w io.Writer, cfg Config) error {
	out := &e30JSON{GOMAXPROCS: runtime.GOMAXPROCS(0)}

	// ---- Part 1: concurrent cracked-probe throughput ----
	n := cfg.Scale(2_000_000, 100, 20_000)
	out.Rows = n
	rng := rand.New(rand.NewSource(cfg.Seed))
	col := make([]int64, n)
	for i := range col {
		col[i] = rng.Int63n(1 << 20)
	}
	ix := crack.New(col, crack.Options{})

	// The probe pool: 256 fixed ranges of ~0.1% selectivity. Warming cracks
	// the index at every bound, so the measured phase probes a converged
	// index — the steady state an exploration session reaches.
	const poolSize = 256
	width := int64(1<<20) / 1000
	type rg struct{ lo, hi int64 }
	pool := make([]rg, poolSize)
	for i := range pool {
		lo := rng.Int63n(1<<20 - width)
		pool[i] = rg{lo, lo + width}
	}
	for _, r := range pool {
		ix.Query(r.lo, r.hi)
	}

	totalProbes := cfg.Scale(8192, 16, 512)
	clientCounts := []int{1, 2, 4, 8, 16}
	fmt.Fprintf(w, "rows=%d GOMAXPROCS=%d pool=%d probes/run=%d\n\n", n, out.GOMAXPROCS, poolSize, totalProbes)

	// run fires totalProbes probes across c clients and returns elapsed
	// time plus the fraction served under the read lock. When serialize is
	// set, every probe additionally holds one global mutex — the old
	// engine-wide crackMu, reconstructed for the baseline column.
	run := func(c int, serialize bool) (time.Duration, float64) {
		var gate sync.Mutex
		var readLocked atomic.Int64
		per := totalProbes / c
		var wg sync.WaitGroup
		start := time.Now()
		for g := 0; g < c; g++ {
			wg.Add(1)
			go func(g int) {
				defer wg.Done()
				grng := rand.New(rand.NewSource(cfg.Seed + int64(g)))
				for i := 0; i < per; i++ {
					r := pool[grng.Intn(poolSize)]
					if serialize {
						gate.Lock()
					}
					_, st, _ := ix.Probe(r.lo, r.hi)
					if serialize {
						gate.Unlock()
					}
					if st.Lock == crack.LockRead {
						readLocked.Add(1)
					}
				}
			}(g)
		}
		wg.Wait()
		return time.Since(start), float64(readLocked.Load()) / float64(per*c)
	}

	tbl := NewTable("clients", "qps", "serialized-qps", "vs-serialized", "read-locked")
	for _, c := range clientCounts {
		// Best of 3 to damp scheduler noise; the serialized baseline gets
		// the same treatment.
		best, bestSer := time.Duration(1<<62), time.Duration(1<<62)
		var readFrac float64
		for rep := 0; rep < 3; rep++ {
			d, rf := run(c, false)
			if d < best {
				best, readFrac = d, rf
			}
			ds, _ := run(c, true)
			if ds < bestSer {
				bestSer = ds
			}
		}
		probes := float64(totalProbes / c * c)
		qps := probes / best.Seconds()
		serQPS := probes / bestSer.Seconds()
		tbl.Row(c, qps, serQPS, qps/serQPS, readFrac)
		out.Concurrent = append(out.Concurrent, e30Concurrency{
			Clients: c, QPS: qps, SerializedQPS: serQPS,
			VsSerialized: qps / serQPS, ReadLockedFrac: readFrac,
		})
	}
	tbl.Fprint(w)

	// ---- Part 2: value-index skip rate and speedup by selectivity ----
	sn := cfg.Scale(1_000_000, 50, 20_000)
	sales, err := workload.Sales(rand.New(rand.NewSource(cfg.Seed)), sn)
	if err != nil {
		return err
	}
	sorted, err := sales.SortBy("amount", false)
	if err != nil {
		return err
	}
	ac, err := sorted.ColumnByName("amount")
	if err != nil {
		return err
	}
	amounts := ac.(*storage.FloatColumn).V

	fmt.Fprintf(w, "\nvalue-index morsel skipping: rows=%d (sorted by amount), workers=4\n\n", sn)
	ztbl := NewTable("selectivity", "skipped", "morsels", "unclustered", "clustered", "speedup")
	for _, sel := range []float64{0.001, 0.01, 0.1} {
		// The quantile window [lo, hi) covering exactly sel of the rows,
		// centered in the value range.
		loIdx := int(float64(sn) * (0.5 - sel/2))
		hiIdx := int(float64(sn) * (0.5 + sel/2))
		if hiIdx >= sn {
			hiIdx = sn - 1
		}
		q := exec.Query{
			Select: []exec.SelectItem{
				{Col: "*", Agg: exec.AggCount},
				{Col: "amount", Agg: exec.AggSum},
			},
			Where: expr.And(
				expr.Cmp("amount", expr.GE, storage.Float(amounts[loIdx])),
				expr.Cmp("amount", expr.LT, storage.Float(amounts[hiIdx])),
			),
		}
		// Skipping is not an option to switch off: the baseline is the same
		// rows in load order, where every morsel spans the whole value
		// range and holds a candidate.
		opt := exec.ExecOptions{Parallelism: 4}
		dOff, err := medianTime(3, func() error {
			_, e := exec.ExecuteOpts(sales, q, opt)
			return e
		})
		if err != nil {
			return err
		}
		dOn, err := medianTime(3, func() error {
			_, e := exec.ExecuteOpts(sorted, q, opt)
			return e
		})
		if err != nil {
			return err
		}
		skipped, morsels, err := indexSkipStats(sorted, q, opt)
		if err != nil {
			return err
		}
		ztbl.Row(sel, skipped, morsels, dOff, dOn, float64(dOff)/float64(dOn))
		out.Skipping = append(out.Skipping, e30Skip{
			Selectivity: sel, Morsels: morsels, Skipped: skipped,
			SkipFrac:      float64(skipped) / float64(morsels),
			UnclusteredMS: float64(dOff.Microseconds()) / 1e3,
			ClusteredMS:   float64(dOn.Microseconds()) / 1e3,
			Speedup:       float64(dOff) / float64(dOn),
		})
	}
	ztbl.Fprint(w)

	if cfg.JSONPath != "" {
		blob, err := json.MarshalIndent(out, "", "  ")
		if err != nil {
			return err
		}
		if err := os.WriteFile(cfg.JSONPath, append(blob, '\n'), 0o644); err != nil {
			return err
		}
		fmt.Fprintf(w, "\nwrote %s\n", cfg.JSONPath)
	}
	return nil
}

// indexSkipStats runs the query once traced and reads the scan span's
// index_skipped and morsels attributes.
func indexSkipStats(t *storage.Table, q exec.Query, opt exec.ExecOptions) (skipped, morsels int64, err error) {
	ctx, sp := trace.Start(context.Background(), "e30")
	_, err = exec.ExecuteCtx(ctx, t, q, opt)
	sp.End()
	if err != nil {
		return 0, 0, err
	}
	for _, c := range sp.JSON().Children {
		if c.Name == "scan" {
			if v, ok := c.Attrs["index_skipped"].(int64); ok {
				skipped = v
			}
			if v, ok := c.Attrs["morsels"].(int64); ok {
				morsels = v
			}
		}
	}
	return skipped, morsels, nil
}
