package bench

import (
	"fmt"
	"io"
	"math/rand"
	"time"

	"dex/internal/exec"
	"dex/internal/expr"
	"dex/internal/storage"
)

func init() {
	register(Experiment{
		ID:     "E33",
		Title:  "Typed predicate kernels and compressed columns: filtered-scan speedup",
		Source: "vectorized selection kernels (MonetDB/X100, CIDR 2005); dictionary/RLE columns (C-Store, VLDB 2005)",
		Run:    runE33,
	})
}

// KernelScanCell is one selectivity point of the pipeline-vs-oracle scan
// comparison, exported to BENCH_kernels.json as the regression baseline.
type KernelScanCell struct {
	Query          string  `json:"query"` // "cmp" or "between"
	Selectivity    float64 `json:"selectivity"`
	OracleMS       float64 `json:"oracle_ms"`   // exec.Execute, the boxed reference evaluator
	PipelineMS     float64 `json:"pipeline_ms"` // exec.ExecuteOpts at Parallelism 1
	Speedup        float64 `json:"speedup"`
	PipelineRowsPS float64 `json:"pipeline_rows_per_sec"`
	PipelineMBPS   float64 `json:"pipeline_mb_per_sec"`
}

// KernelEncodedCell compares the same predicate on plain vs encoded column
// representations, both through the pipeline.
type KernelEncodedCell struct {
	Name        string  `json:"name"` // "dict-eq", "rle-range"
	Selectivity float64 `json:"selectivity"`
	PlainMS     float64 `json:"plain_ms"`
	EncodedMS   float64 `json:"encoded_ms"`
	Speedup     float64 `json:"speedup"`
}

// KernelBench is the machine-readable BENCH_kernels.json artifact: E33
// owns the scan/encoded sections, E34 the agg section, and each rewrites
// only its own (loadKernelBench carries the other across).
type KernelBench struct {
	Rows    int                 `json:"rows"`
	Seed    int64               `json:"seed"`
	Scan    []KernelScanCell    `json:"scan"`
	Encoded []KernelEncodedCell `json:"encoded"`
	Agg     *AggKernelBench     `json:"agg,omitempty"`
}

// kernelBenchTable builds the E33 table: a uniform float selectivity dial,
// a payload column the filtered scan projects (the E26 filtered-scan
// shape), a low-cardinality string dimension, and a clustered int column.
func kernelBenchTable(rng *rand.Rand, n int) (*storage.Table, error) {
	v := make([]float64, n)
	amount := make([]float64, n)
	cat := make([]string, n)
	grp := make([]int64, n)
	g := int64(0)
	for i := 0; i < n; i++ {
		v[i] = rng.Float64() * 100
		amount[i] = rng.Float64() * 1000
		cat[i] = fmt.Sprintf("c%d", rng.Intn(8))
		if rng.Intn(512) == 0 {
			g = rng.Int63n(100)
		}
		grp[i] = g
	}
	return storage.FromColumns("kernelbench", storage.Schema{
		{Name: "v", Type: storage.TFloat},
		{Name: "amount", Type: storage.TFloat},
		{Name: "cat", Type: storage.TString},
		{Name: "grp", Type: storage.TInt},
	}, []storage.Column{
		storage.NewFloatColumn(v), storage.NewFloatColumn(amount),
		storage.NewStringColumn(cat), storage.NewIntColumn(grp),
	})
}

// measureOracle and measurePipeline are the two arms E33 and E34 compare:
// the boxed reference evaluator and the served pipeline on one worker,
// each warmed once and then timed as a median of reps.
func measureOracle(reps int, t *storage.Table, q exec.Query) (time.Duration, error) {
	return warmMedian(reps, func() error {
		_, err := exec.Execute(t, q)
		return err
	})
}

func measurePipeline(reps int, t *storage.Table, q exec.Query) (time.Duration, error) {
	return warmMedian(reps, func() error {
		_, err := exec.ExecuteOpts(t, q, exec.ExecOptions{Parallelism: 1})
		return err
	})
}

func warmMedian(reps int, fn func() error) (time.Duration, error) {
	if err := fn(); err != nil {
		return 0, err
	}
	return medianTime(reps, fn)
}

// runE33 measures the pipeline's typed-kernel scan against the reference
// evaluator (exec.Execute: generic predicate, materialized selection) at
// 1%/10%/50% selectivity — single comparison and fused BETWEEN range, over
// the E26 filtered-scan shape (filter + project) — and then the additional
// win from dictionary and RLE column encodings on low-cardinality
// predicates. The guard test in kernels_guard_test.go pins "the pipeline
// is never slower than 0.9x the oracle"; the headline expectation is a
// >=3x speedup on the fused range at low selectivity, where the generic
// evaluator pays one bool-vector pass per bound plus a merge while the
// kernel scans the column once, branch-free.
func runE33(w io.Writer, cfg Config) error {
	n := cfg.Scale(2_000_000, 100, 20_000)
	rng := rand.New(rand.NewSource(cfg.Seed))
	tab, err := kernelBenchTable(rng, n)
	if err != nil {
		return err
	}
	reps := 5
	if cfg.Quick {
		reps = 3
	}
	res := KernelBench{Rows: n, Seed: cfg.Seed}
	fmt.Fprintf(w, "rows=%d reps=%d (one worker; the parallel matrix is E26's)\n\n", n, reps)

	scanTbl := NewTable("query", "sel%", "oracle", "pipeline", "speedup", "Mrows/s", "MB/s")
	for _, sel := range []float64{1, 10, 50} {
		for _, shape := range []struct {
			name string
			p    *expr.Pred
		}{
			{"cmp", expr.Cmp("v", expr.LT, storage.Float(sel))},
			{"between", expr.Between("v", storage.Float(50), storage.Float(50+sel))},
		} {
			q := exec.Query{
				Select: []exec.SelectItem{{Col: "cat"}, {Col: "amount"}},
				Where:  shape.p,
			}
			dg, err := measureOracle(reps, tab, q)
			if err != nil {
				return err
			}
			dk, err := measurePipeline(reps, tab, q)
			if err != nil {
				return err
			}
			cell := KernelScanCell{
				Query:          shape.name,
				Selectivity:    sel / 100,
				OracleMS:       float64(dg) / 1e6,
				PipelineMS:     float64(dk) / 1e6,
				Speedup:        float64(dg) / float64(dk),
				PipelineRowsPS: float64(n) / dk.Seconds(),
				PipelineMBPS:   float64(8*n) / 1e6 / dk.Seconds(),
			}
			res.Scan = append(res.Scan, cell)
			scanTbl.Row(shape.name, sel, dg, dk, cell.Speedup, cell.PipelineRowsPS/1e6, cell.PipelineMBPS)
		}
	}
	scanTbl.Fprint(w)

	// Encoded columns: the same predicate through the pipeline, plain vs
	// dictionary/RLE representation. The dict kernel evaluates the
	// predicate once per dictionary entry and matches codes; the RLE
	// kernel accepts or rejects whole runs. The plain-string arm falls
	// back to the generic evaluator — kernels do not compile plain string
	// columns, which is exactly the gap dictionary encoding closes.
	encTab, st, err := storage.EncodeTable(tab, storage.EncodeOptions{})
	if err != nil {
		return err
	}
	fmt.Fprintf(w, "\nencoded columns: dict=%d rle=%d plain=%d\n\n", st.Dict, st.RLE, st.Plain)
	encTbl := NewTable("predicate", "sel%", "plain", "encoded", "speedup")
	for _, e := range []struct {
		name string
		sel  float64
		p    *expr.Pred
	}{
		{"dict-eq", 12.5, expr.Cmp("cat", expr.EQ, storage.String_("c3"))},
		{"rle-range", 10, expr.Between("grp", storage.Int(20), storage.Int(30))},
	} {
		q := exec.Query{
			Select: []exec.SelectItem{{Col: "amount", Agg: exec.AggSum}},
			Where:  e.p,
		}
		dp, err := measurePipeline(reps, tab, q)
		if err != nil {
			return err
		}
		de, err := measurePipeline(reps, encTab, q)
		if err != nil {
			return err
		}
		cell := KernelEncodedCell{
			Name:        e.name,
			Selectivity: e.sel / 100,
			PlainMS:     float64(dp) / 1e6,
			EncodedMS:   float64(de) / 1e6,
			Speedup:     float64(dp) / float64(de),
		}
		res.Encoded = append(res.Encoded, cell)
		encTbl.Row(e.name, e.sel, dp, de, cell.Speedup)
	}
	encTbl.Fprint(w)

	if cfg.JSONPath != "" {
		res.Agg = loadKernelBench(cfg.JSONPath).Agg
		return writeKernelBench(w, cfg.JSONPath, res)
	}
	return nil
}
