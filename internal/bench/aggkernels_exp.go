package bench

import (
	"encoding/json"
	"fmt"
	"io"
	"math/rand"
	"os"

	"dex/internal/exec"
	"dex/internal/expr"
	"dex/internal/storage"
)

func init() {
	register(Experiment{
		ID:     "E34",
		Title:  "Typed aggregation sinks: the pipeline vs the reference evaluator",
		Source: "vectorized aggregation (MonetDB/X100, CIDR 2005); morsel-driven pipelining (HyPer, SIGMOD 2014)",
		Run:    runE34,
	})
}

// AggScalarCell is one selectivity point of the scalar-aggregate
// comparison: the boxed reference evaluator vs the pipeline's typed
// per-morsel accumulation.
type AggScalarCell struct {
	Query          string  `json:"query"` // "sum-dense", "sum-cmp" or "sum-cmp2"
	Selectivity    float64 `json:"selectivity"`
	OracleMS       float64 `json:"oracle_ms"`
	PipelineMS     float64 `json:"pipeline_ms"`
	Speedup        float64 `json:"speedup"`
	PipelineRowsPS float64 `json:"pipeline_rows_per_sec"`
}

// AggGroupCell is one group-by shape of the same two-arm comparison.
type AggGroupCell struct {
	Name       string  `json:"name"` // "dict-group", "int-group", "rle-group"
	Groups     int     `json:"groups"`
	OracleMS   float64 `json:"oracle_ms"`
	PipelineMS float64 `json:"pipeline_ms"`
	Speedup    float64 `json:"speedup"`
}

// AggKernelBench is the E34 section of BENCH_kernels.json.
type AggKernelBench struct {
	Rows   int             `json:"rows"`
	Seed   int64           `json:"seed"`
	Scalar []AggScalarCell `json:"scalar"`
	Group  []AggGroupCell  `json:"group"`
}

// loadKernelBench reads an existing BENCH_kernels.json so E33 and E34 can
// each rewrite their own section without clobbering the other's. A missing
// or unreadable file just yields the zero value.
func loadKernelBench(path string) KernelBench {
	var res KernelBench
	if path == "" {
		return res
	}
	blob, err := os.ReadFile(path)
	if err != nil {
		return res
	}
	_ = json.Unmarshal(blob, &res)
	return res
}

func writeKernelBench(w io.Writer, path string, res KernelBench) error {
	blob, err := json.MarshalIndent(res, "", "  ")
	if err != nil {
		return err
	}
	if err := os.WriteFile(path, append(blob, '\n'), 0o644); err != nil {
		return err
	}
	fmt.Fprintf(w, "\nwrote %s\n", path)
	return nil
}

// onScan ANDs a second leaf to a one-range WHERE over the E33 table: grp
// != -1, which every row meets. Bucket cells answer only a WHERE that is
// exactly its intervals, and an NE leaf gives none, so the query keeps
// the typed kernel's filtered scan — or, at a few percent, the value
// index's candidates — feeding the typed sink's selected rows, the paths
// it had before the cells. (A range leaf such as grp >= 0 would not do:
// grp's buckets each hold one value, so the cells, keyed by them, answer
// it.)
func onScan(p *expr.Pred) *expr.Pred {
	return expr.And(p, expr.Cmp("grp", expr.NE, storage.Int(-1)))
}

// onDense adds SUM(v) to a select list over the E33 table: a second
// numeric input beside amount, which no bucket-cell set aggregates, so a
// query with no WHERE keeps the typed sink's dense accumulator loop rather
// than folding the cells of v's buckets.
func onDense(items []exec.SelectItem) []exec.SelectItem {
	return append(items, exec.SelectItem{Col: "v", Agg: exec.AggSum})
}

// runE34 measures the typed aggregation sinks over the E33 table, two arms
// per shape: the reference evaluator (exec.Execute — every accumulated
// value boxed through storage.Value, one string key per grouped row) and
// the pipeline (typed per-morsel accumulation over pooled selection
// buffers, no global selection vector, no boxing). Scalar SUMs sweep the
// selectivity dial from dense to 1%, twice: sum-cmp is one range, which
// the bucket cells answer, and sum-cmp2 the same range beside a second
// leaf (onScan), which keeps it on the filtered scan into the typed
// scalar sink. sum-dense has no WHERE, and it and dict-group add a second
// input (onDense), which keeps them on the dense accumulator loops; the
// group-bys compare the dict-indexed, int-hashed and run-aware
// accumulators. The headline expectation is >=2x on low-selectivity SUM
// and on the dictionary group-by, where per-row interface boxing
// dominates the oracle's profile.
func runE34(w io.Writer, cfg Config) error {
	n := cfg.Scale(2_000_000, 100, 20_000)
	rng := rand.New(rand.NewSource(cfg.Seed))
	tab, err := kernelBenchTable(rng, n)
	if err != nil {
		return err
	}
	encTab, st, err := storage.EncodeTable(tab, storage.EncodeOptions{})
	if err != nil {
		return err
	}
	reps := 5
	if cfg.Quick {
		reps = 3
	}
	res := AggKernelBench{Rows: n, Seed: cfg.Seed}
	fmt.Fprintf(w, "rows=%d reps=%d encoded: dict=%d rle=%d plain=%d (one worker)\n\n",
		n, reps, st.Dict, st.RLE, st.Plain)

	scalarTbl := NewTable("query", "sel%", "oracle", "pipeline", "speedup", "Mrows/s")
	scalars := []struct {
		name string
		sel  float64 // percent; <0 means no WHERE
	}{
		{"sum-dense", -1},
		{"sum-cmp", 90},
		{"sum-cmp", 50},
		{"sum-cmp", 10},
		{"sum-cmp", 1},
		{"sum-cmp2", 90},
		{"sum-cmp2", 50},
		{"sum-cmp2", 10},
		{"sum-cmp2", 1},
	}
	for _, sc := range scalars {
		q := exec.Query{Select: []exec.SelectItem{
			{Col: "amount", Agg: exec.AggSum},
			{Col: "amount", Agg: exec.AggAvg},
			{Col: "*", Agg: exec.AggCount},
		}}
		sel := 1.0
		if sc.sel < 0 {
			q.Select = onDense(q.Select)
		} else {
			q.Where = expr.Cmp("v", expr.LT, storage.Float(sc.sel))
			if sc.name == "sum-cmp2" {
				q.Where = onScan(q.Where)
			}
			sel = sc.sel / 100
		}
		dg, err := measureOracle(reps, tab, q)
		if err != nil {
			return err
		}
		df, err := measurePipeline(reps, tab, q)
		if err != nil {
			return err
		}
		cell := AggScalarCell{
			Query:          sc.name,
			Selectivity:    sel,
			OracleMS:       float64(dg) / 1e6,
			PipelineMS:     float64(df) / 1e6,
			Speedup:        float64(dg) / float64(df),
			PipelineRowsPS: float64(n) / df.Seconds(),
		}
		res.Scalar = append(res.Scalar, cell)
		scalarTbl.Row(sc.name, sel*100, dg, df, cell.Speedup, cell.PipelineRowsPS/1e6)
	}
	scalarTbl.Fprint(w)

	fmt.Fprintln(w)
	groupTbl := NewTable("shape", "groups", "oracle", "pipeline", "speedup")
	groups := []struct {
		name   string
		tbl    *storage.Table
		col    string
		groups int
	}{
		{"dict-group", encTab, "cat", 8},  // array-indexed per-code accumulators
		{"int-group", tab, "grp", 100},    // raw-int64-hashed accumulators
		{"rle-group", encTab, "grp", 100}, // run-aware key cursor
	}
	for _, g := range groups {
		q := exec.Query{
			Select: []exec.SelectItem{
				{Col: g.col},
				{Col: "amount", Agg: exec.AggSum},
				{Col: "*", Agg: exec.AggCount},
			},
			GroupBy: []string{g.col},
		}
		if g.name == "dict-group" {
			q.Select = onDense(q.Select)
		}
		dg, err := measureOracle(reps, g.tbl, q)
		if err != nil {
			return err
		}
		df, err := measurePipeline(reps, g.tbl, q)
		if err != nil {
			return err
		}
		cell := AggGroupCell{
			Name:       g.name,
			Groups:     g.groups,
			OracleMS:   float64(dg) / 1e6,
			PipelineMS: float64(df) / 1e6,
			Speedup:    float64(dg) / float64(df),
		}
		res.Group = append(res.Group, cell)
		groupTbl.Row(g.name, g.groups, dg, df, cell.Speedup)
	}
	groupTbl.Fprint(w)

	if cfg.JSONPath != "" {
		full := loadKernelBench(cfg.JSONPath)
		full.Agg = &res
		if full.Rows == 0 { // no prior E33 artifact at this path
			full.Rows, full.Seed = n, cfg.Seed
		}
		return writeKernelBench(w, cfg.JSONPath, full)
	}
	return nil
}
