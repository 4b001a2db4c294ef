package bench

import (
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"math/rand"
	"os"
	"path/filepath"
	"regexp"
	"runtime"
	"sort"
	"strconv"
	"strings"
	"testing"

	"dex/internal/core"
	"dex/internal/exec"
	"dex/internal/idebench"
	"dex/internal/storage"
	"dex/internal/trace"
	"dex/internal/workload"
)

// The work contract: a fixed IDEBench trace replayed through core.Engine in
// exact, cracked and online modes at two table sizes, on one worker, with
// the work every op does counted the way the engine counts it — rows read
// (RowsScanned), bucket cells folded, edge buckets' sub-cells folded,
// edge buckets cracked and scanned, rows sampled — and the bytes and
// mallocs it allocates. Those counts are
// exact and repeatable where the host's timings are not, so they are held
// to a golden file: a count may not change at all, and bytes per op may not
// grow by more than contractBytesSlack. A change that lowers a count
// rewrites the golden with -update-contract and says so in CHANGES.md.

var updateContract = flag.Bool("update-contract", false, "rewrite testdata/work_contract.json from this run")

const (
	contractGolden = "testdata/work_contract.json"
	// contractSeed draws the table and the amount offset; the sessions'
	// skeletons are the benchmark's (benchmark/ops.go).
	contractSeed     = 3
	contractSkeleton = 20150531
	contractSessions = 8
	contractOps      = 12
	// contractBytesSlack is how far bytes per op may grow over the golden.
	contractBytesSlack = 0.05
)

// contractSizes are the table sizes the trace replays at.
var contractSizes = []int{125_000, 1_000_000}

// opWork is the work of every op of one kind, in one mode, at one size.
type opWork struct {
	Ops          int   `json:"ops"`
	Rows         int64 `json:"rows"`          // rows read: RowsScanned
	Cells        int64 `json:"cells"`         // bucket cells folded
	SubCells     int64 `json:"sub_cells"`     // edge buckets' sub-cells folded
	EdgesCracked int64 `json:"edges_cracked"` // edge buckets whose cracker was built
	EdgesScanned int64 `json:"edges_scanned"` // edge buckets read as rows
	Sampled      int64 `json:"sampled"`       // rows an estimate read
	BytesPerOp   int64 `json:"bytes_per_op"`
	MallocsPerOp int64 `json:"mallocs_per_op"`
}

// contractAmount finds the amount constants of a statement.
var contractAmount = regexp.MustCompile(`amount (>=|<) ([0-9.]+)`)

// contractTrace is the replayed op sequence: contractSessions IDEBench
// sessions of the default mix, their amount bounds moved by the seed's
// offset exactly as the benchmark moves them.
func contractTrace() (sqls []string, kinds []string) {
	offset := rand.New(rand.NewSource(contractSeed)).Float64() - 0.5
	shift := func(cond string) string {
		m := contractAmount.FindStringSubmatch(cond)
		v, _ := strconv.ParseFloat(m[2], 64)
		return fmt.Sprintf("amount %s %.4f", m[1], v+offset)
	}
	for s := 0; s < contractSessions; s++ {
		tr := idebench.NewTrace(idebench.UserConfig{Ops: contractOps}, contractSkeleton+int64(s))
		for _, op := range tr.Ops {
			sqls = append(sqls, contractAmount.ReplaceAllStringFunc(op.SQL, shift))
			kinds = append(kinds, op.Kind.String())
		}
	}
	return sqls, kinds
}

// replay runs the trace on a new one-worker engine over tbl and returns
// each op's work: counted from its trace when traced, else its bytes and
// mallocs.
func replay(t *testing.T, tbl *storage.Table, mode core.Mode, sqls []string, traced bool) []opWork {
	t.Helper()
	eng := core.New(core.Options{Seed: contractSeed, Exec: exec.ExecOptions{Parallelism: 1}})
	if err := eng.Register(tbl); err != nil {
		t.Fatal(err)
	}
	out := make([]opWork, len(sqls))
	var before, after runtime.MemStats
	for i, sql := range sqls {
		ctx := context.Background()
		var root *trace.Span
		if traced {
			ctx, root = trace.Start(ctx, "op")
		} else {
			runtime.ReadMemStats(&before)
		}
		rows := eng.RowsScanned()
		if _, err := eng.SQLContext(ctx, sql, mode); err != nil {
			t.Fatalf("%s %s: %v", mode, sql, err)
		}
		w := &out[i]
		w.Ops = 1
		if !traced {
			runtime.ReadMemStats(&after)
			w.BytesPerOp = int64(after.TotalAlloc - before.TotalAlloc)
			w.MallocsPerOp = int64(after.Mallocs - before.Mallocs)
			continue
		}
		root.End()
		w.Rows = eng.RowsScanned() - rows
		walkSpans(root.JSON(), func(sp *trace.SpanJSON) {
			n := func(k string) int64 { v, _ := sp.Attrs[k].(int64); return v }
			switch sp.Name {
			case "scan":
				w.Cells += n("bucket_cells") * n("cell_keys")
			case "cells":
				w.SubCells += n("sub_cells")
			case "crack":
				w.EdgesCracked += n("edges_built")
				w.EdgesScanned += n("edges_scanned")
			case "online":
				w.Cells += n("cells")
				w.Sampled += n("processed")
			}
		})
	}
	return out
}

func walkSpans(sp *trace.SpanJSON, f func(*trace.SpanJSON)) {
	f(sp)
	for _, c := range sp.Children {
		walkSpans(c, f)
	}
}

// measureContract replays the trace in every mode at every size and sums
// the work by "mode/size/kind". The modes share a table, so its value
// indexes and bucket cells are built, and their bytes counted, in exact
// mode's first ops.
func measureContract(t *testing.T) map[string]*opWork {
	sqls, kinds := contractTrace()
	got := map[string]*opWork{}
	for _, n := range contractSizes {
		plain, err := workload.Sales(rand.New(rand.NewSource(contractSeed)), n)
		if err != nil {
			t.Fatal(err)
		}
		tbl, _, err := storage.EncodeTable(plain, storage.EncodeOptions{})
		if err != nil {
			t.Fatal(err)
		}
		for _, mode := range []core.Mode{core.Exact, core.Cracked, core.Online} {
			// Bytes first: the table's first replay builds its value
			// indexes and bucket cells, and its first ops count them.
			bytes := replay(t, tbl, mode, sqls, false)
			counts := replay(t, tbl, mode, sqls, true)
			for i, kind := range kinds {
				key := fmt.Sprintf("%s/%d/%s", mode, n, kind)
				w := got[key]
				if w == nil {
					w = &opWork{}
					got[key] = w
				}
				c, b := counts[i], bytes[i]
				w.Ops++
				w.Rows += c.Rows
				w.Cells += c.Cells
				w.SubCells += c.SubCells
				w.EdgesCracked += c.EdgesCracked
				w.EdgesScanned += c.EdgesScanned
				w.Sampled += c.Sampled
				w.BytesPerOp += b.BytesPerOp // a sum until the division below
				w.MallocsPerOp += b.MallocsPerOp
			}
		}
	}
	for _, w := range got {
		w.BytesPerOp /= int64(w.Ops)
		w.MallocsPerOp /= int64(w.Ops)
	}
	return got
}

// TestWorkContract holds the trace's work to the golden file and prints,
// per mode, how rows read per op scale from 125k rows to 1M.
func TestWorkContract(t *testing.T) {
	// One P, so the bytes follow no host's cores: the queries run on one
	// worker on any host, but sync.Pool keeps a cache per P (the value
	// index's candidate bitmaps), and a buffer put back on one P is a miss
	// on another. A value index build's scratch follows no core count: it
	// runs at most storage's buildWorkers goroutines, one buffer each.
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(1))
	got := measureContract(t)
	for _, mode := range []core.Mode{core.Exact, core.Cracked, core.Online} {
		var rows [2]float64
		var ops [2]int
		for i, n := range contractSizes {
			for key, w := range got {
				if m, size := keyParts(key); m == mode.String() && size == n {
					rows[i] += float64(w.Rows + w.Sampled)
					ops[i] += w.Ops
				}
			}
		}
		t.Logf("%s: rows read per op %.0f at %d rows, %.0f at %d: ratio %.2f", mode,
			rows[0]/float64(ops[0]), contractSizes[0], rows[1]/float64(ops[1]), contractSizes[1], rows[1]/rows[0])
	}
	path := filepath.FromSlash(contractGolden)
	if *updateContract {
		b, err := json.MarshalIndent(got, "", "  ")
		if err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(path, append(b, '\n'), 0o644); err != nil {
			t.Fatal(err)
		}
		t.Logf("wrote %s", path)
		return
	}
	raw, err := os.ReadFile(path)
	if err != nil {
		t.Fatalf("%v (run with -update-contract to write it)", err)
	}
	var want map[string]*opWork
	if err := json.Unmarshal(raw, &want); err != nil {
		t.Fatal(err)
	}
	keys := make([]string, 0, len(want))
	for k := range want {
		keys = append(keys, k)
	}
	for k := range got {
		if want[k] == nil {
			keys = append(keys, k)
		}
	}
	sort.Strings(keys)
	for _, k := range keys {
		w, g := want[k], got[k]
		switch {
		case w == nil:
			t.Errorf("%s: not in the golden: %+v", k, *g)
			continue
		case g == nil:
			t.Errorf("%s: in the golden, not in the trace", k)
			continue
		}
		if g.Ops != w.Ops || g.Rows != w.Rows || g.Cells != w.Cells || g.SubCells != w.SubCells || g.EdgesCracked != w.EdgesCracked ||
			g.EdgesScanned != w.EdgesScanned || g.Sampled != w.Sampled {
			t.Errorf("%s: work changed:\n got  %+v\n want %+v", k, *g, *w)
		}
		if !raceEnabled && float64(g.BytesPerOp) > float64(w.BytesPerOp)*(1+contractBytesSlack) {
			t.Errorf("%s: %d bytes per op against %d in the golden: more than %.0f%% more",
				k, g.BytesPerOp, w.BytesPerOp, 100*contractBytesSlack)
		}
	}
}

// keyParts splits a "mode/size/kind" key.
func keyParts(key string) (mode string, size int) {
	parts := strings.SplitN(key, "/", 3)
	size, _ = strconv.Atoi(parts[1])
	return parts[0], size
}
