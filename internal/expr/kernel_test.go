package expr

import (
	"fmt"
	"math"
	"math/rand"
	"reflect"
	"testing"

	"dex/internal/storage"
)

// kernelTable builds a table exercising every leaf kind: plain int, plain
// float (NaN-polluted), dict-coded string, RLE-coded int, plain string.
func kernelTable(t *testing.T, rng *rand.Rand, n int) *storage.Table {
	t.Helper()
	ki := make([]int64, n)
	xf := make([]float64, n)
	ss := make([]string, n)
	ri := make([]int64, 0, n)
	ps := make([]string, n)
	labels := []string{"ash", "birch", "cedar", "oak"}
	for i := 0; i < n; i++ {
		ki[i] = rng.Int63n(1000) - 500
		xf[i] = rng.Float64() * 100
		if rng.Intn(12) == 0 {
			xf[i] = math.NaN()
		}
		ss[i] = labels[rng.Intn(len(labels))]
		ps[i] = fmt.Sprintf("p%04d", rng.Intn(40))
	}
	for len(ri) < n {
		v := rng.Int63n(20)
		for j := 1 + rng.Intn(6); j > 0 && len(ri) < n; j-- {
			ri = append(ri, v)
		}
	}
	tab, err := storage.FromColumns("t", storage.Schema{
		{Name: "k", Type: storage.TInt},
		{Name: "x", Type: storage.TFloat},
		{Name: "s", Type: storage.TString},
		{Name: "r", Type: storage.TInt},
		{Name: "p", Type: storage.TString},
	}, []storage.Column{
		&storage.IntColumn{V: ki},
		&storage.FloatColumn{V: xf},
		storage.EncodeDict(ss),
		storage.EncodeRLE(ri),
		&storage.StringColumn{V: ps},
	})
	if err != nil {
		t.Fatal(err)
	}
	return tab
}

var kernelOps = []Op{EQ, NE, LT, LE, GT, GE}

// requireKernelParity compiles p against tab and checks Run against the
// generic FilterRange oracle over several sub-ranges, and Refine over the
// whole table's rows in shuffled order.
func requireKernelParity(t *testing.T, tab *storage.Table, p *Pred) {
	t.Helper()
	k, reason := CompileKernel(tab, p)
	if reason != "" {
		t.Fatalf("%s: unexpected fallback: %s", p, reason)
	}
	n := tab.NumRows()
	for _, r := range [][2]int{{0, n}, {0, 0}, {1, n - 1}, {n / 3, 2 * n / 3}, {n - 1, n + 5}} {
		want, err := FilterRange(tab, p, r[0], r[1])
		if err != nil {
			t.Fatal(err)
		}
		got := k.Run(r[0], r[1], nil)
		if !sameSel(got, want) {
			t.Fatalf("%s over [%d,%d): kernel %v != oracle %v", p, r[0], r[1], got, want)
		}
	}
	whole, err := FilterRange(tab, p, 0, n)
	if err != nil {
		t.Fatal(err)
	}
	in := make([]bool, n)
	for _, r := range whole {
		in[r] = true
	}
	requireRefineKeepsOrder(t, k, p, rand.New(rand.NewSource(int64(n))).Perm(n), in)
}

func sameSel(a, b []int) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}

// TestKernelSingleLeafParity covers every specializable (column, constant
// type, op) cell against the generic oracle: a numeric column against TEXT
// constants, and the int columns against FLOAT constants at and past the
// int64 range, where float64(x) rounds.
func TestKernelSingleLeafParity(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	tab := kernelTable(t, rng, 500)
	past := []storage.Value{storage.Float(1 << 63), storage.Float(-(1 << 63)), storage.Float(1<<63 - 1024),
		storage.Float(9.5e18), storage.Float(math.Inf(1)), storage.Float(math.Inf(-1))}
	consts := map[string][]storage.Value{
		"k": append([]storage.Value{storage.Int(0), storage.Int(-500), storage.Int(499), storage.Float(0.5),
			storage.Float(math.NaN()), storage.String_("7"), storage.String_("")}, past...),
		"x": {storage.Float(50), storage.Int(50), storage.Float(math.NaN()), storage.Float(math.Inf(1)),
			storage.String_("7"), storage.String_("")},
		"s": {storage.String_("cedar"), storage.String_("aaa"), storage.Int(3), storage.Float(1.5)},
		"r": append([]storage.Value{storage.Int(10), storage.Int(-1), storage.Float(9.5), storage.String_("z")}, past...),
	}
	for col, vals := range consts {
		for _, v := range vals {
			for _, op := range kernelOps {
				requireKernelParity(t, tab, Cmp(col, op, v))
			}
		}
	}
}

// TestKernelConjunctionParity covers multi-leaf kernels, including nested
// ANDs, between-ranges, KTrue inside AND, and mixed leaf kinds (so both
// the RLE-first reordering and the refine paths run).
func TestKernelConjunctionParity(t *testing.T) {
	rng := rand.New(rand.NewSource(2))
	tab := kernelTable(t, rng, 800)
	preds := []*Pred{
		Between("k", storage.Int(-100), storage.Int(100)),
		And(Cmp("k", GE, storage.Int(-200)), Cmp("x", LT, storage.Float(40)), Cmp("s", EQ, storage.String_("oak"))),
		And(Cmp("r", EQ, storage.Int(7)), Cmp("k", GT, storage.Int(0))),
		And(Cmp("k", GT, storage.Int(0)), Cmp("r", LE, storage.Int(10))), // RLE leaf moved first
		And(Cmp("r", GE, storage.Int(5)), Cmp("r", LT, storage.Int(15))), // RLE scan + RLE refine
		And(True(), Cmp("x", GE, storage.Float(10)), And(Cmp("s", NE, storage.String_("ash")), True())),
		And(),             // empty conjunction: matches everything
		Like("s", "%a%"),  // dict LIKE: per-code verdicts
		Like("s", "_ak"),  // dict LIKE with single-byte wildcard
		Like("s", "pine"), // dict LIKE matching no entry
		And(Cmp("k", GT, storage.Int(0)), Like("s", "c%")),  // dict LIKE as refine leaf
		And(Like("s", "%h"), Cmp("r", LE, storage.Int(10))), // dict LIKE behind RLE-first reorder
	}
	for _, p := range preds {
		requireKernelParity(t, tab, p)
	}
}

// TestKernelFallbacks pins the fallback matrix: every non-specializable
// shape must report a stable reason, and never a kernel.
func TestKernelFallbacks(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	tab := kernelTable(t, rng, 50)
	cases := []struct {
		p      *Pred
		reason string
	}{
		{nil, "trivial predicate"},
		{True(), "trivial predicate"},
		{Or(Cmp("k", EQ, storage.Int(1)), Cmp("k", EQ, storage.Int(2))), "disjunction"},
		{Not(Cmp("k", EQ, storage.Int(1))), "negation"},
		// LIKE on a dict column compiles now; the plain string column "p"
		// pins the remaining fallback.
		{Like("p", "%a%"), "like pattern"},
		{Cmp("p", EQ, storage.String_("p0001")), "string column"},
		{Cmp("nope", EQ, storage.Int(1)), "unknown column"},
		{And(Cmp("k", GT, storage.Int(0)), Like("p", "a%")), "like pattern"},
		{Like("nope", "a%"), "unknown column"},
	}
	for _, c := range cases {
		if k, reason := CompileKernel(tab, c.p); k != nil || reason != c.reason {
			t.Errorf("%s: got kernel=%v reason=%q, want reason=%q", c.p, k != nil, reason, c.reason)
		}
	}
}

// TestKernelRunAppends: Run appends to an existing selection without
// touching its prior contents (the pooled-buffer contract).
func TestKernelRunAppends(t *testing.T) {
	rng := rand.New(rand.NewSource(4))
	tab := kernelTable(t, rng, 200)
	p := And(Cmp("k", GE, storage.Int(0)), Cmp("x", LT, storage.Float(50)))
	k, reason := CompileKernel(tab, p)
	if reason != "" {
		t.Fatal(reason)
	}
	first := k.Run(0, 100, nil)
	both := k.Run(100, 200, append([]int(nil), first...))
	if !sameSel(both[:len(first)], first) {
		t.Fatal("Run modified the existing prefix")
	}
	whole := k.Run(0, 200, nil)
	if !sameSel(both, whole) {
		t.Fatalf("append across halves %v != whole %v", both, whole)
	}
}

// TestKernelEncodedDecodedParity: the same logical data, plain vs encoded,
// must select identical rows for identical predicates.
func TestKernelEncodedDecodedParity(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	tab := kernelTable(t, rng, 600)
	// Decode the encoded columns back to plain for the reference table.
	cols := make([]storage.Column, tab.NumCols())
	for i := 0; i < tab.NumCols(); i++ {
		switch cc := tab.Column(i).(type) {
		case *storage.DictColumn:
			cols[i] = cc.Decode()
		case *storage.RLEIntColumn:
			cols[i] = cc.Decode()
		default:
			cols[i] = cc
		}
	}
	dec, err := storage.FromColumns(tab.Name(), tab.Schema(), cols)
	if err != nil {
		t.Fatal(err)
	}
	preds := []*Pred{
		Cmp("s", EQ, storage.String_("birch")),
		Cmp("r", LT, storage.Int(10)),
		And(Cmp("s", GE, storage.String_("birch")), Cmp("r", NE, storage.Int(3))),
		Like("s", "%ar"),
		Or(Cmp("r", EQ, storage.Int(1)), Cmp("s", EQ, storage.String_("oak"))),
		Not(Cmp("r", GE, storage.Int(10))),
	}
	for _, p := range preds {
		a, err := Filter(tab, p)
		if err != nil {
			t.Fatal(err)
		}
		b, err := Filter(dec, p)
		if err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(a, b) {
			t.Fatalf("%s: encoded %v != decoded %v", p, a, b)
		}
	}
}
