package storage

import (
	"errors"
	"fmt"
	"math/rand"
	"testing"

	"dex/internal/fault"
)

// randStrings draws n strings from a domain of card distinct labels.
func randStrings(rng *rand.Rand, n, card int) []string {
	out := make([]string, n)
	for i := range out {
		out[i] = fmt.Sprintf("v%03d", rng.Intn(card))
	}
	return out
}

// randRunInts draws n int64s as value-clustered runs (geometric run lengths).
func randRunInts(rng *rand.Rand, n int, domain int64, meanRun int) []int64 {
	out := make([]int64, 0, n)
	for len(out) < n {
		v := rng.Int63n(domain)
		runLen := 1
		for rng.Intn(meanRun) != 0 {
			runLen++
		}
		for j := 0; j < runLen && len(out) < n; j++ {
			out = append(out, v)
		}
	}
	return out
}

// requireColsEqual compares two columns value for value.
func requireColsEqual(t *testing.T, label string, a, b Column) {
	t.Helper()
	if a.Len() != b.Len() {
		t.Fatalf("%s: len %d vs %d", label, a.Len(), b.Len())
	}
	if a.Type() != b.Type() {
		t.Fatalf("%s: type %v vs %v", label, a.Type(), b.Type())
	}
	for i := 0; i < a.Len(); i++ {
		if av, bv := a.Value(i), b.Value(i); av != bv {
			t.Fatalf("%s: row %d: %v vs %v", label, i, av, bv)
		}
	}
}

// TestDictRoundTripProperty: encode→decode equals the original for seeded
// random string columns, and every accessor agrees with positional access.
func TestDictRoundTripProperty(t *testing.T) {
	rng := rand.New(rand.NewSource(31))
	for iter := 0; iter < 50; iter++ {
		n := []int{0, 1, 2, 17, 100, 1000}[rng.Intn(6)]
		card := 1 + rng.Intn(12)
		v := randStrings(rng, n, card)
		dc := EncodeDict(v)
		plain := &StringColumn{V: v}
		requireColsEqual(t, fmt.Sprintf("iter=%d", iter), plain, dc)
		requireColsEqual(t, fmt.Sprintf("iter=%d decode", iter), plain, dc.Decode())
		if dc.Card() > card {
			t.Fatalf("iter=%d: dictionary card %d exceeds domain %d", iter, dc.Card(), card)
		}
		// The dictionary is sorted, so codes order exactly as values do.
		for i := 1; i < dc.Card(); i++ {
			if dc.Dict()[i-1] >= dc.Dict()[i] {
				t.Fatalf("iter=%d: dictionary not sorted at %d", iter, i)
			}
		}
		// Gather/Slice round-trip through the shared dictionary.
		if n > 2 {
			sel := []int{n - 1, 0, n / 2}
			requireColsEqual(t, "gather", plain.Gather(sel), dc.Gather(sel))
			requireColsEqual(t, "slice", plain.Slice(1, n-1), dc.Slice(1, n-1))
		}
	}
}

// TestRLERoundTripProperty: encode→decode equals the original for seeded
// clustered and adversarial (alternating, constant) int columns.
func TestRLERoundTripProperty(t *testing.T) {
	rng := rand.New(rand.NewSource(37))
	for iter := 0; iter < 50; iter++ {
		var v []int64
		switch iter % 4 {
		case 0:
			v = randRunInts(rng, rng.Intn(1200), 50, 6)
		case 1: // alternating worst case: one run per row
			v = make([]int64, rng.Intn(100))
			for i := range v {
				v[i] = int64(i % 2)
			}
		case 2: // constant: a single run
			v = make([]int64, rng.Intn(100))
		default: // sorted
			v = randRunInts(rng, rng.Intn(1200), 20, 4)
			for i := 1; i < len(v); i++ {
				if v[i] < v[i-1] {
					v[i] = v[i-1]
				}
			}
		}
		rc := EncodeRLE(v)
		plain := &IntColumn{V: v}
		requireColsEqual(t, fmt.Sprintf("iter=%d", iter), plain, rc)
		requireColsEqual(t, fmt.Sprintf("iter=%d decode", iter), plain, rc.Decode())
		if n := len(v); n > 2 {
			sel := []int{n - 1, 0, n / 2, n / 2}
			requireColsEqual(t, "gather", plain.Gather(sel), rc.Gather(sel))
			requireColsEqual(t, "slice", plain.Slice(1, n-1), rc.Slice(1, n-1))
		}
		// Runs are maximal: adjacent run values always differ.
		vals := rc.RunValues()
		for i := 1; i < len(vals); i++ {
			if vals[i] == vals[i-1] {
				t.Fatalf("iter=%d: runs %d and %d not maximal", iter, i-1, i)
			}
		}
	}
}

// TestEncodedAppend pins the append semantics: dictionary growth for new
// strings, run extension vs new runs for ints.
func TestEncodedAppend(t *testing.T) {
	dc := EncodeDict([]string{"b", "a", "b"})
	for _, s := range []string{"a", "zz", "b"} {
		if err := dc.Append(String_(s)); err != nil {
			t.Fatal(err)
		}
	}
	requireColsEqual(t, "dict append", &StringColumn{V: []string{"b", "a", "b", "a", "zz", "b"}}, dc)
	if err := dc.Append(Int(1)); err == nil {
		t.Fatal("appending INT to dict column should fail")
	}

	rc := EncodeRLE([]int64{5, 5, 7})
	for _, v := range []int64{7, 7, 5} {
		if err := rc.Append(Int(v)); err != nil {
			t.Fatal(err)
		}
	}
	requireColsEqual(t, "rle append", &IntColumn{V: []int64{5, 5, 7, 7, 7, 5}}, rc)
	if rc.Runs() != 3 {
		t.Fatalf("got %d runs, want 3", rc.Runs())
	}
	if err := rc.Append(Float(1)); err == nil {
		t.Fatal("appending FLOAT to RLE column should fail")
	}
}

// TestEncodeTableHeuristics: low-cardinality strings and clustered ints
// encode; high-cardinality and unclustered columns stay plain; floats are
// always plain.
func TestEncodeTableHeuristics(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	n := 2000
	lowS := randStrings(rng, n, 8)
	highS := make([]string, n)
	for i := range highS {
		highS[i] = fmt.Sprintf("u%06d", i)
	}
	runI := randRunInts(rng, n, 30, 8)
	randI := make([]int64, n)
	for i := range randI {
		randI[i] = rng.Int63()
	}
	fs := make([]float64, n)
	tab, err := FromColumns("t", Schema{
		{Name: "low", Type: TString}, {Name: "high", Type: TString},
		{Name: "run", Type: TInt}, {Name: "rnd", Type: TInt},
		{Name: "f", Type: TFloat},
	}, []Column{
		&StringColumn{V: lowS}, &StringColumn{V: highS},
		&IntColumn{V: runI}, &IntColumn{V: randI},
		&FloatColumn{V: fs},
	})
	if err != nil {
		t.Fatal(err)
	}
	enc, st, err := EncodeTable(tab, EncodeOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if st.Dict != 1 || st.RLE != 1 || st.Plain != 3 {
		t.Fatalf("stats %+v, want 1 dict / 1 rle / 3 plain", st)
	}
	if _, ok := mustCol(t, enc, "low").(*DictColumn); !ok {
		t.Fatalf("low should be dictionary-coded, got %T", mustCol(t, enc, "low"))
	}
	if _, ok := mustCol(t, enc, "high").(*StringColumn); !ok {
		t.Fatalf("high should stay plain, got %T", mustCol(t, enc, "high"))
	}
	if _, ok := mustCol(t, enc, "run").(*RLEIntColumn); !ok {
		t.Fatalf("run should be RLE-coded, got %T", mustCol(t, enc, "run"))
	}
	if _, ok := mustCol(t, enc, "rnd").(*IntColumn); !ok {
		t.Fatalf("rnd should stay plain, got %T", mustCol(t, enc, "rnd"))
	}
	// Row identity is preserved across the whole table.
	for _, probe := range []int{0, 1, n / 3, n - 1} {
		for c := 0; c < tab.NumCols(); c++ {
			if a, b := tab.Column(c).Value(probe), enc.Column(c).Value(probe); a != b {
				t.Fatalf("row %d col %d: %v vs %v", probe, c, a, b)
			}
		}
	}
}

func mustCol(t *testing.T, tab *Table, name string) Column {
	t.Helper()
	c, err := tab.ColumnByName(name)
	if err != nil {
		t.Fatal(err)
	}
	return c
}

// TestEncodeFailpoint: an armed storage/segment-encode site fails
// EncodeTable with the injected error, and disarming restores encoding.
func TestEncodeFailpoint(t *testing.T) {
	fault.Reset()
	defer fault.Reset()
	rng := rand.New(rand.NewSource(3))
	tab, err := FromColumns("t", Schema{{Name: "s", Type: TString}},
		[]Column{&StringColumn{V: randStrings(rng, 500, 4)}})
	if err != nil {
		t.Fatal(err)
	}
	if err := fault.Enable("storage/segment-encode", "error"); err != nil {
		t.Fatal(err)
	}
	if _, _, err := EncodeTable(tab, EncodeOptions{}); !errors.Is(err, fault.ErrInjected) {
		t.Fatalf("want injected error, got %v", err)
	}
	fault.Disable("storage/segment-encode")
	enc, st, err := EncodeTable(tab, EncodeOptions{})
	if err != nil || st.Dict != 1 {
		t.Fatalf("after disarm: err=%v stats=%+v", err, st)
	}
	requireColsEqual(t, "post-disarm", tab.Column(0), enc.Column(0))
}
