package expr

import (
	"math"
	"math/rand"
	"slices"
	"testing"

	"dex/internal/storage"
)

// The differential kernel fuzzer: every byte string decodes to a table
// (plain and encoded variants of the same logical data) plus a conjunction
// of comparisons against constants of every type on every column, and the
// kernel must agree row-for-row with the generic FilterRange oracle on both
// representations — which must in turn agree with each other. Only a leaf
// on the plain table's string column may fall back. Value pools are
// stacked with the adversarial cases: NaN/±Inf floats, min/max int64,
// values straddling 2^53 and near ±2^63 (where int64→float64 conversion
// loses exactness), empty tables, empty and all-match selections.

// fzReader turns fuzz bytes into bounded draws; exhausted input yields
// zeros, so every prefix of a crashing input is itself a valid input.
type fzReader struct {
	b []byte
	i int
}

func (f *fzReader) next() byte {
	if f.i >= len(f.b) {
		return 0
	}
	v := f.b[f.i]
	f.i++
	return v
}

func (f *fzReader) draw(n int) int { return int(f.next()) % n }

var (
	fzInts = []int64{0, 1, -1, 42, -500, 500, math.MinInt64, math.MaxInt64,
		1 << 53, 1<<53 + 1, -(1<<53 + 1), math.MaxInt64 - 511, math.MaxInt64 - 1535}
	// The last three sit at ±2^63 and 2^63−1024, where an INT column's
	// values round to doubles 1024 or 2048 apart; the last two ints above
	// are ties that round up and down.
	fzFloats = []float64{0, 1.5, -2.75, 100, math.NaN(), math.Inf(1),
		math.Inf(-1), float64(1 << 53), 42, 1 << 63, -(1 << 63), 1<<63 - 1024}
	fzLabels = []string{"", "a", "oak", "zzz"}
	// LIKE pattern pool: exact, empty, %-only, prefix/suffix/infix, single
	// byte wildcards, and patterns no label matches.
	fzPatterns = []string{"", "%", "oak", "o%", "%k", "%a%", "_", "__k", "%z%z%", "a_"}
)

// fzTables decodes one table's worth of data, returning the plain and the
// encoded representation of the same rows.
func fzTables(t *testing.T, f *fzReader) (plain, enc *storage.Table) {
	t.Helper()
	n := f.draw(256) * 2 // includes 0: the empty table
	ki := make([]int64, n)
	xf := make([]float64, n)
	ss := make([]string, n)
	ri := make([]int64, n)
	run := int64(0)
	for i := 0; i < n; i++ {
		ki[i] = fzInts[f.draw(len(fzInts))]
		xf[i] = fzFloats[f.draw(len(fzFloats))]
		ss[i] = fzLabels[f.draw(len(fzLabels))]
		if i == 0 || f.draw(4) == 0 { // value-clustered: ~4-row runs
			run = int64(f.draw(5))
		}
		ri[i] = run
	}
	schema := storage.Schema{
		{Name: "k", Type: storage.TInt},
		{Name: "x", Type: storage.TFloat},
		{Name: "s", Type: storage.TString},
		{Name: "r", Type: storage.TInt},
	}
	mk := func(cols []storage.Column) *storage.Table {
		tab, err := storage.FromColumns("t", schema, cols)
		if err != nil {
			t.Fatal(err)
		}
		return tab
	}
	plain = mk([]storage.Column{
		&storage.IntColumn{V: ki}, &storage.FloatColumn{V: xf},
		&storage.StringColumn{V: ss}, &storage.IntColumn{V: ri},
	})
	enc = mk([]storage.Column{
		&storage.IntColumn{V: ki}, &storage.FloatColumn{V: xf},
		storage.EncodeDict(ss), storage.EncodeRLE(ri),
	})
	return plain, enc
}

// fzPred decodes a predicate: comparison leaves on the four columns, each
// against an INT, FLOAT or TEXT constant, plus LIKE leaves on the string
// column, combined with conjunctions. All of them compile on the encoded
// table; on the plain one only those on its string column fall back.
func fzPred(f *fzReader, depth int) *Pred {
	kind := f.draw(4)
	if depth == 0 || kind < 2 {
		col := []string{"k", "x", "s", "r"}[f.draw(4)]
		if col == "s" && f.draw(3) == 0 {
			// LIKE specializes on the encoded table's dict column; the plain
			// table's string column falls back, which the harness tolerates.
			return Like("s", fzPatterns[f.draw(len(fzPatterns))])
		}
		op := kernelOps[f.draw(len(kernelOps))]
		var v storage.Value
		switch f.draw(3) {
		case 0:
			v = storage.Int(fzInts[f.draw(len(fzInts))])
		case 1:
			v = storage.Float(fzFloats[f.draw(len(fzFloats))])
		default:
			v = storage.String_(fzLabels[f.draw(len(fzLabels))])
		}
		return Cmp(col, op, v)
	}
	kids := make([]*Pred, 2+f.draw(2))
	for i := range kids {
		kids[i] = fzPred(f, depth-1)
	}
	return And(kids...)
}

func FuzzKernelVsGeneric(f *testing.F) {
	f.Add([]byte{})                        // empty table, zero-byte predicate
	f.Add([]byte{1, 0})                    // two rows of zeros
	f.Add([]byte{40, 6, 4, 2, 0, 1, 3, 5}) // mid-size mixed table
	f.Add([]byte{128, 255, 254, 253, 252, 251, 250, 7, 7, 7, 2, 0, 1, 6, 5, 4, 3})
	f.Add([]byte{16, 3, 1, 4, 1, 5, 9, 2, 6, 5, 3, 5, 8, 9, 7, 9, 3, 2, 3, 8, 4, 6, 2, 6})
	f.Fuzz(func(t *testing.T, data []byte) {
		fr := &fzReader{b: data}
		plain, enc := fzTables(t, fr)
		p := fzPred(fr, 2)
		n := plain.NumRows()
		lo := 0
		hi := n
		if fr.draw(2) == 1 && n > 0 { // sometimes a sub-range
			lo = fr.draw(n + 1)
			hi = lo + fr.draw(n+1-lo)
		}
		oracle, err := FilterRange(plain, p, lo, hi)
		if err != nil {
			t.Fatal(err)
		}
		oracleEnc, err := FilterRange(enc, p, lo, hi)
		if err != nil {
			t.Fatal(err)
		}
		if !sameSel(oracle, oracleEnc) {
			t.Fatalf("%s [%d,%d): generic plain %v != generic encoded %v",
				p, lo, hi, oracle, oracleEnc)
		}
		// The interval rule: every row the oracle accepts lies inside the
		// intervals, and when they are the whole predicate, exactly those do.
		ivs, reason := Intervals(plain.Schema(), p)
		next := 0
		for r := lo; r < hi; r++ {
			match := next < len(oracle) && oracle[next] == r
			if match {
				next++
			}
			if in := inIntervals(t, plain, ivs, r); match && !in || reason == "" && in != match {
				t.Fatalf("%s row %d: oracle %v, in %+v %v (reason %q)", p, r, match, ivs, in, reason)
			}
		}
		// Candidates in shuffled order, for the Refine invariant below.
		perm := rand.New(rand.NewSource(int64(len(data)))).Perm(n)
		for _, tab := range []*storage.Table{plain, enc} {
			whole, err := FilterRange(tab, p, 0, n)
			if err != nil {
				t.Fatal(err)
			}
			in := make([]bool, n)
			for _, r := range whole {
				in[r] = true
			}
			// Matches is the fallback evaluator of the online lane: row by
			// row it must decide exactly what FilterRange decides.
			for r := 0; r < n; r++ {
				if p.Matches(tab, r) != in[r] {
					t.Fatalf("%s row %d: Matches %v, FilterRange %v", p, r, !in[r], in[r])
				}
			}
			k, reason := CompileKernel(tab, p)
			if reason != "" {
				// Only the plain string column takes the generic path; the
				// encoded table specializes every generated predicate.
				if tab == plain && slices.Contains(p.Columns(), "s") {
					continue
				}
				t.Fatalf("%s: predicate built to specialize, but fell back: %s", p, reason)
			}
			if got := k.Run(lo, hi, nil); !sameSel(got, oracle) {
				t.Fatalf("%s [%d,%d): kernel %v != oracle %v", p, lo, hi, got, oracle)
			}
			requireRefineKeepsOrder(t, k, p, perm, in)
		}
	})
}

// requireRefineKeepsOrder refines a copy of the candidates cands and checks
// it keeps exactly those whose in[] is set, in the candidates' order.
func requireRefineKeepsOrder(t *testing.T, k *Kernel, p *Pred, cands []int, in []bool) {
	t.Helper()
	var want []int
	for _, r := range cands {
		if in[r] {
			want = append(want, r)
		}
	}
	if got := k.Refine(append([]int(nil), cands...)); !sameSel(got, want) {
		t.Fatalf("%s: Refine(%v) = %v, want %v", p, cands, got, want)
	}
}
