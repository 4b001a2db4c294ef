package rsum

import (
	"encoding/binary"
	"math"
	"testing"
)

// The accumulator's differential fuzzer: every byte string decodes to a
// multiset of values — pool floats and ints, or raw float64 and int64 bits
// — then a permutation of them, a split of the permuted sequence into
// morsels, each added by Add/AddInt or by Fold/FoldAt, and a merge tree
// over the morsels' sums. The merged sum must have the bits of the values
// added one at a time in their drawn order, and lie within the package's
// stated bound of the exact sum math/big computes. Exhausted input yields
// zeros, so every prefix of an input is itself a valid input.
// testdata/fuzz/FuzzSumVsBig holds entries for NaN, both infinities,
// subnormals, the neighbours of 2^53, the int64 extremes as INT inputs and
// mixed magnitudes.

// fzReader turns fuzz bytes into bounded draws.
type fzReader struct {
	b []byte
	i int
}

func (f *fzReader) byte() byte {
	if f.i >= len(f.b) {
		return 0
	}
	f.i++
	return f.b[f.i-1]
}

func (f *fzReader) draw(n int) int { return int(f.byte()) % n }

func (f *fzReader) u64() uint64 {
	var b [8]byte
	for i := range b {
		b[i] = f.byte()
	}
	return binary.LittleEndian.Uint64(b[:])
}

// decodeTerms reads up to 64 values: a selector byte each, whose low two
// bits pick a pool float, a pool int, raw float64 bits or raw int64 bits.
func decodeTerms(f *fzReader) []term {
	terms := make([]term, f.draw(65))
	for i := range terms {
		s := f.byte()
		switch s % 4 {
		case 0:
			terms[i] = term{f: specials[int(s/4)%len(specials)]}
		case 1:
			terms[i] = term{i: specialInts[int(s/4)%len(specialInts)], isInt: true}
		case 2:
			terms[i] = term{f: math.Float64frombits(f.u64())}
		default:
			terms[i] = term{i: int64(f.u64()), isInt: true}
		}
	}
	return terms
}

func FuzzSumVsBig(f *testing.F) {
	f.Add([]byte{})
	f.Add([]byte{3, 4, 8, 12})
	f.Fuzz(func(t *testing.T, data []byte) {
		fr := &fzReader{b: data}
		terms := decodeTerms(fr)
		var seq Sum
		for _, tm := range terms {
			tm.add(&seq)
		}
		want := seq.Float64()
		checkBound(t, "in order", terms, want)
		// The permutation, Fisher-Yates from the draws.
		perm := make([]term, len(terms))
		copy(perm, terms)
		for i := len(perm) - 1; i > 0; i-- {
			j := fr.draw(i + 1)
			perm[i], perm[j] = perm[j], perm[i]
		}
		// The morsels, each added one value at a time or folded as a
		// column of floats and one of ints.
		var parts []*Sum
		for len(perm) > 0 {
			m := min(len(perm), 1+fr.draw(16))
			s := new(Sum)
			if fr.draw(2) == 0 {
				for _, tm := range perm[:m] {
					tm.add(s)
				}
			} else {
				var fs []float64
				var is []int64
				for _, tm := range perm[:m] {
					if tm.isInt {
						is = append(is, tm.i)
					} else {
						fs = append(fs, tm.f)
					}
				}
				rows := make([]int, len(is))
				for r := range rows {
					rows[r] = len(is) - 1 - r
				}
				FoldAt(s, fs, nil)
				FoldAt(s, is, rows)
			}
			parts = append(parts, s)
			perm = perm[m:]
		}
		// The merge tree: each draw merges a neighbouring pair.
		for len(parts) > 1 {
			k := fr.draw(len(parts) - 1)
			parts[k].Merge(parts[k+1])
			parts = append(parts[:k+1], parts[k+2:]...)
		}
		got := new(Sum).Float64()
		if len(parts) == 1 {
			got = parts[0].Float64()
		}
		if math.Float64bits(got) != math.Float64bits(want) && !(got != got && want != want) {
			t.Fatalf("%d values: merged %v (%#x), in order %v (%#x)", len(terms), got, math.Float64bits(got), want, math.Float64bits(want))
		}
	})
}
