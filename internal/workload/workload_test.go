package workload

import (
	"math/rand"
	"testing"
)

func TestUniformAndZipf(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	u := UniformInts(rng, 10000, 100)
	for _, v := range u {
		if v < 0 || v >= 100 {
			t.Fatalf("uniform out of range: %d", v)
		}
	}
	z := ZipfInts(rng, 10000, 100, 1.5)
	counts := map[int64]int{}
	for _, v := range z {
		if v < 0 || v >= 100 {
			t.Fatalf("zipf out of range: %d", v)
		}
		counts[v]++
	}
	if counts[0] < counts[50]*2 {
		t.Errorf("zipf not skewed: c0=%d c50=%d", counts[0], counts[50])
	}
	// s<=1 is coerced, not a panic.
	_ = ZipfInts(rng, 10, 10, 0.5)
}

func TestGaussianMixtureAndWalk(t *testing.T) {
	rng := rand.New(rand.NewSource(2))
	g := GaussianMixture(rng, 1000, []float64{-10, 10}, 1)
	near := 0
	for _, v := range g {
		if v > -13 && v < -7 || v > 7 && v < 13 {
			near++
		}
	}
	if near < 950 {
		t.Errorf("mixture mass near centers = %d/1000", near)
	}
	w := RandomWalk(rng, 100, 1)
	if len(w) != 100 {
		t.Error("walk length")
	}
}

func TestRangePatterns(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	rr := RandomRanges(rng, 50, 1000, 10)
	for _, r := range rr {
		if r.Hi-r.Lo != 10 {
			t.Fatalf("width = %d", r.Hi-r.Lo)
		}
	}
	sr := SequentialRanges(10, 1000)
	for i := 1; i < len(sr); i++ {
		if sr[i].Lo != sr[i-1].Hi {
			t.Fatal("sequential ranges not adjacent")
		}
	}
	zr := ZoomRanges(rng, 20, 1000)
	for i := 1; i < len(zr); i++ {
		if zr[i].Hi-zr[i].Lo > zr[i-1].Hi-zr[i-1].Lo {
			t.Fatal("zoom ranges should narrow")
		}
	}
}

func TestTables(t *testing.T) {
	rng := rand.New(rand.NewSource(4))
	sales, err := Sales(rng, 500)
	if err != nil || sales.NumRows() != 500 || sales.NumCols() != 5 {
		t.Fatalf("sales = %v, %v", sales, err)
	}
	sky, err := SkyCatalog(rng, 500)
	if err != nil || sky.NumRows() != 500 {
		t.Fatalf("sky err = %v", err)
	}
	// Planted quasar clusters exist.
	cc, _ := sky.ColumnByName("class")
	quasars := 0
	for i := 0; i < sky.NumRows(); i++ {
		if cc.Value(i).S == "quasar" {
			quasars++
		}
	}
	if quasars == 0 {
		t.Error("no quasars planted")
	}
	ticks, err := Ticks(rng, 500)
	if err != nil || ticks.NumRows() != 500 {
		t.Fatalf("ticks err = %v", err)
	}
	tsc, _ := ticks.ColumnByName("ts")
	for i := 1; i < 500; i++ {
		if tsc.Value(i).I <= tsc.Value(i-1).I {
			t.Fatal("timestamps not monotone")
		}
	}
}

func TestSeriesCollection(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	ss := SeriesCollection(rng, 10, 64)
	if len(ss) != 10 || len(ss[0]) != 64 {
		t.Fatal("series dims")
	}
}

func TestDeterminism(t *testing.T) {
	a := UniformInts(rand.New(rand.NewSource(42)), 100, 1000)
	b := UniformInts(rand.New(rand.NewSource(42)), 100, 1000)
	for i := range a {
		if a[i] != b[i] {
			t.Fatal("same seed must reproduce the workload")
		}
	}
}

func TestDemo(t *testing.T) {
	for kind, table := range map[string]string{"": "sales", "sales": "sales", "sky": "sky", "ticks": "ticks"} {
		tbl, err := Demo(kind, rand.New(rand.NewSource(6)), 50)
		if err != nil || tbl.Name() != table || tbl.NumRows() != 50 {
			t.Errorf("Demo(%q) = %v, %v, want 50 rows of %s", kind, tbl, err, table)
		}
	}
	if _, err := Demo("nope", rand.New(rand.NewSource(6)), 50); err == nil {
		t.Error("unknown demo kind should error")
	}
}
