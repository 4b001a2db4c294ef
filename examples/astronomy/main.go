// Astronomy: the tutorial's motivating user — an astronomer scanning a sky
// survey for "interesting" objects without knowing the query upfront.
// Explore-by-example steering learns the region from relevance feedback,
// the learned predicate becomes a real query, and diversification picks
// representative objects to show.
package main

import (
	"context"
	"fmt"
	"log"
	"math/rand"

	"dex/internal/diversify"
	"dex/internal/exec"
	"dex/internal/steer"
	"dex/internal/workload"
)

func main() {
	rng := rand.New(rand.NewSource(3))
	sky, err := workload.SkyCatalog(rng, 40_000)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("sky survey: %d objects\n", sky.NumRows())

	// The astronomer recognizes high-redshift quasars when shown one; the
	// oracle stands in for their yes/no feedback. The hidden interest is
	// one of the planted clusters.
	oracle := func(x []float64) bool {
		// x = (ra, dec, z)
		return x[2] > 2.0 && x[0] >= 24 && x[0] < 36
	}
	explorer, err := steer.New(sky, []string{"ra", "dec", "z"}, oracle, steer.Options{
		Seed:     4,
		MaxIters: 15,
		TargetF1: 0.95,
	})
	if err != nil {
		log.Fatal(err)
	}
	trace, err := explorer.Run()
	if err != nil {
		log.Fatal(err)
	}
	fmt.Println("\nsteering by relevance feedback:")
	for _, it := range trace {
		fmt.Printf("  round %2d: %4d labeled → F1 %.3f\n", it.Iter, it.Labeled, it.F1)
	}
	pred := explorer.Query()
	if pred == nil {
		log.Fatal("no interesting region found")
	}
	fmt.Printf("\nthe query the astronomer could not write:\n  SELECT * FROM sky WHERE %s\n", pred)

	res, err := exec.ExecuteCtx(context.Background(), sky, exec.Query{
		Select: []exec.SelectItem{{Col: "ra"}, {Col: "dec"}, {Col: "mag"}, {Col: "z"}},
		Where:  pred,
		Limit:  0,
	}, exec.ExecOptions{})
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("matching objects: %d\n", res.NumRows())

	// Show 6 spatially diverse candidates rather than 6 near-duplicates.
	items := make([]diversify.Item, res.NumRows())
	ra, _ := res.ColumnByName("ra")
	dec, _ := res.ColumnByName("dec")
	z, _ := res.ColumnByName("z")
	for i := range items {
		items[i] = diversify.Item{
			ID:       i,
			Rel:      z.Value(i).AsFloat(), // higher redshift = more interesting
			Features: []float64{ra.Value(i).AsFloat(), dec.Value(i).AsFloat()},
		}
	}
	k := 6
	if k > len(items) {
		k = len(items)
	}
	div, err := diversify.MMR(items, k, 0.5)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Println("\nrepresentative objects for follow-up observation:")
	for _, p := range div.Picked {
		fmt.Printf("  ra=%6.2f dec=%6.2f z=%.2f\n",
			items[p].Features[0], items[p].Features[1], items[p].Rel)
	}
}
