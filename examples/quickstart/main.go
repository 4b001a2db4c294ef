// Quickstart: the public dex API in one minute — build a table, register
// it, and run the same aggregate under all four execution modes.
package main

import (
	"fmt"
	"log"
	"math/rand"

	"dex"
)

func main() {
	e := dex.New(dex.Options{Seed: 1})

	// Build a small synthetic orders table.
	tbl, err := dex.NewTable("orders", dex.Schema{
		{Name: "region", Type: dex.TString},
		{Name: "amount", Type: dex.TFloat},
		{Name: "qty", Type: dex.TInt},
	})
	if err != nil {
		log.Fatal(err)
	}
	rng := rand.New(rand.NewSource(2))
	regions := []string{"east", "west", "north", "south"}
	for i := 0; i < 200_000; i++ {
		err := tbl.AppendRow(
			dex.Str(regions[rng.Intn(len(regions))]),
			dex.Float(100+rng.NormFloat64()*25),
			dex.Int(int64(rng.Intn(1000))),
		)
		if err != nil {
			log.Fatal(err)
		}
	}
	if err := e.Register(tbl); err != nil {
		log.Fatal(err)
	}

	// 1. Exact execution.
	fmt.Println("== exact ==")
	res, err := e.SQL("SELECT region, avg(amount), count(*) FROM orders GROUP BY region ORDER BY region", dex.Exact)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Print(res.Format(10))

	// 2. Adaptive indexing: a range's edge buckets of the qty column are
	//    read as rows until their third touch cracks them; repeats then
	//    probe the cracks, without any CREATE INDEX.
	fmt.Println("\n== cracked (adaptive indexing) ==")
	for i := 0; i < 3; i++ {
		res, err = e.SQL("SELECT count(*) FROM orders WHERE qty >= 100 AND qty < 200", dex.Cracked)
		if err != nil {
			log.Fatal(err)
		}
	}
	fmt.Print(res.Format(5))
	if pieces, cracks, ok := e.CrackStats("orders", "qty"); ok {
		fmt.Printf("(index built as a side effect: %d pieces after %d cracks)\n", pieces, cracks)
	}

	// 3. Approximate: answers from a random sample, with a confidence interval.
	fmt.Println("\n== approx (sampling + error bounds) ==")
	res, err = e.SQL("SELECT avg(amount) FROM orders", dex.Approx)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Print(res.Format(5))

	// 4. Online aggregation: scan in random order until the CI is tight.
	fmt.Println("\n== online (progressive refinement) ==")
	res, err = e.SQL("SELECT region, avg(amount) FROM orders GROUP BY region", dex.Online)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Print(res.Format(10))
}
