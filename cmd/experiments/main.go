// Command experiments regenerates every table/series of the reproduction
// (see DESIGN.md's experiment index). By default all experiments run at
// full size; -run selects a comma-separated subset, -quick shrinks data
// sizes, -list prints the index.
//
// Usage:
//
//	experiments [-list] [-quick] [-seed N] [-run E2,E8,E17] [-o out.txt] [-json baseline.json]
package main

import (
	"flag"
	"fmt"
	"io"
	"os"
	"strings"
	"time"

	"dex/internal/bench"
)

func main() {
	list := flag.Bool("list", false, "list experiments and exit")
	quick := flag.Bool("quick", false, "shrink data sizes for a fast pass")
	seed := flag.Int64("seed", 42, "random seed")
	run := flag.String("run", "", "comma-separated experiment ids (default: all)")
	out := flag.String("o", "", "also write output to this file")
	jsonPath := flag.String("json", "", "write machine-readable baselines (experiments that export them) to this file")
	flag.Parse()

	if *list {
		for _, e := range bench.All() {
			fmt.Printf("%-4s %s (%s)\n", e.ID, e.Title, e.Source)
		}
		return
	}

	var w io.Writer = os.Stdout
	if *out != "" {
		f, err := os.Create(*out)
		if err != nil {
			fmt.Fprintln(os.Stderr, "experiments:", err)
			os.Exit(1)
		}
		defer f.Close()
		w = io.MultiWriter(os.Stdout, f)
	}

	var selected []bench.Experiment
	if *run == "" {
		selected = bench.All()
	} else {
		for _, id := range strings.Split(*run, ",") {
			e, ok := bench.ByID(strings.TrimSpace(id))
			if !ok {
				fmt.Fprintf(os.Stderr, "experiments: unknown id %q (use -list)\n", id)
				os.Exit(1)
			}
			selected = append(selected, e)
		}
	}

	cfg := bench.Config{Quick: *quick, Seed: *seed, JSONPath: *jsonPath}
	mode := "full"
	if *quick {
		mode = "quick"
	}
	fmt.Fprintf(w, "dex experiment suite — %d experiment(s), %s mode, seed %d\n",
		len(selected), mode, *seed)
	start := time.Now()
	failures := 0
	for _, e := range selected {
		bench.Section(w, e)
		t0 := time.Now()
		if err := e.Run(w, cfg); err != nil {
			failures++
			fmt.Fprintf(w, "ERROR: %v\n", err)
			continue
		}
		fmt.Fprintf(w, "[%s completed in %v]\n", e.ID, time.Since(t0).Round(time.Millisecond))
	}
	fmt.Fprintf(w, "\nsuite finished in %v, %d failure(s)\n", time.Since(start).Round(time.Millisecond), failures)
	if failures > 0 {
		os.Exit(1)
	}
}
