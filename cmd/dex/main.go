// Command dex is the interactive shell of the exploration engine: load or
// attach CSV files, then query them in any execution mode.
//
// Usage:
//
//	dex [-load name=path.csv]... [-attach name=path.csv]... [-mode exact] [-parallel N] [-timeout 500ms] [-e "SQL"]
//	dex explore [-n 50000] [-seed 11]
//
// `dex explore` runs a scripted exploration session over a synthetic sky
// survey (steering, diversification, SeeDB, prefetching) and exits.
//
// Without -e it reads statements from stdin (one per line). Shell commands:
//
//	\tables             list tables
//	\profile <table>    per-column summaries + suggested segmentations
//	\mode exact|cracked|approx|online
//	\demo               load a built-in synthetic sales table
//	\suggest            recommend likely next queries for this session
//	\quit
package main

import (
	"bufio"
	"context"
	"flag"
	"fmt"
	"math/rand"
	"os"
	"strings"

	"dex"
	"dex/internal/storage"
	"dex/internal/workload"
)

// inferSchema reads just the CSV header and first data row to build a
// schema for in-situ attachment.
func inferSchema(path string) (dex.Schema, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	sc := bufio.NewScanner(f)
	if !sc.Scan() {
		return nil, fmt.Errorf("%s: empty file", path)
	}
	names := strings.Split(sc.Text(), ",")
	var first []string
	if sc.Scan() {
		first = strings.Split(sc.Text(), ",")
	}
	schema := make(dex.Schema, len(names))
	for i, n := range names {
		typ := dex.TString
		if i < len(first) {
			typ = storage.InferType(first[i])
		}
		schema[i] = dex.Field{Name: strings.TrimSpace(n), Type: typ}
	}
	return schema, nil
}

type repeatedFlag []string

func (r *repeatedFlag) String() string     { return strings.Join(*r, ",") }
func (r *repeatedFlag) Set(v string) error { *r = append(*r, v); return nil }

func main() {
	if len(os.Args) > 1 && os.Args[1] == "explore" {
		if err := runExplore(os.Args[2:]); err != nil {
			fmt.Fprintln(os.Stderr, "dex explore:", err)
			os.Exit(1)
		}
		return
	}
	var loads, attaches repeatedFlag
	flag.Var(&loads, "load", "name=path.csv to load eagerly (repeatable)")
	flag.Var(&attaches, "attach", "name=path.csv to attach in-situ (repeatable)")
	modeFlag := flag.String("mode", "exact", "default execution mode")
	exprFlag := flag.String("e", "", "execute one statement and exit")
	seed := flag.Int64("seed", 1, "engine seed")
	parallel := flag.Int("parallel", 0, "worker parallelism for exact queries (0 = GOMAXPROCS, 1 = sequential)")
	morsel := flag.Int("morsel", 0, "rows per parallel scheduling unit (0 = default)")
	timeout := flag.Duration("timeout", 0, "per-statement deadline, e.g. 500ms (0 = none)")
	flag.Parse()

	mode, err := dex.ParseMode(*modeFlag)
	if err != nil {
		fmt.Fprintln(os.Stderr, "dex:", err)
		os.Exit(1)
	}
	e := dex.New(dex.Options{
		Seed: *seed,
		Exec: dex.ExecOptions{Parallelism: *parallel, MorselSize: *morsel},
	})
	for _, spec := range loads {
		name, path, ok := strings.Cut(spec, "=")
		if !ok {
			fmt.Fprintf(os.Stderr, "dex: bad -load %q (want name=path)\n", spec)
			os.Exit(1)
		}
		if err := e.LoadCSV(name, path); err != nil {
			fmt.Fprintln(os.Stderr, "dex:", err)
			os.Exit(1)
		}
	}
	for _, spec := range attaches {
		name, path, ok := strings.Cut(spec, "=")
		if !ok {
			fmt.Fprintf(os.Stderr, "dex: bad -attach %q (want name=path)\n", spec)
			os.Exit(1)
		}
		// Infer the schema from the header and first data row only — the
		// point of attaching is that the file is not loaded.
		schema, err := inferSchema(path)
		if err != nil {
			fmt.Fprintln(os.Stderr, "dex:", err)
			os.Exit(1)
		}
		if err := e.AttachCSV(name, path, schema); err != nil {
			fmt.Fprintln(os.Stderr, "dex:", err)
			os.Exit(1)
		}
	}

	session := e.NewSession()
	runOne := func(line string) {
		// The deadline rides the same context plumbing the dexd service
		// uses: the morsel scheduler stops between morsels when it fires.
		ctx := context.Background()
		cancel := context.CancelFunc(func() {})
		if *timeout > 0 {
			ctx, cancel = context.WithTimeout(ctx, *timeout)
		}
		res, err := session.QueryContext(ctx, line, mode)
		cancel()
		if err != nil {
			fmt.Fprintln(os.Stderr, "error:", err)
			return
		}
		fmt.Print(res.Format(40))
	}

	if *exprFlag != "" {
		runOne(*exprFlag)
		return
	}

	fmt.Printf("dex shell — mode %v. \\demo loads sample data; \\quit exits.\n", mode)
	sc := bufio.NewScanner(os.Stdin)
	fmt.Print("dex> ")
	for sc.Scan() {
		line := strings.TrimSpace(sc.Text())
		switch {
		case line == "":
		case line == `\quit` || line == `\q`:
			return
		case line == `\tables`:
			for _, t := range e.Tables() {
				fmt.Println(" ", t)
			}
		case line == `\demo`:
			rng := rand.New(rand.NewSource(7))
			sales, err := workload.Sales(rng, 100_000)
			if err == nil {
				err = e.Register(sales)
			}
			if err != nil {
				fmt.Fprintln(os.Stderr, "error:", err)
			} else {
				fmt.Println("loaded table `sales` (100000 rows: region, product, quarter, amount, qty)")
			}
		case line == `\suggest`:
			sugs, err := session.SuggestNext(3)
			if err != nil {
				fmt.Fprintln(os.Stderr, "error:", err)
				break
			}
			if len(sugs) == 0 {
				fmt.Println("no archived sessions to learn from yet")
			}
			for i, s := range sugs {
				fmt.Printf(" %d. %v (score %.2f)\n", i+1, s.Fragments, s.Score)
			}
		case strings.HasPrefix(line, `\profile `):
			p, err := e.Profile(strings.TrimSpace(strings.TrimPrefix(line, `\profile `)))
			if err != nil {
				fmt.Fprintln(os.Stderr, "error:", err)
			} else {
				fmt.Print(p.Format())
			}
		case strings.HasPrefix(line, `\mode `):
			m, err := dex.ParseMode(strings.TrimPrefix(line, `\mode `))
			if err != nil {
				fmt.Fprintln(os.Stderr, "error:", err)
			} else {
				mode = m
				fmt.Println("mode:", mode)
			}
		case strings.HasPrefix(line, `\`):
			fmt.Fprintf(os.Stderr, "unknown command %q\n", line)
		default:
			runOne(line)
		}
		fmt.Print("dex> ")
	}
}
