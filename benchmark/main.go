// Command benchmark is the repository's benchmark: five exploration
// workloads driven through the real service, every answer checked against
// an exact oracle, eleven end-to-end metrics per workload and, in a second
// mode, a per-layer table. See README.md in this directory.
//
//	go run ./benchmark                       every workload, end-to-end metrics
//	go run ./benchmark -trace 1              every workload, per-layer metrics
//	go run ./benchmark -workload fetch_rows  one workload, in this process
//	go run ./benchmark -repeat 10            ten sets, each metric's spread against its bound
//
// With -workload the last line of standard output is the run's result as
// one JSON object; that is the form BENCHMARK.json's command is run in.
package main

import (
	"bufio"
	"bytes"
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"os/exec"
	"runtime"
	"sort"
	"strconv"
)

func main() {
	var (
		name    = flag.String("workload", "", "run this one workload in this process and end with its JSON result (default: every workload, each in a child process)")
		seed    = flag.Int64("seed", 1, "seed of the table and of every session")
		seconds = flag.Int("seconds", 10, "how long to measure: one timed round per two seconds, at least three")
		trace   = flag.Int("trace", 0, "1: replay the ops in process, span by span, and report the per-layer metrics instead")
		isQuick = flag.Bool("quick", false, "smoke test: 20k rows, four sessions, two rounds, one set-up")
		repeat  = flag.Int("repeat", 0, "run the whole set this many times, on seeds seed, seed+1, ..., and print each metric's spread next to its bound")
		save    = flag.String("save", "", "with -repeat: write the set's values to this file")
		against = flag.String("against", "", "with -repeat: also compare the medians with a set saved earlier")
	)
	flag.Parse()
	if flag.NArg() > 0 {
		fail(fmt.Errorf("unexpected argument %q", flag.Arg(0)))
	}
	// Up to four cores: enough to see morsel parallelism, few enough that a
	// shared host's other tenants do not decide the result.
	if runtime.NumCPU() > 4 {
		runtime.GOMAXPROCS(4)
	}

	if *name != "" {
		w, ok := workloadByName(*name)
		if !ok {
			fail(fmt.Errorf("unknown workload %q", *name))
		}
		cfg := runConfig{seed: *seed, rounds: roundsFor(*seconds), setupReps: 3, traceDir: "benchmark/out", log: os.Stderr}
		if *isQuick {
			w, cfg.rounds, cfg.setupReps = quick(w), 2, 1
		}
		run := measure
		if *trace == 1 {
			run = traceWorkload
		}
		res, err := run(w, cfg)
		if err != nil {
			fail(err)
		}
		printMetrics(os.Stderr, res)
		line, err := json.Marshal(res)
		if err != nil {
			fail(err)
		}
		fmt.Println(string(line))
		if !res.Correct {
			os.Exit(1)
		}
		return
	}

	childArgs := []string{"-seconds", strconv.Itoa(*seconds), "-trace", strconv.Itoa(*trace)}
	if *isQuick {
		childArgs = append(childArgs, "-quick")
	}
	if *repeat > 0 {
		if err := runRepeat(*repeat, *seed, childArgs, *save, *against); err != nil {
			fail(err)
		}
		return
	}
	set, err := runSet(*seed, childArgs)
	if err != nil {
		fail(err)
	}
	printSet(set, *trace == 1)
}

func fail(err error) {
	fmt.Fprintln(os.Stderr, "benchmark:", err)
	os.Exit(1)
}

// runSet runs every workload once, each in a child process of its own, so
// that CPU time, allocation and peak memory belong to one workload.
func runSet(seed int64, args []string) (map[string]result, error) {
	self, err := os.Executable()
	if err != nil {
		return nil, err
	}
	set := map[string]result{}
	for _, w := range workloads {
		cmd := exec.Command(self, append([]string{"-workload", w.name, "-seed", strconv.FormatInt(seed, 10)}, args...)...)
		cmd.Stderr = os.Stderr
		out, err := cmd.Output()
		res, perr := lastLineResult(out)
		if perr != nil {
			if err != nil {
				return nil, fmt.Errorf("%s: %w", w.name, err)
			}
			return nil, fmt.Errorf("%s: %w", w.name, perr)
		}
		if !res.Correct {
			return nil, fmt.Errorf("%s: wrong answers among %d failed ops of %d", w.name, res.Failed, res.Attempted)
		}
		set[w.name] = res
	}
	return set, nil
}

func lastLineResult(out []byte) (result, error) {
	var last []byte
	sc := bufio.NewScanner(bytes.NewReader(out))
	sc.Buffer(nil, 1<<20)
	for sc.Scan() {
		if len(bytes.TrimSpace(sc.Bytes())) > 0 {
			last = append(last[:0], sc.Bytes()...)
		}
	}
	var res result
	if err := json.Unmarshal(last, &res); err != nil {
		return result{}, fmt.Errorf("no result line: %w", err)
	}
	return res, nil
}

func printMetrics(w *os.File, res result) {
	names := make([]string, 0, len(res.Metrics))
	for name := range res.Metrics {
		names = append(names, name)
	}
	sort.Strings(names)
	for _, name := range names {
		fmt.Fprintf(w, "  %-28s %14.4f %s\n", name, res.Metrics[name].Value, res.Metrics[name].Unit)
	}
}

// printSet prints one row per metric, one column per workload.
func printSet(set map[string]result, traced bool) {
	defs := endToEnd
	if traced {
		defs = perLayer
	}
	fmt.Printf("%-28s %-9s", "metric", "unit")
	for _, w := range workloads {
		fmt.Printf(" %16s", w.name)
	}
	fmt.Println()
	for _, def := range defs {
		fmt.Printf("%-28s %-9s", def.name, def.unit)
		for _, w := range workloads {
			fmt.Printf(" %16.4f", set[w.name].Metrics[def.name].Value)
		}
		fmt.Println()
	}
	counts := func(name string, get func(result) int) {
		fmt.Printf("%-28s %-9s", name, "count")
		for _, w := range workloads {
			fmt.Printf(" %16d", get(set[w.name]))
		}
		fmt.Println()
	}
	counts("ops_attempted", func(r result) int { return r.Attempted })
	counts("ops_failed", func(r result) int { return r.Failed })
}
