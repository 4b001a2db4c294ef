// Command dexchaos runs the seeded chaos harness against an in-process
// dexd service: synthetic exploration sessions replay while failpoints arm
// and disarm on a schedule, and the run is judged against the three
// liveness invariants (no goroutine leaks, every query terminates with a
// classified outcome, clean drain mid-chaos). Exit status 1 means at least
// one seed produced a violation.
//
// Usage:
//
//	dexchaos [-seeds 1,2,3] [-clients 3] [-queries 10] [-rows 20000]
//	         [-mode exact] [-timeout 150ms] [-drain-at 0]
//	         [-fault "AT:SITE=SPEC[:FOR]"]... [-json out.json] [-quiet]
//
// Each -fault entry arms SITE with SPEC at offset AT, optionally disarming
// after FOR, e.g.:
//
//	dexchaos -fault "0:exec/scan=latency(30ms,0.6):900ms" \
//	         -fault "5ms:server/admit=error(0.25)" -drain-at 40ms
//
// With no -fault flags a standing schedule covering scan latency,
// admission sheds, flaky transport, cache faults and handler errors runs.
// The same seed always replays the same per-site fault decision stream
// (the framework indexes decisions by hit order), so a failing run is
// reproduced by re-running its seed.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"log"
	"os"
	"strconv"
	"strings"
	"time"

	"dex/internal/chaos"
	"dex/internal/fault"
)

type faultFlags []chaos.FaultEvent

func (f *faultFlags) String() string { return fmt.Sprintf("%v", []chaos.FaultEvent(*f)) }

// Set parses "AT:SITE=SPEC[:FOR]" — AT and FOR are Go durations, SPEC is a
// failpoint policy (see internal/fault).
func (f *faultFlags) Set(v string) error {
	atStr, rest, ok := strings.Cut(v, ":")
	if !ok {
		return fmt.Errorf("want AT:SITE=SPEC[:FOR], got %q", v)
	}
	at, err := time.ParseDuration(atStr)
	if err != nil {
		return fmt.Errorf("bad AT in %q: %v", v, err)
	}
	var ev chaos.FaultEvent
	ev.At = at
	if i := strings.LastIndex(rest, ":"); i >= 0 {
		if d, err := time.ParseDuration(rest[i+1:]); err == nil {
			ev.For = d
			rest = rest[:i]
		}
	}
	site, spec, ok := strings.Cut(rest, "=")
	if !ok {
		return fmt.Errorf("want SITE=SPEC in %q", v)
	}
	if !fault.ValidName(site) {
		return fmt.Errorf("bad failpoint name %q", site)
	}
	ev.Site, ev.Spec = site, spec
	*f = append(*f, ev)
	return nil
}

// defaultSchedule mirrors the standing mix the chaos tests run.
func defaultSchedule() []chaos.FaultEvent {
	return []chaos.FaultEvent{
		{At: 0, Site: "exec/scan", Spec: "latency(30ms,0.6)", For: 900 * time.Millisecond},
		{At: 0, Site: "cache/get", Spec: "error(0.5)"},
		{At: 5 * time.Millisecond, Site: "server/admit", Spec: "error(0.25)", For: 700 * time.Millisecond},
		{At: 10 * time.Millisecond, Site: "client/transport", Spec: "error(0.15)", For: 600 * time.Millisecond},
		{At: 15 * time.Millisecond, Site: "server/handler", Spec: "error(0.05)"},
	}
}

func main() {
	var faults faultFlags
	seedsFlag := flag.String("seeds", "1,2,3", "comma-separated seeds, one full run each")
	clients := flag.Int("clients", 3, "concurrent synthetic explorers")
	queries := flag.Int("queries", 10, "queries per client")
	rows := flag.Int("rows", 20_000, "demo table size")
	mode := flag.String("mode", "", "execution mode for every query (default exact)")
	timeout := flag.Duration("timeout", 150*time.Millisecond, "per-query deadline")
	drainAt := flag.Duration("drain-at", 0, "initiate a drain (the SIGTERM path) at this offset (0 = no drain)")
	flag.Var(&faults, "fault", "AT:SITE=SPEC[:FOR] schedule entry (repeatable; default standing schedule)")
	jsonOut := flag.String("json", "", "write all reports as JSON to this file")
	quiet := flag.Bool("quiet", false, "suppress the fault schedule narration")
	flag.Parse()

	var seeds []int64
	for _, f := range strings.Split(*seedsFlag, ",") {
		s, err := strconv.ParseInt(strings.TrimSpace(f), 10, 64)
		if err != nil {
			log.Fatalf("dexchaos: bad -seeds entry %q", f)
		}
		seeds = append(seeds, s)
	}
	schedule := []chaos.FaultEvent(faults)
	if len(schedule) == 0 {
		schedule = defaultSchedule()
	}

	var reports []*chaos.Report
	failed := false
	for _, seed := range seeds {
		cfg := chaos.Config{
			Seed:             seed,
			Clients:          *clients,
			QueriesPerClient: *queries,
			Rows:             *rows,
			Mode:             *mode,
			Timeout:          *timeout,
			Faults:           schedule,
			DrainAt:          *drainAt,
		}
		if !*quiet {
			cfg.Log = log.New(os.Stderr, fmt.Sprintf("seed=%-3d ", seed), 0)
		}
		rep, err := chaos.Run(cfg)
		if err != nil {
			log.Fatalf("dexchaos: seed %d: %v", seed, err)
		}
		reports = append(reports, rep)
		o := rep.Outcomes
		fmt.Printf("seed=%d issued=%d completed=%d degraded=%d rejected=%d typed=%d transport=%d timeout=%d drained=%v goroutines=%d->%d\n",
			seed, rep.Issued, o.Completed, o.Degraded, o.Rejected, o.Typed, o.Transport, o.Timeout,
			rep.Drained, rep.Goroutines[0], rep.Goroutines[1])
		var sites []string
		for site, st := range rep.FaultStats {
			sites = append(sites, fmt.Sprintf("%s:%d/%d", site, st.Fires, st.Hits))
		}
		if len(sites) > 0 {
			fmt.Printf("  fires/hits: %s\n", strings.Join(sites, " "))
		}
		for _, v := range rep.Violations {
			failed = true
			fmt.Printf("  VIOLATION: %s\n", v)
		}
	}

	if *jsonOut != "" {
		buf, err := json.MarshalIndent(map[string]any{"bench": "dexchaos", "runs": reports}, "", "  ")
		if err != nil {
			log.Fatal(err)
		}
		if err := os.WriteFile(*jsonOut, append(buf, '\n'), 0o644); err != nil {
			log.Fatal(err)
		}
		fmt.Printf("wrote %s\n", *jsonOut)
	}
	if failed {
		os.Exit(1)
	}
	fmt.Println("all invariants held")
}
