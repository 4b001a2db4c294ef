package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"log"
	"os"
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

// runChaos is `dexd chaos`: one seeded chaos run against an in-process
// dexd service. Synthetic exploration sessions replay while failpoints arm
// and disarm on a schedule, and the run is judged against the liveness
// invariants (no goroutine leaks, every query terminates with a classified
// outcome, clean drain mid-chaos). Any violation is an error.
//
// Each -fault entry arms SITE with SPEC at offset AT, optionally disarming
// after FOR, e.g.:
//
//	dexd chaos -fault "0:exec/scan=latency(30ms,0.6):900ms" \
//	           -fault "5ms:server/admit=error(0.25)" -drain-at 40ms
//
// With no -fault flags a standing schedule covering scan latency,
// admission sheds, flaky transport, cache faults and handler errors runs.
// The same seed always replays the same per-site fault decision stream
// (the framework indexes decisions by hit order), so a failing run is
// reproduced by re-running its seed.
func runChaos(args []string) error {
	fs := flag.NewFlagSet("dexd chaos", flag.ExitOnError)
	rf := runFlags{seed: 1, rows: 20_000, users: 3, ops: 10, mode: "exact", timeout: 150 * time.Millisecond}
	rf.register(fs)
	var faults faultFlags
	drainAt := fs.Duration("drain-at", 0, "initiate a drain (the SIGTERM path) at this offset (0 = no drain)")
	fs.Var(&faults, "fault", "AT:SITE=SPEC[:FOR] schedule entry (repeatable; default standing schedule)")
	jsonOut := fs.String("json", "", "also write the report as JSON to this file")
	quiet := fs.Bool("quiet", false, "suppress the fault schedule narration")
	fs.Parse(args)

	schedule := []chaos.FaultEvent(faults)
	if len(schedule) == 0 {
		schedule = defaultSchedule()
	}
	cfg := chaos.Config{
		Seed:             rf.seed,
		Clients:          rf.users,
		QueriesPerClient: rf.ops,
		Rows:             rf.rows,
		Mode:             rf.mode,
		Timeout:          rf.timeout,
		Faults:           schedule,
		DrainAt:          *drainAt,
	}
	if !*quiet {
		cfg.Log = log.New(os.Stderr, fmt.Sprintf("seed=%-3d ", rf.seed), 0)
	}
	rep, err := chaos.Run(cfg)
	if err != nil {
		return fmt.Errorf("seed %d: %w", rf.seed, err)
	}
	o := rep.Outcomes
	fmt.Printf("seed=%d issued=%d completed=%d degraded=%d rejected=%d typed=%d transport=%d timeout=%d drained=%v goroutines=%d->%d\n",
		rf.seed, rep.Issued, o.Completed, o.Degraded, o.Rejected, o.Typed, o.Transport, o.Timeout,
		rep.Drained, rep.Goroutines[0], rep.Goroutines[1])
	var sites []string
	for site, st := range rep.FaultStats {
		sites = append(sites, fmt.Sprintf("%s:%d/%d", site, st.Fires, st.Hits))
	}
	if len(sites) > 0 {
		fmt.Printf("  fires/hits: %s\n", strings.Join(sites, " "))
	}
	for _, v := range rep.Violations {
		fmt.Printf("  VIOLATION: %s\n", v)
	}

	if *jsonOut != "" {
		buf, err := json.MarshalIndent(rep, "", "  ")
		if err != nil {
			return err
		}
		if err := os.WriteFile(*jsonOut, append(buf, '\n'), 0o644); err != nil {
			return err
		}
		fmt.Printf("wrote %s\n", *jsonOut)
	}
	if n := len(rep.Violations); n > 0 {
		return fmt.Errorf("seed %d: %d invariant violation(s)", rf.seed, n)
	}
	fmt.Println("all invariants held")
	return nil
}
