package main

import (
	"fmt"
	"io"
	"math"
	"runtime"
	"sort"
	"strings"
	"time"

	"dex/internal/metrics"
	"dex/internal/storage"
)

// runConfig is one run's settings.
type runConfig struct {
	seed      int64
	rounds    int // timed rounds, each an exact repeat of the first
	setupReps int // how often set-up is done; setup_s is the median
	traceDir  string
	log       io.Writer // what a person reads; the result goes to the caller
}

// roundsFor turns the --seconds a run is given into timed rounds: one per
// two seconds (a round is sized to about 2 s at the seed commit), never
// fewer than three. The count depends on the flag alone, never on how fast
// this commit runs, so both sides of a comparison do identical work.
func roundsFor(seconds int) int {
	if r := seconds / 2; r > 3 {
		return r
	}
	return 3
}

// quick shrinks a workload to a smoke test: 20k rows, four sessions.
func quick(w workload) workload {
	w.rows = 20_000
	w.sessions = 4
	return w
}

type metricValue struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// result is the line a run ends with.
type result struct {
	Correct   bool                   `json:"correct"`
	Attempted int                    `json:"attempted"`
	Failed    int                    `json:"failed"`
	Metrics   map[string]metricValue `json:"metrics"`
}

// newResult reports every metric of defs: a metric the run did not set (a
// layer the workload never enters) reads 0. Correct says that no answer was
// wrong. An op the host stalled past its deadline (one in ~50 000 here; the
// online mode answers 504, the others answer late) is counted in Failed and
// against in_budget_frac, but it is not a wrong output.
func newResult(t tally, defs []metricDef, values map[string]float64) result {
	r := result{Correct: t.wrong == 0, Attempted: t.attempted, Failed: t.failed(),
		Metrics: make(map[string]metricValue, len(defs))}
	for _, def := range defs {
		v := values[def.name]
		if math.IsNaN(v) || math.IsInf(v, 0) {
			v = 0
		}
		r.Metrics[def.name] = metricValue{Value: v, Unit: def.unit}
	}
	return r
}

func buildSessions(w workload, t *target, seed int64) []session {
	if !w.fetch {
		return exploreSessions(w.sessions, w.mix, seed)
	}
	amount, _ := t.plain.ColumnByName("amount")
	sorted := append([]float64(nil), amount.(*storage.FloatColumn).V...)
	sort.Float64s(sorted)
	return fetchSessions(w.sessions, sorted, seed)
}

func buildOracle(t *target, sessions []session) (map[string]answer, error) {
	data, err := newOracleData(t.plain)
	if err != nil {
		return nil, err
	}
	return data.answerAll(distinctSQL(sessions))
}

// measure runs one workload with tracing off and returns its end-to-end
// metrics.
func measure(w workload, cfg runConfig) (result, error) {
	spin := spinMS()
	cal, err := newCalibration()
	if err != nil {
		return result{}, err
	}
	defer cal.close()
	host := cal.settle(3) // the host factor before and after each set-up; the rounds take their own

	// Set-up, repeated: generate, encode, boot the fleet, start a service,
	// warm up on the first third of the sessions (every op kind, the lazily
	// built per-table state, the heap). Everything before the first timed
	// round, except what only the benchmark needs (op generation, the oracle).
	var (
		t        *target
		sessions []session
		setups   []float64
	)
	for rep := 0; rep < cfg.setupReps; rep++ {
		if t != nil {
			t.close()
			t = nil
			runtime.GC() // the previous table goes before the next is built, so peak memory is one table's
		}
		t0 := time.Now()
		if t, err = newTarget(w, cfg.seed); err != nil {
			return result{}, err
		}
		elapsed := time.Since(t0)
		if sessions == nil {
			sessions = buildSessions(w, t, cfg.seed)
		}
		t0 = time.Now()
		svc, err := t.newService()
		if err != nil {
			t.close()
			return result{}, err
		}
		runRound(svc, sessions[:(len(sessions)+2)/3], w, nil, nil)
		elapsed += time.Since(t0)
		svc.close()
		before := host
		host = cal.settle(3)
		setups = append(setups, elapsed.Seconds()/((before+host)/2))
	}
	defer t.close()

	t0 := time.Now()
	oracle, err := buildOracle(t, sessions)
	if err != nil {
		return result{}, err
	}
	t.plain = nil
	fmt.Fprintf(cfg.log, "set-up %.2f s (host-normalised) x %d, oracle %.2f s for %d statements\n",
		metrics.Median(setups), len(setups), time.Since(t0).Seconds(), len(oracle))

	var (
		rounds []roundResult
		tl     tally
	)
	if err := resetRSSPeak(); err != nil {
		fmt.Fprintf(cfg.log, "rss_peak_mb covers the whole run, not the rounds alone: %v\n", err)
	}
	for i := 0; i < cfg.rounds; i++ {
		svc, err := t.newService()
		if err != nil {
			return result{}, err
		}
		runtime.GC() // every round starts from the same heap
		r := runRound(svc, sessions, w, cal, nil)
		svc.close()
		verify(&r, sessions, oracle)
		tl.add(r)
		rounds = append(rounds, r)
	}

	values := endToEndMetrics(rounds, tl)
	values["setup_s"] = metrics.Median(setups)
	values["rss_peak_mb"] = rssPeakMB()
	logRun(cfg.log, w, rounds, tl, spin, spinMS())
	return newResult(tl, endToEnd, values), nil
}

// logRun prints what the metrics alone do not show: the outcome of every
// op, how many samples sit behind p95, and how the rounds spread next to
// the host's own noise.
func logRun(log io.Writer, w workload, rounds []roundResult, tl tally, spinBefore, spinAfter float64) {
	ops := rounds[0].numOps()
	fmt.Fprintf(log, "%s: %d rows, %d client(s), %d rounds x %d ops; p95 has %d samples beyond it per round\n",
		w.name, w.rows, w.clients, len(rounds), ops, ops-int(math.Ceil(0.95*float64(ops))))
	names := make([]string, 0, len(tl.byOutcome))
	for name := range tl.byOutcome {
		names = append(names, name)
	}
	sort.Strings(names)
	fmt.Fprintf(log, "ops_attempted %d  ops_failed %d  wrong %d ", tl.attempted, tl.failed(), tl.wrong)
	for _, name := range names {
		fmt.Fprintf(log, " %s %d", name, tl.byOutcome[name])
	}
	fmt.Fprintln(log)
	rates, raw, hosts := make([]float64, len(rounds)), make([]float64, len(rounds)), make([]string, len(rounds))
	for i, r := range rounds {
		wall, host := r.normalised()
		raw[i] = float64(r.numOps()) / r.wall.Seconds()
		rates[i] = float64(r.numOps()) / wall.Seconds()
		hosts[i] = fmt.Sprintf("%.2f", host)
	}
	sort.Sort(sort.Reverse(sort.Float64Slice(rates)))
	fmt.Fprintf(log, "ops_per_s by round: best %.1f  second-best %.1f  median %.1f  worst %.1f;  host.spin_ms before %.1f after %.1f\n",
		rates[0], secondBest(rates, "higher"), metrics.Median(rates), rates[len(rates)-1], spinBefore, spinAfter)
	fmt.Fprintf(log, "host factor by round (1 = quiet reference host): %s;  ops_per_s as the clock saw it: second-best %.1f\n",
		strings.Join(hosts, " "), secondBest(raw, "higher"))
}
