package main

import (
	"context"
	"math"
	"os"
	"runtime"
	"runtime/debug"
	"sort"
	"strconv"
	"strings"
	"sync"
	"syscall"
	"time"

	"dex/internal/idebench"
	"dex/internal/metrics"
	"dex/internal/server"
)

// opResult is what one op did. An op that was not answered has no latency:
// it is counted, never averaged in.
type opResult struct {
	outcome idebench.Outcome
	lat     time.Duration
	res     *server.QueryResult // aggregate ops: the small result, scored after the round
	rows    int                 // row ops: what came back, digested on arrival
	digest  uint64
	relErr  float64 // filled by verify
	wrong   bool    // filled by verify
}

// roundResult is one round as the clock saw it, plus the host factor each
// session ran under (cal.go); the normalised views below divide by it.
type roundResult struct {
	ops     [][]opResult    // [session][op]
	insight []time.Duration // per session: start to the insight op's completion (0 = never)
	took    []time.Duration // per session: create to end
	host    []float64       // per session: 1 on the quiet reference host
	client  []int           // per session: which client played it
	wall    time.Duration   // first send to last answer, calibration pauses taken out
	cpu     time.Duration   // process CPU, the calibration's own taken out
	alloc   uint64
	bytes   int64
}

// samplesPerRound is how often each client stops to price the host: before
// its first session, after its last, and in between so that about this many
// stretches of sessions each get a factor of their own. The host's state
// moves within a round; a factor from before and after it alone missed that
// by 10 % a round.
const samplesPerRound = 6

// runRound plays the sessions through svc, closed loop: client c owns
// sessions c, c+clients, ... and sends its next op when the previous one
// returns. Every few sessions a client runs the calibration kernel; the
// sessions between two samples take the mean of the two as their host
// factor. extra, if set, edits each request (the traced run asks for the
// server's span tree to price it).
func runRound(svc *service, sessions []session, w workload, cal *calibration, extra func(*server.QueryRequest)) roundResult {
	n := len(sessions)
	r := roundResult{
		ops: make([][]opResult, n), insight: make([]time.Duration, n),
		took: make([]time.Duration, n), host: make([]float64, n), client: make([]int, n),
	}
	every := (n/w.clients + samplesPerRound - 1) / samplesPerRound
	if every < 1 {
		every = 1
	}
	pauses := make([]time.Duration, w.clients) // kernel time plus any wait for the other client's sample
	kernel := make([]time.Duration, w.clients)
	ctx := context.Background()
	var ms0, ms1 runtime.MemStats
	runtime.ReadMemStats(&ms0)
	bytes0, cpu0, start := svc.bytes.Load(), cpuTime(), time.Now()
	var wg sync.WaitGroup
	for c := 0; c < w.clients; c++ {
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			var stretch []int // sessions since the last sample
			sample := func(before float64) float64 {
				t0 := time.Now()
				after := cal.sample()
				pauses[c] += time.Since(t0)
				if cal != nil {
					kernel[c] += time.Duration(after * calReferenceMS * float64(time.Millisecond))
				}
				for _, s := range stretch {
					r.host[s] = (before + after) / 2
				}
				stretch = stretch[:0]
				return after
			}
			factor := sample(0)
			for s := c; s < n; s += w.clients {
				if len(stretch) == every {
					factor = sample(factor)
				}
				t0 := time.Now()
				r.ops[s], r.insight[s] = runSession(ctx, svc.client, sessions[s], w, extra)
				r.took[s], r.client[s] = time.Since(t0), c
				stretch = append(stretch, s)
			}
			sample(factor)
		}(c)
	}
	wg.Wait()
	r.wall, r.cpu, r.bytes = time.Since(start), cpuTime()-cpu0, svc.bytes.Load()-bytes0
	runtime.ReadMemStats(&ms1)
	r.alloc = ms1.TotalAlloc - ms0.TotalAlloc
	// The kernel is single-threaded, so it costs its own length in CPU; the
	// round loses its clients' mean pause in wall time.
	for c := range pauses {
		r.cpu -= kernel[c]
		r.wall -= pauses[c] / time.Duration(w.clients)
	}
	return r
}

func runSession(ctx context.Context, cl *server.Client, sess session, w workload, extra func(*server.QueryRequest)) ([]opResult, time.Duration) {
	ops := make([]opResult, len(sess.sqls))
	var insight time.Duration
	start := time.Now()
	sid, err := cl.CreateSession(ctx)
	if err != nil {
		// The session is lost: each of its ops lands in the create
		// failure's bucket.
		for i := range ops {
			ops[i].outcome = idebench.Classify(nil, err, 0, deadline)
		}
		return ops, 0
	}
	for i, sql := range sess.sqls {
		req := server.QueryRequest{SQL: sql, Mode: w.mode, TimeoutMS: deadline.Milliseconds()}
		if extra != nil {
			extra(&req)
		}
		t0 := time.Now()
		res, qerr := cl.Query(ctx, sid, req)
		lat := time.Since(t0)
		op := opResult{outcome: idebench.Classify(res, qerr, lat, deadline)}
		if op.outcome.Answered() {
			op.lat = lat
			if w.fetch {
				op.rows, op.digest = len(res.Rows), digestRows(res.Rows, strings.Contains(sql, " ORDER BY "))
			} else {
				res.Trace = nil
				op.res = res
			}
		}
		ops[i] = op
		if i == sess.insight && op.outcome.Answered() {
			insight = time.Since(start)
		}
	}
	cl.EndSession(ctx, sid) // the round replaces the whole server; a lost end costs nothing
	return ops, insight
}

// verify scores every answered op of r against the oracle. An exact
// workload's answer must match; an online answer — and a degraded one
// anywhere — is an estimate and is scored by its relative error.
func verify(r *roundResult, sessions []session, oracle map[string]answer) {
	for s := range r.ops {
		for i := range r.ops[s] {
			op := &r.ops[s][i]
			if !op.outcome.Answered() {
				continue
			}
			want := oracle[sessions[s].sqls[i]]
			if want.isRows {
				op.wrong = op.rows != want.rows || op.digest != want.digest
			} else {
				var exact bool
				op.relErr, exact = want.score(resultGroups(op.res))
				estimate := op.res.Degraded || op.res.Mode == "online" || op.res.Mode == "approx"
				op.wrong = !exact && !estimate
			}
			if op.wrong {
				op.relErr = 1
			}
			op.res = nil
		}
	}
}

// tally is a workload's outcome accounting over all timed rounds.
type tally struct {
	attempted int
	byOutcome map[string]int
	wrong     int
	inBudget  int     // answered correctly and exactly, within the deadline
	errSum    float64 // capped relative error; 1 for an op with no usable answer
}

// failed counts the ops that produced no correct answer: refused, lost,
// errored, timed out, or wrong. Late and degraded answers are answers; they
// miss the budget but did not fail.
func (t tally) failed() int {
	n := t.wrong
	for name, c := range t.byOutcome {
		switch name {
		case "ok", "late", "degraded":
		default:
			n += c
		}
	}
	return n
}

func (t *tally) add(r roundResult) {
	if t.byOutcome == nil {
		t.byOutcome = map[string]int{}
	}
	for _, sess := range r.ops {
		for _, op := range sess {
			t.attempted++
			t.byOutcome[op.outcome.String()]++
			switch {
			case !op.outcome.Answered():
				t.errSum++
			case op.wrong:
				t.wrong++
				t.errSum++
			default:
				t.errSum += op.relErr
				if op.outcome == idebench.OutcomeOK {
					t.inBudget++
				}
			}
		}
	}
}

// latenciesMS lists the latency of every answered op of r in reference-host
// milliseconds, or, with raw set, as the clock saw it.
func (r roundResult) latenciesMS(raw bool) []float64 {
	var out []float64
	for s, sess := range r.ops {
		for _, op := range sess {
			if op.outcome.Answered() {
				ms := float64(op.lat) / float64(time.Millisecond)
				if !raw {
					ms /= r.host[s]
				}
				out = append(out, ms)
			}
		}
	}
	return out
}

// normalised is the round's wall time and mean host factor in
// reference-host terms: each session's time divided by its factor, summed
// per client; the slowest client is the round.
func (r roundResult) normalised() (wall time.Duration, host float64) {
	perClient := map[int]float64{}
	var took, scaled float64
	for s := range r.took {
		perClient[r.client[s]] += float64(r.took[s]) / r.host[s]
		took += float64(r.took[s])
		scaled += float64(r.took[s]) / r.host[s]
	}
	var slowest float64
	for _, t := range perClient {
		slowest = math.Max(slowest, t)
	}
	return time.Duration(slowest), took / scaled
}

func (r roundResult) numOps() int {
	n := 0
	for _, sess := range r.ops {
		n += len(sess)
	}
	return n
}

// secondBest picks the round a timing metric reports. Interference from
// the host only ever adds time, so the best rounds are the closest to the
// program's own cost; the very best is left out as the one most likely to
// be a fluke of scheduling.
func secondBest(perRound []float64, better string) float64 {
	s := append([]float64(nil), perRound...)
	sort.Float64s(s)
	if better == "higher" {
		for i, j := 0, len(s)-1; i < j; i, j = i+1, j-1 {
			s[i], s[j] = s[j], s[i]
		}
	}
	if len(s) < 2 {
		return s[0]
	}
	return s[1]
}

// endToEndMetrics folds the timed rounds into the end-to-end metrics,
// setup_s and rss_peak_mb aside. Times are in reference-host milliseconds.
func endToEndMetrics(rounds []roundResult, t tally) map[string]float64 {
	per := map[string][]float64{}
	var alloc, bytes float64
	for _, r := range rounds {
		lat := r.latenciesMS(false)
		ops := float64(r.numOps())
		wall, host := r.normalised()
		per["op_p50_ms"] = append(per["op_p50_ms"], metrics.Quantile(lat, 0.5))
		per["op_p95_ms"] = append(per["op_p95_ms"], metrics.Quantile(lat, 0.95))
		per["ops_per_s"] = append(per["ops_per_s"], ops/wall.Seconds())
		per["cpu_ms_per_op"] = append(per["cpu_ms_per_op"], float64(r.cpu)/float64(time.Millisecond)/ops/host)
		var ins []float64
		for s, d := range r.insight {
			if d > 0 {
				ins = append(ins, float64(d)/float64(time.Millisecond)/r.host[s])
			}
		}
		per["insight_p50_ms"] = append(per["insight_p50_ms"], metrics.Quantile(ins, 0.5))
		alloc += float64(r.alloc)
		bytes += float64(r.bytes)
	}
	out := map[string]float64{}
	for _, def := range endToEnd {
		if vals, ok := per[def.name]; ok {
			out[def.name] = secondBest(vals, def.better)
		}
	}
	n := float64(t.attempted)
	out["in_budget_frac"] = float64(t.inBudget) / n
	out["answer_accuracy"] = 1 - t.errSum/n
	out["alloc_kb_per_op"] = alloc / 1024 / n
	out["resp_kb_per_op"] = bytes / 1024 / n
	return out
}

// cpuTime is the process's user+system CPU time so far.
func cpuTime() time.Duration {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
}

// resetRSSPeak hands freed memory back to the system and restarts the
// kernel's high-water mark of resident memory, so that what rssPeakMB reads
// at exit is the peak while serving, not the benchmark's own table building.
// Where /proc/self/clear_refs cannot be written the mark stays the lifetime's.
func resetRSSPeak() error {
	debug.FreeOSMemory()
	return os.WriteFile("/proc/self/clear_refs", []byte("5"), 0)
}

// rssPeakMB is the process's peak resident set (VmHWM), in MB.
func rssPeakMB() float64 {
	buf, err := os.ReadFile("/proc/self/status")
	if err != nil {
		return 0
	}
	for _, line := range strings.Split(string(buf), "\n") {
		if rest, ok := strings.CutPrefix(line, "VmHWM:"); ok {
			kb, _ := strconv.ParseFloat(strings.TrimSpace(strings.TrimSuffix(strings.TrimSpace(rest), "kB")), 64)
			return kb / 1024
		}
	}
	return 0
}
