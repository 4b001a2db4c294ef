package idebench

import (
	"context"
	"errors"
	"testing"
	"time"

	"dex/internal/server"
)

// The deadline-accounting contract, pinned down case by case. The one the
// issue singles out: a degraded:true answer — the server hit the deadline
// and substituted a sampled approximation — counts against
// quality-at-deadline, NOT as a deadline violation, even when it arrived
// after the client-side deadline.
func TestClassifyTable(t *testing.T) {
	d := 100 * time.Millisecond
	cases := []struct {
		name     string
		res      *server.QueryResult
		err      error
		elapsed  time.Duration
		want     Outcome
		violates bool
	}{
		{"fast exact answer", &server.QueryResult{Mode: "exact"}, nil, 20 * time.Millisecond, OutcomeOK, false},
		{"cached answer", &server.QueryResult{Mode: "exact", Cached: true}, nil, time.Millisecond, OutcomeOK, false},
		{"late answer", &server.QueryResult{Mode: "exact"}, nil, 150 * time.Millisecond, OutcomeLate, true},
		{"degraded in time", &server.QueryResult{Mode: "approx", Degraded: true}, nil, 90 * time.Millisecond, OutcomeDegraded, false},
		{"degraded past deadline", &server.QueryResult{Mode: "approx", Degraded: true}, nil, 130 * time.Millisecond, OutcomeDegraded, false},
		{"server timeout", nil, &server.StatusError{Status: 504, Message: "deadline"}, 110 * time.Millisecond, OutcomeTimeout, true},
		{"load shed", nil, &server.RejectedError{Status: 429}, 5 * time.Millisecond, OutcomeRejected, false},
		{"transport failure", nil, &server.TransportError{Op: "POST", Err: errors.New("refused")}, time.Millisecond, OutcomeTransport, false},
		{"bad query", nil, &server.StatusError{Status: 400, Message: "parse"}, time.Millisecond, OutcomeFailed, false},
		{"internal error", nil, &server.StatusError{Status: 500, Message: "boom"}, time.Millisecond, OutcomeFailed, false},
		{"untyped error", nil, errors.New("mystery"), time.Millisecond, OutcomeUnclassified, false},
		{"no deadline never late", &server.QueryResult{Mode: "exact"}, nil, time.Hour, OutcomeOK, false},
	}
	for _, tc := range cases {
		dl := d
		if tc.name == "no deadline never late" {
			dl = 0
		}
		got := Classify(tc.res, tc.err, tc.elapsed, dl)
		if got != tc.want {
			t.Errorf("%s: got %s, want %s", tc.name, got, tc.want)
		}
		if got.Violation() != tc.violates {
			t.Errorf("%s: violation=%v, want %v", tc.name, got.Violation(), tc.violates)
		}
	}
	// Degraded answers are quality-scored: they must read as answered.
	if !OutcomeDegraded.Answered() {
		t.Fatalf("degraded answers must count as answered")
	}
}

func startTestServer(t *testing.T, rows int) *Local {
	t.Helper()
	l, err := StartLocal(LocalConfig{Rows: rows, Seed: 1})
	if err != nil {
		t.Fatalf("start local server: %v", err)
	}
	t.Cleanup(l.Close)
	return l
}

// End-to-end smoke: a small concurrent run against an in-process dexd.
// Every issued op lands in exactly one bucket, latency quantiles are
// populated, and nothing is unclassified.
func TestDriverSmoke(t *testing.T) {
	l := startTestServer(t, 8000)
	cl := server.NewClient(l.URL)
	cfg := Config{
		Users:    3,
		Seed:     42,
		Mode:     "exact",
		Deadline: 2 * time.Second,
		User:     UserConfig{Ops: 6},
		// Closed loop: think time off to keep the test fast.
		ThinkScale: 0,
	}
	rep, err := Run(context.Background(), cl, cfg)
	if err != nil {
		t.Fatalf("run: %v", err)
	}
	if want := int64(3 * 6); rep.Issued != want {
		t.Fatalf("issued %d, want %d", rep.Issued, want)
	}
	sum := rep.OK + rep.Degraded + rep.Late + rep.Timeout + rep.Rejected +
		rep.Transport + rep.Failed + rep.Unclassified
	if sum != rep.Issued {
		t.Fatalf("outcome buckets sum to %d, issued %d", sum, rep.Issued)
	}
	if rep.Unclassified != 0 {
		t.Fatalf("%d unclassified outcomes", rep.Unclassified)
	}
	if rep.Failed != 0 {
		t.Fatalf("%d failed queries — generated SQL the server rejects?", rep.Failed)
	}
	if rep.OK == 0 {
		t.Fatalf("no query succeeded: %+v", rep)
	}
	if rep.P95MS <= 0 || rep.TTIMeanS <= 0 {
		t.Fatalf("latency/TTI not populated: p95=%v tti=%v", rep.P95MS, rep.TTIMeanS)
	}
}

// A healthy server answers every op; a draining one refuses session
// creation with 503, and the run must count every op each user would have
// issued as shed — rejected, not failed and not unclassified.
func TestDriverClassifiesShedding(t *testing.T) {
	const users, ops = 3, 4
	for _, tc := range []struct {
		name         string
		drain        bool
		ok, rejected int64
	}{
		{name: "healthy", ok: users * ops},
		{name: "draining", drain: true, rejected: users * ops},
	} {
		t.Run(tc.name, func(t *testing.T) {
			l := startTestServer(t, 2_000)
			if tc.drain {
				if err := l.Server.Drain(context.Background()); err != nil {
					t.Fatal(err)
				}
			}
			rep, err := Run(context.Background(), server.NewClient(l.URL), Config{
				Users:      users,
				Seed:       1,
				Deadline:   2 * time.Second,
				ThinkScale: 0,
				User:       UserConfig{Ops: ops},
			})
			if err != nil {
				t.Fatalf("run: %v", err)
			}
			if rep.OK != tc.ok || rep.Rejected != tc.rejected || rep.Failed != 0 || rep.Unclassified != 0 {
				t.Fatalf("report = %+v, want ok=%d rejected=%d failed=0 unclassified=0",
					rep, tc.ok, tc.rejected)
			}
		})
	}
}

// Approximate modes must produce a quality-at-deadline score: the oracle
// re-resolves the estimates exactly, and the mean relative error lands in
// [0, 1] with at least one scored answer.
func TestDriverQualityApprox(t *testing.T) {
	l := startTestServer(t, 20000)
	cl := server.NewClient(l.URL)
	rep, err := Run(context.Background(), cl, Config{
		Users:      2,
		Seed:       7,
		Mode:       "approx",
		Deadline:   2 * time.Second,
		ThinkScale: 0,
		User:       UserConfig{Ops: 8},
	})
	if err != nil {
		t.Fatalf("run: %v", err)
	}
	if rep.QualityN == 0 {
		t.Fatalf("no answers quality-scored: %+v", rep)
	}
	if rep.QualityMeanRelErr < 0 || rep.QualityMeanRelErr > 1 {
		t.Fatalf("quality mean rel err %v outside [0,1]", rep.QualityMeanRelErr)
	}
	// A 1% uniform sample over 20k rows estimates sum/avg well; grossly
	// wrong estimates mean the oracle matched the wrong columns.
	if rep.QualityMeanRelErr > 0.6 {
		t.Fatalf("quality mean rel err %v implausibly bad", rep.QualityMeanRelErr)
	}
}

// Predictor-driven warming must lift the pan cache hit-rate over the
// identical seeded run without it. Pan viewports move to fresh windows
// almost every step, so without warming the result cache nearly never
// hits on a pan; with the trajectory predictor warming the likely next
// windows during think time, a straight-moving user finds their next
// viewport already cached.
func TestDriverPrefetchWarmsCache(t *testing.T) {
	l := startTestServer(t, 8000)
	run := func(warm bool) *Report {
		cl := server.NewClient(l.URL)
		rep, err := Run(context.Background(), cl, Config{
			Users:          2,
			Seed:           13,
			Mode:           "exact",
			Deadline:       2 * time.Second,
			ThinkScale:     1,
			Prefetch:       warm,
			PrefetchBudget: 3,
			User: UserConfig{
				Ops: 14,
				Mix: Mix{Pan: 1},
				// Enough think time for the async warmer to land the
				// predicted window before the user asks for it.
				ThinkMean: 40 * time.Millisecond,
			},
		})
		if err != nil {
			t.Fatalf("run(warm=%v): %v", warm, err)
		}
		if rep.PanQueries == 0 {
			t.Fatalf("pan-only session issued no pan queries")
		}
		return rep
	}
	off := run(false)
	on := run(true)
	if on.WarmIssued == 0 {
		t.Fatalf("warming enabled but no warm queries issued")
	}
	if on.PanHitRate <= off.PanHitRate {
		t.Fatalf("prefetch did not lift pan hit-rate: off=%.2f on=%.2f (warmed %d)",
			off.PanHitRate, on.PanHitRate, on.WarmIssued)
	}
}

// The prefetch on/off comparison drives the same seed twice — the traces
// must be identical, so differences in outcome are attributable to
// warming alone.
func TestDriverSameSeedSameTrace(t *testing.T) {
	cfg := UserConfig{Ops: 10}
	for u := 0; u < 3; u++ {
		a := NewTrace(cfg, 99+int64(u)).Format()
		b := NewTrace(cfg, 99+int64(u)).Format()
		if a != b {
			t.Fatalf("user %d trace not reproducible", u)
		}
	}
}
