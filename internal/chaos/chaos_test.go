package chaos

import (
	"os"
	"strconv"
	"strings"
	"testing"
	"time"
)

// seeds returns the seed matrix: the default {1,2,3}, or the single seed
// in DEX_CHAOS_SEED — the knob CI's matrix (and anyone replaying a failed
// run) uses.
func seeds(t *testing.T) []int64 {
	if v := os.Getenv("DEX_CHAOS_SEED"); v != "" {
		s, err := strconv.ParseInt(v, 10, 64)
		if err != nil {
			t.Fatalf("bad DEX_CHAOS_SEED %q: %v", v, err)
		}
		return []int64{s}
	}
	return []int64{1, 2, 3}
}

// schedule is the standing chaos mix: scan latency to stretch queries (and
// force deadline overruns), admission sheds, flaky transport, a lossy
// cache, and rare handler faults. The scan latency arms first — it is what
// keeps the run alive long enough for the later windows to overlap real
// traffic (an unfaulted run over 10k rows finishes in ~20ms).
func schedule() []FaultEvent {
	return []FaultEvent{
		{At: 0, Site: "exec/scan", Spec: "latency(30ms,0.6)", For: 900 * time.Millisecond},
		{At: 0, Site: "cache/get", Spec: "error(0.5)"},
		{At: 5 * time.Millisecond, Site: "server/admit", Spec: "error(0.25)", For: 700 * time.Millisecond},
		{At: 10 * time.Millisecond, Site: "client/transport", Spec: "error(0.15)", For: 600 * time.Millisecond},
		{At: 15 * time.Millisecond, Site: "server/handler", Spec: "error(0.05)"},
	}
}

// TestChaosInvariants replays seeded exploration sessions under the
// standing fault schedule and requires a clean verdict for every seed:
// no goroutine leaks, every query classified, no untyped errors.
func TestChaosInvariants(t *testing.T) {
	for _, seed := range seeds(t) {
		seed := seed
		t.Run("seed="+strconv.FormatInt(seed, 10), func(t *testing.T) {
			rep, err := Run(Config{
				Seed:             seed,
				Clients:          3,
				QueriesPerClient: 8,
				Rows:             10_000,
				Timeout:          120 * time.Millisecond,
				Faults:           schedule(),
			})
			if err != nil {
				t.Fatal(err)
			}
			if len(rep.Violations) != 0 {
				t.Fatalf("chaos violations:\n  %s", strings.Join(rep.Violations, "\n  "))
			}
			if rep.Issued == 0 {
				t.Fatal("no queries issued")
			}
			// The run must not be vacuous: faults actually fired.
			var fires int64
			for _, st := range rep.FaultStats {
				fires += st.Fires
			}
			if fires == 0 {
				t.Fatalf("schedule armed but nothing fired: %+v", rep.FaultStats)
			}
			t.Logf("seed %d: issued=%d outcomes=%+v fires=%d", seed, rep.Issued, rep.Outcomes, fires)
		})
	}
}

// TestChaosCrackedMode sends the traffic through the adaptive-index path
// while faults fire in the seam this mode adds: the crack write-lock
// escalation. The invariants
// are the same — every query classified, no leaks — plus the adaptive
// index must not be corrupted: faults there fail individual queries, never
// future ones (a poisoned index would turn later queries into untyped
// wrong answers or hangs). An edge bucket gets its cracker on its third
// touch, so each client asks 24 statements: enough drill-downs come back
// to a bucket for the escalation seam to be hit many times, not only once
// or twice.
func TestChaosCrackedMode(t *testing.T) {
	for _, seed := range seeds(t) {
		seed := seed
		t.Run("seed="+strconv.FormatInt(seed, 10), func(t *testing.T) {
			faults := append(schedule(),
				FaultEvent{At: 0, Site: "crack/escalate", Spec: "error(0.2)"},
			)
			rep, err := Run(Config{
				Seed:             seed,
				Clients:          3,
				QueriesPerClient: 24,
				Rows:             10_000,
				Mode:             "cracked",
				Timeout:          120 * time.Millisecond,
				Faults:           faults,
			})
			if err != nil {
				t.Fatal(err)
			}
			if len(rep.Violations) != 0 {
				t.Fatalf("chaos violations:\n  %s", strings.Join(rep.Violations, "\n  "))
			}
			if rep.Issued == 0 {
				t.Fatal("no queries issued")
			}
			var fires int64
			for _, st := range rep.FaultStats {
				fires += st.Fires
			}
			if fires == 0 {
				t.Fatalf("schedule armed but nothing fired: %+v", rep.FaultStats)
			}
			if rep.FaultStats["crack/escalate"].Hits == 0 {
				t.Fatalf("no probe reached the crack escalation seam: %+v", rep.FaultStats)
			}
			t.Logf("seed %d: issued=%d outcomes=%+v fires=%d", seed, rep.Issued, rep.Outcomes, fires)
		})
	}
}

// TestChaosKernelEncoded fires faults in the pipeline's compile-time
// seams: kernel dispatch (per query, mid-run), the value index build (the
// first one fails its query, and a later query builds the index) and
// column encoding (setup phase, via a negative-At event — an injected
// encode error must fall back to the plain representation and the load
// must still succeed). The standing invariants apply unchanged: every
// query classified, no leaks, faults actually fired.
func TestChaosKernelEncoded(t *testing.T) {
	for _, seed := range seeds(t) {
		seed := seed
		t.Run("seed="+strconv.FormatInt(seed, 10), func(t *testing.T) {
			faults := append(schedule(),
				FaultEvent{At: -1, Site: "storage/segment-encode", Spec: "error"},
				FaultEvent{At: 0, Site: "exec/kernel-dispatch", Spec: "error(0.2)"},
				// A table builds few indexes, so the first build fails
				// and a later query builds it.
				FaultEvent{At: 0, Site: "storage/index-build", Spec: "error-once"},
			)
			rep, err := Run(Config{
				Seed:             seed,
				Clients:          3,
				QueriesPerClient: 8,
				Rows:             10_000,
				Timeout:          120 * time.Millisecond,
				Faults:           faults,
			})
			if err != nil {
				t.Fatal(err)
			}
			if len(rep.Violations) != 0 {
				t.Fatalf("chaos violations:\n  %s", strings.Join(rep.Violations, "\n  "))
			}
			if rep.Issued == 0 {
				t.Fatal("no queries issued")
			}
			if st := rep.FaultStats["storage/segment-encode"]; st.Fires == 0 {
				t.Fatalf("setup-phase encode fault never fired: %+v", rep.FaultStats)
			}
			if st := rep.FaultStats["storage/index-build"]; st.Fires == 0 {
				t.Fatalf("index build fault never fired: %+v", rep.FaultStats)
			}
			var fires int64
			for _, st := range rep.FaultStats {
				fires += st.Fires
			}
			t.Logf("seed %d: issued=%d outcomes=%+v fires=%d", seed, rep.Issued, rep.Outcomes, fires)
		})
	}
}

// TestChaosShardFleet runs the chaos mix against a coordinator over an
// in-process worker fleet while the shard seams fault: flaky scatter
// RPCs, slow worker execution, and a mid-run hard kill of one worker.
// On top of the standing invariants, every distributed answer must obey
// the coverage contract — degraded strictly below 1, healthy exactly 1 —
// and after the kill the fleet must keep answering from survivors.
func TestChaosShardFleet(t *testing.T) {
	for _, seed := range seeds(t) {
		seed := seed
		t.Run("seed="+strconv.FormatInt(seed, 10), func(t *testing.T) {
			faults := []FaultEvent{
				{At: 0, Site: "exec/scan", Spec: "latency(10ms,0.3)", For: 900 * time.Millisecond},
				{At: 5 * time.Millisecond, Site: "shard/rpc", Spec: "error(0.15)", For: 600 * time.Millisecond},
				{At: 10 * time.Millisecond, Site: "shard/exec", Spec: "latency(40ms,0.2)", For: 500 * time.Millisecond},
			}
			rep, err := Run(Config{
				Seed:             seed,
				Clients:          3,
				QueriesPerClient: 10,
				Rows:             10_000,
				Timeout:          250 * time.Millisecond,
				Faults:           faults,
				Shards:           3,
				KillShardAt:      30 * time.Millisecond,
			})
			if err != nil {
				t.Fatal(err)
			}
			if len(rep.Violations) != 0 {
				t.Fatalf("chaos violations:\n  %s", strings.Join(rep.Violations, "\n  "))
			}
			if rep.Issued == 0 {
				t.Fatal("no queries issued")
			}
			// The kill must be visible: with a worker dead for most of the
			// run, some distributed answers must have degraded (complete
			// classification of them is already checked by Run).
			if rep.Outcomes.Degraded == 0 {
				t.Fatalf("shard killed but nothing degraded: %+v", rep.Outcomes)
			}
			var fires int64
			for _, st := range rep.FaultStats {
				fires += st.Fires
			}
			if fires == 0 {
				t.Fatalf("schedule armed but nothing fired: %+v", rep.FaultStats)
			}
			t.Logf("seed %d: issued=%d outcomes=%+v fires=%d", seed, rep.Issued, rep.Outcomes, fires)
		})
	}
}

// TestChaosFleetHeals is the kill→re-join soak: one worker is hard-killed
// mid-run and restarted blank while transport faults keep firing, with
// the coordinator's healer on. On top of the standing invariants (every
// query classified, goroutines settle), Run checks invariant 4: the fleet
// must return to exactly full coverage, so the report carries a non-empty
// heal ledger and coverage 1.
func TestChaosFleetHeals(t *testing.T) {
	for _, seed := range seeds(t) {
		seed := seed
		t.Run("seed="+strconv.FormatInt(seed, 10), func(t *testing.T) {
			faults := []FaultEvent{
				{At: 0, Site: "exec/scan", Spec: "latency(10ms,0.3)", For: 900 * time.Millisecond},
				{At: 5 * time.Millisecond, Site: "shard/rpc", Spec: "error(0.1)", For: 400 * time.Millisecond},
			}
			rep, err := Run(Config{
				Seed:             seed,
				Clients:          3,
				QueriesPerClient: 12,
				Rows:             10_000,
				Timeout:          250 * time.Millisecond,
				Faults:           faults,
				Shards:           3,
				KillShardAt:      30 * time.Millisecond,
				RestartShardAt:   250 * time.Millisecond,
				Heal:             true,
				HealInterval:     20 * time.Millisecond,
				RepartitionAfter: -1, // the worker comes back: restage, don't repartition
			})
			if err != nil {
				t.Fatal(err)
			}
			if len(rep.Violations) != 0 {
				t.Fatalf("chaos violations:\n  %s", strings.Join(rep.Violations, "\n  "))
			}
			if rep.Coverage != 1 {
				t.Fatalf("final coverage %v, want exactly 1", rep.Coverage)
			}
			var heals int64
			for _, n := range rep.Heals {
				heals += n
			}
			if heals == 0 {
				t.Fatalf("fleet healed with an empty heal ledger: %+v", rep.Heals)
			}
			t.Logf("seed %d: issued=%d outcomes=%+v heals=%v", seed, rep.Issued, rep.Outcomes, rep.Heals)
		})
	}
}

// TestChaosDrainMidRun adds invariant 3: a drain (the SIGTERM path)
// initiated while faults fire must complete with nothing in flight, and
// the clients must see clean 503s afterwards — all still classified.
func TestChaosDrainMidRun(t *testing.T) {
	for _, seed := range seeds(t) {
		seed := seed
		t.Run("seed="+strconv.FormatInt(seed, 10), func(t *testing.T) {
			rep, err := Run(Config{
				Seed:             seed,
				Clients:          3,
				QueriesPerClient: 10,
				Rows:             10_000,
				Timeout:          120 * time.Millisecond,
				Faults:           schedule(),
				DrainAt:          40 * time.Millisecond,
			})
			if err != nil {
				t.Fatal(err)
			}
			if len(rep.Violations) != 0 {
				t.Fatalf("chaos violations:\n  %s", strings.Join(rep.Violations, "\n  "))
			}
			if !rep.Drained {
				t.Fatal("drain did not complete")
			}
			if rep.Outcomes.Rejected == 0 {
				t.Fatalf("no post-drain rejections recorded: %+v", rep.Outcomes)
			}
		})
	}
}

// TestChaosDeterministicFiring: two runs with the same seed arm the same
// schedule against the same workload; per-site decision streams are
// hit-indexed (see fault.TestRateDeterminism), so the *decisions* coincide
// even though goroutine interleavings differ. Here we check the coarse,
// stable signature: the same sites fired in both runs.
func TestChaosDeterministicFiring(t *testing.T) {
	cfg := Config{
		Seed:             5,
		Clients:          2,
		QueriesPerClient: 6,
		Rows:             8_000,
		Timeout:          120 * time.Millisecond,
		Faults: []FaultEvent{
			{At: 0, Site: "exec/scan", Spec: "latency(30ms,0.5)"},
			{At: 0, Site: "cache/get", Spec: "error(0.5)"},
		},
	}
	first, err := Run(cfg)
	if err != nil {
		t.Fatal(err)
	}
	second, err := Run(cfg)
	if err != nil {
		t.Fatal(err)
	}
	for site := range first.FaultStats {
		if first.FaultStats[site].Fires > 0 && second.FaultStats[site].Fires == 0 {
			t.Errorf("site %s fired in run 1 but not run 2", site)
		}
	}
	for site := range second.FaultStats {
		if second.FaultStats[site].Fires > 0 && first.FaultStats[site].Fires == 0 {
			t.Errorf("site %s fired in run 2 but not run 1", site)
		}
	}
}
