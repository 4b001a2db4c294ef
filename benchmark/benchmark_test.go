package main

import (
	"encoding/json"
	"io"
	"math"
	"os"
	"regexp"
	"sort"
	"strings"
	"testing"

	"dex/internal/exec"
	"dex/internal/server"
	"dex/internal/sqlparse"
	"dex/internal/storage"
)

// No test here asserts a time: they ride the repository's tier-1 run on
// whatever host that is.

func quickConfig(t *testing.T) runConfig {
	return runConfig{seed: 7, rounds: 2, setupReps: 1, traceDir: t.TempDir(), log: io.Discard}
}

// Same seed, byte-identical op sequence; another seed, another sequence.
func TestOpSequenceIsAFunctionOfTheSeed(t *testing.T) {
	for _, w := range workloads {
		w := quick(w)
		text := func(seed int64) string {
			tgt, err := newTarget(w, seed)
			if err != nil {
				t.Fatal(err)
			}
			defer tgt.close()
			return formatSessions(buildSessions(w, tgt, seed))
		}
		a, b, c := text(7), text(7), text(8)
		if a != b {
			t.Errorf("%s: seed 7 gave two different op sequences", w.name)
		}
		if a == c {
			t.Errorf("%s: seeds 7 and 8 gave the same op sequence", w.name)
		}
		if n := strings.Count(a, "\n"); n != w.sessions*opsPerSession {
			t.Errorf("%s: %d ops, want %d", w.name, n, w.sessions*opsPerSession)
		}
	}
}

// fleet_explore replays explore_exact's ops, so their difference is the wire.
func TestFleetReplaysExploreExact(t *testing.T) {
	exact, _ := workloadByName("explore_exact")
	fleet, _ := workloadByName("fleet_explore")
	a := formatSessions(exploreSessions(fleet.sessions, exact.mix, 7))
	b := formatSessions(exploreSessions(fleet.sessions, fleet.mix, 7))
	if a != b {
		t.Error("fleet_explore and explore_exact generate different sessions from one seed")
	}
}

// A 20k-row pass of every workload, both modes: no op fails, and the
// metrics printed are exactly the ones BENCHMARK.json promises.
func TestQuickPass(t *testing.T) {
	for _, w := range workloads {
		for _, mode := range []struct {
			name string
			run  func(workload, runConfig) (result, error)
			defs []metricDef
		}{{"measure", measure, endToEnd}, {"trace", traceWorkload, perLayer}} {
			res, err := mode.run(quick(w), quickConfig(t))
			if err != nil {
				t.Fatalf("%s %s: %v", w.name, mode.name, err)
			}
			if !res.Correct || res.Failed != 0 || res.Attempted == 0 {
				t.Errorf("%s %s: correct=%v attempted=%d failed=%d", w.name, mode.name, res.Correct, res.Attempted, res.Failed)
			}
			var got, want []string
			for name := range res.Metrics {
				got = append(got, name)
			}
			for _, def := range mode.defs {
				want = append(want, def.name)
				if res.Metrics[def.name].Unit != def.unit {
					t.Errorf("%s %s: %s has unit %q, want %q", w.name, mode.name, def.name, res.Metrics[def.name].Unit, def.unit)
				}
			}
			sort.Strings(got)
			sort.Strings(want)
			if strings.Join(got, " ") != strings.Join(want, " ") {
				t.Errorf("%s %s: metrics\n got %v\nwant %v", w.name, mode.name, got, want)
			}
			if mode.name == "measure" && w.mode != "online" && res.Metrics["answer_accuracy"].Value != 1 {
				t.Errorf("%s: answer_accuracy %v, want exactly 1", w.name, res.Metrics["answer_accuracy"].Value)
			}
		}
	}
}

// The tables in spec.go and BENCHMARK.json say the same thing.
func TestSpecMatchesBenchmarkJSON(t *testing.T) {
	buf, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	type metric struct {
		Name, Unit, Better string
		Bound              float64
	}
	var file struct {
		Workloads []struct{ Name, Why string }
		EndToEnd  []metric `json:"end_to_end"`
		PerLayer  []metric `json:"per_layer"`
	}
	if err := json.Unmarshal(buf, &file); err != nil {
		t.Fatal(err)
	}
	nameRe := regexp.MustCompile(`^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$`)
	unitRe := regexp.MustCompile(`^[A-Za-z0-9_/%.-]{1,16}$`)
	if len(file.Workloads) != len(workloads) {
		t.Fatalf("%d workloads in BENCHMARK.json, %d in spec.go", len(file.Workloads), len(workloads))
	}
	for i, w := range file.Workloads {
		if w.Name != workloads[i].name || !nameRe.MatchString(w.Name) {
			t.Errorf("workload %d: %q in BENCHMARK.json, %q in spec.go", i, w.Name, workloads[i].name)
		}
		if w.Why == "" || len(w.Why) > 200 || strings.Contains(w.Why, "\n") {
			t.Errorf("workload %s: why must be one line of at most 200 characters", w.Name)
		}
	}
	check := func(kind string, got []metric, want []metricDef) {
		if len(got) != len(want) {
			t.Fatalf("%s: %d metrics in BENCHMARK.json, %d in spec.go", kind, len(got), len(want))
		}
		for i, m := range got {
			if (m != metric{want[i].name, want[i].unit, want[i].better, want[i].bound}) {
				t.Errorf("%s %d: %+v in BENCHMARK.json, %+v in spec.go", kind, i, m, want[i])
			}
			if !nameRe.MatchString(m.Name) || !unitRe.MatchString(m.Unit) {
				t.Errorf("%s: %q (%q) is not a valid name and unit", kind, m.Name, m.Unit)
			}
		}
	}
	check("end_to_end", file.EndToEnd, endToEnd)
	check("per_layer", file.PerLayer, perLayer)
}

// The oracle is the benchmark's own code because the generic operator is
// too slow to answer a run's statements; here, where the table is small,
// the generic sequential exec.Execute on the plain table checks the oracle.
func TestOracleAgreesWithGenericExecute(t *testing.T) {
	for _, w := range workloads {
		w := quick(w)
		tgt, err := newTarget(w, 7)
		if err != nil {
			t.Fatal(err)
		}
		sessions := buildSessions(w, tgt, 7)
		oracle, err := buildOracle(tgt, sessions)
		if err != nil {
			t.Fatal(err)
		}
		for _, sql := range distinctSQL(sessions) {
			st, err := sqlparse.Parse(sql)
			if err != nil {
				t.Fatal(err)
			}
			ref, err := exec.Execute(tgt.plain, sqlparse.ExpandStar(st.Query, tgt.plain.Schema()))
			if err != nil {
				t.Fatalf("%s: %v", sql, err)
			}
			wire := asWire(ref)
			want := oracle[sql]
			if want.isRows {
				ordered := strings.Contains(sql, " ORDER BY ")
				if len(wire.Rows) != want.rows || digestRows(wire.Rows, ordered) != want.digest {
					t.Errorf("%s %q: oracle has %d rows, generic Execute %d, or the rows differ", w.name, sql, want.rows, len(wire.Rows))
				}
			} else if relErr, exact := want.score(resultGroups(wire)); !exact {
				t.Errorf("%s %q: oracle %v, generic Execute %v (rel. err %g)", w.name, sql, want.groups, resultGroups(wire), relErr)
			}
		}
		tgt.close()
	}
}

// asWire renders a table the way a client sees it after JSON: every number
// a float64, NULL (NaN) a nil.
func asWire(t *storage.Table) *server.QueryResult {
	res := &server.QueryResult{}
	for _, f := range t.Schema() {
		res.Columns = append(res.Columns, f.Name)
	}
	for r := 0; r < t.NumRows(); r++ {
		row := make([]any, t.NumCols())
		for c := range row {
			switch v := t.Column(c).Value(r); {
			case v.Typ == storage.TString:
				row[c] = v.S
			case !math.IsNaN(v.AsFloat()):
				row[c] = v.AsFloat()
			}
		}
		res.Rows = append(res.Rows, row)
	}
	return res
}

// A wrong answer must be seen: perturb one oracle entry of each kind and the
// op that asked for it is counted wrong and failed.
func TestWrongAnswerIsCounted(t *testing.T) {
	for _, name := range []string{"explore_exact", "fetch_rows"} {
		w, _ := workloadByName(name)
		w = quick(w)
		tgt, err := newTarget(w, 7)
		if err != nil {
			t.Fatal(err)
		}
		sessions := buildSessions(w, tgt, 7)
		oracle, err := buildOracle(tgt, sessions)
		if err != nil {
			t.Fatal(err)
		}
		sql := sessions[0].sqls[1]
		bad := oracle[sql]
		bad.digest++
		bad.groups = map[string]float64{"nowhere": 1}
		oracle[sql] = bad
		svc, err := tgt.newService()
		if err != nil {
			t.Fatal(err)
		}
		r := runRound(svc, sessions, w, nil, nil)
		svc.close()
		tgt.close()
		verify(&r, sessions, oracle)
		var tl tally
		tl.add(r)
		if tl.wrong == 0 || tl.failed() != tl.wrong || tl.inBudget > tl.attempted-tl.wrong {
			t.Errorf("%s: wrong=%d failed=%d in-budget=%d of %d", name, tl.wrong, tl.failed(), tl.inBudget, tl.attempted)
		}
	}
}

func TestQuartilesArePythonsExclusiveMethod(t *testing.T) {
	// statistics.quantiles([1, 2, ..., 10], n=4) == [2.75, 5.5, 8.25]
	q1, q2, q3 := quartiles([]float64{10, 1, 9, 2, 8, 3, 7, 4, 6, 5})
	if q1 != 2.75 || q2 != 5.5 || q3 != 8.25 {
		t.Errorf("quartiles = %v %v %v, want 2.75 5.5 8.25", q1, q2, q3)
	}
	// statistics.quantiles([3, 1, 2], n=4) == [1.0, 2.0, 3.0]
	if q1, q2, q3 := quartiles([]float64{3, 1, 2}); q1 != 1 || q2 != 2 || q3 != 3 {
		t.Errorf("quartiles = %v %v %v, want 1 2 3", q1, q2, q3)
	}
}

func TestSecondBest(t *testing.T) {
	if got := secondBest([]float64{5, 3, 9, 4}, "lower"); got != 4 {
		t.Errorf("second-lowest = %v, want 4", got)
	}
	if got := secondBest([]float64{5, 3, 9, 4}, "higher"); got != 5 {
		t.Errorf("second-highest = %v, want 5", got)
	}
}
