package main

import (
	"fmt"
	"math/rand"
	"regexp"
	"strconv"
	"strings"

	"dex/internal/idebench"
)

// A session is one simulated user's fixed SQL sequence. insight is the op
// whose completion counts as "insight reached" (idebench's drill-down
// bottom, or the last op where a workload has no drill-down).
type session struct {
	sqls    []string
	insight int
}

// skeletonSeed fixes the shape of every session: which ops, in what order,
// around which focus, over which dimension. --seed then draws the table, the
// offset of every amount constant and the position of every fetch range —
// everything that makes two runs different inputs without making them
// different amounts of work. The reason is arithmetic: a round of ~250 ops
// drawn afresh per seed differed by 20-50 % in mean cost from seed to seed
// (explore_cracked's ops_per_s ran from 113 to 218), which no bound below
// that could tell from a regression. TPC-H does the same: fixed templates,
// substitution parameters drawn so that selectivity holds.
const skeletonSeed = 20150531

// amountRe finds the amount constants of a statement.
var amountRe = regexp.MustCompile(`amount (>=|<) ([0-9.]+)`)

// exploreSessions renders n idebench sessions with every amount bound moved
// by the seed's offset, one offset per run: within a run identical
// statements stay identical (the result cache still sees its natural hits),
// between runs no statement with a WHERE clause repeats. The offset is under
// half a unit on a column whose values spread over 15 units around each
// product's mean, so the row counts behind each op move by a percent or two.
// fleet_explore and explore_exact pass the same mix, so the shorter one runs
// a prefix of the longer one's op sequence.
func exploreSessions(n int, mix idebench.Mix, seed int64) []session {
	offset := rand.New(rand.NewSource(seed)).Float64() - 0.5
	shift := func(cond string) string {
		m := amountRe.FindStringSubmatch(cond)
		v, _ := strconv.ParseFloat(m[2], 64)
		return fmt.Sprintf("amount %s %.4f", m[1], v+offset)
	}
	out := make([]session, n)
	for s := range out {
		tr := idebench.NewTrace(idebench.UserConfig{Ops: opsPerSession, Mix: mix}, skeletonSeed+int64(s))
		sqls := make([]string, len(tr.Ops))
		for i, op := range tr.Ops {
			sqls[i] = amountRe.ReplaceAllStringFunc(op.SQL, shift)
		}
		out[s] = session{sqls: sqls, insight: tr.Insight}
	}
	return out
}

// fetchSessions renders row-fetch sessions over the amount column. Two of
// three ops project a range holding 300-3000 rows; every third asks for the
// top 100 by amount of a range holding about 10k rows. How many rows each op
// returns is part of the skeleton; where on the column its range sits is the
// seed's. Ranges are cut from sortedAmount (the column, sorted), so the row
// counts hold whatever table the seed drew. Every statement is distinct: the
// result cache can never hit.
func fetchSessions(n int, sortedAmount []float64, seed int64) []session {
	rows := len(sortedAmount)
	sizes := rand.New(rand.NewSource(skeletonSeed))
	rng := rand.New(rand.NewSource(seed))
	quantile := func(u float64) float64 { return sortedAmount[int(u*float64(rows-1))] }
	seen := map[string]bool{}
	out := make([]session, n)
	for s := range out {
		sqls := make([]string, 0, opsPerSession)
		for len(sqls) < opsPerSession {
			topk := len(sqls)%3 == 2
			want := 10_000
			if !topk {
				want = 300 + sizes.Intn(2701)
			}
			if want > rows/4 {
				want = rows / 4
			}
			frac := float64(want) / float64(rows)
			var sql string
			for sql == "" || seen[sql] {
				u := 0.01 + rng.Float64()*(0.98-frac)
				lo, hi := quantile(u), quantile(u+frac)
				if hi <= lo {
					continue
				}
				sql = fmt.Sprintf("SELECT region, product, amount, qty FROM sales WHERE amount >= %.4f AND amount < %.4f", lo, hi)
				if topk {
					sql += " ORDER BY amount DESC LIMIT 100"
				}
			}
			seen[sql] = true
			sqls = append(sqls, sql)
		}
		out[s] = session{sqls: sqls, insight: opsPerSession - 1}
	}
	return out
}

// formatSessions is the canonical text of an op sequence: two sequences are
// the same work exactly when this text is byte-identical.
func formatSessions(ss []session) string {
	var b strings.Builder
	for s, sess := range ss {
		for i, sql := range sess.sqls {
			fmt.Fprintf(&b, "%03d.%02d insight=%v %s\n", s, i, i == sess.insight, sql)
		}
	}
	return b.String()
}

// distinctSQL lists every statement of ss once, in first-use order.
func distinctSQL(ss []session) []string {
	seen := map[string]bool{}
	var out []string
	for _, sess := range ss {
		for _, sql := range sess.sqls {
			if !seen[sql] {
				seen[sql] = true
				out = append(out, sql)
			}
		}
	}
	return out
}
