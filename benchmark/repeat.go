package main

import (
	"encoding/json"
	"fmt"
	"os"
	"sort"
)

// savedSet is what -save writes and -against reads: every value of every
// end-to-end metric, by workload, in run order.
type savedSet map[string]map[string][]float64

// runRepeat is the self-check a change to the benchmark, or to the host,
// is judged by: n sets on n seeds, each metric's spread (the distance
// between its quartiles as a share of its median) next to its bound, and
// against an earlier set, whether the median got worse by more than the
// bound. It fails if any metric but setup_s spreads wider than its bound —
// a set-up is done three times a run, not enough to pin its spread — or
// any median, setup_s included, worsened by more than its bound.
func runRepeat(n int, seed int64, args []string, save, against string) error {
	values := savedSet{}
	for i := 0; i < n; i++ {
		fmt.Fprintf(os.Stderr, "--- set %d of %d, seed %d\n", i+1, n, seed+int64(i))
		set, err := runSet(seed+int64(i), args)
		if err != nil {
			return err
		}
		for name, res := range set {
			if values[name] == nil {
				values[name] = map[string][]float64{}
			}
			for metric, v := range res.Metrics {
				values[name][metric] = append(values[name][metric], v.Value)
			}
		}
	}
	if save != "" {
		buf, err := json.MarshalIndent(values, "", " ")
		if err != nil {
			return err
		}
		if err := os.WriteFile(save, buf, 0o644); err != nil {
			return err
		}
	}
	var earlier savedSet
	if against != "" {
		buf, err := os.ReadFile(against)
		if err != nil {
			return err
		}
		if err := json.Unmarshal(buf, &earlier); err != nil {
			return fmt.Errorf("%s: %w", against, err)
		}
	}

	bad := 0
	fmt.Printf("%-16s %-18s %12s %9s %7s %9s\n", "workload", "metric", "median", "spread", "bound", "vs-earlier")
	for _, w := range workloads {
		for _, def := range endToEnd {
			vals := values[w.name][def.name]
			if len(vals) == 0 {
				continue // a traced set has no end-to-end metrics to spread
			}
			q1, med, q3 := quartiles(vals)
			spread := (q3 - q1) / med
			verdict := ""
			if spread > def.bound && def.name != "setup_s" {
				verdict = " SPREAD"
				bad++
			}
			drift := "-"
			if old := earlier[w.name][def.name]; len(old) > 0 {
				_, oldMed, _ := quartiles(old)
				worse := (med - oldMed) / oldMed
				if def.better == "higher" {
					worse = -worse
				}
				drift = fmt.Sprintf("%+.4f", worse)
				if worse > def.bound {
					verdict += " WORSE"
					bad++
				}
			}
			fmt.Printf("%-16s %-18s %12.4f %9.4f %7.2f %9s%s\n", w.name, def.name, med, spread, def.bound, drift, verdict)
		}
	}
	if bad > 0 {
		return fmt.Errorf("%d metric(s) outside their bound", bad)
	}
	return nil
}

// quartiles cuts vals the way Python's statistics.quantiles(vals, n=4)
// does (the "exclusive" method), which is what the driver judges by.
func quartiles(vals []float64) (q1, q2, q3 float64) {
	s := append([]float64(nil), vals...)
	sort.Float64s(s)
	n := len(s)
	if n == 1 {
		return s[0], s[0], s[0]
	}
	cut := func(i int) float64 {
		j := i * (n + 1) / 4
		if j < 1 {
			j = 1
		}
		if j > n-1 {
			j = n - 1
		}
		delta := i*(n+1) - j*4
		return (s[j-1]*float64(4-delta) + s[j]*float64(delta)) / 4
	}
	return cut(1), cut(2), cut(3)
}
