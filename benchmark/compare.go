package main

import (
	"encoding/json"
	"fmt"
	"io"
	"os"
)

// byWorkload collects one end-to-end metric's values over the
// repetitions of each workload, in first-seen workload order.
func byWorkload(results []*result, name string) (order []string, vals map[string][]float64) {
	vals = map[string][]float64{}
	for _, r := range results {
		m, ok := r.EndToEnd[name]
		if !ok {
			continue
		}
		if _, seen := vals[r.Workload]; !seen {
			order = append(order, r.Workload)
		}
		vals[r.Workload] = append(vals[r.Workload], m.Value)
	}
	return order, vals
}

// printReps summarises repeated runs: median, quartiles and spread
// (interquartile distance over median) per workload and gated metric.
func printReps(out io.Writer, bf *benchFile, results []*result) {
	fmt.Fprintf(out, "repetitions:\n")
	fmt.Fprintf(out, "  %-10s %-14s %4s %12s %12s %12s %8s %7s\n", "workload", "metric", "n", "median", "q1", "q3", "spread", "bound")
	for _, g := range bf.EndToEnd {
		order, vals := byWorkload(results, g.Name)
		for _, w := range order {
			q1, q3 := quartiles(vals[w])
			fmt.Fprintf(out, "  %-10s %-14s %4d %12.4f %12.4f %12.4f %7.1f%% %6.0f%%\n",
				w, g.Name, len(vals[w]), median(vals[w]), q1, q3, spread(vals[w])*100, g.Bound*100)
		}
	}
}

// worsening is how far b is worse than a, as a share of a, for a metric
// whose better direction is given; negative when b is better.
func worsening(a, b float64, better string) float64 {
	if a == 0 {
		return 0
	}
	if better == "higher" {
		return (a - b) / a
	}
	return (b - a) / a
}

func readSet(path string) (*resultSet, error) {
	raw, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var s resultSet
	if err := json.Unmarshal(raw, &s); err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	return &s, nil
}

// compareSets prints, per workload and gated end-to-end metric, both
// medians, how much B is worse, the bound, and a verdict:
//
//	ok          B's median is within the bound of A's
//	worse       it is not
//	unresolved  A's own run-to-run spread exceeds the bound, so the two
//	            sets cannot be told apart at this bound
//
// It returns non-zero on any "worse" and on any rise of failed_frac.
func compareSets(bf *benchFile, pathA, pathB string, out io.Writer) int {
	a, err := readSet(pathA)
	if err != nil {
		fmt.Fprintln(os.Stderr, "benchmark:", err)
		return 2
	}
	b, err := readSet(pathB)
	if err != nil {
		fmt.Fprintln(os.Stderr, "benchmark:", err)
		return 2
	}
	return compareResults(bf, a, b, out)
}

func compareResults(bf *benchFile, a, b *resultSet, out io.Writer) int {
	if a.Host != b.Host {
		fmt.Fprintf(out, "warning: the sets were measured on different hosts:\n  A: %s\n  B: %s\n", a.Host, b.Host)
	}
	code := 0
	fmt.Fprintf(out, "%-10s %-14s %12s %12s %8s %7s  %s\n", "workload", "metric", "A median", "B median", "worse by", "bound", "verdict")
	for _, g := range bf.EndToEnd {
		order, va := byWorkload(a.Results, g.Name)
		_, vb := byWorkload(b.Results, g.Name)
		for _, w := range order {
			if len(vb[w]) == 0 {
				continue
			}
			ma, mb := median(va[w]), median(vb[w])
			d := worsening(ma, mb, g.Better)
			verdict := "ok"
			switch {
			case len(va[w]) > 1 && spread(va[w]) > g.Bound:
				verdict = fmt.Sprintf("unresolved (A spread %.1f%%)", spread(va[w])*100)
			case d > g.Bound:
				verdict = "worse"
				code = 1
			}
			fmt.Fprintf(out, "%-10s %-14s %12.4f %12.4f %7.1f%% %6.0f%%  %s\n", w, g.Name, ma, mb, d*100, g.Bound*100, verdict)
		}
	}
	order, fa := byWorkload(a.Results, "failed_frac")
	_, fb := byWorkload(b.Results, "failed_frac")
	for _, w := range order {
		if len(fb[w]) > 0 && median(fb[w]) > median(fa[w]) {
			fmt.Fprintf(out, "%-10s failed_frac rose: %.6f -> %.6f  worse\n", w, median(fa[w]), median(fb[w]))
			code = 1
		}
	}
	return code
}
