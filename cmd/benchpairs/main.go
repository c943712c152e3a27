// Command benchpairs automates the alternating-pairs protocol a claimed
// performance gain has to pass (EXPERIMENTS.md, "Commit path without
// false waits"): it unpacks a base revision next to the working tree,
// runs the deployed-stack harness (benchmark/run.sh) on one workload in
// both trees N times — a fresh seed per pair, the side that goes first
// alternating — and prints, per end-to-end metric, each side's median
// and quartiles and how many pairs the working tree won. Beside them it
// prints each run's CPU per operation in the nodes and in the gateway,
// read from that tree's benchmark/out/results.json, which tells host
// drift (both sides move) from node work (one side moves).
//
//	go run ./cmd/benchpairs -w write_n3 -base HEAD~1 -n 12
//
// The base tree lives under .bench_build/pairs/ (git-ignored) and is
// unpacked with `git archive`, so it holds exactly the committed files
// of that revision; the working tree runs as it is on disk.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"os/exec"
	"path/filepath"
	"sort"

	"github.com/virtualpartitions/vp/internal/model"
)

// result is one run of one workload as the harness records it in
// benchmark/out/results.json.
type result struct {
	Workload  string `json:"workload"`
	Correct   bool   `json:"correct"`
	Attempted int    `json:"attempted"`
	Failed    int    `json:"failed"`
	EndToEnd  values `json:"end_to_end"`
	PerLayer  values `json:"per_layer"`
}

type values map[string]struct {
	Value float64 `json:"value"`
}

// layerNames are the per-layer metrics printed beside the end-to-end
// ones; lower is better for both.
var layerNames = []string{"node.cpu_us_per_op", "gw.cpu_us_per_op"}

// better reads, from BENCHMARK.json, which direction improves each
// end-to-end metric.
func better(root string) (map[string]string, error) {
	raw, err := os.ReadFile(filepath.Join(root, "BENCHMARK.json"))
	if err != nil {
		return nil, err
	}
	var decl struct {
		EndToEnd []struct{ Name, Better string } `json:"end_to_end"`
	}
	if err := json.Unmarshal(raw, &decl); err != nil {
		return nil, fmt.Errorf("BENCHMARK.json: %w", err)
	}
	dir := make(map[string]string)
	for _, m := range decl.EndToEnd {
		dir[m.Name] = m.Better
	}
	return dir, nil
}

// runOnce runs the harness in tree and reads the run back from the
// result set it left there.
func runOnce(tree, workload string, seed, seconds int) (result, error) {
	cmd := exec.Command("bash", "benchmark/run.sh", "--workload", workload,
		"--seed", fmt.Sprint(seed), "--seconds", fmt.Sprint(seconds), "--trace", "0")
	cmd.Dir, cmd.Stderr = tree, os.Stderr
	if err := cmd.Run(); err != nil {
		return result{}, fmt.Errorf("%s: benchmark/run.sh: %w", tree, err)
	}
	return readResult(tree, workload)
}

// readResult reads workload's run, with every layerName, from the
// result set in tree.
func readResult(tree, workload string) (result, error) {
	path := filepath.Join(tree, "benchmark", "out", "results.json")
	raw, err := os.ReadFile(path)
	if err != nil {
		return result{}, err
	}
	var set struct{ Results []result }
	if err := json.Unmarshal(raw, &set); err != nil {
		return result{}, fmt.Errorf("%s: %w", path, err)
	}
	for i := len(set.Results) - 1; i >= 0; i-- {
		if r := set.Results[i]; r.Workload == workload {
			for _, name := range layerNames {
				if _, ok := r.PerLayer[name]; !ok {
					return result{}, fmt.Errorf("%s: %s has no %s", path, workload, name)
				}
			}
			return r, nil
		}
	}
	return result{}, fmt.Errorf("%s: no result for %s", path, workload)
}

// unpack extracts rev's committed files into dir, replacing what was there.
func unpack(root, rev, dir string) error {
	if err := os.RemoveAll(dir); err != nil {
		return err
	}
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return err
	}
	archive := exec.Command("git", "-C", root, "archive", rev)
	untar := exec.Command("tar", "-x", "-C", dir)
	pipe, err := archive.StdoutPipe()
	if err != nil {
		return err
	}
	untar.Stdin = pipe
	archive.Stderr, untar.Stderr = os.Stderr, os.Stderr
	if err := untar.Start(); err != nil {
		return err
	}
	if err := archive.Run(); err != nil {
		return fmt.Errorf("git archive %s: %w", rev, err)
	}
	return untar.Wait()
}

func median(vals []float64) float64 {
	s := append([]float64(nil), vals...)
	sort.Float64s(s)
	n := len(s)
	switch {
	case n == 0:
		return 0
	case n%2 == 1:
		return s[n/2]
	}
	return (s[n/2-1] + s[n/2]) / 2
}

// quartiles returns Q1 and Q3 by the exclusive method (Python's
// statistics.quantiles(vals, n=4)), the one the acceptance check uses
// for the parent's run-to-run spread.
func quartiles(vals []float64) (q1, q3 float64) {
	s := append([]float64(nil), vals...)
	sort.Float64s(s)
	n := len(s)
	switch n {
	case 0:
		return 0, 0
	case 1:
		return s[0], s[0]
	}
	cut := func(i int) float64 {
		m := n + 1
		j := i * m / 4
		if j < 1 {
			j = 1
		}
		if j > n-1 {
			j = n - 1
		}
		delta := float64(i*m - j*4)
		return (s[j-1]*(4-delta) + s[j]*delta) / 4
	}
	return cut(1), cut(3)
}

// summarize renders one metric's verdict: medians, quartiles, pairs won
// (ties count for neither side) and whether the medians differ by more
// than the base's interquartile distance.
func summarize(name, dir string, base, change []float64) string {
	wins, losses := 0, 0
	for i := range base {
		d := change[i] - base[i]
		if dir == "lower" {
			d = -d
		}
		switch {
		case d > 0:
			wins++
		case d < 0:
			losses++
		}
	}
	bm, cm := median(base), median(change)
	bq1, bq3 := quartiles(base)
	cq1, cq3 := quartiles(change)
	gain := cm - bm
	if dir == "lower" {
		gain = -gain
	}
	var rel float64
	if bm != 0 {
		rel = 100 * (cm - bm) / bm
	}
	spread := "n/a (base runs identical)"
	if iqr := bq3 - bq1; iqr > 0 {
		spread = fmt.Sprintf("%.1f", gain/iqr)
	}
	return fmt.Sprintf("%-14s base %9.4f [%9.4f %9.4f]  change %9.4f [%9.4f %9.4f]  %+6.1f%%  change wins %d/%d (loses %d)  gain/base-IQR %s",
		name, bm, bq1, bq3, cm, cq1, cq3, rel, wins, len(base), losses, spread)
}

func main() {
	var (
		workload = flag.String("w", "", "workload to run (required): write_n3, read_n3, shard_n5 or fault_n3")
		base     = flag.String("base", "HEAD", "revision to compare the working tree against")
		n        = flag.Int("n", 12, "pairs to run")
		seed     = flag.Int("seed", 101, "seed of the first pair; pair i uses seed+i on both sides")
		seconds  = flag.Int("seconds", 25, "measured seconds per run (BENCHMARK.json's run_seconds)")
	)
	flag.Parse()
	if *workload == "" {
		fmt.Fprintln(os.Stderr, "benchpairs: -w is required")
		os.Exit(2)
	}
	root, err := os.Getwd()
	if err != nil {
		fmt.Fprintln(os.Stderr, "benchpairs:", err)
		os.Exit(1)
	}
	dirs, err := better(root)
	if err != nil {
		fmt.Fprintln(os.Stderr, "benchpairs:", err)
		os.Exit(1)
	}
	baseTree := filepath.Join(root, ".bench_build", "pairs", "base")
	if err := unpack(root, *base, baseTree); err != nil {
		fmt.Fprintln(os.Stderr, "benchpairs:", err)
		os.Exit(1)
	}
	vals := map[string][2][]float64{} // metric → {base runs, change runs}
	failed := [2]int{}
	for i := 0; i < *n; i++ {
		order := []int{0, 1} // 0 = base, 1 = change
		if i%2 == 1 {
			order = []int{1, 0}
		}
		var res [2]result
		for _, side := range order {
			tree := root
			if side == 0 {
				tree = baseTree
			}
			r, err := runOnce(tree, *workload, *seed+i, *seconds)
			if err != nil {
				fmt.Fprintln(os.Stderr, "benchpairs:", err)
				os.Exit(1)
			}
			if !r.Correct {
				fmt.Fprintf(os.Stderr, "benchpairs: %s reported correct=false on seed %d\n", tree, *seed+i)
				os.Exit(1)
			}
			res[side] = r
			failed[side] += r.Failed
		}
		line := fmt.Sprintf("pair %2d seed %d:", i+1, *seed+i)
		for name := range dirs {
			v := vals[name]
			v[0] = append(v[0], res[0].EndToEnd[name].Value)
			v[1] = append(v[1], res[1].EndToEnd[name].Value)
			vals[name] = v
		}
		for _, name := range model.SortedKeys(dirs) {
			line += fmt.Sprintf("  %s %.4f → %.4f", name, res[0].EndToEnd[name].Value, res[1].EndToEnd[name].Value)
		}
		for _, name := range layerNames {
			v := vals[name]
			v[0] = append(v[0], res[0].PerLayer[name].Value)
			v[1] = append(v[1], res[1].PerLayer[name].Value)
			vals[name] = v
			line += fmt.Sprintf("  %s %.1f → %.1f", name, v[0][i], v[1][i])
		}
		fmt.Println(line)
	}
	fmt.Printf("\n%s, %d pairs, base %s (failed ops: base %d, change %d)\n", *workload, *n, *base, failed[0], failed[1])
	for _, name := range model.SortedKeys(dirs) {
		fmt.Println(summarize(name, dirs[name], vals[name][0], vals[name][1]))
	}
	for _, name := range layerNames {
		fmt.Println(summarize(name, "lower", vals[name][0], vals[name][1]))
	}
}
