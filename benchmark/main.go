// Command benchmark is the deployed-stack harness: it builds vpnode and
// vpgateway, runs them as separate processes with real -data
// directories on loopback TCP, replays seeded request streams through
// the gateway's HTTP API, verifies the outputs and prints end-to-end and
// per-layer metrics. See README.md in this directory.
//
//	bash benchmark/run.sh                          # all four workloads, untraced + traced
//	bash benchmark/run.sh --workload write_n3 --seed 7 --seconds 15 --trace 0
//	bash benchmark/run.sh -smoke                   # plumbing check, < 40 s
//	bash benchmark/run.sh -reps 3 -out A.json      # result set for -compare
//	bash benchmark/run.sh -compare A.json B.json
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"os/signal"
	"path/filepath"
	"sort"
	"strings"
	"syscall"
	"time"

	"github.com/virtualpartitions/vp/internal/benchstamp"
)

// benchFile is BENCHMARK.json: the contract this harness is checked
// against, and the source of the bounds -compare applies.
type benchFile struct {
	RunSeconds int `json:"run_seconds"`
	Workloads  []struct {
		Name string `json:"name"`
		Why  string `json:"why"`
	} `json:"workloads"`
	EndToEnd []gated `json:"end_to_end"`
	PerLayer []gated `json:"per_layer"`
}

// gated is one metric declared in BENCHMARK.json; per-layer metrics
// carry no bound.
type gated struct {
	Name   string  `json:"name"`
	Unit   string  `json:"unit"`
	Better string  `json:"better"`
	Bound  float64 `json:"bound"`
}

func loadBenchFile(root string) (*benchFile, error) {
	raw, err := os.ReadFile(filepath.Join(root, "BENCHMARK.json"))
	if err != nil {
		return nil, err
	}
	var b benchFile
	if err := json.Unmarshal(raw, &b); err != nil {
		return nil, fmt.Errorf("BENCHMARK.json: %w", err)
	}
	return &b, nil
}

// resultSet is what -out writes and -compare reads.
type resultSet struct {
	Host    benchstamp.Baseline `json:"host"`
	Results []*result           `json:"results"`
}

func main() { os.Exit(realMain(os.Args[1:], os.Stdout)) }

func realMain(args []string, out io.Writer) int {
	fs := flag.NewFlagSet("benchmark", flag.ContinueOnError)
	var (
		workload = fs.String("workload", "", "run only this workload (default: all four)")
		seed     = fs.Int64("seed", 1, "the only source of randomness: request streams are a function of (workload, seed, client)")
		seconds  = fs.Int("seconds", 0, "measured seconds per run (default: run_seconds of BENCHMARK.json)")
		trace    = fs.Int("trace", -1, "0: untraced window only, print end-to-end metrics; 1: half untraced, half traced, print per-layer metrics; default: full untraced window plus a half-length traced one, print both")
		smoke    = fs.Bool("smoke", false, "run every workload for 3 s to prove the plumbing")
		reps     = fs.Int("reps", 1, "repeat each workload this many times and report median and quartiles")
		outPath  = fs.String("out", "", "write the result set here (default benchmark/out/results.json)")
		compare  = fs.Bool("compare", false, "compare two result sets: -compare A.json B.json")
	)
	if err := fs.Parse(args); err != nil {
		return 2
	}
	e, err := findEnv()
	if err != nil {
		fmt.Fprintln(os.Stderr, "benchmark:", err)
		return 2
	}
	bf, err := loadBenchFile(e.root)
	if err != nil {
		fmt.Fprintln(os.Stderr, "benchmark:", err)
		return 2
	}
	if *compare {
		if fs.NArg() != 2 {
			fmt.Fprintln(os.Stderr, "benchmark: -compare takes two result files")
			return 2
		}
		return compareSets(bf, fs.Arg(0), fs.Arg(1), out)
	}

	run := specs
	if *workload != "" {
		sp, ok := specByName(*workload)
		if !ok {
			fmt.Fprintf(os.Stderr, "benchmark: unknown workload %q\n", *workload)
			return 2
		}
		run = []spec{sp}
	}
	if *seconds <= 0 {
		*seconds = bf.RunSeconds
	}
	window := time.Duration(*seconds) * time.Second
	pl := plan{untraced: window, traced: window / 2, warmup: 2 * time.Second, setups: 15}
	switch {
	case *smoke:
		pl = plan{untraced: 2 * time.Second, traced: time.Second, warmup: 500 * time.Millisecond, setups: 1}
	case *trace == 0:
		pl.traced = 0
	case *trace == 1:
		pl.untraced, pl.setups = window/2, 1
	}

	if err := os.MkdirAll(e.outDir, 0o755); err != nil {
		fmt.Fprintln(os.Stderr, "benchmark:", err)
		return 2
	}
	if err := claimPidFile(filepath.Join(e.outDir, "children.pids")); err != nil {
		fmt.Fprintln(os.Stderr, "benchmark:", err)
		return 2
	}
	// Children die with the harness on every exit path: normal return,
	// SIGINT/SIGTERM, a panic on this goroutine, and the watchdog.
	defer killAllChildren()
	defer func() {
		if p := recover(); p != nil {
			killAllChildren()
			panic(p)
		}
	}()
	sig := make(chan os.Signal, 1)
	signal.Notify(sig, os.Interrupt, syscall.SIGTERM)
	go func() {
		<-sig
		killAllChildren()
		os.Exit(130)
	}()

	if err := e.build(); err != nil {
		fmt.Fprintln(os.Stderr, "benchmark:", err)
		return 2
	}
	set := resultSet{Host: benchstamp.Host()}
	fmt.Fprintf(out, "host: %s\n", set.Host)
	code := 0
	for _, sp := range run {
		for rep := 0; rep < *reps; rep++ {
			// The watchdog allows twice the planned duration, boots and
			// verification included.
			planned := time.Duration(pl.setups+1)*time.Second + 2*pl.warmup + pl.untraced + pl.traced + 30*time.Second
			dog := time.AfterFunc(2*planned, func() {
				fmt.Fprintf(os.Stderr, "benchmark: %s exceeded twice its planned %v; killing it\n", sp.Name, planned)
				killAllChildren()
				os.Exit(3)
			})
			r, err := runWorkload(e, sp, *seed, pl, out)
			dog.Stop()
			if err != nil {
				fmt.Fprintln(os.Stderr, "benchmark:", err)
				return 1
			}
			r.Rep = rep
			set.Results = append(set.Results, r)
			printResult(out, bf, r)
			if !r.Correct {
				code = 1
			}
		}
	}
	if *reps > 1 {
		printReps(out, bf, set.Results)
	}
	if *outPath == "" {
		*outPath = filepath.Join(e.outDir, "results.json")
	}
	raw, _ := json.MarshalIndent(set, "", " ") //nolint:errcheck // plain data
	if err := os.WriteFile(*outPath, raw, 0o644); err != nil {
		fmt.Fprintln(os.Stderr, "benchmark:", err)
		return 2
	}
	fmt.Fprintf(out, "results -> %s\n", *outPath)
	if len(set.Results) == 1 {
		// The machine-readable line the driver reads: exactly the
		// declared end-to-end metrics (-trace 0), per-layer metrics
		// (-trace 1), or both.
		line, err := finalLine(bf, set.Results[0], *trace)
		if err != nil {
			fmt.Fprintln(os.Stderr, "benchmark:", err)
			return 1
		}
		fmt.Fprintln(out, line)
	}
	return code
}

// finalLine renders the last line of standard output.
func finalLine(bf *benchFile, r *result, trace int) (string, error) {
	type vu struct {
		Value float64 `json:"value"`
		Unit  string  `json:"unit"`
	}
	metrics := map[string]vu{}
	if trace != 1 {
		for _, g := range bf.EndToEnd {
			m, ok := r.EndToEnd[g.Name]
			if !ok {
				return "", fmt.Errorf("%s produced no %s", r.Workload, g.Name)
			}
			metrics[g.Name] = vu{m.Value, g.Unit}
		}
	}
	if trace != 0 {
		for _, g := range bf.PerLayer {
			// A layer metric with nothing behind it in this run (no
			// complete write trace, say) reads 0.
			metrics[g.Name] = vu{r.Layers[g.Name].Value, g.Unit}
		}
	}
	raw, err := json.Marshal(struct {
		Correct   bool          `json:"correct"`
		Attempted int64         `json:"attempted"`
		Failed    int64         `json:"failed"`
		Metrics   map[string]vu `json:"metrics"`
	}{r.Correct, r.Attempted, r.Failed, metrics})
	return string(raw), err
}

func fmtMetric(m metric) string {
	s := fmt.Sprintf("%12.4f %-8s", m.Value, m.Unit)
	if m.N > 0 {
		s += fmt.Sprintf(" n=%d", m.N)
	}
	if m.Pct > 0 && m.Pct != 0.99 {
		s += fmt.Sprintf(" (p%.1f: fewer than %d samples beyond p99)", m.Pct*100, tailBeyond)
	}
	return s
}

// printResult prints every metric of a run by name with its unit and
// sample count.
func printResult(out io.Writer, bf *benchFile, r *result) {
	bounds := map[string]float64{}
	for _, g := range bf.EndToEnd {
		bounds[g.Name] = g.Bound
	}
	fmt.Fprintf(out, "   end-to-end (untraced window %.1f s, attempted %d, failed %d):\n", r.WindowS, r.Attempted, r.Failed)
	for _, k := range sortedKeys(r.EndToEnd) {
		note := "reported"
		if b, ok := bounds[k]; ok {
			note = fmt.Sprintf("gated, bound %.0f%%", b*100)
		}
		fmt.Fprintf(out, "     %-36s %s  [%s]\n", k, fmtMetric(r.EndToEnd[k]), note)
	}
	fmt.Fprintf(out, "   per layer:\n")
	for _, k := range sortedKeys(r.Layers) {
		fmt.Fprintf(out, "     %-36s %s\n", k, fmtMetric(r.Layers[k]))
	}
	if len(r.MsgsByKind) > 0 {
		var parts []string
		for _, k := range sortedKeys(r.MsgsByKind) {
			parts = append(parts, fmt.Sprintf("%s=%.2f", k, r.MsgsByKind[k]))
		}
		fmt.Fprintf(out, "     node.msgs_per_op by kind: %s\n", strings.Join(parts, " "))
	}
	for i, cy := range r.Cycles {
		fmt.Fprintf(out, "   fault cycle %d: victim n%d killed at %.0f ms: vp.outage_ms=%.0f vp.rejoin_ms=%.0f (rejoined=%v) journal.recovery_ms=%.2f vp.catchup_writes=%.0f vp.refresh_bytes=%.0f\n",
			i+1, cy.Victim, cy.KillAtMS, cy.OutageMS, cy.RejoinMS, cy.Rejoined, cy.RecoveryMS, cy.CatchupWrites, cy.RefreshBytes)
	}
	if len(r.Cycles) > 0 {
		var outage, rejoin []float64
		for _, cy := range r.Cycles {
			outage, rejoin = append(outage, cy.OutageMS), append(rejoin, cy.RejoinMS)
		}
		sort.Float64s(outage)
		sort.Float64s(rejoin)
		fmt.Fprintf(out, "   over %d cycles: vp.outage_ms median %.0f (min %.0f, max %.0f); vp.rejoin_ms median %.0f (min %.0f, max %.0f)\n",
			len(r.Cycles), sortedMedian(outage), outage[0], outage[len(outage)-1], sortedMedian(rejoin), rejoin[0], rejoin[len(rejoin)-1])
	}
	for _, t := range r.LayerTables {
		fmt.Fprintf(out, "   layer table, %s (%d traced requests, client p50 %.3f ms):\n", t.Op, t.Traces, t.ClientP50MS)
		fmt.Fprintf(out, "     %-18s %8s %12s\n", "phase", "requests", "self_ms(p50)")
		for _, row := range t.Rows {
			fmt.Fprintf(out, "     %-18s %8d %12.3f\n", row.Phase, row.Count, row.SelfMS)
		}
		fmt.Fprintf(out, "     attributed_ms %.3f   unattributed_ms %.3f\n", t.AttributedMS, t.UnattributedMS)
	}
	for _, v := range r.Violations {
		fmt.Fprintf(out, "   VIOLATION: %s\n", v)
	}
	if !r.Correct {
		fmt.Fprintf(out, "   %s: INVALID RUN (%d violations)\n", r.Workload, len(r.Violations))
	}
}
