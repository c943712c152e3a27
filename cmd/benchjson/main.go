// Command benchjson converts `go test -bench -benchmem` output on stdin
// into the machine-readable BENCH_hotpath.json format documented in
// EXPERIMENTS.md. It keeps the recorded numbers reproducible: run it via
// `make bench-hotpath` so the benchmark set stays fixed, and every
// report is stamped with the host baseline (CPU model, GOMAXPROCS, go
// version) it was measured on (see internal/benchstamp).
//
// With -out FILE the report is written to FILE instead of stdout — and
// if FILE already holds a report from a *different* baseline, benchjson
// refuses to overwrite it unless -force is given. Checked-in benchmark
// numbers silently regenerated on different hardware are worse than
// stale ones: they look comparable and are not.
package main

import (
	"bufio"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"strconv"
	"strings"

	"github.com/virtualpartitions/vp/internal/benchstamp"
)

type benchmark struct {
	Name        string  `json:"name"`
	Package     string  `json:"package"`
	Iterations  int64   `json:"iterations"`
	NsPerOp     float64 `json:"ns_per_op"`
	BytesPerOp  int64   `json:"bytes_per_op"`
	AllocsPerOp int64   `json:"allocs_per_op"`
	// Metrics holds what the benchmark reported with b.ReportMetric,
	// keyed by unit (e.g. "events/s").
	Metrics map[string]float64 `json:"metrics,omitempty"`
}

type report struct {
	benchstamp.Baseline
	Benchmarks []benchmark `json:"benchmarks"`
}

// convert reads benchmark output and builds the stamped report. The CPU
// model comes from the `cpu:` line when go test emits one, else from the
// host (go test omits the line on hosts it cannot identify).
func convert(in io.Reader, base benchstamp.Baseline) (report, error) {
	rep := report{Baseline: base, Benchmarks: []benchmark{}}
	pkg := ""
	sc := bufio.NewScanner(in)
	for sc.Scan() {
		line := sc.Text()
		switch {
		case strings.HasPrefix(line, "pkg:"):
			pkg = strings.TrimSpace(strings.TrimPrefix(line, "pkg:"))
		case strings.HasPrefix(line, "cpu:"):
			rep.CPU = strings.TrimSpace(strings.TrimPrefix(line, "cpu:"))
		case strings.HasPrefix(line, "Benchmark"):
			if b, ok := parseLine(line); ok {
				b.Package = pkg
				rep.Benchmarks = append(rep.Benchmarks, b)
			}
		}
	}
	if err := sc.Err(); err != nil {
		return rep, err
	}
	if rep.CPU == "" {
		rep.CPU = benchstamp.HostCPU()
	}
	return rep, nil
}

func main() {
	out := flag.String("out", "", "write the report here instead of stdout; refuses a cross-baseline overwrite without -force")
	force := flag.Bool("force", false, "overwrite -out even if its recorded baseline differs from this host")
	flag.Parse()

	base := benchstamp.Host()
	base.CPU = "" // convert fills it from the bench output or the host
	rep, err := convert(os.Stdin, base)
	if err != nil {
		fatal(err)
	}

	var w io.Writer = os.Stdout
	if *out != "" {
		if err := benchstamp.Guard(*out, rep.Baseline, *force); err != nil {
			fatal(err)
		}
		f, err := os.Create(*out)
		if err != nil {
			fatal(err)
		}
		defer f.Close()
		w = f
	}
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	if err := enc.Encode(rep); err != nil {
		fatal(err)
	}
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "benchjson:", err)
	os.Exit(1)
}

// parseLine reads one benchmark result line, e.g.
//
//	BenchmarkWireRoundTrip-4  743631  1776 ns/op  328 B/op  5 allocs/op
//
// The -benchmem columns are optional; a line without them records only
// timing. Any other column pair is a reported metric.
func parseLine(line string) (benchmark, bool) {
	f := strings.Fields(line)
	if len(f) < 4 {
		return benchmark{}, false
	}
	name := f[0]
	// Strip the trailing -GOMAXPROCS suffix go test appends.
	if i := strings.LastIndex(name, "-"); i > 0 {
		if _, err := strconv.Atoi(name[i+1:]); err == nil {
			name = name[:i]
		}
	}
	b := benchmark{Name: name}
	var err error
	if b.Iterations, err = strconv.ParseInt(f[1], 10, 64); err != nil {
		return benchmark{}, false
	}
	for i := 2; i+1 < len(f); i += 2 {
		val, unit := f[i], f[i+1]
		switch unit {
		case "ns/op":
			b.NsPerOp, err = strconv.ParseFloat(val, 64)
		case "B/op":
			b.BytesPerOp, err = strconv.ParseInt(val, 10, 64)
		case "allocs/op":
			b.AllocsPerOp, err = strconv.ParseInt(val, 10, 64)
		default:
			var v float64
			if v, err = strconv.ParseFloat(val, 64); err == nil {
				if b.Metrics == nil {
					b.Metrics = make(map[string]float64)
				}
				b.Metrics[unit] = v
			}
		}
		if err != nil {
			return benchmark{}, false
		}
	}
	return b, b.NsPerOp > 0
}
