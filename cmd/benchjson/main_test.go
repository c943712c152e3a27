package main

import (
	"strings"
	"testing"

	"github.com/virtualpartitions/vp/internal/benchstamp"
)

const sampleBenchOutput = `goos: linux
goarch: amd64
pkg: github.com/virtualpartitions/vp/internal/wire
cpu: Test CPU @ 2.40GHz
BenchmarkWireRoundTrip-4   	  743631	      1776 ns/op	     328 B/op	       5 allocs/op
BenchmarkEncodeOnly-4      	 1000000	      1042 ns/op
PASS
pkg: github.com/virtualpartitions/vp/internal/bench
BenchmarkSimSteadyState-4  	     120	   9876543 ns/op	   65536 B/op	     900 allocs/op
ok  	github.com/virtualpartitions/vp/internal/bench	2.1s
`

func TestConvert(t *testing.T) {
	base := benchstamp.Baseline{GoVersion: "go1.22", GOOS: "linux", GOARCH: "amd64", GOMAXPROCS: 4}
	rep, err := convert(strings.NewReader(sampleBenchOutput), base)
	if err != nil {
		t.Fatal(err)
	}
	if rep.CPU != "Test CPU @ 2.40GHz" {
		t.Errorf("cpu not taken from bench output: %q", rep.CPU)
	}
	if rep.GoVersion != "go1.22" || rep.GOMAXPROCS != 4 {
		t.Errorf("baseline not carried through: %+v", rep.Baseline)
	}
	if len(rep.Benchmarks) != 3 {
		t.Fatalf("parsed %d benchmarks, want 3: %+v", len(rep.Benchmarks), rep.Benchmarks)
	}

	first := rep.Benchmarks[0]
	if first.Name != "BenchmarkWireRoundTrip" {
		t.Errorf("GOMAXPROCS suffix not stripped: %q", first.Name)
	}
	if first.Package != "github.com/virtualpartitions/vp/internal/wire" {
		t.Errorf("wrong package attribution: %q", first.Package)
	}
	if first.Iterations != 743631 || first.NsPerOp != 1776 || first.BytesPerOp != 328 || first.AllocsPerOp != 5 {
		t.Errorf("benchmem columns misparsed: %+v", first)
	}

	// A line without -benchmem columns records timing only.
	second := rep.Benchmarks[1]
	if second.NsPerOp != 1042 || second.BytesPerOp != 0 || second.AllocsPerOp != 0 {
		t.Errorf("timing-only line misparsed: %+v", second)
	}

	// The second pkg: line re-attributes subsequent benchmarks.
	if rep.Benchmarks[2].Package != "github.com/virtualpartitions/vp/internal/bench" {
		t.Errorf("package attribution not updated: %q", rep.Benchmarks[2].Package)
	}
}

func TestConvertWithoutCPULine(t *testing.T) {
	rep, err := convert(strings.NewReader("BenchmarkX-2  100  50 ns/op\n"), benchstamp.Baseline{})
	if err != nil {
		t.Fatal(err)
	}
	// Falls back to the host probe; on Linux CI that is non-empty, but
	// either way it must equal what benchstamp reports.
	if rep.CPU != benchstamp.HostCPU() {
		t.Errorf("cpu fallback = %q, want host %q", rep.CPU, benchstamp.HostCPU())
	}
	if len(rep.Benchmarks) != 1 || rep.Benchmarks[0].Name != "BenchmarkX" {
		t.Fatalf("parse: %+v", rep.Benchmarks)
	}
}

func TestConvertEmptyInput(t *testing.T) {
	rep, err := convert(strings.NewReader(""), benchstamp.Baseline{})
	if err != nil {
		t.Fatal(err)
	}
	// Benchmarks marshals as [] rather than null.
	if rep.Benchmarks == nil || len(rep.Benchmarks) != 0 {
		t.Fatalf("empty input: %+v", rep.Benchmarks)
	}
}

func TestParseLine(t *testing.T) {
	cases := []struct {
		line string
		ok   bool
		name string
	}{
		{"BenchmarkFoo-8  100  50 ns/op  8 B/op  1 allocs/op", true, "BenchmarkFoo"},
		{"BenchmarkBar  100  50 ns/op", true, "BenchmarkBar"},
		{"BenchmarkNoIter  abc  50 ns/op", false, ""},
		{"BenchmarkShort  100", false, ""},
		{"BenchmarkZeroNs-4  100  0 B/op  1 allocs/op", false, ""},
		{"BenchmarkSub/case-16  5  200 ns/op", true, "BenchmarkSub/case"},
	}
	for _, tc := range cases {
		b, ok := parseLine(tc.line)
		if ok != tc.ok {
			t.Errorf("parseLine(%q) ok=%v, want %v", tc.line, ok, tc.ok)
			continue
		}
		if ok && b.Name != tc.name {
			t.Errorf("parseLine(%q) name=%q, want %q", tc.line, b.Name, tc.name)
		}
	}
}

func TestParseLineKeepsReportedMetrics(t *testing.T) {
	b, ok := parseLine("BenchmarkSimCell/mixed-2  8  140000000 ns/op  7.1 cells/s  251000 events/s  90000000 B/op  900000 allocs/op")
	if !ok {
		t.Fatal("line not parsed")
	}
	if b.NsPerOp != 140000000 || b.AllocsPerOp != 900000 || b.BytesPerOp != 90000000 {
		t.Errorf("standard columns misparsed: %+v", b)
	}
	if len(b.Metrics) != 2 || b.Metrics["cells/s"] != 7.1 || b.Metrics["events/s"] != 251000 {
		t.Errorf("metrics = %v, want cells/s and events/s", b.Metrics)
	}
	if b, _ := parseLine("BenchmarkBar  100  50 ns/op  8 B/op  1 allocs/op"); b.Metrics != nil {
		t.Errorf("a line without reported metrics has %v", b.Metrics)
	}
}
