package main

import (
	"bytes"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

// TestSelfTimesFollowTheBlockingPath builds one write's span tree by
// hand: the coordinator's prepare fans out to two participants on other
// processes (clocks unrelated), one slower than the other.
func TestSelfTimesFollowTheBlockingPath(t *testing.T) {
	sp := func(src string, span, parent uint32, phase string, end, dur int64) progSpan {
		return progSpan{Src: src, Trace: 9, Span: span, Parent: parent, Phase: phase, EndUS: end, DurUS: dur}
	}
	spans := []progSpan{
		sp("gw", 1, 0, "gw-request", 3000, 3000),
		sp("n1", 2, 1, "coord-txn", 502500, 2500), // another process: only its duration counts
		sp("n1", 3, 2, "coord-lock", 500300, 300), // [500000, 500300]
		sp("n1", 4, 2, "coord-prepare", 501500, 1000),
		sp("n2", 5, 4, "part-journal", 77000, 400),
		sp("n3", 6, 4, "part-journal", 91000, 900), // the slower participant blocks the round
		sp("n1", 7, 2, "coord-decide", 502400, 800),
	}
	tables := buildLayerTables(spans, map[string]float64{"write": 3.5, "read": 1})
	if len(tables) != 1 || tables[0].Op != "write" || tables[0].Traces != 1 {
		t.Fatalf("want one write table over one trace, got %+v", tables)
	}
	got := map[string]float64{}
	sum := 0.0
	for _, r := range tables[0].Rows {
		got[r.Phase] = r.SelfMS
		sum += r.SelfMS
	}
	want := map[string]float64{
		"gw-request": 0.5, "coord-txn": 0.4, "coord-lock": 0.3,
		"coord-prepare": 0.1, "part-journal": 0.9, "coord-decide": 0.8,
	}
	for phase, w := range want {
		if g := got[phase]; g < w-1e-9 || g > w+1e-9 {
			t.Errorf("%s self time %.3f ms, want %.3f", phase, g, w)
		}
	}
	if sum < 3-1e-9 || sum > 3+1e-9 {
		t.Errorf("phase self times add up to %.3f ms, want the root span's 3.000", sum)
	}
	if u := tables[0].UnattributedMS; u < 0.5-1e-9 || u > 0.5+1e-9 {
		t.Errorf("unattributed %.3f ms, want client 3.5 - root 3.0 = 0.5", u)
	}
}

func setOf(workload string, failedFrac float64, tps ...float64) *resultSet {
	s := &resultSet{}
	for _, v := range tps {
		s.Results = append(s.Results, &result{Workload: workload, EndToEnd: map[string]metric{
			"tps": {Value: v, Unit: "1/s"}, "failed_frac": {Value: failedFrac, Unit: "fraction"}}})
	}
	return s
}

func TestCompareVerdicts(t *testing.T) {
	bf := &benchFile{EndToEnd: []gated{{Name: "tps", Unit: "1/s", Better: "higher", Bound: 0.1}}}
	for _, tc := range []struct {
		name string
		a, b *resultSet
		code int
		want string
	}{
		{"within the bound", setOf("w", 0, 100, 101, 99), setOf("w", 0, 95, 96, 94), 0, " ok"},
		{"beyond the bound", setOf("w", 0, 100, 101, 99), setOf("w", 0, 85, 86, 84), 1, " worse"},
		{"better is never worse", setOf("w", 0, 100, 101, 99), setOf("w", 0, 150, 151, 149), 0, " ok"},
		{"A too noisy to tell", setOf("w", 0, 100, 140, 60, 120, 80), setOf("w", 0, 85, 85, 85), 0, "unresolved"},
		{"failures rose", setOf("w", 0, 100), setOf("w", 0.01, 100), 1, "failed_frac rose"},
	} {
		var out bytes.Buffer
		if code := compareResults(bf, tc.a, tc.b, &out); code != tc.code || !strings.Contains(out.String(), tc.want) {
			t.Errorf("%s: exit %d, want %d with %q in:\n%s", tc.name, code, tc.code, tc.want, out.String())
		}
	}
}

// TestRefusesToStartBesideSurvivors: a pid file naming a live process
// that still runs the recorded binary means an earlier run's children
// survived it.
func TestRefusesToStartBesideSurvivors(t *testing.T) {
	exe, err := os.Readlink("/proc/self/exe")
	if err != nil {
		t.Skip("no /proc")
	}
	path := filepath.Join(t.TempDir(), "children.pids")
	live := fmt.Sprintf("%d %s\n", os.Getpid(), exe)
	if err := os.WriteFile(path, []byte(live), 0o644); err != nil {
		t.Fatal(err)
	}
	defer func() { children.pidFile = "" }()
	if err := claimPidFile(path); err == nil || !strings.Contains(err.Error(), fmt.Sprint(os.Getpid())) {
		t.Errorf("claimPidFile = %v, want a refusal naming pid %d", err, os.Getpid())
	}
	// The same pid running another binary is a recycled pid, not ours.
	recycled := fmt.Sprintf("%d /some/other/vpnode\n", os.Getpid())
	if err := os.WriteFile(path, []byte(recycled), 0o644); err != nil {
		t.Fatal(err)
	}
	if err := claimPidFile(path); err != nil {
		t.Errorf("claimPidFile refused over a recycled pid: %v", err)
	}
}

// TestSmoke runs every workload end to end for a few seconds: real
// processes, real journals. It is gated so the default test run stays
// hermetic and fast.
func TestSmoke(t *testing.T) {
	if os.Getenv("VP_BENCH_SMOKE") != "1" {
		t.Skip("set VP_BENCH_SMOKE=1 to boot real clusters (about 40 s)")
	}
	out := io.Writer(io.Discard)
	if testing.Verbose() {
		out = os.Stdout
	}
	if code := realMain([]string{"-smoke", "-out", filepath.Join(t.TempDir(), "smoke.json")}, out); code != 0 {
		t.Fatalf("benchmark -smoke exited %d", code)
	}
}
