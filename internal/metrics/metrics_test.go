package metrics

import (
	"strings"
	"sync"
	"testing"
	"time"
)

func TestCounters(t *testing.T) {
	r := NewRegistry()
	if r.Get("x") != 0 {
		t.Fatal("fresh counter should be 0")
	}
	r.Inc("x", 3)
	r.Inc("x", 2)
	r.Inc("y", 1)
	if r.Get("x") != 5 || r.Get("y") != 1 {
		t.Fatalf("x=%d y=%d", r.Get("x"), r.Get("y"))
	}
	snap := r.Counters()
	r.Inc("x", 1)
	if snap["x"] != 5 {
		t.Fatal("Counters should be a snapshot")
	}
}

func TestSamples(t *testing.T) {
	r := NewRegistry()
	if s := r.Samples("none"); s.Count != 0 {
		t.Fatal("empty distribution should summarize to zero")
	}
	for i := 1; i <= 100; i++ {
		r.Observe("lat", float64(i))
	}
	s := r.Samples("lat")
	if s.Count != 100 || s.Min != 1 || s.Max != 100 {
		t.Fatalf("summary = %+v", s)
	}
	if s.Mean != 50.5 {
		t.Fatalf("mean = %v", s.Mean)
	}
	if s.P50 < 49 || s.P50 > 52 || s.P95 < 94 || s.P99 < 98 {
		t.Fatalf("percentiles = %+v", s)
	}
}

func TestObserveDuration(t *testing.T) {
	r := NewRegistry()
	r.ObserveDuration("d", 1500*time.Microsecond)
	if s := r.Samples("d"); s.Mean != 1.5 {
		t.Fatalf("duration sample = %+v", s)
	}
}

func TestSampleNamesAndReset(t *testing.T) {
	r := NewRegistry()
	r.Observe("b", 1)
	r.Observe("a", 1)
	names := r.SampleNames()
	if len(names) != 2 || names[0] != "a" || names[1] != "b" {
		t.Fatalf("names = %v", names)
	}
	r.Inc("c", 1)
	r.Reset()
	if r.Get("c") != 0 || len(r.SampleNames()) != 0 {
		t.Fatal("Reset did not clear")
	}
}

func TestString(t *testing.T) {
	r := NewRegistry()
	r.Inc("bbb", 2)
	r.Inc("aaa", 1)
	s := r.String()
	if !strings.Contains(s, "aaa") || !strings.Contains(s, "bbb") {
		t.Fatalf("String = %q", s)
	}
	if strings.Index(s, "aaa") > strings.Index(s, "bbb") {
		t.Fatal("String output should be sorted")
	}
}

func TestConcurrentUse(t *testing.T) {
	r := NewRegistry()
	var wg sync.WaitGroup
	for i := 0; i < 8; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for j := 0; j < 1000; j++ {
				r.Inc("n", 1)
				r.Observe("s", float64(j))
			}
		}()
	}
	wg.Wait()
	if r.Get("n") != 8000 {
		t.Fatalf("n = %d", r.Get("n"))
	}
	if r.Samples("s").Count != 8000 {
		t.Fatalf("samples = %d", r.Samples("s").Count)
	}
}

func TestReservoirBoundsSamples(t *testing.T) {
	r := NewRegistry()
	r.SetSampleCap(64)
	for i := 0; i < 10_000; i++ {
		r.Observe("lat", float64(i))
	}
	s := r.Samples("lat")
	if s.Count != 10_000 {
		t.Fatalf("Count = %d, want total observations 10000", s.Count)
	}
	// The reservoir is a uniform sample of [0,10000): its mean must land
	// near the population mean, and its extremes inside the range.
	if s.Mean < 3500 || s.Mean > 6500 {
		t.Errorf("reservoir mean %v implausible for uniform stream", s.Mean)
	}
	if s.Min < 0 || s.Max >= 10_000 {
		t.Errorf("reservoir holds out-of-range values: min=%v max=%v", s.Min, s.Max)
	}
}

func TestReservoirExactBelowCap(t *testing.T) {
	r := NewRegistry()
	r.SetSampleCap(100)
	for i := 1; i <= 100; i++ {
		r.Observe("lat", float64(i))
	}
	s := r.Samples("lat")
	if s.Count != 100 || s.Mean != 50.5 || s.Min != 1 || s.Max != 100 {
		t.Fatalf("below-cap summary not exact: %+v", s)
	}
}

func TestReservoirMemoryBound(t *testing.T) {
	r := NewRegistry()
	r.SetSampleCap(8)
	for i := 0; i < 1000; i++ {
		r.Observe("x", float64(i))
	}
	r.mu.Lock()
	got := len(r.samples["x"].vals)
	r.mu.Unlock()
	if got != 8 {
		t.Fatalf("reservoir holds %d values, cap is 8", got)
	}
}

func TestWritePrometheus(t *testing.T) {
	r := NewRegistry()
	r.Inc(CTxnCommit, 7)
	r.Inc(CMsgSent, 5)
	r.Inc(CMsgSent+".lockreq", 3)
	r.Inc(CMsgSent+".probe", 2)
	r.Observe(SViewChange, 4)
	r.Observe(SViewChange, 8)
	var b strings.Builder
	if err := r.WritePrometheus(&b); err != nil {
		t.Fatal(err)
	}
	out := b.String()
	for _, want := range []string{
		"# TYPE vp_txn_commit counter",
		"vp_txn_commit 7",
		"# TYPE vp_net_msg_sent counter",
		"vp_net_msg_sent 5",
		`vp_net_msg_sent{kind="lockreq"} 3`,
		`vp_net_msg_sent{kind="probe"} 2`,
		"# TYPE vp_vp_viewchange_ms summary",
		`vp_vp_viewchange_ms{quantile="0.5"}`,
		"vp_vp_viewchange_ms_sum 12",
		"vp_vp_viewchange_ms_count 2",
	} {
		if !strings.Contains(out, want) {
			t.Errorf("output missing %q:\n%s", want, out)
		}
	}
	// Two scrapes of the same registry must be byte-identical.
	var b2 strings.Builder
	if err := r.WritePrometheus(&b2); err != nil {
		t.Fatal(err)
	}
	if b2.String() != out {
		t.Error("scrape output not stable across calls")
	}
}

// Family names must be exactly base+"."+label (the /metrics and
// /gw/stats surface is pinned on them), cost nothing once built, and
// survive concurrent first uses.
func TestFamilyNames(t *testing.T) {
	f := NewFamily(CMsgSent)
	if got, want := f.Name("lockreq"), CMsgSent+".lockreq"; got != want {
		t.Fatalf("Name = %q, want %q", got, want)
	}
	if allocs := testing.AllocsPerRun(100, func() { _ = f.Name("lockreq") }); allocs != 0 {
		t.Errorf("Name of a known label allocates %v times, want 0", allocs)
	}
	labels := []string{"probe", "vote", "decide", "shard:vote"}
	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for _, l := range labels {
				if got, want := f.Name(l), CMsgSent+"."+l; got != want {
					t.Errorf("Name(%q) = %q, want %q", l, got, want)
				}
			}
		}()
	}
	wg.Wait()
}
