package campaign

import (
	"testing"

	"github.com/virtualpartitions/vp/internal/metrics"
	"github.com/virtualpartitions/vp/internal/nemesis"
)

// inprocCell expands a one-cell inproc spec.
func inprocCell(t *testing.T, seed int64, n, objects int, profile string, ph Phases) Cell {
	t.Helper()
	cells, err := Spec{
		Seed:   seed,
		Axes:   Axes{Backend: []string{BackendInproc}, N: []int{n}, Objects: []int{objects}, Nemesis: []string{profile}},
		Phases: ph,
	}.Expand()
	if err != nil {
		t.Fatal(err)
	}
	return cells[0]
}

// runInproc is RunCell on an inproc platform the test can inspect
// afterwards, with the snapshot the gates were evaluated on.
func runInproc(t *testing.T, c Cell) (*Snapshot, *inprocPlatform) {
	t.Helper()
	if testing.Short() {
		t.Skip("real-time TCP cluster")
	}
	p := &inprocPlatform{}
	if err := p.Start(ClusterConfig{N: c.N, Objects: c.Objects, Seed: c.Seed, Delta: c.Delta}); err != nil {
		t.Fatal(err)
	}
	defer p.Stop()
	plan := BuildPlan(c)
	if err := p.Drive(plan); err != nil {
		t.Fatal(err)
	}
	snap, err := p.Scrape()
	if err != nil {
		t.Fatal(err)
	}
	res := CellResult{ID: c.ID}
	evaluate(&res, plan, snap)
	if !res.OK() {
		t.Fatalf("%s failed: gates=%+v failures=%v", c.ID, res.Gates, res.Failures)
	}
	return snap, p
}

// TestInprocCrashRestartsFromJournal: a crash stops the node, and the
// restart boots it from the journal it left, not fresh. The nodes export
// their file journals' counters, as a deployed vpnode does.
func TestInprocCrashRestartsFromJournal(t *testing.T) {
	c := inprocCell(t, 3, 3, 2, NemesisCrashes, Phases{RampMS: 100, SteadyMS: 300, FaultMS: 1200, HealMS: 800})
	restarts := BuildPlan(c).Faults.Counts()[nemesis.StepRestart]
	snap, p := runInproc(t, c)
	if restarts < 2 || p.restored != restarts {
		t.Fatalf("%d of %d restarts booted from a restored journal", p.restored, restarts)
	}
	if n := snap.Counters[metrics.CJournalFsyncs]; n <= 0 {
		t.Fatalf("scraped %s = %d, want > 0", metrics.CJournalFsyncs, n)
	}
}

// TestKill9CellInjectsDiskFaults: every kill of a kill9 cell runs the
// disk-fault sequence, the cell passes its gates, and the disks saw at
// least one torn write and one failed fsync.
func TestKill9CellInjectsDiskFaults(t *testing.T) {
	c := inprocCell(t, 7, 5, 4, NemesisKill9, Phases{RampMS: 100, SteadyMS: 300, FaultMS: 1600, HealMS: 800})
	kills := BuildPlan(c).Faults.Counts()[nemesis.StepKill]
	_, p := runInproc(t, c)
	t.Logf("%d kills: %d restored boots, %d torn writes, %d failed fsyncs", kills, p.restored, p.torn, p.failedFsyncs)
	if kills < 2 || p.restored != kills {
		t.Fatalf("%d of %d kills restarted from their journal", p.restored, kills)
	}
	if p.torn == 0 || p.failedFsyncs == 0 {
		t.Fatalf("disks injected %d torn writes and %d failed fsyncs, want both", p.torn, p.failedFsyncs)
	}
}

// TestScrapeKeepsStoppedNodesCounters: a crashed node's messages still
// count after its restart.
func TestScrapeKeepsStoppedNodesCounters(t *testing.T) {
	if testing.Short() {
		t.Skip("real-time TCP cluster")
	}
	p := &inprocPlatform{}
	if err := p.Start(ClusterConfig{N: 3, Objects: 2, Seed: 11, Delta: defaultDelta(BackendInproc)}); err != nil {
		t.Fatal(err)
	}
	defer p.Stop()
	if err := p.Drive(conformancePlan(3, 2)); err != nil {
		t.Fatal(err)
	}
	snap, err := p.Scrape()
	if err != nil {
		t.Fatal(err)
	}
	var running int64
	for proc := range p.clients {
		running += p.c.Node(proc).Metrics().Get(metrics.CMsgSent)
	}
	if snap.Counters[metrics.CMsgSent] <= running {
		t.Fatalf("scraped %d messages sent, no more than the running incarnations' %d",
			snap.Counters[metrics.CMsgSent], running)
	}
}

// TestLiveChaosShort is a scaled-down chaos cell: three real TCP nodes
// on file journals, a partition, a crash and flaky links, every gate.
// make chaos runs the full size (specs/chaos.json).
func TestLiveChaosShort(t *testing.T) {
	c := inprocCell(t, 5, 3, 2, NemesisMixed, Phases{RampMS: 100, SteadyMS: 300, FaultMS: 1200, HealMS: 800})
	counts := BuildPlan(c).Faults.Counts()
	if counts[nemesis.StepPartition]+counts[nemesis.StepIsolateOne] == 0 || counts[nemesis.StepCrash] == 0 {
		t.Fatalf("schedule lacks a partition or a crash: %v", counts)
	}
	runInproc(t, c)
}
