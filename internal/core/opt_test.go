package core

import (
	"testing"
	"time"

	"github.com/virtualpartitions/vp/internal/model"
	"github.com/virtualpartitions/vp/internal/node"
	"github.com/virtualpartitions/vp/internal/onecopy"
	"github.com/virtualpartitions/vp/internal/wire"
)

// Tests for the §6 optimizations: previous-partition refresh skipping,
// log-based catch-up, and the weakened rule R4.

func TestPrevOptSkipsRefreshOnSplitOff(t *testing.T) {
	cat := model.FullyReplicated(5, "x", "y")
	cfg := fixtureConfig()
	cfg.UsePrevOpt = true
	f := newFixtureCfg(t, cat, 5, cfg, 31)
	f.run(tDeltaBound)
	f.requireCommonView(1, 2, 3, 4, 5)
	skipsBefore := f.cluster.Reg.Get("vp.refresh.skipped")
	// Crash node 5: the remaining four split off from the common
	// partition — every member's previous partition is the same, so R5
	// refresh is skipped entirely.
	f.cluster.At(200*time.Millisecond, "crash", func() { f.topo.Crash(5) })
	f.run(200*time.Millisecond + 2*tDeltaBound)
	f.requireCommonView(1, 2, 3, 4)
	if got := f.cluster.Reg.Get("vp.refresh.skipped"); got <= skipsBefore {
		t.Fatalf("split-off did not skip refresh (skips %d -> %d)", skipsBefore, got)
	}
	// Correctness must be unaffected.
	wTag := f.submit(600*time.Millisecond, 1, wire.IncrementOps("x", 1))
	f.run(600*time.Millisecond + time.Second)
	if !f.results[wTag].Committed {
		t.Fatalf("write after skipped refresh aborted: %s", f.results[wTag].Reason)
	}
	if r := onecopy.Check(f.hist); !r.OK {
		t.Fatalf("not 1SR: %s", r.Reason)
	}
}

func TestPrevOptDoesNotSkipOnMerge(t *testing.T) {
	cat := model.FullyReplicated(4, "x")
	cfg := fixtureConfig()
	cfg.UsePrevOpt = true
	f := newFixtureCfg(t, cat, 4, cfg, 32)
	f.run(tDeltaBound)
	f.cluster.At(200*time.Millisecond, "split", func() {
		f.topo.Partition([]model.ProcID{1, 2, 3}, []model.ProcID{4})
	})
	f.run(200*time.Millisecond + 2*tDeltaBound)
	wTag := f.submit(500*time.Millisecond, 1, []wire.Op{wire.WriteOp("x", 77)})
	f.run(500*time.Millisecond + time.Second)
	if !f.results[wTag].Committed {
		t.Fatalf("write aborted: %s", f.results[wTag].Reason)
	}
	f.cluster.At(2*time.Second, "heal", func() { f.topo.FullMesh() })
	f.run(2*time.Second + 2*tDeltaBound)
	f.requireCommonView(1, 2, 3, 4)
	// Node 4 merged from a different previous partition: refresh must
	// NOT be skipped and its copy must hold 77.
	if got := f.nodes[4].Store.Get("x"); got.Val != 77 {
		t.Fatalf("merge skipped refresh: copy at P4 = %d, want 77", got.Val)
	}
	rTag := f.submit(f.cluster.Engine.Now(), 4, []wire.Op{wire.ReadOp("x")})
	f.run(f.cluster.Engine.Now() + time.Second)
	if res := f.results[rTag]; !res.Committed || res.Reads[0].Val != 77 {
		t.Fatalf("read through rejoined node: %+v", res)
	}
}

func TestLogCatchupEquivalentToFullRefresh(t *testing.T) {
	run := func(useLog bool) (model.Value, int64, int64) {
		cat := model.FullyReplicated(3, "x")
		cfg := fixtureConfig()
		cfg.UseLogCatchup = useLog
		cfg.LogCap = 128
		f := newFixtureCfg(t, cat, 3, cfg, 33)
		f.run(tDeltaBound)
		f.cluster.At(200*time.Millisecond, "split", func() {
			f.topo.Partition([]model.ProcID{1, 2}, []model.ProcID{3})
		})
		f.run(200*time.Millisecond + 2*tDeltaBound)
		// 10 writes missed by node 3.
		for i := 0; i < 10; i++ {
			f.submit(400*time.Millisecond+time.Duration(i)*50*time.Millisecond, 1,
				wire.IncrementOps("x", 1))
		}
		f.run(2 * time.Second)
		f.cluster.At(2*time.Second, "heal", func() { f.topo.FullMesh() })
		f.run(2*time.Second + 2*tDeltaBound)
		return f.nodes[3].Store.Get("x").Val,
			f.cluster.Reg.Get("vp.catchup.writes"),
			f.cluster.Reg.Get("vp.refresh.bytes")
	}
	fullVal, fullCatchup, fullBytes := run(false)
	logVal, logCatchup, logBytes := run(true)
	if fullVal != logVal {
		t.Fatalf("log catch-up diverged: full=%d log=%d", fullVal, logVal)
	}
	if fullVal == 0 {
		t.Fatal("writes never reached the majority side")
	}
	if fullCatchup != 0 {
		t.Fatalf("full refresh should not count catch-up writes, got %d", fullCatchup)
	}
	if logCatchup == 0 {
		t.Fatal("log mode never shipped catch-up writes")
	}
	if logBytes >= fullBytes {
		t.Fatalf("log catch-up should ship fewer bytes: log=%d full=%d", logBytes, fullBytes)
	}
	t.Logf("refresh bytes: full=%d log=%d (%.1fx saving)", fullBytes, logBytes,
		float64(fullBytes)/float64(logBytes))
}

func TestLogCatchupFallsBackWhenLogTruncated(t *testing.T) {
	cat := model.FullyReplicated(3, "x")
	cfg := fixtureConfig()
	cfg.UseLogCatchup = true
	cfg.LogCap = 2 // tiny log: 10 missed writes will overflow it
	f := newFixtureCfg(t, cat, 3, cfg, 34)
	f.run(tDeltaBound)
	f.cluster.At(200*time.Millisecond, "split", func() {
		f.topo.Partition([]model.ProcID{1, 2}, []model.ProcID{3})
	})
	f.run(200*time.Millisecond + 2*tDeltaBound)
	for i := 0; i < 10; i++ {
		f.submit(400*time.Millisecond+time.Duration(i)*50*time.Millisecond, 1,
			wire.IncrementOps("x", 1))
	}
	f.run(2 * time.Second)
	f.cluster.At(2*time.Second, "heal", func() { f.topo.FullMesh() })
	f.run(2*time.Second + 2*tDeltaBound)
	want := f.nodes[1].Store.Get("x").Val
	if got := f.nodes[3].Store.Get("x").Val; got != want || want == 0 {
		t.Fatalf("fallback full read failed: P3=%d P1=%d", got, want)
	}
}

func TestWeakR4ReducesAborts(t *testing.T) {
	// A long transaction whose footprint lives entirely in {1,2,3} runs
	// while node 4 crashes. Its lifetime spans the partition detection
	// and re-formation window, so strict R4 aborts it (a processor it
	// uses joined a new partition mid-flight) while weak R4 migrates it
	// into the new partition {1,2,3} and lets it commit.
	run := func(weak bool) wire.ClientResult {
		cat := model.NewCatalog(
			model.Placement{Object: "x", Holders: model.NewProcSet(1, 2, 3)},
			model.Placement{Object: "y", Holders: model.NewProcSet(1, 2, 3)},
		)
		cfg := fixtureConfig()
		cfg.WeakR4 = weak
		f := newFixtureCfg(t, cat, 4, cfg, 35)
		f.run(tDeltaBound)
		f.requireCommonView(1, 2, 3, 4)
		// ~100 operations at ~2ms each: runs from 200ms well past the
		// ~250ms partition re-formation that follows the 210ms crash.
		// (Blind writes: each runs a lock round, where a write of something
		// the transaction has read costs no round trip until the prepare.)
		var ops []wire.Op
		for i := 0; i < 50; i++ {
			ops = append(ops, wire.WriteOp("x", int64(i)), wire.WriteOp("y", int64(i)))
		}
		tag := f.submit(200*time.Millisecond, 1, ops)
		f.cluster.At(210*time.Millisecond, "crash", func() { f.topo.Crash(4) })
		f.run(10 * time.Second)
		if r := onecopy.Check(f.hist); !r.OK {
			t.Fatalf("weak=%v broke 1SR: %s", weak, r.Reason)
		}
		return f.results[tag]
	}
	strict := run(false)
	weak := run(true)
	if !weak.Committed {
		t.Fatalf("weak R4 should let the fully-contained transaction commit: %+v", weak)
	}
	if strict.Committed {
		t.Fatal("strict R4 should abort the transaction spanning the partition change")
	}
}

func TestWeakR4Still1SR(t *testing.T) {
	cat := model.FullyReplicated(5, "x", "y")
	cfg := fixtureConfig()
	cfg.WeakR4 = true
	f := newFixtureCfg(t, cat, 5, cfg, 36)
	f.run(tDeltaBound)
	for i := 0; i < 20; i++ {
		obj := model.ObjectID("x")
		if i%2 == 1 {
			obj = "y"
		}
		f.submit(200*time.Millisecond+time.Duration(i)*30*time.Millisecond,
			model.ProcID(i%5+1), wire.IncrementOps(obj, 1))
	}
	f.cluster.At(300*time.Millisecond, "crash", func() { f.topo.Crash(5) })
	f.cluster.At(600*time.Millisecond, "heal", func() { f.topo.Recover(5) })
	f.run(10 * time.Second)
	if r := onecopy.Check(f.hist); !r.OK {
		t.Fatalf("weak R4 broke 1SR: %s\n%s", r.Reason, f.hist)
	}
}

// TestEpochChangedKeepsPreparedWrites covers the 2PC blocking window: a
// participant with a prepared write keeps it across a partition change
// and resolves it when the retransmitted Decide arrives after the heal.
func TestEpochChangedKeepsPreparedWrites(t *testing.T) {
	cat := model.FullyReplicated(3, "x")
	f := newFixture(t, cat, 3, 37)
	f.run(tDeltaBound)
	tag := f.submit(200*time.Millisecond, 1, wire.IncrementOps("x", 1))
	// Cut node 3 away from the coordinator right as prepares land (the
	// lock round trip took ~2δ; prepare arrives ~δ later).
	f.cluster.At(200*time.Millisecond+5*time.Millisecond+tDelta/2, "cut", func() {
		f.topo.Partition([]model.ProcID{1, 2}, []model.ProcID{3})
	})
	f.cluster.At(time.Second, "heal", func() { f.topo.FullMesh() })
	f.run(8 * time.Second)
	_ = tag
	// Whatever the outcome, no staged write may survive and all copies
	// must agree after the heal + refresh + retransmitted decides.
	vals := map[model.Value]bool{}
	for _, p := range f.topo.Procs() {
		if _, staged := f.nodes[p].Store.StagedBy("x"); staged {
			t.Fatalf("staged write still present at %v", p)
		}
		vals[f.nodes[p].Store.Get("x").Val] = true
	}
	if len(vals) != 1 {
		t.Fatalf("copies diverged: %v", vals)
	}
	if r := onecopy.Check(f.hist); !r.OK {
		t.Fatalf("not 1SR: %s", r.Reason)
	}
}

func TestConfigDefaultsCore(t *testing.T) {
	c := Config{}.WithDefaults()
	if c.Pi != 20*c.Delta {
		t.Fatalf("Pi default = %v, want 20δ", c.Pi)
	}
	c2 := Config{Pi: time.Second, Config: node.Config{Delta: time.Millisecond}}.WithDefaults()
	if c2.Pi != time.Second {
		t.Fatal("explicit Pi overridden")
	}
}
