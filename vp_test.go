package vp

import (
	"errors"
	"testing"
	"time"
)

// These tests exercise the public facade over the real-time engine, so
// they use wall-clock time with generous margins.

func newTestCluster(t *testing.T, nodes int, objects ...Object) *Cluster {
	t.Helper()
	if len(objects) == 0 {
		objects = []Object{{Name: "x"}}
	}
	c, err := New(Config{
		Nodes:   nodes,
		Objects: objects,
		Delta:   2 * time.Millisecond,
		Timeout: 5 * time.Second,
	})
	if err != nil {
		t.Fatal(err)
	}
	c.Start()
	t.Cleanup(c.Stop)
	procs := make([]int, nodes)
	for i := range procs {
		procs[i] = i + 1
	}
	if !c.WaitForView(5*time.Second, procs...) {
		t.Fatal("views never converged")
	}
	return c
}

func TestConfigValidation(t *testing.T) {
	cases := []Config{
		{Nodes: 0, Objects: []Object{{Name: "x"}}},
		{Nodes: 2},
		{Nodes: 2, Objects: []Object{{Name: ""}}},
		{Nodes: 2, Objects: []Object{{Name: "x", Replicas: []int{9}}}},
		{Nodes: 2, Objects: []Object{{Name: "x", Weights: map[int]int{1: 0}}}},
		{Nodes: 2, Objects: []Object{{Name: "x", Replicas: []int{1}, Weights: map[int]int{2: 1}}}},
	}
	for i, cfg := range cases {
		if _, err := New(cfg); err == nil {
			t.Errorf("case %d: config accepted: %+v", i, cfg)
		}
	}
}

func TestIncrementAndRead(t *testing.T) {
	c := newTestCluster(t, 3)
	if _, err := c.DoRetry(1, 5*time.Second, Increment("x", 5)); err != nil {
		t.Fatal(err)
	}
	res, err := c.DoRetry(2, 5*time.Second, Read("x"))
	if err != nil {
		t.Fatal(err)
	}
	if res.Reads["x"] != 5 {
		t.Fatalf("x = %d, want 5", res.Reads["x"])
	}
	if err := c.CheckOneCopySR(); err != nil {
		t.Fatal(err)
	}
	if c.Committed() < 2 {
		t.Fatal("commit count wrong")
	}
}

func TestTransferConserves(t *testing.T) {
	c := newTestCluster(t, 3, Object{Name: "a"}, Object{Name: "b"})
	if _, err := c.DoRetry(1, 5*time.Second, Write("a", 100), Write("b", 100)); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 5; i++ {
		if _, err := c.DoRetry(i%3+1, 5*time.Second, Transfer("a", "b", 10)); err != nil {
			t.Fatal(err)
		}
	}
	res, err := c.DoRetry(2, 5*time.Second, Read("a"), Read("b"))
	if err != nil {
		t.Fatal(err)
	}
	if res.Reads["a"]+res.Reads["b"] != 200 {
		t.Fatalf("money not conserved: %v", res.Reads)
	}
	if res.Reads["a"] != 50 {
		t.Fatalf("a = %d, want 50", res.Reads["a"])
	}
	if err := c.CheckOneCopySR(); err != nil {
		t.Fatal(err)
	}
}

func TestMinorityUnavailable(t *testing.T) {
	c := newTestCluster(t, 3)
	c.Partition([]int{1, 2}, []int{3})
	if !c.WaitForView(5*time.Second, 1, 2) {
		t.Fatal("majority view never formed")
	}
	// Until processor 3 notices the partition it is still in the old
	// view, where its own copy is readable — legitimately.
	if !c.WaitForView(5*time.Second, 3) {
		t.Fatal("minority view never formed")
	}
	// Majority works.
	if _, err := c.DoRetry(1, 5*time.Second, Increment("x", 1)); err != nil {
		t.Fatal(err)
	}
	// Minority is denied or aborts; it must NOT commit.
	_, err := c.Do(3, Read("x"))
	if err == nil {
		t.Fatal("minority read committed")
	}
	if errors.Is(err, ErrTimeout) {
		t.Log("minority read timed out (partition mid-detection); acceptable")
	}
	c.Heal()
	if !c.WaitForView(5*time.Second, 1, 2, 3) {
		t.Fatal("views never merged after heal")
	}
	// Rejoined node reads the refreshed value through its own copy.
	res, err := c.DoRetry(3, 5*time.Second, Read("x"))
	if err != nil {
		t.Fatal(err)
	}
	if res.Reads["x"] != 1 {
		t.Fatalf("stale read after heal: %d", res.Reads["x"])
	}
	if err := c.CheckOneCopySR(); err != nil {
		t.Fatal(err)
	}
}

func TestWeightedObject(t *testing.T) {
	c := newTestCluster(t, 3, Object{Name: "x", Weights: map[int]int{1: 2}})
	// Total weight 4; {1,2} has 3 — a majority even without node 3.
	c.Partition([]int{1, 2}, []int{3})
	if !c.WaitForView(5*time.Second, 1, 2) {
		t.Fatal("majority view never formed")
	}
	if _, err := c.DoRetry(1, 5*time.Second, Increment("x", 1)); err != nil {
		t.Fatal(err)
	}
	if err := c.CheckOneCopySR(); err != nil {
		t.Fatal(err)
	}
}

func TestViewAccessors(t *testing.T) {
	c := newTestCluster(t, 2)
	view, assigned := c.View(1)
	if !assigned || len(view) != 2 {
		t.Fatalf("View(1) = %v, %v", view, assigned)
	}
	if _, ok := c.View(99); ok {
		t.Fatal("unknown node should not be assigned")
	}
	if c.ConvergenceBound() <= 0 {
		t.Fatal("bound not positive")
	}
}

func TestStoppedCluster(t *testing.T) {
	c, err := New(Config{Nodes: 1, Objects: []Object{{Name: "x"}}})
	if err != nil {
		t.Fatal(err)
	}
	c.Start()
	c.Stop()
	if _, err := c.Do(1, Read("x")); !errors.Is(err, ErrStopped) {
		t.Fatalf("err = %v, want ErrStopped", err)
	}
	c.Stop() // idempotent
}

func TestOpsBuilder(t *testing.T) {
	ops := Ops(Read("a"), Increment("b", 1), Write("c", 2))
	if len(ops) != 4 {
		t.Fatalf("Ops flattened to %d", len(ops))
	}
	defer func() {
		if recover() == nil {
			t.Fatal("Ops should panic on a bad fragment")
		}
	}()
	Ops(42)
}

func TestNonTransitiveGraphStays1SR(t *testing.T) {
	// Public-API variant of the paper's Example 1.
	c := newTestCluster(t, 3)
	c.SetLink(1, 2, false)
	done := make(chan error, 2)
	for _, p := range []int{1, 2} {
		p := p
		go func() {
			_, err := c.DoRetry(p, 20*time.Second, Increment("x", 1))
			done <- err
		}()
	}
	for i := 0; i < 2; i++ {
		if err := <-done; err != nil {
			t.Fatalf("increment never committed: %v", err)
		}
	}
	c.Heal()
	if !c.WaitForView(5*time.Second, 1, 2, 3) {
		t.Fatal("no convergence after heal")
	}
	res, err := c.DoRetry(3, 5*time.Second, Read("x"))
	if err != nil {
		t.Fatal(err)
	}
	if res.Reads["x"] != 2 {
		t.Fatalf("x = %d after two increments, want 2 (no lost update)", res.Reads["x"])
	}
	if err := c.CheckOneCopySR(); err != nil {
		t.Fatal(err)
	}
}

func TestMergeableCountersFacade(t *testing.T) {
	c, err := New(Config{
		Nodes:             3,
		Objects:           []Object{{Name: "hits"}},
		Delta:             2 * time.Millisecond,
		Timeout:           5 * time.Second,
		MergeableCounters: true,
	})
	if err != nil {
		t.Fatal(err)
	}
	c.Start()
	t.Cleanup(c.Stop)
	if !c.WaitForView(5*time.Second, 1, 2, 3) {
		t.Fatal("no view")
	}
	// Isolate node 3; BOTH sides keep incrementing.
	c.Partition([]int{1, 2}, []int{3})
	if !c.WaitForView(5*time.Second, 1, 2) || !c.WaitForView(5*time.Second, 3) {
		t.Fatal("partition views never formed")
	}
	if _, err := c.DoRetry(1, 5*time.Second, Increment("hits", 1)); err != nil {
		t.Fatal("majority increment:", err)
	}
	if _, err := c.DoRetry(3, 5*time.Second, Increment("hits", 1)); err != nil {
		t.Fatal("isolated increment (any-copy rule):", err)
	}
	c.Heal()
	if !c.WaitForView(5*time.Second, 1, 2, 3) {
		t.Fatal("no merge")
	}
	// Merged value combines both sides' deltas.
	deadline := time.Now().Add(5 * time.Second)
	for {
		res, err := c.DoRetry(2, 5*time.Second, Read("hits"))
		if err == nil && res.Reads["hits"] == 2 {
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("merge never combined deltas: %v err=%v", res.Reads, err)
		}
		time.Sleep(20 * time.Millisecond)
	}
}
