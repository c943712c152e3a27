// Partition demo: the scenarios behind the paper's Examples 1 and 2,
// run through the public API.
//
// Part 1 splits a five-processor cluster: the majority side keeps
// reading AND writing, the minority is refused by the majority rule
// (R1), and after the heal the rejoined processors serve the refreshed
// value from their own copies (rule R5) — still one read per logical
// read.
//
// Part 2 reproduces the paper's Figure 1: a non-transitive
// communication graph where A and B cannot talk but both reach C. The
// naive view-based rules lose an update here (Example 1); the virtual
// partition protocol serializes both increments.
//
//	go run ./examples/partition
package main

import (
	"errors"
	"fmt"
	"log"
	"time"

	vp "github.com/virtualpartitions/vp"
)

func main() {
	partitionDemo()
	figure1Demo()
}

func partitionDemo() {
	fmt.Println("— part 1: majority keeps working, minority is fenced —")
	cluster, err := vp.New(vp.Config{
		Nodes:   5,
		Objects: []vp.Object{{Name: "x"}},
	})
	if err != nil {
		log.Fatal(err)
	}
	if err := cluster.Start(); err != nil {
		log.Fatal(err)
	}
	defer cluster.Stop()
	if !cluster.WaitForView(5*time.Second, 1, 2, 3, 4, 5) {
		log.Fatal("no initial view")
	}

	cluster.Partition([]int{1, 2, 3}, []int{4, 5})
	if !cluster.WaitForView(5*time.Second, 1, 2, 3) || !cluster.WaitForView(5*time.Second, 4, 5) {
		log.Fatal("partition views never formed")
	}
	fmt.Println("partitioned {1,2,3} | {4,5}")

	if _, err := cluster.DoRetry(1, 5*time.Second, vp.Write("x", 42)); err != nil {
		log.Fatal("majority write failed:", err)
	}
	fmt.Println("majority wrote x = 42")

	if _, err := cluster.Do(4, vp.Read("x")); err != nil {
		switch {
		case errors.Is(err, vp.ErrUnavailable), errors.Is(err, vp.ErrAborted):
			fmt.Println("minority read refused:", err)
		default:
			fmt.Println("minority read failed:", err)
		}
	} else {
		// A read may still succeed briefly before node 4's probes
		// detect the partition — the paper's bounded-staleness window.
		fmt.Println("minority read served from the pre-partition view (stale window)")
	}

	cluster.Heal()
	if !cluster.WaitForView(5*time.Second, 1, 2, 3, 4, 5) {
		log.Fatal("views never merged")
	}
	res, err := cluster.DoRetry(4, 5*time.Second, vp.Read("x"))
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("after heal, node 4 reads x = %d from its own refreshed copy\n", res.Reads["x"])
	if err := cluster.CheckOneCopySR(); err != nil {
		log.Fatal(err)
	}
	fmt.Println("one-copy serializable ✓")
}

func figure1Demo() {
	fmt.Println("\n— part 2: the Figure 1 non-transitive graph (Example 1) —")
	cluster, err := vp.New(vp.Config{
		Nodes:   3,
		Objects: []vp.Object{{Name: "x"}},
	})
	if err != nil {
		log.Fatal(err)
	}
	if err := cluster.Start(); err != nil {
		log.Fatal(err)
	}
	defer cluster.Stop()
	if !cluster.WaitForView(5*time.Second, 1, 2, 3) {
		log.Fatal("no initial view")
	}

	// A=1, B=2, C=3: cut only A–B.
	cluster.SetLink(1, 2, false)
	fmt.Println("link 1–2 down; both 1 and 2 still reach 3")

	done := make(chan error, 2)
	for _, p := range []int{1, 2} {
		p := p
		go func() {
			_, err := cluster.DoRetry(p, 30*time.Second, vp.Increment("x", 1))
			done <- err
		}()
	}
	for i := 0; i < 2; i++ {
		if err := <-done; err != nil {
			log.Fatal("increment failed:", err)
		}
	}
	cluster.Heal()
	if !cluster.WaitForView(5*time.Second, 1, 2, 3) {
		log.Fatal("no convergence after heal")
	}
	res, err := cluster.DoRetry(3, 5*time.Second, vp.Read("x"))
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("x = %d after two increments (the naive rules would have produced 1)\n", res.Reads["x"])
	if err := cluster.CheckOneCopySR(); err != nil {
		log.Fatal(err)
	}
	fmt.Println("one-copy serializable ✓")
}
