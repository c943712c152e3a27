package vp_test

import (
	"errors"
	"fmt"
	"log"
	"time"

	vp "github.com/virtualpartitions/vp"
)

// Example demonstrates the basic lifecycle: build a cluster, wait for
// the first virtual partition to form, run transactions, check the
// history.
func Example() {
	cluster, err := vp.New(vp.Config{
		Nodes:   3,
		Objects: []vp.Object{{Name: "counter"}},
	})
	if err != nil {
		log.Fatal(err)
	}
	if err := cluster.Start(); err != nil {
		log.Fatal(err)
	}
	defer cluster.Stop()
	cluster.WaitForView(5*time.Second, 1, 2, 3)

	if _, err := cluster.DoRetry(1, 5*time.Second, vp.Increment("counter", 2)); err != nil {
		log.Fatal(err)
	}
	res, err := cluster.DoRetry(2, 5*time.Second, vp.Read("counter"))
	if err != nil {
		log.Fatal(err)
	}
	fmt.Println("counter =", res.Reads["counter"])
	fmt.Println("1SR:", cluster.CheckOneCopySR() == nil)
	// Output:
	// counter = 2
	// 1SR: true
}

// ExampleCluster_Partition shows the majority rule in action: the
// majority side of a partition keeps working, the minority is refused,
// and after the heal the rejoined node serves the refreshed value.
func ExampleCluster_Partition() {
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
	cluster.WaitForView(5*time.Second, 1, 2, 3)

	cluster.Partition([]int{1, 2}, []int{3})
	cluster.WaitForView(5*time.Second, 1, 2)
	cluster.WaitForView(5*time.Second, 3)

	_, errMajority := cluster.DoRetry(1, 5*time.Second, vp.Write("x", 42))
	_, errMinority := cluster.Do(3, vp.Read("x"))
	fmt.Println("majority write ok:", errMajority == nil)
	fmt.Println("minority refused:", errMinority != nil)

	cluster.Heal()
	cluster.WaitForView(5*time.Second, 1, 2, 3)
	res, err := cluster.DoRetry(3, 5*time.Second, vp.Read("x"))
	if err != nil {
		log.Fatal(err)
	}
	fmt.Println("after heal, node 3 reads", res.Reads["x"])
	// Output:
	// majority write ok: true
	// minority refused: true
	// after heal, node 3 reads 42
}

// ExampleObject_weighted shows the paper's weighted majority rule: a
// copy with weight 2 out of a total of 4 cannot form a majority alone,
// but together with any weight-1 copy it can.
func ExampleObject_weighted() {
	cluster, err := vp.New(vp.Config{
		Nodes: 3,
		Objects: []vp.Object{{
			Name:    "ledger",
			Weights: map[int]int{1: 2}, // total weight 4
		}},
	})
	if err != nil {
		log.Fatal(err)
	}
	if err := cluster.Start(); err != nil {
		log.Fatal(err)
	}
	defer cluster.Stop()
	cluster.WaitForView(5*time.Second, 1, 2, 3)

	cluster.Partition([]int{1, 2}, []int{3})
	cluster.WaitForView(5*time.Second, 1, 2)
	cluster.WaitForView(5*time.Second, 3)
	_, err = cluster.DoRetry(1, 5*time.Second, vp.Increment("ledger", 1))
	fmt.Println("weight 3 of 4 writes:", err == nil)

	_, err = cluster.Do(3, vp.Read("ledger"))
	fmt.Println("weight 1 of 4 refused:", errors.Is(err, vp.ErrUnavailable) ||
		errors.Is(err, vp.ErrAborted) || errors.Is(err, vp.ErrTimeout))
	// Output:
	// weight 3 of 4 writes: true
	// weight 1 of 4 refused: true
}
