// Quickstart: a three-processor replicated register with the virtual
// partition protocol. Reads cost one physical copy access; writes reach
// every copy in the current view; everything is one-copy serializable.
//
//	go run ./examples/quickstart
package main

import (
	"fmt"
	"log"
	"time"

	vp "github.com/virtualpartitions/vp"
)

func main() {
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

	// Views form within π + 8δ (the paper's liveness bound).
	if !cluster.WaitForView(5*time.Second, 1, 2, 3) {
		log.Fatal("views never converged")
	}
	fmt.Println("cluster up; common view formed within", cluster.ConvergenceBound())

	// Increment through different coordinators.
	for i := 1; i <= 3; i++ {
		if _, err := cluster.DoRetry(i, 5*time.Second, vp.Increment("counter", 1)); err != nil {
			log.Fatalf("increment via node %d: %v", i, err)
		}
	}

	// Read through any node: the logical read touches exactly one copy.
	res, err := cluster.DoRetry(2, 5*time.Second, vp.Read("counter"))
	if err != nil {
		log.Fatal(err)
	}
	fmt.Println("counter =", res.Reads["counter"]) // 3

	if err := cluster.CheckOneCopySR(); err != nil {
		log.Fatal(err)
	}
	fmt.Println("history is one-copy serializable ✓")
}
