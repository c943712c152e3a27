// Bank demo: concurrent transfers between replicated accounts while a
// processor crashes and recovers mid-run. Serializability means the
// total balance is conserved at every committed audit, and the final
// state reflects exactly the committed transfers.
//
//	go run ./examples/bank
package main

import (
	"fmt"
	"log"
	"math/rand"
	"sync"
	"sync/atomic"
	"time"

	vp "github.com/virtualpartitions/vp"
)

const (
	nodes    = 5
	accounts = 4
	initBal  = 1000
	workers  = 4
	transfer = 10
)

func main() {
	objs := make([]vp.Object, accounts)
	names := make([]string, accounts)
	for i := range objs {
		names[i] = fmt.Sprintf("acct%d", i)
		objs[i] = vp.Object{Name: names[i]}
	}
	cluster, err := vp.New(vp.Config{Nodes: nodes, Objects: objs, InitValue: initBal})
	if err != nil {
		log.Fatal(err)
	}
	if err := cluster.Start(); err != nil {
		log.Fatal(err)
	}
	defer cluster.Stop()
	if !cluster.WaitForView(5*time.Second, 1, 2, 3, 4, 5) {
		log.Fatal("views never converged")
	}

	var committed atomic.Int64
	var aborted atomic.Int64
	var wg sync.WaitGroup
	stop := make(chan struct{})
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			rng := rand.New(rand.NewSource(int64(w)))
			for {
				select {
				case <-stop:
					return
				default:
				}
				a, b := rng.Intn(accounts), rng.Intn(accounts)
				if a == b {
					continue
				}
				_, err := cluster.Do(rng.Intn(nodes)+1, vp.Transfer(names[a], names[b], transfer))
				if err == nil {
					committed.Add(1)
				} else {
					aborted.Add(1)
					// Conflicting transfers die fast under wait-die;
					// back off before retrying.
					time.Sleep(time.Duration(1+rng.Intn(10)) * time.Millisecond)
				}
			}
		}(w)
	}

	// Crash a processor mid-run and bring it back.
	time.Sleep(300 * time.Millisecond)
	fmt.Println("crashing node 5 ...")
	cluster.Crash(5)
	time.Sleep(500 * time.Millisecond)
	fmt.Println("healing ...")
	cluster.Heal()
	time.Sleep(300 * time.Millisecond)
	close(stop)
	wg.Wait()

	// Audit: one transaction reading every account.
	frags := make([]any, accounts)
	for i, n := range names {
		frags[i] = vp.Read(n)
	}
	res, err := cluster.DoRetry(1, 10*time.Second, frags...)
	if err != nil {
		log.Fatal("audit failed:", err)
	}
	var total int64
	for _, n := range names {
		fmt.Printf("  %s = %d\n", n, res.Reads[n])
		total += res.Reads[n]
	}
	fmt.Printf("total = %d (expected %d); transfers committed=%d aborted=%d\n",
		total, int64(accounts*initBal), committed.Load(), aborted.Load())
	if total != int64(accounts*initBal) {
		log.Fatal("MONEY NOT CONSERVED")
	}
	if err := cluster.CheckOneCopySR(); err != nil {
		log.Fatal(err)
	}
	fmt.Println("one-copy serializable across the crash ✓")
}
