package core

import (
	"fmt"
	"testing"
	"time"

	"github.com/virtualpartitions/vp/internal/model"
	"github.com/virtualpartitions/vp/internal/net"
	"github.com/virtualpartitions/vp/internal/node"
	"github.com/virtualpartitions/vp/internal/onecopy"
)

// BenchmarkFormation boots three fully replicated processors on the
// simulator — catalog, nodes, Init — and runs them until all three have
// joined one partition: the cost of a fresh boot's view formation as the
// object count grows.
func BenchmarkFormation(b *testing.B) {
	cfg := Config{Config: node.Config{Delta: 50 * time.Millisecond, LogCap: 1024},
		UseLogCatchup: true, UsePrevOpt: true}
	for _, size := range []int{1 << 10, 1 << 13, 1 << 15} {
		objs := make([]model.ObjectID, size)
		for i := range objs {
			objs[i] = model.ObjectID(fmt.Sprintf("o%d", i))
		}
		b.Run(fmt.Sprintf("objects=%d", size), func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				cat := model.FullyReplicated(3, objs...)
				topo, err := net.NewTopology(3, time.Millisecond)
				if err != nil {
					b.Fatal(err)
				}
				cluster := net.NewSimCluster(topo, 1)
				hist := onecopy.NewHistory()
				joined := 0
				for _, p := range topo.Procs() {
					nd := New(p, cfg, cat, hist, nil, nil)
					nd.Observer = func(ev any) {
						if _, ok := ev.(JoinEvent); ok {
							if joined++; joined == 3 {
								cluster.Engine.Stop()
							}
						}
					}
					cluster.AddNode(p, nd)
				}
				cluster.Start()
				cluster.Run(time.Minute)
				if joined != 3 {
					b.Fatalf("%d of 3 processors joined", joined)
				}
			}
		})
	}
}
