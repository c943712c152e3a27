package campaign

import (
	"encoding/json"
	"os"
	"path/filepath"
	"testing"
	"time"

	"github.com/virtualpartitions/vp/internal/nemesis"
)

// BenchmarkSimCell runs each sim cell of specs/chaos.json at the spec's
// own seed, end to end as the campaign does (RunCell: the simulation,
// then the gates and the digest). One op is one cell. events/s counts
// the simulator's executed events; a cell always executes the same
// number, so it is counted once, outside the timed loop.
func BenchmarkSimCell(b *testing.B) {
	raw, err := os.ReadFile(filepath.Join("..", "..", "specs", "chaos.json"))
	if err != nil {
		b.Fatal(err)
	}
	var spec Spec
	if err := json.Unmarshal(raw, &spec); err != nil {
		b.Fatal(err)
	}
	cells, err := spec.Expand()
	if err != nil {
		b.Fatal(err)
	}
	for _, c := range cells {
		if c.Backend != BackendSim {
			continue
		}
		c := c
		b.Run(c.Nemesis, func(b *testing.B) {
			events := simEvents(b, c)
			b.ReportAllocs()
			b.ResetTimer()
			began := time.Now()
			for i := 0; i < b.N; i++ {
				if res := RunCell(c); !res.OK() {
					b.Fatalf("cell %s failed: %v", c.ID, res.Failures)
				}
			}
			secs := time.Since(began).Seconds()
			b.ReportMetric(float64(b.N)/secs, "cells/s")
			b.ReportMetric(float64(events)*float64(b.N)/secs, "events/s")
		})
	}
}

// simEvents drives c's plan on the simulator as the sim platform does
// and returns the number of events the simulation executed.
func simEvents(b *testing.B, c Cell) int {
	plan := BuildPlan(c)
	p := &simPlatform{}
	if err := p.Start(ClusterConfig{N: c.N, Objects: c.Objects, Seed: c.Seed, Delta: c.Delta}); err != nil {
		b.Fatal(err)
	}
	nemesis.ApplyToSim(p.r.Cluster, p.r.Topo, plan.Faults)
	p.r.Load(plan.Txns)
	p.r.Load(plan.Probes)
	return p.r.Cluster.Engine.Run(plan.End)
}
