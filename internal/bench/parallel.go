package bench

import (
	"runtime"
	"sync"
	"sync/atomic"
	"time"

	"github.com/virtualpartitions/vp/internal/workload"
)

// Parallel runs fn(0) .. fn(n-1), each exactly once, across at most
// workers goroutines, and returns the results in index order. Indices are
// claimed from an atomic counter, so workers stay busy regardless of how
// uneven the per-index cost is. workers <= 0 means GOMAXPROCS.
//
// Determinism: every experiment cell owns a private simulation engine
// seeded from its spec, so fn calls share no state and the result for
// index i is identical whether the grid runs on one worker or eight. The
// only thing parallelism changes is wall-clock time.
func Parallel[T any](n, workers int, fn func(i int) T) []T {
	if n <= 0 {
		return nil
	}
	if workers <= 0 {
		workers = runtime.GOMAXPROCS(0)
	}
	if workers > n {
		workers = n
	}
	out := make([]T, n)
	if workers == 1 {
		for i := range out {
			out[i] = fn(i)
		}
		return out
	}
	var next atomic.Int64
	var wg sync.WaitGroup
	wg.Add(workers)
	for w := 0; w < workers; w++ {
		go func() {
			defer wg.Done()
			for {
				i := int(next.Add(1)) - 1
				if i >= n {
					return
				}
				out[i] = fn(i)
			}
		}()
	}
	wg.Wait()
	return out
}

// RunExperiments runs the selected experiments across workers and returns
// their tables in input order.
func RunExperiments(exps []Experiment, seed int64, workers int) []*Table {
	return Parallel(len(exps), workers, func(i int) *Table {
		return exps[i].Run(seed)
	})
}

// Cell is one point of an experiment grid: a cluster spec plus the
// workload to drive through it.
type Cell struct {
	Spec    Spec
	Mix     workload.Mix
	Txns    int           // number of transactions (default 50)
	MeanGap time.Duration // mean inter-arrival (default 5ms)
	Horizon time.Duration // run length after warm-up (default 2s)
}

func (c Cell) withDefaults() Cell {
	if c.Txns == 0 {
		c.Txns = 50
	}
	if c.MeanGap == 0 {
		c.MeanGap = 5 * time.Millisecond
	}
	if c.Horizon == 0 {
		c.Horizon = 2 * time.Second
	}
	return c
}

// RunCell builds a fresh cluster for the cell, drives its workload, and
// returns the run's stats. Everything — placement, schedule, simulation —
// derives from Spec.Seed, so a cell is a pure function of its value.
func RunCell(c Cell) Result {
	c = c.withDefaults()
	r := NewRunner(c.Spec)
	warm := r.WarmUp()
	gen := workload.NewGenerator(c.Spec.Seed, workload.Objects(r.Spec.Objects),
		r.Topo.Procs(), c.Mix, 0)
	r.Load(gen.Schedule(warm, c.MeanGap, c.Txns))
	r.Run(warm + c.Horizon)
	return r.Stats()
}

// RunCells evaluates every cell across workers; results come back in cell
// order and are independent of the worker count.
func RunCells(cells []Cell, workers int) []Result {
	return Parallel(len(cells), workers, func(i int) Result {
		return RunCell(cells[i])
	})
}
