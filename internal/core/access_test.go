package core_test

import (
	"fmt"
	"slices"
	"testing"

	"github.com/virtualpartitions/vp/internal/core"
	"github.com/virtualpartitions/vp/internal/model"
	"github.com/virtualpartitions/vp/internal/shard"
)

// The accessibility rule is decided once per copy set and view; for every
// object and every view over the processors that decision must be the
// object's own rule: Placement.AccessibleIn (R1), or any copy in the view
// for mergeable counters. An accessible set's targets are its holders in
// the view, ascending.
func TestAccessTargetsAreTheRule(t *testing.T) {
	const A, B, C, D = 1, 2, 3, 4
	catalogs := map[string]*model.Catalog{
		// The shape of Figure 1 (experiment E2): weighted pairs.
		"weighted": model.NewCatalog(
			model.Placement{Object: "a", Holders: model.NewProcSet(A, D), Weights: map[model.ProcID]int{A: 2}},
			model.Placement{Object: "b", Holders: model.NewProcSet(B, A), Weights: map[model.ProcID]int{B: 2}},
			model.Placement{Object: "c", Holders: model.NewProcSet(C, B), Weights: map[model.ProcID]int{C: 2}},
			model.Placement{Object: "d", Holders: model.NewProcSet(D, C), Weights: map[model.ProcID]int{D: 2}},
		),
		"full5": model.FullyReplicated(5, "x", "y", "z"),
	}
	procs := []model.ProcID{1, 2, 3, 4, 5}
	var objs []model.ObjectID
	for i := 0; i < 64; i++ {
		objs = append(objs, model.ObjectID(fmt.Sprintf("o%d", i)))
	}
	m, err := shard.NewMap(shard.Config{Shards: 4, Replicas: 3, Seed: 7, Procs: procs, Objects: objs,
		Weights: map[model.ProcID]int{2: 2, 5: 3}})
	if err != nil {
		t.Fatal(err)
	}
	catalogs["shard-global"] = m.Catalog()
	for s := 1; s <= m.NumShards(); s++ {
		catalogs[fmt.Sprintf("shard-%d", s)] = m.ShardCatalog(model.ShardID(s))
	}

	for name, cat := range catalogs {
		for mask := 0; mask < 1<<len(procs); mask++ {
			var view model.ProcSet
			for i, p := range procs {
				if mask&(1<<i) != 0 {
					view.Add(p)
				}
			}
			r1 := core.NewTargets(cat, view, false)
			merge := core.NewTargets(cat, view, true)
			for _, obj := range cat.Objects() {
				pl := cat.Placement(obj)
				i := cat.SetIndex(obj)
				in := (pl.Holders & view).Sorted()
				if got, want := r1[i] != nil, pl.AccessibleIn(view); got != want {
					t.Fatalf("%s: R1 of %q in %v: accessible %v, AccessibleIn %v", name, obj, view, got, want)
				}
				if got, want := merge[i] != nil, in != nil; got != want {
					t.Fatalf("%s: mergeable rule of %q in %v: accessible %v, want %v", name, obj, view, got, want)
				}
				for _, ts := range []core.Targets{r1, merge} {
					if ts[i] != nil && !slices.Equal(ts[i], in) {
						t.Fatalf("%s: targets of %q in %v = %v, want %v", name, obj, view, ts[i], in)
					}
				}
			}
		}
	}
}
