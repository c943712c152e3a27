package model

import (
	"encoding/binary"
	"fmt"
	"maps"
	"slices"
)

// Placement describes where the copies of one logical object live and how
// they are weighted. It implements the functions copies: L → P(P) of §3
// and the weighted-majority accessibility test of rule R1. A nil weight
// map means every copy has weight 1 (unweighted majority voting).
type Placement struct {
	Object  ObjectID
	Holders ProcSet        // processors possessing a physical copy
	Weights map[ProcID]int // optional per-copy weights; missing ⇒ 1
}

// Weight returns the voting weight of the copy at p (0 if p holds none).
func (pl *Placement) Weight(p ProcID) int {
	if !pl.Holders.Has(p) {
		return 0
	}
	if pl.Weights == nil {
		return 1
	}
	if w, ok := pl.Weights[p]; ok {
		return w
	}
	return 1
}

// TotalWeight returns the sum of all copy weights.
func (pl *Placement) TotalWeight() int { return pl.WeightIn(pl.Holders) }

// WeightIn returns the combined weight of the copies held by processors
// in the given set.
func (pl *Placement) WeightIn(set ProcSet) int {
	in := pl.Holders & set
	if pl.Weights == nil {
		return in.Len()
	}
	t := 0
	for _, p := range in.Sorted() {
		t += pl.Weight(p)
	}
	return t
}

// AccessibleIn implements the Boolean function accessible(l, A) of §5:
// true iff a strict (weighted) majority of the copies of the object
// resides on processors in A.
func (pl *Placement) AccessibleIn(set ProcSet) bool {
	return 2*pl.WeightIn(set) > pl.TotalWeight()
}

// Catalog is the replicated database schema: the set L of logical objects
// together with the placement of their copies. The catalog is static for
// the lifetime of a cluster (the paper does not consider copy creation or
// migration) and is replicated in full at every processor.
//
// Rule R1 depends on an object's copy set, never on the object, so the
// catalog interns placements: objects with equal holders and weights
// share one copy set, numbered by SetIndex, and a view's accessibility
// can be decided once per copy set (Sets).
type Catalog struct {
	sets    []*Placement          // the distinct copy sets; Object unset
	setOf   map[ObjectID]int32    // object → index into sets
	objects []ObjectID            // sorted, for deterministic iteration
	local   map[ProcID][]ObjectID // sorted local_p lists
}

// NewCatalog builds a catalog from the given placements. It panics on a
// duplicate object or an object with no copies: both are configuration
// errors that can never be valid. The weights of each distinct copy set
// are copied once; later changes to the caller's maps do not reach the
// catalog.
func NewCatalog(placements ...Placement) *Catalog {
	c := &Catalog{setOf: make(map[ObjectID]int32, len(placements))}
	objects := make([]ObjectID, 0, len(placements))
	index := make(map[string]int32) // copy-set key → index into sets
	var key []byte
	for i := range placements {
		pl := &placements[i]
		if _, dup := c.setOf[pl.Object]; dup {
			panic(fmt.Sprintf("catalog: duplicate object %q", pl.Object))
		}
		if pl.Holders.Len() == 0 {
			panic(fmt.Sprintf("catalog: object %q has no copies", pl.Object))
		}
		for p, w := range pl.Weights {
			if w <= 0 {
				panic(fmt.Sprintf("catalog: object %q has non-positive weight %d at %s", pl.Object, w, p))
			}
			if !pl.Holders.Has(p) {
				panic(fmt.Sprintf("catalog: object %q weights non-holder %s", pl.Object, p))
			}
		}
		// The key is the holders, then the (processor, weight) pairs of
		// the copies that do not weigh 1, in processor order.
		key = binary.AppendUvarint(key[:0], uint64(pl.Holders))
		if pl.Weights != nil {
			for _, p := range pl.Holders.Sorted() {
				if w := pl.Weight(p); w != 1 {
					key = binary.AppendUvarint(key, uint64(p))
					key = binary.AppendUvarint(key, uint64(w))
				}
			}
		}
		idx, ok := index[string(key)]
		if !ok {
			idx = int32(len(c.sets))
			index[string(key)] = idx
			c.sets = append(c.sets, &Placement{Holders: pl.Holders, Weights: maps.Clone(pl.Weights)})
		}
		c.setOf[pl.Object] = idx
		objects = append(objects, pl.Object)
	}
	if !slices.IsSorted(objects) {
		slices.Sort(objects)
	}
	c.objects = objects
	// local_p lists; with one copy set every holder's is the object list.
	c.local = make(map[ProcID][]ObjectID)
	if len(c.sets) == 1 {
		for _, p := range c.sets[0].Holders.Sorted() {
			c.local[p] = objects
		}
		return c
	}
	for _, obj := range objects {
		for _, p := range c.sets[c.setOf[obj]].Holders.Sorted() {
			c.local[p] = append(c.local[p], obj)
		}
	}
	return c
}

// FullyReplicated builds a catalog in which each of the given objects has
// an unweighted copy at every one of the n processors 1..n.
func FullyReplicated(n int, objects ...ObjectID) *Catalog {
	var all ProcSet
	for i := 1; i <= n; i++ {
		all.Add(ProcID(i))
	}
	pls := make([]Placement, len(objects))
	for i, o := range objects {
		pls[i] = Placement{Object: o, Holders: all}
	}
	return NewCatalog(pls...)
}

// Placement returns the placement of obj's copy set, or nil if the
// object is not in the database. It is shared by every object with the
// same copy set, so its Object field is empty; it must not be mutated.
func (c *Catalog) Placement(obj ObjectID) *Placement {
	if i, ok := c.setOf[obj]; ok {
		return c.sets[i]
	}
	return nil
}

// Copies returns copies(obj): the holders of physical copies, or the
// empty set if the object is not in the database.
func (c *Catalog) Copies(obj ObjectID) ProcSet {
	if pl := c.Placement(obj); pl != nil {
		return pl.Holders
	}
	return 0
}

// Objects returns every logical object, sorted. The slice must not be
// mutated.
func (c *Catalog) Objects() []ObjectID { return c.objects }

// Local returns the set "local_p" of Figure 3: the objects with a copy at
// p, sorted. The returned slice must not be mutated.
func (c *Catalog) Local(p ProcID) []ObjectID { return c.local[p] }

// Accessible reports whether obj is accessible from a processor whose
// view is the given set (rule R1).
func (c *Catalog) Accessible(obj ObjectID, view ProcSet) bool {
	pl := c.Placement(obj)
	return pl != nil && pl.AccessibleIn(view)
}

// SetIndex returns the index of obj's copy set in Sets, or -1 if the
// object is not in the database.
func (c *Catalog) SetIndex(obj ObjectID) int {
	if i, ok := c.setOf[obj]; ok {
		return int(i)
	}
	return -1
}

// Sets returns the distinct copy sets, indexed by SetIndex. Neither the
// slice nor the placements may be mutated.
func (c *Catalog) Sets() []*Placement { return c.sets }
