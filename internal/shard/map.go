// Package shard scales the virtual-partition protocol out by partial
// replication: the object namespace is hashed over K shards, each shard
// is replicated on its own copy set, and — crucially — each shard runs
// an independent virtual-partition lifecycle (its own views, rule R1
// accessibility tests, rule R5 catch-up and epochs). A network partition
// therefore stalls only the shards whose weighted majority it splits;
// every other shard keeps serving reads and writes.
//
// The package provides two pieces:
//
//   - Map: the deterministic shard map. Every node derives the same
//     placement from (seed, procs, objects), so no placement metadata is
//     ever exchanged.
//   - Router: a net.Handler that runs one core.Node per hosted shard
//     plus a multi-shard transaction coordinator, demultiplexing
//     wire.ShardMsg frames between them.
package shard

import (
	"fmt"
	"hash/fnv"
	"math/rand"
	"sort"

	"github.com/virtualpartitions/vp/internal/model"
)

// Config describes a shard map. The same Config on every node yields the
// same Map — placement is a pure function of its fields.
type Config struct {
	// Shards is K, the number of shards (≥ 1). Objects hash onto shards
	// 1..K; shard id 0 (model.NoShard) is reserved for "unsharded".
	Shards int
	// Replicas is the copy-set size per shard. 0 (or ≥ len(Procs)) means
	// every processor holds every shard (full replication, sharded only
	// in lifecycle).
	Replicas int
	// Seed drives both object hashing and member selection.
	Seed int64
	// Procs is the processor universe.
	Procs []model.ProcID
	// Objects is the static object universe (the catalog is fixed for
	// the lifetime of a cluster, as in the unsharded protocol).
	Objects []model.ObjectID
	// Weights, when non-nil, assigns the given voting weight to every
	// copy a processor holds (weighted quorums, rule R1). Missing
	// entries default to 1.
	Weights map[model.ProcID]int
}

// Map is an immutable shard map: object → shard, shard → members, and
// the derived catalogs. Safe for concurrent readers.
type Map struct {
	k       int
	seed    int64
	procs   []model.ProcID
	weights map[model.ProcID]int

	members  []model.ProcSet  // members[s-1] = copy set of shard s
	memSort  [][]model.ProcID // members[s-1], sorted
	hosted   map[model.ProcID][]model.ShardID
	objShard map[model.ObjectID]model.ShardID

	global   *model.Catalog
	perShard map[model.ShardID]*model.Catalog
}

// NewMap builds the shard map. It fails on an empty processor set or a
// non-positive shard count; object-free maps are allowed (the catalogs
// are then empty).
func NewMap(cfg Config) (*Map, error) {
	if cfg.Shards < 1 {
		return nil, fmt.Errorf("shard map: need at least 1 shard, got %d", cfg.Shards)
	}
	if len(cfg.Procs) == 0 {
		return nil, fmt.Errorf("shard map: no processors")
	}
	procs := append([]model.ProcID(nil), cfg.Procs...)
	sort.Slice(procs, func(i, j int) bool { return procs[i] < procs[j] })
	for i, p := range procs {
		if err := model.CheckProc(p); err != nil {
			return nil, fmt.Errorf("shard map: %w", err)
		}
		if i > 0 && p == procs[i-1] {
			return nil, fmt.Errorf("shard map: duplicate processor %v", p)
		}
	}
	rf := cfg.Replicas
	if rf <= 0 || rf > len(procs) {
		rf = len(procs)
	}

	m := &Map{
		k:        cfg.Shards,
		seed:     cfg.Seed,
		procs:    procs,
		weights:  cfg.Weights,
		hosted:   make(map[model.ProcID][]model.ShardID),
		objShard: make(map[model.ObjectID]model.ShardID, len(cfg.Objects)),
		perShard: make(map[model.ShardID]*model.Catalog, cfg.Shards),
	}

	// Member selection: a seeded shuffle of the sorted processor list per
	// shard. Deterministic in (seed, shard, procs) — every node computes
	// the identical copy sets.
	for s := 1; s <= cfg.Shards; s++ {
		rng := rand.New(rand.NewSource(cfg.Seed*1_000_003 + int64(s)))
		perm := rng.Perm(len(procs))
		var set model.ProcSet
		for _, idx := range perm[:rf] {
			set.Add(procs[idx])
		}
		sorted := set.Sorted()
		m.members = append(m.members, set)
		m.memSort = append(m.memSort, sorted)
		for _, p := range sorted {
			m.hosted[p] = append(m.hosted[p], model.ShardID(s))
		}
	}

	// Object assignment and catalogs. The global catalog places every
	// object on its shard's copy set (the coordinator plans against it);
	// the per-shard catalog holds only that shard's objects (each shard
	// node stores and recovers exactly its slice of the namespace).
	objs := append([]model.ObjectID(nil), cfg.Objects...)
	sort.Slice(objs, func(i, j int) bool { return objs[i] < objs[j] })
	var globalPls []model.Placement
	shardPls := make(map[model.ShardID][]model.Placement)
	for i, o := range objs {
		if i > 0 && o == objs[i-1] {
			return nil, fmt.Errorf("shard map: duplicate object %q", o)
		}
		s := m.ShardOf(o)
		m.objShard[o] = s
		pl := model.Placement{Object: o, Holders: m.members[s-1]}
		if cfg.Weights != nil {
			w := make(map[model.ProcID]int)
			for _, p := range m.memSort[s-1] {
				if wt, ok := cfg.Weights[p]; ok {
					w[p] = wt
				}
			}
			pl.Weights = w
		}
		globalPls = append(globalPls, pl)
		shardPls[s] = append(shardPls[s], pl)
	}
	m.global = model.NewCatalog(globalPls...)
	for s := 1; s <= cfg.Shards; s++ {
		m.perShard[model.ShardID(s)] = model.NewCatalog(shardPls[model.ShardID(s)]...)
	}
	return m, nil
}

// NumShards returns K.
func (m *Map) NumShards() int { return m.k }

// ShardOf maps an object to its owning shard (1..K) by seeded FNV-1a
// hashing. Objects not in the configured universe still hash to a
// well-defined shard, so routers can reject them consistently.
func (m *Map) ShardOf(obj model.ObjectID) model.ShardID {
	h := fnv.New64a()
	var b [8]byte
	for i := 0; i < 8; i++ {
		b[i] = byte(uint64(m.seed) >> (8 * i))
	}
	h.Write(b[:])
	h.Write([]byte(obj))
	return model.ShardID(1 + h.Sum64()%uint64(m.k))
}

// Members returns the copy set of shard s.
func (m *Map) Members(s model.ShardID) model.ProcSet {
	if s < 1 || int(s) > m.k {
		return 0
	}
	return m.members[s-1]
}

// MemberList returns the copy set of shard s sorted ascending (not to
// be mutated). This is the processor universe a shard node sees: its
// probes and view formation never leave the copy set.
func (m *Map) MemberList(s model.ShardID) []model.ProcID {
	if s < 1 || int(s) > m.k {
		return nil
	}
	return m.memSort[s-1]
}

// Hosted returns the shards processor p holds copies of, ascending.
func (m *Map) Hosted(p model.ProcID) []model.ShardID { return m.hosted[p] }

// Hosts reports whether p holds a copy of shard s.
func (m *Map) Hosts(p model.ProcID, s model.ShardID) bool {
	return m.Members(s).Has(p)
}

// Catalog returns the global catalog: every object placed on its
// shard's copy set. Coordinators plan multi-shard transactions against
// it.
func (m *Map) Catalog() *model.Catalog { return m.global }

// ShardCatalog returns the catalog restricted to shard s's objects.
func (m *Map) ShardCatalog(s model.ShardID) *model.Catalog { return m.perShard[s] }

// HostedObjects returns a predicate reporting whether an object belongs
// to one of processor p's hosted shards — the scope of its journal
// recovery and log-based catch-up.
func (m *Map) HostedObjects(p model.ProcID) func(model.ObjectID) bool {
	hosted := make(map[model.ShardID]bool, len(m.hosted[p]))
	for _, s := range m.hosted[p] {
		hosted[s] = true
	}
	return func(o model.ObjectID) bool { return hosted[m.ShardOf(o)] }
}

// Fingerprint hashes the full placement — member sets and object
// assignment — so tests (and operators) can assert that independently
// constructed maps agree.
func (m *Map) Fingerprint() uint64 {
	h := fnv.New64a()
	var b [8]byte
	put := func(v uint64) {
		for i := 0; i < 8; i++ {
			b[i] = byte(v >> (8 * i))
		}
		h.Write(b[:])
	}
	put(uint64(m.k))
	for s := 1; s <= m.k; s++ {
		put(uint64(s))
		for _, p := range m.memSort[s-1] {
			put(uint64(p))
		}
	}
	for _, o := range m.global.Objects() {
		h.Write([]byte(o))
		put(uint64(m.objShard[o]))
	}
	return h.Sum64()
}
