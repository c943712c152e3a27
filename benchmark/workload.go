package main

import (
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"fmt"
	"math/rand"

	"github.com/virtualpartitions/vp/internal/model"
	"github.com/virtualpartitions/vp/internal/shard"
)

// spec is one named workload: the cluster it boots and the traffic it
// replays. Names are fixed; later issues refer to them.
type spec struct {
	Name          string
	Nodes         int
	Shards        int // 1 = unsharded
	ShardReplicas int
	Objects       int
	ReadFrac      float64 // share of GET /read
	TransferFrac  float64 // share of two-object transfers; the rest are single-object incr
	Rate          float64 // open-loop offered ops/s; 0 = closed loop
	Fault         bool    // kill -9 / restart schedule during the window
	Why           string
}

// shardSeed is the placement seed passed as -shard-seed to every process
// and used by the generator to know which shard an object lies on.
const shardSeed = 1

// specs are the four workloads, in the order they run.
var specs = []spec{
	{
		Name: "write_n3", Nodes: 3, Shards: 1, Objects: 1024,
		Why: "100% single-object incr on 3 nodes: the 2PC rounds, journal append and fsync barrier do the work; the read path does none",
	},
	{
		Name: "read_n3", Nodes: 3, Shards: 1, Objects: 1024, ReadFrac: 0.95,
		Why: "95% GET /read, 5% incr on 3 nodes: gateway handling, the coordinator round and shared locks dominate; journal and 2PC are almost idle",
	},
	{
		Name: "shard_n5", Nodes: 5, Shards: 4, ShardReplicas: 3, Objects: 1024, ReadFrac: 0.5, TransferFrac: 0.1,
		Why: "50% reads, 40% incr, 10% cross-shard transfers on 5 nodes x 4 shards: the only traffic through the shard router, lanes and cross-shard 2PC",
	},
	{
		Name: "fault_n3", Nodes: 3, Shards: 1, Objects: 2048, ReadFrac: 0.5, Rate: 300, Fault: true,
		Why: "50/50 open loop at 300 ops/s while one node is killed -9 and restarted every cycle: view formation, journal recovery and R5 catch-up do the work",
	},
}

func specByName(name string) (spec, bool) {
	for _, sp := range specs {
		if sp.Name == name {
			return sp, true
		}
	}
	return spec{}, false
}

// objectNames returns o0..o{n-1}, the names passed to vpnode -objects.
func objectNames(n int) []string {
	out := make([]string, n)
	for i := range out {
		out[i] = fmt.Sprintf("o%d", i)
	}
	return out
}

// shardOf returns the object-index → shard function for a sharded spec
// (the same pure placement function the cluster derives from its flags),
// or nil for an unsharded one.
func (sp spec) shardOf() (func(obj int) int, error) {
	if sp.Shards <= 1 {
		return nil, nil
	}
	names := objectNames(sp.Objects)
	objs := make([]model.ObjectID, len(names))
	for i, n := range names {
		objs[i] = model.ObjectID(n)
	}
	procs := make([]model.ProcID, sp.Nodes)
	for i := range procs {
		procs[i] = model.ProcID(i + 1)
	}
	m, err := shard.NewMap(shard.Config{
		Shards: sp.Shards, Replicas: sp.ShardReplicas, Seed: shardSeed, Procs: procs, Objects: objs,
	})
	if err != nil {
		return nil, fmt.Errorf("shard map for %s: %w", sp.Name, err)
	}
	byIdx := make([]int, len(objs))
	for i, o := range objs {
		byIdx[i] = int(m.ShardOf(o))
	}
	return func(obj int) int { return byIdx[obj] }, nil
}

type opKind uint8

const (
	opRead opKind = iota
	opIncr
	opTransfer // incr A by -1, incr B by +1, A and B on different shards
)

func (k opKind) String() string { return [...]string{"read", "incr", "transfer"}[k] }

// isWrite reports whether the operation commits a write.
func (k opKind) isWrite() bool { return k != opRead }

// request is one pre-generated operation; A and B index objectNames.
type request struct {
	Kind opKind
	A, B uint16
}

// streamLen is how many requests are materialised per client: more than
// a client can send in the longest run (60 s at 4k ops/s), so the replay
// never wraps.
const streamLen = 1 << 18

// clientSeed derives the RNG seed of one client's stream from the only
// source of randomness, the run's -seed.
func clientSeed(workload string, seed int64, client int) int64 {
	h := sha256.Sum256([]byte(fmt.Sprintf("%s/%d/%d", workload, seed, client)))
	return int64(binary.BigEndian.Uint64(h[:8]))
}

// genStream materialises one client's request sequence. It is a pure
// function of (spec, seed, client, n), so two runs replay byte-identical
// sequences.
func genStream(sp spec, shardOf func(int) int, seed int64, client, n int) []request {
	rng := rand.New(rand.NewSource(clientSeed(sp.Name, seed, client)))
	out := make([]request, n)
	for i := range out {
		u := rng.Float64()
		a := rng.Intn(sp.Objects)
		switch {
		case u < sp.ReadFrac:
			out[i] = request{Kind: opRead, A: uint16(a)}
		case u < sp.ReadFrac+sp.TransferFrac:
			b := rng.Intn(sp.Objects)
			for shardOf(b) == shardOf(a) {
				b = rng.Intn(sp.Objects)
			}
			out[i] = request{Kind: opTransfer, A: uint16(a), B: uint16(b)}
		default:
			out[i] = request{Kind: opIncr, A: uint16(a)}
		}
	}
	return out
}

// genStreams builds every client's stream and the SHA-256 that names the
// input of a (workload, seed, clients) run.
func genStreams(sp spec, seed int64, clients, n int) ([][]request, string, error) {
	shardOf, err := sp.shardOf()
	if err != nil {
		return nil, "", err
	}
	h := sha256.New()
	streams := make([][]request, clients)
	var buf [5]byte
	for c := range streams {
		streams[c] = genStream(sp, shardOf, seed, c, n)
		for _, r := range streams[c] {
			buf[0] = byte(r.Kind)
			binary.BigEndian.PutUint16(buf[1:], r.A)
			binary.BigEndian.PutUint16(buf[3:], r.B)
			h.Write(buf[:])
		}
	}
	return streams, hex.EncodeToString(h.Sum(nil)), nil
}
