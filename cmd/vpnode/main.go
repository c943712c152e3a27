// Command vpnode runs one processor of a virtual-partition replicated
// database over TCP. Start one process per processor with the same
// -cluster and -objects flags; clients talk to any node with vpctl.
//
// Example (three shells):
//
//	vpnode -id 1 -cluster 1=localhost:7001,2=localhost:7002,3=localhost:7003 -objects x,y
//	vpnode -id 2 -cluster 1=localhost:7001,2=localhost:7002,3=localhost:7003 -objects x,y
//	vpnode -id 3 -cluster 1=localhost:7001,2=localhost:7002,3=localhost:7003 -objects x,y
//
// then:
//
//	vpctl -addr localhost:7001 incr x 5
//	vpctl -addr localhost:7002 read x
//
// Killing a node (or a minority of nodes) leaves the survivors
// operating; a restarted node rejoins and rule R5 refreshes its copies.
//
// Observability: -debug-addr serves live Prometheus-text /metrics plus
// /debug/vars (expvar) and /debug/pprof; -trace records the structured
// protocol event trace and writes it as JSONL on shutdown, ready for
// `vptrace check`.
package main

import (
	"flag"
	"fmt"
	"os"
	"os/signal"
	"strconv"
	"strings"
	"sync"
	"syscall"
	"time"

	"github.com/virtualpartitions/vp/internal/core"
	"github.com/virtualpartitions/vp/internal/debughttp"
	"github.com/virtualpartitions/vp/internal/durable"
	"github.com/virtualpartitions/vp/internal/metrics"
	"github.com/virtualpartitions/vp/internal/model"
	"github.com/virtualpartitions/vp/internal/net"
	"github.com/virtualpartitions/vp/internal/node"
	"github.com/virtualpartitions/vp/internal/shard"
	"github.com/virtualpartitions/vp/internal/trace"
)

// options is the parsed command line, separated from main so flag
// handling is testable without forking a process.
type options struct {
	id            model.ProcID
	addrs         map[model.ProcID]string
	objects       []model.ObjectID
	delta         time.Duration
	dataDir       string
	verbose       bool
	debugAddr     string
	traceOut      string
	shards        int
	shardSeed     int64
	shardReplicas int
}

// parseArgs parses argv (without the program name) into options.
func parseArgs(args []string) (*options, error) {
	fs := flag.NewFlagSet("vpnode", flag.ContinueOnError)
	var (
		id        = fs.Int("id", 0, "this processor's id (1-based, required)")
		cluster   = fs.String("cluster", "", "comma-separated id=host:port pairs (required)")
		objects   = fs.String("objects", "x", "comma-separated logical object names")
		delta     = fs.Duration("delta", 50*time.Millisecond, "assumed message delay bound δ; the probe period π is 20δ")
		dataDir   = fs.String("data", "", "durable state directory (empty: in-memory only; with it, the node survives restarts)")
		verbose   = fs.Bool("v", false, "log view changes")
		debugAddr = fs.String("debug-addr", "", "serve /metrics, /debug/vars and /debug/pprof on this address")
		traceOut  = fs.String("trace", "", "record the structured event trace; write JSONL here on shutdown")
		shards    = fs.Int("shards", 1, "shard the object namespace this many ways; >1 runs one virtual-partition lifecycle per hosted shard (every node needs identical -shards/-shard-seed/-shard-replicas)")
		shardSeed = fs.Int64("shard-seed", 1, "shard placement seed (must match across the cluster)")
		shardRep  = fs.Int("shard-replicas", 0, "copies per shard (0 = every node hosts every shard)")
	)
	if err := fs.Parse(args); err != nil {
		return nil, err
	}
	addrs, err := parseCluster(*cluster)
	if err != nil {
		return nil, err
	}
	if *id < 1 {
		return nil, fmt.Errorf("-id is required")
	}
	me := model.ProcID(*id)
	if _, ok := addrs[me]; !ok {
		return nil, fmt.Errorf("id %d not in -cluster", *id)
	}
	objNames := parseObjects(*objects)
	if len(objNames) == 0 {
		return nil, fmt.Errorf("-objects names no objects")
	}
	if *shards < 1 {
		return nil, fmt.Errorf("-shards must be >= 1")
	}
	return &options{
		id: me, addrs: addrs, objects: objNames, delta: *delta,
		dataDir: *dataDir, verbose: *verbose,
		debugAddr: *debugAddr, traceOut: *traceOut,
		shards: *shards, shardSeed: *shardSeed, shardReplicas: *shardRep,
	}, nil
}

// coreConfig is the protocol every vpnode runs: π at its default 20δ,
// R5 refresh by streaming missed-write deltas (full-copy fallback), the
// previous-partition optimization on.
func (o *options) coreConfig() core.Config {
	return core.Config{
		Config:        node.Config{Delta: o.delta, LogCap: 1024},
		UseLogCatchup: true,
		UsePrevOpt:    true,
	}
}

// journalOptions opens the -data journal with a committer goroutine:
// promises nobody waits on (decide acks) ride the next urgent fsync or
// wait at most 2ms. Sharded, the journal is scoped to the objects of
// this node's hosted shards: snapshots then attest the universe they
// covered, so restarting under a grown shard map can't mistake "never
// hosted" for "no writes" when serving R5 catch-up deltas.
func (o *options) journalOptions(smap *shard.Map) durable.Options {
	dopts := durable.Options{Committer: true, FlushInterval: 2 * time.Millisecond}
	if smap != nil {
		hosted := smap.HostedObjects(o.id)
		dopts.Scope = []model.ObjectID{}
		for _, obj := range o.objects {
			if hosted(obj) {
				dopts.Scope = append(dopts.Scope, obj)
			}
		}
	}
	return dopts
}

func main() {
	opt, err := parseArgs(os.Args[1:])
	if err != nil {
		fmt.Fprintln(os.Stderr, "vpnode:", err)
		os.Exit(2)
	}
	cfg := opt.coreConfig()

	var smap *shard.Map
	if opt.shards > 1 {
		procs := make([]model.ProcID, 0, len(opt.addrs))
		for p := range opt.addrs {
			procs = append(procs, p)
		}
		var err error
		smap, err = shard.NewMap(shard.Config{
			Shards: opt.shards, Replicas: opt.shardReplicas, Seed: opt.shardSeed,
			Procs: procs, Objects: opt.objects,
		})
		if err != nil {
			fmt.Fprintln(os.Stderr, "vpnode:", err)
			os.Exit(1)
		}
	}
	cat := model.FullyReplicated(len(opt.addrs), opt.objects...)

	var journal *durable.FileJournal
	var j durable.Journal // nil: volatile
	var state *durable.State
	if opt.dataDir != "" {
		var err error
		state, journal, err = durable.OpenOptions(opt.dataDir, opt.journalOptions(smap))
		if err != nil {
			fmt.Fprintln(os.Stderr, "vpnode:", err)
			os.Exit(1)
		}
		defer journal.Close()
		j = journal
		rs := journal.Recovery()
		if rs.Torn {
			fmt.Printf("vpnode %v: repaired torn journal tail (%d bytes dropped)\n", opt.id, rs.TornBytes)
		}
		if state.Fresh() {
			fmt.Printf("vpnode %v: fresh durable state in %s\n", opt.id, opt.dataDir)
		} else {
			fmt.Printf("vpnode %v: restored from %s in %v (max-id %v, %d copies, %d records replayed)\n",
				opt.id, opt.dataDir, rs.Duration.Round(time.Microsecond), state.MaxID, len(state.Copies), rs.Records)
		}
	}
	var health *debughttp.Health
	if opt.debugAddr != "" {
		health = &debughttp.Health{}
	}
	// The observer feeds /healthz (health may be nil: its methods then do
	// nothing) and makes a halt loud: a halted node is otherwise exactly as
	// silent as a partitioned one. The node is healthy once every hosted
	// shard — model.NoShard for the one unsharded lifecycle — sits in a
	// partition; the reported view is the latest shard's.
	me, verbose, hosted := opt.id, opt.verbose, 1
	var mu sync.Mutex
	up := make(map[model.ShardID]bool)
	logf := func(s model.ShardID, format string, args ...any) {
		if !verbose {
			return
		}
		if s != model.NoShard {
			format, args = "shard %v "+format, append([]any{s}, args...)
		}
		fmt.Printf("vpnode %v: "+format+"\n", append([]any{me}, args...)...)
	}
	observe := func(s model.ShardID, ev any) {
		switch e := ev.(type) {
		case core.JoinEvent:
			mu.Lock()
			up[s] = true
			n := len(up)
			mu.Unlock()
			health.Set(n == hosted, e.VP, e.View.Sorted())
			health.SetCause(e.Cause)
			logf(s, "joined %v view=%v", e.VP, e.View)
		case core.DepartEvent:
			mu.Lock()
			delete(up, s)
			mu.Unlock()
			health.Set(false, e.VP, nil)
			logf(s, "departed %v", e.VP)
		case core.HaltEvent:
			health.SetHalted(e.Err.Error())
			fmt.Fprintf(os.Stderr, "vpnode %v: HALTED, journal barrier failed: %v\n", e.Proc, e.Err)
		}
	}
	// The protocol handler: a single core.Node in the default (unsharded)
	// deployment, a shard.Router — one VP lifecycle per hosted shard plus
	// a cross-shard coordinator — when -shards > 1.
	var handler net.Handler
	if smap != nil {
		r := shard.NewRouter(opt.id, cfg, smap, nil, j, state)
		hosted = len(r.Hosted())
		r.Observer = observe
		handler = r
	} else {
		nd := core.New(opt.id, cfg, cat, nil, j, state)
		health.Set(nd.Assigned(), nd.CurID(), nd.View().Sorted())
		nd.Observer = func(ev any) { observe(model.NoShard, ev) }
		handler = nd
	}
	tcp := net.NewTCPNode(opt.id, opt.addrs, handler)
	tcp.Metrics().Set(metrics.CNodeHalted, 0) // exported from the first scrape on
	if journal != nil {
		journal.SetMetrics(tcp.Metrics())
		tcp.Metrics().ObserveDuration(metrics.SRecovery, journal.Recovery().Duration)
	}
	var rec *trace.Recorder
	if opt.traceOut != "" {
		rec = trace.New(trace.DefaultCap)
		rec.SetEnabled(true)
		tcp.SetTracer(rec)
	}
	if err := tcp.Run(); err != nil {
		fmt.Fprintln(os.Stderr, "vpnode:", err)
		os.Exit(1)
	}
	if opt.debugAddr != "" {
		srv, addr, err := debughttp.Serve(opt.debugAddr, tcp.Metrics(), health, rec)
		if err != nil {
			fmt.Fprintln(os.Stderr, "vpnode:", err)
			os.Exit(1)
		}
		defer srv.Close()
		fmt.Printf("vpnode %v debug endpoints on http://%s/metrics\n", opt.id, addr)
	}
	if smap != nil {
		fmt.Printf("vpnode %v serving on %s (δ=%v, %d objects over %d shards, hosting %v)\n",
			opt.id, opt.addrs[opt.id], opt.delta, len(opt.objects), smap.NumShards(), smap.Hosted(opt.id))
	} else {
		fmt.Printf("vpnode %v serving on %s (δ=%v, %d objects)\n", opt.id, opt.addrs[opt.id], opt.delta, len(opt.objects))
	}

	sig := make(chan os.Signal, 1)
	signal.Notify(sig, os.Interrupt, syscall.SIGTERM)
	<-sig
	fmt.Printf("vpnode %v shutting down\n", opt.id)
	tcp.Stop()
	if rec != nil {
		f, err := os.Create(opt.traceOut)
		if err != nil {
			fmt.Fprintln(os.Stderr, "vpnode:", err)
			os.Exit(1)
		}
		defer f.Close()
		if err := rec.WriteJSONL(f); err != nil {
			fmt.Fprintln(os.Stderr, "vpnode: write trace:", err)
			os.Exit(1)
		}
		fmt.Printf("vpnode %v: %d trace events -> %s\n", opt.id, rec.Len(), opt.traceOut)
	}
}

func parseObjects(s string) []model.ObjectID {
	var out []model.ObjectID
	for _, o := range strings.Split(s, ",") {
		if o = strings.TrimSpace(o); o != "" {
			out = append(out, model.ObjectID(o))
		}
	}
	return out
}

func parseCluster(s string) (map[model.ProcID]string, error) {
	if s == "" {
		return nil, fmt.Errorf("-cluster is required")
	}
	out := make(map[model.ProcID]string)
	for _, part := range strings.Split(s, ",") {
		kv := strings.SplitN(strings.TrimSpace(part), "=", 2)
		if len(kv) != 2 {
			return nil, fmt.Errorf("bad -cluster entry %q (want id=host:port)", part)
		}
		id, err := strconv.Atoi(kv[0])
		if err != nil || id < 1 {
			return nil, fmt.Errorf("bad processor id %q", kv[0])
		}
		out[model.ProcID(id)] = kv[1]
	}
	return out, nil
}
