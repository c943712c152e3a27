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
	pi            time.Duration
	dataDir       string
	fsync         bool
	fsyncEvery    time.Duration
	fullCopyR5    bool
	verbose       bool
	debugAddr     string
	traceOut      string
	traceSample   int
	shards        int
	shardSeed     int64
	shardReplicas int
	tcp           net.TCPConfig
}

// parseArgs parses argv (without the program name) into options.
func parseArgs(args []string) (*options, error) {
	fs := flag.NewFlagSet("vpnode", flag.ContinueOnError)
	var (
		id        = fs.Int("id", 0, "this processor's id (1-based, required)")
		cluster   = fs.String("cluster", "", "comma-separated id=host:port pairs (required)")
		objects   = fs.String("objects", "x", "comma-separated logical object names")
		delta     = fs.Duration("delta", 50*time.Millisecond, "assumed message delay bound δ")
		pi        = fs.Duration("pi", 0, "probe period π (default 20δ)")
		dataDir   = fs.String("data", "", "durable state directory (empty: in-memory only; with it, the node survives restarts)")
		fsync     = fs.Bool("fsync", false, "fsync the journal on every record (overrides -fsync-interval)")
		fsyncInt  = fs.Duration("fsync-interval", 2*time.Millisecond, "maximum age of an unsynced journal record: promises nobody waits on (decide acks) ride the next urgent fsync or this deadline; 0 makes every promise urgent")
		r5        = fs.String("r5", "log", "R5 refresh path: log (stream missed-write deltas, full-copy fallback) or full")
		verbose   = fs.Bool("v", false, "log view changes")
		debugAddr = fs.String("debug-addr", "", "serve /metrics, /debug/vars and /debug/pprof on this address")
		traceOut  = fs.String("trace", "", "record the structured event trace; write JSONL here on shutdown")
		traceSamp = fs.Int("trace-sample", 1, "with -trace: causally trace 1-in-N locally-coordinated transactions (<=0 traces none)")
		dialTO    = fs.Duration("dial-timeout", 0, "TCP dial timeout per connection attempt (default 2s)")
		reconMin  = fs.Duration("reconnect-min", 0, "initial peer redial backoff (default 50ms)")
		reconMax  = fs.Duration("reconnect-max", 0, "maximum peer redial backoff (default 2s)")
		queueLen  = fs.Int("peer-queue", 0, "bounded per-peer outbound queue length (default 1024)")
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
	sample := *traceSamp
	if sample <= 0 {
		sample = -1 // node.Config: negative disables coordinator root minting
	}
	if *r5 != "log" && *r5 != "full" {
		return nil, fmt.Errorf("-r5 must be log or full, got %q", *r5)
	}
	if *shards < 1 {
		return nil, fmt.Errorf("-shards must be >= 1")
	}
	return &options{
		id: me, addrs: addrs, objects: objNames,
		delta: *delta, pi: *pi,
		dataDir: *dataDir, fsync: *fsync, fsyncEvery: *fsyncInt,
		fullCopyR5: *r5 == "full", verbose: *verbose,
		debugAddr: *debugAddr, traceOut: *traceOut, traceSample: sample,
		shards: *shards, shardSeed: *shardSeed, shardReplicas: *shardRep,
		tcp: net.TCPConfig{DialTimeout: *dialTO, ReconnectMin: *reconMin,
			ReconnectMax: *reconMax, QueueLen: *queueLen},
	}, nil
}

func main() {
	opt, err := parseArgs(os.Args[1:])
	if err != nil {
		fmt.Fprintln(os.Stderr, "vpnode:", err)
		os.Exit(2)
	}
	cfg := core.Config{
		Config:        node.Config{Delta: opt.delta, LogCap: 1024, TraceSample: opt.traceSample},
		Pi:            opt.pi,
		UseLogCatchup: !opt.fullCopyR5,
	}

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

	// newHandler builds the protocol handler: a single core.Node in the
	// default (unsharded) deployment, a shard.Router — one VP lifecycle
	// per hosted shard plus a cross-shard coordinator — when -shards > 1.
	// restored is nil for a volatile or fresh durable start.
	newHandler := func(j durable.Journal, restored *durable.State) net.Handler {
		if smap != nil {
			switch {
			case restored != nil:
				return shard.NewRouterRestored(opt.id, cfg, smap, nil, restored, j)
			case j != nil:
				return shard.NewRouterDurable(opt.id, cfg, smap, nil, j)
			default:
				return shard.NewRouter(opt.id, cfg, smap, nil)
			}
		}
		switch {
		case restored != nil:
			return core.NewRestored(opt.id, cfg, cat, nil, restored, j)
		case j != nil:
			return core.NewDurable(opt.id, cfg, cat, nil, j)
		default:
			return core.New(opt.id, cfg, cat, nil)
		}
	}

	var handler net.Handler
	var journal *durable.FileJournal
	if opt.dataDir != "" {
		var state *durable.State
		var err error
		dopts := durable.Options{Committer: true, FlushInterval: opt.fsyncEvery}
		if smap != nil {
			// Scope the journal to the objects of this node's hosted
			// shards: snapshots then attest the universe they covered, so
			// restarting under a grown shard map can't mistake "never
			// hosted" for "no writes" when serving R5 catch-up deltas.
			hosted := smap.HostedObjects(opt.id)
			scope := []model.ObjectID{}
			for _, o := range opt.objects {
				if hosted(o) {
					scope = append(scope, o)
				}
			}
			dopts.Scope = scope
		}
		state, journal, err = durable.OpenOptions(opt.dataDir, dopts)
		if err != nil {
			fmt.Fprintln(os.Stderr, "vpnode:", err)
			os.Exit(1)
		}
		journal.SyncEveryWrite = opt.fsync
		defer journal.Close()
		rs := journal.Recovery()
		if rs.Torn {
			fmt.Printf("vpnode %v: repaired torn journal tail (%d bytes dropped)\n", opt.id, rs.TornBytes)
		}
		fresh := state.MaxID.IsZero() && len(state.Copies) == 0
		if fresh {
			handler = newHandler(journal, nil)
			fmt.Printf("vpnode %v: fresh durable state in %s\n", opt.id, opt.dataDir)
		} else {
			handler = newHandler(journal, state)
			fmt.Printf("vpnode %v: restored from %s in %v (max-id %v, %d copies, %d records replayed)\n",
				opt.id, opt.dataDir, rs.Duration.Round(time.Microsecond), state.MaxID, len(state.Copies), rs.Records)
		}
	} else {
		handler = newHandler(nil, nil)
	}
	var health *debughttp.Health
	if opt.debugAddr != "" {
		health = &debughttp.Health{}
	}
	// The observers feed /healthz (health may be nil: its methods then do
	// nothing) and make a halt loud: a halted node is otherwise exactly as
	// silent as a partitioned one.
	halted := func(e core.HaltEvent) {
		health.SetHalted(e.Err.Error())
		fmt.Fprintf(os.Stderr, "vpnode %v: HALTED, journal barrier failed: %v\n", e.Proc, e.Err)
	}
	me, verbose := opt.id, opt.verbose
	switch h := handler.(type) {
	case *core.Node:
		health.Set(h.Assigned(), h.CurID(), h.View().Sorted())
		h.Observer = func(ev any) {
			switch e := ev.(type) {
			case core.JoinEvent:
				health.Set(true, e.VP, e.View.Sorted())
				health.SetCause(e.Cause)
				if verbose {
					fmt.Printf("vpnode %v: joined %v view=%v\n", me, e.VP, e.View)
				}
			case core.DepartEvent:
				health.Set(false, e.VP, nil)
				if verbose {
					fmt.Printf("vpnode %v: departed %v\n", me, e.VP)
				}
			case core.HaltEvent:
				halted(e)
			}
		}
	case *shard.Router:
		hosted := len(h.Hosted())
		var mu sync.Mutex
		up := make(map[model.ShardID]bool)
		h.Observer = func(s model.ShardID, ev any) {
			switch e := ev.(type) {
			case core.JoinEvent:
				mu.Lock()
				up[s] = true
				n := len(up)
				mu.Unlock()
				// Healthy once every hosted shard sits in a partition;
				// the reported view is the latest shard's.
				health.Set(n == hosted, e.VP, e.View.Sorted())
				health.SetCause(e.Cause)
				if verbose {
					fmt.Printf("vpnode %v: shard %v joined %v view=%v\n", me, s, e.VP, e.View)
				}
			case core.DepartEvent:
				mu.Lock()
				delete(up, s)
				mu.Unlock()
				health.Set(false, e.VP, nil)
				if verbose {
					fmt.Printf("vpnode %v: shard %v departed %v\n", me, s, e.VP)
				}
			case core.HaltEvent:
				halted(e)
			}
		}
	}
	tcp := net.NewTCPNodeConfig(opt.id, opt.addrs, handler, opt.tcp)
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
		fmt.Printf("vpnode %v serving on %s (δ=%v, objects %v)\n", opt.id, opt.addrs[opt.id], opt.delta, opt.objects)
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
