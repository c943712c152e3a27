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
// With -data the node journals to that directory and a restart restores
// it from there; without it the node runs the same journal, with the
// same options, on an in-memory filesystem, and a restart starts it
// fresh. Either way the node is built by internal/cluster (NewNode,
// CoreConfig, JournalOptions), the same builder the in-process clusters
// and the chaos campaign boot.
//
// Observability: -debug-addr serves live Prometheus-text /metrics plus
// /debug/vars (expvar) and /debug/pprof; -trace records the structured
// protocol event trace and writes it as JSONL on shutdown, ready for
// `vptrace check`.
package main

import (
	"context"
	"flag"
	"fmt"
	"io"
	"os"
	"os/signal"
	"strings"
	"sync"
	"syscall"
	"time"

	"github.com/virtualpartitions/vp/internal/cluster"
	"github.com/virtualpartitions/vp/internal/core"
	"github.com/virtualpartitions/vp/internal/debughttp"
	"github.com/virtualpartitions/vp/internal/durable"
	"github.com/virtualpartitions/vp/internal/model"
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
		id          = fs.Int("id", 0, "this processor's id (1-based, required)")
		clusterFlag = fs.String("cluster", "", "comma-separated id=host:port pairs (required)")
		objects     = fs.String("objects", "x", "comma-separated logical object names")
		delta       = fs.Duration("delta", 50*time.Millisecond, "assumed message delay bound δ; the probe period π is 20δ")
		dataDir     = fs.String("data", "", "durable state directory (empty: the same journal, in memory, lost when the process ends; with it, the node survives restarts)")
		verbose     = fs.Bool("v", false, "log view changes")
		debugAddr   = fs.String("debug-addr", "", "serve /metrics, /debug/vars and /debug/pprof on this address")
		traceOut    = fs.String("trace", "", "record the structured event trace; write JSONL here on shutdown")
		shards      = fs.Int("shards", 1, "shard the object namespace this many ways; >1 runs one virtual-partition lifecycle per hosted shard (every node needs identical -shards/-shard-seed/-shard-replicas)")
		shardSeed   = fs.Int64("shard-seed", 1, "shard placement seed (must match across the cluster)")
		shardRep    = fs.Int("shard-replicas", 0, "copies per shard (0 = every node hosts every shard)")
	)
	if err := fs.Parse(args); err != nil {
		return nil, err
	}
	addrs, err := cluster.ParseAddrs(*clusterFlag)
	if err != nil {
		return nil, err
	}
	if *id == 0 {
		return nil, fmt.Errorf("-id is required")
	}
	me := model.ProcID(*id)
	if err := model.CheckProc(me); err != nil {
		return nil, fmt.Errorf("-id: %w", err)
	}
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

func main() {
	opt, err := parseArgs(os.Args[1:])
	if err != nil {
		fmt.Fprintln(os.Stderr, "vpnode:", err)
		os.Exit(2)
	}
	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()
	if err := run(ctx, opt, os.Stdout, os.Stderr); err != nil {
		fmt.Fprintln(os.Stderr, "vpnode:", err)
		os.Exit(1)
	}
}

// journalAt is where processor opt.id keeps its journal, and how:
// cluster.JournalOptions in opt.dataDir, or without -data the same
// options on a fresh in-memory filesystem.
func journalAt(opt *options, m *shard.Map) (string, durable.Options) {
	if opt.dataDir != "" {
		return opt.dataDir, cluster.JournalOptions(nil, opt.id, m)
	}
	return "journal", cluster.JournalOptions(durable.Memory(), opt.id, m)
}

// run boots the processor opt describes, serves it until ctx is done,
// then stops it and writes its trace. Progress goes to stdout, a halt to
// stderr.
func run(ctx context.Context, opt *options, stdout, stderr io.Writer) error {
	// The cluster this processor belongs to: a single core.Node per
	// processor in the default (unsharded) deployment, a shard.Router —
	// one VP lifecycle per hosted shard plus a cross-shard coordinator —
	// when -shards > 1.
	cfg := cluster.Config{Core: cluster.CoreConfig(opt.delta)}
	hosted := 1
	if opt.shards > 1 {
		procs := make([]model.ProcID, 0, len(opt.addrs))
		for p := range opt.addrs {
			procs = append(procs, p)
		}
		m, err := shard.NewMap(shard.Config{
			Shards: opt.shards, Replicas: opt.shardReplicas, Seed: opt.shardSeed,
			Procs: procs, Objects: opt.objects,
		})
		if err != nil {
			return err
		}
		cfg.Shards, hosted = m, len(m.Hosted(opt.id))
	} else {
		cfg.Catalog = model.FullyReplicated(len(opt.addrs), opt.objects...)
	}

	st, fj, err := durable.OpenOptions(journalAt(opt, cfg.Shards))
	if err != nil {
		return err
	}
	defer fj.Close()
	if opt.dataDir != "" {
		rs := fj.Recovery()
		if rs.Torn {
			fmt.Fprintf(stdout, "vpnode %v: repaired torn journal tail (%d bytes dropped)\n", opt.id, rs.TornBytes)
		}
		if st.Fresh() {
			fmt.Fprintf(stdout, "vpnode %v: fresh durable state in %s\n", opt.id, opt.dataDir)
		} else {
			fmt.Fprintf(stdout, "vpnode %v: restored from %s in %v (max-id %v, %d copies, %d records replayed)\n",
				opt.id, opt.dataDir, rs.Duration.Round(time.Microsecond), st.MaxID, len(st.Copies), rs.Records)
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
	me, verbose := opt.id, opt.verbose
	var mu sync.Mutex
	up := make(map[model.ShardID]bool)
	logf := func(s model.ShardID, format string, args ...any) {
		if !verbose {
			return
		}
		if s != model.NoShard {
			format, args = "shard %v "+format, append([]any{s}, args...)
		}
		fmt.Fprintf(stdout, "vpnode %v: "+format+"\n", append([]any{me}, args...)...)
	}
	cfg.Observer = func(_ model.ProcID, s model.ShardID, ev any) {
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
			fmt.Fprintf(stderr, "vpnode %v: HALTED, journal barrier failed: %v\n", e.Proc, e.Err)
		}
	}
	var rec *trace.Recorder
	if opt.traceOut != "" {
		rec = trace.New(trace.DefaultCap)
		rec.SetEnabled(true)
	}
	tcp, h := cluster.NewNode(cfg, opt.id, opt.addrs, nil, rec, fj, st)
	if nd, ok := h.(*core.Node); ok {
		health.Set(nd.Assigned(), nd.CurID(), nd.View().Sorted()) // not serving yet
	}
	if err := tcp.Run(); err != nil {
		return err
	}
	defer tcp.Stop()
	if opt.debugAddr != "" {
		srv, addr, err := debughttp.Serve(opt.debugAddr, tcp.Metrics(), health, rec)
		if err != nil {
			return err
		}
		defer srv.Close()
		fmt.Fprintf(stdout, "vpnode %v debug endpoints on http://%s/metrics\n", opt.id, addr)
	}
	if m := cfg.Shards; m != nil {
		fmt.Fprintf(stdout, "vpnode %v serving on %s (δ=%v, %d objects over %d shards, hosting %v)\n",
			opt.id, opt.addrs[opt.id], opt.delta, len(opt.objects), m.NumShards(), m.Hosted(opt.id))
	} else {
		fmt.Fprintf(stdout, "vpnode %v serving on %s (δ=%v, %d objects)\n", opt.id, opt.addrs[opt.id], opt.delta, len(opt.objects))
	}

	<-ctx.Done()
	fmt.Fprintf(stdout, "vpnode %v shutting down\n", opt.id)
	tcp.Stop()
	if rec != nil {
		f, err := os.Create(opt.traceOut)
		if err != nil {
			return err
		}
		defer f.Close()
		if err := rec.WriteJSONL(f); err != nil {
			return fmt.Errorf("write trace: %w", err)
		}
		fmt.Fprintf(stdout, "vpnode %v: %d trace events -> %s\n", opt.id, rec.Len(), opt.traceOut)
	}
	return nil
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
