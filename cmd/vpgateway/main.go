// Command vpgateway runs the client gateway: a long-lived HTTP service
// fronting a vpnode cluster that adds sessions (read-your-writes and
// monotonic reads via an opaque token), group-commit batching of
// concurrent increments, admission control with fast shedding, and pooled
// persistent connections to the cluster.
//
// Example, against the three-node cluster from the vpnode docs:
//
//	vpgateway -listen :8080 -cluster 1=localhost:7001,2=localhost:7002,3=localhost:7003
//
// then:
//
//	curl -s -X POST localhost:8080/txn -d '{"ops":[{"kind":"incr","obj":"x","delta":5}]}'
//	curl -s 'localhost:8080/read?obj=x' -H "X-VP-Session: <token from the response>"
//	curl -s localhost:8080/gw/stats
//
// A node that refuses connections is skipped for a while; one that
// answers but sits outside any virtual partition denies the access, and
// the request moves on to the next node.
package main

import (
	"flag"
	"fmt"
	"os"
	"os/signal"
	"syscall"

	"github.com/virtualpartitions/vp/internal/cluster"
	"github.com/virtualpartitions/vp/internal/gateway"
	"github.com/virtualpartitions/vp/internal/trace"
)

// options is the parsed command line, separated from main so flag
// handling is testable without forking a process.
type options struct {
	listen   string
	traceOut string
	cfg      gateway.Config
}

func parseArgs(args []string) (*options, error) {
	fs := flag.NewFlagSet("vpgateway", flag.ContinueOnError)
	var (
		listen      = fs.String("listen", ":8080", "HTTP listen address")
		clusterFlag = fs.String("cluster", "", "comma-separated id=host:port node addresses (required)")
		traceSamp   = fs.Int("trace-sample", 0, "causally trace 1-in-N client requests end to end (0 disables)")
		traceOut    = fs.String("trace", "", "write the gateway's trace (incl. spans) as JSONL here on shutdown")
		shards      = fs.Int("shards", 1, "route by shard: must match the cluster's -shards")
		shardSeed   = fs.Int64("shard-seed", 1, "shard placement seed (must match the cluster)")
		shardRep    = fs.Int("shard-replicas", 0, "copies per shard (must match the cluster; 0 = all)")
	)
	if err := fs.Parse(args); err != nil {
		return nil, err
	}
	addrs, err := cluster.ParseAddrs(*clusterFlag)
	if err != nil {
		return nil, err
	}
	opt := &options{
		listen:   *listen,
		traceOut: *traceOut,
		cfg: gateway.Config{
			Cluster: addrs, TraceSample: *traceSamp,
			Shards: *shards, ShardSeed: *shardSeed, ShardReplicas: *shardRep,
		},
	}
	if opt.cfg.Shards < 1 {
		return nil, fmt.Errorf("-shards must be >= 1")
	}
	if opt.cfg.TraceSample > 0 || opt.traceOut != "" {
		rec := trace.New(trace.DefaultCap)
		rec.SetEnabled(true)
		opt.cfg.Tracer = rec
	}
	return opt, nil
}

func main() {
	opt, err := parseArgs(os.Args[1:])
	if err != nil {
		fmt.Fprintln(os.Stderr, "vpgateway:", err)
		os.Exit(2)
	}
	g := gateway.New(opt.cfg)
	defer g.Close()
	srv, addr, err := g.Serve(opt.listen)
	if err != nil {
		fmt.Fprintln(os.Stderr, "vpgateway:", err)
		os.Exit(1)
	}
	defer srv.Close()
	shardInfo := ""
	if opt.cfg.Shards > 1 {
		shardInfo = fmt.Sprintf(", %d shards", opt.cfg.Shards)
	}
	fmt.Printf("vpgateway serving on http://%s (%d nodes%s)\n",
		addr, len(opt.cfg.Cluster), shardInfo)

	sig := make(chan os.Signal, 1)
	signal.Notify(sig, os.Interrupt, syscall.SIGTERM)
	<-sig
	fmt.Println("vpgateway shutting down")
	if opt.traceOut != "" && opt.cfg.Tracer != nil {
		f, err := os.Create(opt.traceOut)
		if err != nil {
			fmt.Fprintln(os.Stderr, "vpgateway:", err)
			os.Exit(1)
		}
		defer f.Close()
		if err := opt.cfg.Tracer.WriteJSONL(f); err != nil {
			fmt.Fprintln(os.Stderr, "vpgateway: write trace:", err)
			os.Exit(1)
		}
		fmt.Printf("vpgateway: %d trace events -> %s\n", opt.cfg.Tracer.Len(), opt.traceOut)
	}
}
