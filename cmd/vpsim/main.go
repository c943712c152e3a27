// Command vpsim runs one scripted scenario of the virtual partition
// protocol under the deterministic simulator and prints a protocol-level
// trace: partition formation, rule R5 refreshes, and transaction
// outcomes. It is the quickest way to watch the protocol operate.
//
// Usage:
//
//	vpsim                      # default scenario: split, write, heal, read
//	vpsim -n 5 -seed 3         # bigger cluster, different seed
//	vpsim -scenario example1   # the paper's Example 1 graph
//	vpsim -scenario example2   # the paper's Example 2 re-partition
//	vpsim -quiet               # outcomes only, no trace
//	vpsim -trace-out run.jsonl # also dump the structured event trace
//
// The -trace-out file is a JSONL stream of typed protocol events
// (probes, VP formation, refreshes, transactions, messages) that
// `vptrace check` replays to verify the paper's invariants S1–S3 and
// the access rules R2/R3.
package main

import (
	"flag"
	"fmt"
	"os"
	"time"

	"github.com/virtualpartitions/vp/internal/bench"
	"github.com/virtualpartitions/vp/internal/model"
	"github.com/virtualpartitions/vp/internal/onecopy"
	"github.com/virtualpartitions/vp/internal/trace"
	"github.com/virtualpartitions/vp/internal/wire"
	"github.com/virtualpartitions/vp/internal/workload"
)

func main() {
	var (
		n        = flag.Int("n", 3, "number of processors")
		seed     = flag.Int64("seed", 1, "deterministic seed")
		scenario = flag.String("scenario", "split-heal", "split-heal | example1 | example2")
		quiet    = flag.Bool("quiet", false, "suppress the protocol trace")
		traceOut = flag.String("trace-out", "", "write the structured JSONL event trace to this file")
	)
	flag.Parse()
	if *n < 2 || *n > int(model.MaxProc) {
		// A split needs a processor on each side.
		fmt.Fprintf(os.Stderr, "vpsim: -n %d: want 2..%d processors\n", *n, model.MaxProc)
		os.Exit(2)
	}

	switch *scenario {
	case "split-heal":
		splitHeal(*n, *seed, !*quiet, *traceOut)
	case "example1":
		example1(*seed, !*quiet)
	case "example2":
		example2(*seed, !*quiet)
	default:
		fmt.Fprintf(os.Stderr, "vpsim: unknown scenario %q\n", *scenario)
		os.Exit(2)
	}
}

func textTrace(r *bench.Runner, on bool) {
	if on {
		r.Cluster.TraceEnabled = true
		r.Cluster.TraceSink = func(s string) { fmt.Println(s) }
	}
}

// dumpTrace writes the recorder's events as JSONL.
func dumpTrace(rec *trace.Recorder, path string) {
	f, err := os.Create(path)
	if err != nil {
		fmt.Fprintf(os.Stderr, "vpsim: %v\n", err)
		os.Exit(1)
	}
	defer f.Close()
	if err := rec.WriteJSONL(f); err != nil {
		fmt.Fprintf(os.Stderr, "vpsim: write trace: %v\n", err)
		os.Exit(1)
	}
	if dropped := rec.Dropped(); dropped > 0 {
		fmt.Fprintf(os.Stderr, "vpsim: trace ring overflowed, oldest %d events lost (of %d)\n", dropped, rec.Total())
	}
	fmt.Printf("trace: %d events -> %s\n", rec.Len(), path)
}

func report(r *bench.Runner) {
	res := r.Stats()
	fmt.Printf("\ncommitted=%d aborted=%d denied=%d availability=%.2f 1SR=%v\n",
		res.Committed, res.Aborted, res.Denied, res.Availability, res.OneCopySR)
	if ex := onecopy.Check(r.Hist); !ex.OK {
		fmt.Printf("EXACT CHECK FAILED: %s\n", ex.Reason)
		os.Exit(1)
	}
	fmt.Println("exact one-copy serializability check: OK")
}

func splitHeal(n int, seed int64, verbose bool, traceOut string) {
	r := bench.NewRunner(bench.Spec{Protocol: bench.ProtoVP, N: n, Objects: 2, Seed: seed})
	textTrace(r, verbose)
	var rec *trace.Recorder
	if traceOut != "" {
		rec = r.EnableTrace(0)
	}
	start := r.WarmUp()
	fmt.Printf("== %d-processor cluster, views formed by t=%v\n", n, start)

	half := n / 2
	var a, b []model.ProcID
	for _, p := range r.Topo.Procs() {
		if int(p) <= half {
			a = append(a, p)
		} else {
			b = append(b, p)
		}
	}
	splitAt := start + 50*time.Millisecond
	r.Cluster.At(splitAt, "split", func() {
		fmt.Printf("== t=%v: partition %v | %v\n", splitAt, a, b)
		r.Topo.Partition(a, b)
	})
	tag := uint64(0)
	submit := func(at time.Duration, p model.ProcID, ops []wire.Op, label string) {
		tag++
		myTag := tag
		r.Submit(at, workload.Txn{Coordinator: p, Request: wire.ClientTxn{Tag: myTag, Ops: ops}})
		r.Cluster.At(at+time.Second, "report", func() {
			fmt.Printf("== %s -> %+v\n", label, r.ResultFor(myTag))
		})
	}
	submit(splitAt+100*time.Millisecond, b[0], wire.IncrementOps("o0", 7),
		fmt.Sprintf("increment o0 at %v (majority side)", b[0]))
	submit(splitAt+100*time.Millisecond, a[0], []wire.Op{wire.ReadOp("o0")},
		fmt.Sprintf("read o0 at %v (minority side)", a[0]))
	healAt := splitAt + 2*time.Second
	r.Cluster.At(healAt, "heal", func() {
		fmt.Printf("== t=%v: heal\n", healAt)
		r.Topo.FullMesh()
	})
	submit(healAt+500*time.Millisecond, a[0], []wire.Op{wire.ReadOp("o0")},
		fmt.Sprintf("read o0 at %v (after heal + R5 refresh)", a[0]))
	r.Run(healAt + 2*time.Second)
	if rec != nil {
		dumpTrace(rec, traceOut)
	}
	report(r)
}

func example1(seed int64, verbose bool) {
	fmt.Println("== paper Example 1: A-C and B-C connected, A-B down")
	tbl := bench.E1(seed)
	_ = verbose
	fmt.Print(tbl.String())
}

func example2(seed int64, verbose bool) {
	fmt.Println("== paper Example 2: re-partition with the Table 1 views")
	tbl := bench.E2(seed)
	_ = verbose
	fmt.Print(tbl.String())
}
