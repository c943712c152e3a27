// Command vpchaos is the chaos harness: it boots an N-node virtual
// partition cluster over real TCP (one process, N nodes, real sockets),
// drives a mixed read/write workload while a seeded nemesis injects the
// paper's fault model — partitions, crashes with journal restarts, lost,
// slow and duplicated messages — and then holds the run to the same bar
// the deterministic simulation is held to:
//
//   - the committed history must be one-copy serializable (onecopy),
//   - the structured trace must replay with zero S1–S3/R2/R3 violations
//     (internal/trace.Check), and
//   - the cluster must be live again after the final heal: a majority
//     view re-forms and a fresh write commits.
//
// The same schedule is then replayed on the simulation backend twice and
// the two runs must be byte-identical — the determinism claim that makes
// any live failure reproducible by seed.
//
// Example:
//
//	vpchaos -n 5 -seed 7 -partitions 3 -crashes 2
package main

import (
	"flag"
	"fmt"
	"math/rand"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"github.com/virtualpartitions/vp/internal/bench"
	"github.com/virtualpartitions/vp/internal/cluster"
	"github.com/virtualpartitions/vp/internal/core"
	"github.com/virtualpartitions/vp/internal/durable"
	"github.com/virtualpartitions/vp/internal/metrics"
	"github.com/virtualpartitions/vp/internal/model"
	"github.com/virtualpartitions/vp/internal/nemesis"
	vnet "github.com/virtualpartitions/vp/internal/net"
	"github.com/virtualpartitions/vp/internal/node"
	"github.com/virtualpartitions/vp/internal/onecopy"
	"github.com/virtualpartitions/vp/internal/trace"
	"github.com/virtualpartitions/vp/internal/wire"
	"github.com/virtualpartitions/vp/internal/workload"
)

// options is the parsed command line, separated from main so the harness
// is drivable from tests without forking.
type options struct {
	n          int
	seed       int64
	delta      time.Duration
	objects    int
	clients    int
	partitions int
	crashes    int
	meanHold   time.Duration
	meanGap    time.Duration
	kill9      bool
	skipLive   bool
	skipSim    bool
	verbose    bool
	traceOut   string
}

func parseArgs(args []string) (*options, error) {
	fs := flag.NewFlagSet("vpchaos", flag.ContinueOnError)
	var (
		n          = fs.Int("n", 5, "cluster size")
		seed       = fs.Int64("seed", 1, "nemesis + workload seed; a failing run reproduces from this")
		delta      = fs.Duration("delta", 20*time.Millisecond, "assumed message delay bound δ for the live cluster")
		objects    = fs.Int("objects", 4, "number of logical objects")
		clients    = fs.Int("clients", 3, "concurrent workload clients")
		partitions = fs.Int("partitions", 3, "minimum partition/heal episodes")
		crashes    = fs.Int("crashes", 2, "minimum crash/restart episodes")
		meanHold   = fs.Duration("hold", 400*time.Millisecond, "mean fault episode duration")
		meanGap    = fs.Duration("gap", 400*time.Millisecond, "mean fault-free gap between episodes")
		kill9      = fs.Bool("kill9", false, "crash steps are kill -9: fsync starts failing shortly before the kill, the disk freezes mid group-commit, and the journal tail is torn before restart")
		skipLive   = fs.Bool("skip-live", false, "skip the live TCP chaos run")
		skipSim    = fs.Bool("skip-sim", false, "skip the sim determinism replay")
		verbose    = fs.Bool("v", false, "log every nemesis step and view change")
		traceOut   = fs.String("trace-out", "", "write the live run's event trace (spans included) as JSONL here; feed to `vptrace spans` for per-phase latency and critical paths under faults")
	)
	if err := fs.Parse(args); err != nil {
		return nil, err
	}
	if *n < 3 {
		return nil, fmt.Errorf("-n must be >= 3 (need a majority to survive faults)")
	}
	if *objects < 1 || *clients < 1 {
		return nil, fmt.Errorf("-objects and -clients must be positive")
	}
	return &options{
		n: *n, seed: *seed, delta: *delta, objects: *objects, clients: *clients,
		partitions: *partitions, crashes: *crashes,
		meanHold: *meanHold, meanGap: *meanGap, kill9: *kill9,
		skipLive: *skipLive, skipSim: *skipSim, verbose: *verbose,
		traceOut: *traceOut,
	}, nil
}

func main() {
	opt, err := parseArgs(os.Args[1:])
	if err != nil {
		fmt.Fprintln(os.Stderr, "vpchaos:", err)
		os.Exit(2)
	}
	sched := buildSchedule(opt)
	fmt.Printf("vpchaos: seed %d, %d nodes, schedule of %d steps over %s\n",
		opt.seed, opt.n, len(sched.Steps), sched.End.Round(time.Millisecond))
	if opt.verbose {
		fmt.Print(sched)
	}
	failed := false
	if !opt.skipLive {
		if err := runLive(opt, sched); err != nil {
			fmt.Fprintln(os.Stderr, "vpchaos: LIVE RUN FAILED:", err)
			failed = true
		}
	}
	if !opt.skipSim {
		if err := runSim(opt, sched); err != nil {
			fmt.Fprintln(os.Stderr, "vpchaos: SIM REPLAY FAILED:", err)
			failed = true
		}
	}
	if failed {
		os.Exit(1)
	}
	fmt.Println("vpchaos: all checks passed")
}

// buildSchedule derives the shared fault schedule: the same Schedule is
// interpreted as wall-clock offsets by the live run and as virtual times
// by the sim replay.
func buildSchedule(opt *options) nemesis.Schedule {
	procs := make([]model.ProcID, opt.n)
	for i := range procs {
		procs[i] = model.ProcID(i + 1)
	}
	// Leave the warm-up window undisturbed: views must form before the
	// first fault (π = 20δ, liveness bound Δ = π + 8δ).
	warm := 3 * (20*opt.delta + 8*opt.delta)
	return nemesis.Generate(opt.seed, nemesis.Options{
		Procs:         procs,
		Start:         warm,
		MeanHold:      opt.meanHold,
		MeanGap:       opt.meanGap,
		MinPartitions: opt.partitions,
		MinCrashes:    opt.crashes,
		Flaky:         true,
	})
}

// runLive executes the schedule against a real TCP cluster and verifies
// safety (1SR + trace invariants) and liveness (post-heal commit).
func runLive(opt *options, sched nemesis.Schedule) error {
	procs := make([]model.ProcID, opt.n)
	for i := range procs {
		procs[i] = model.ProcID(i + 1)
	}
	root, err := os.MkdirTemp("", "vpchaos-")
	if err != nil {
		return err
	}
	defer os.RemoveAll(root)
	dir := func(p model.ProcID) string { return filepath.Join(root, fmt.Sprint(p)) }
	objs := workload.Objects(opt.objects)
	inj := nemesis.NewInjector(opt.seed)

	// Last view assignment per processor, fed by core observers (called
	// from node handler turns — guard with a mutex).
	var viewMu sync.Mutex
	lastJoin := map[model.ProcID]core.JoinEvent{}
	assigned := map[model.ProcID]bool{}

	journals := map[model.ProcID]*durable.FileJournal{}
	disks := map[model.ProcID]*nemesis.DiskFaults{}
	var tornRepairs int
	c, err := cluster.Start(cluster.Config{
		N:       opt.n,
		Catalog: model.FullyReplicated(opt.n, objs...),
		Core:    core.Config{Config: node.Config{Delta: opt.delta, LogCap: 256}, UseLogCatchup: true, UsePrevOpt: true},
		TCP: vnet.TCPConfig{
			DialTimeout:  500 * time.Millisecond,
			ReconnectMin: 20 * time.Millisecond,
			ReconnectMax: 250 * time.Millisecond,
		},
		Interceptor: inj,
		Trace:       true,
		Journal: func(id model.ProcID) (durable.Journal, *durable.State, error) {
			var fs durable.VFS
			if opt.kill9 {
				// Each boot gets a fresh, healed fault layer: the damage a
				// kill -9 left is on disk, not in the wrapper.
				disks[id] = nemesis.NewDiskFaults(nil)
				fs = disks[id]
			}
			// The journal runs as vpnode's does by default: committer
			// goroutine, 2ms age bound on unsynced records.
			state, journal, err := durable.OpenOptions(dir(id), durable.Options{
				FS: fs, Committer: true, FlushInterval: 2 * time.Millisecond})
			if err != nil {
				return nil, nil, err
			}
			if rs := journal.Recovery(); rs.Torn {
				tornRepairs++
				if opt.verbose {
					fmt.Printf("  node %v: repaired torn journal tail (%d bytes dropped)\n", id, rs.TornBytes)
				}
			}
			journals[id] = journal
			return journal, state, nil
		},
		Observer: func(p model.ProcID, ev any) {
			viewMu.Lock()
			defer viewMu.Unlock()
			switch e := ev.(type) {
			case core.JoinEvent:
				lastJoin[p] = e
				assigned[p] = true
				if opt.verbose {
					fmt.Printf("  node %v joined %v view=%v\n", p, e.VP, e.View)
				}
			case core.DepartEvent:
				assigned[p] = false
			}
		},
	})
	defer func() {
		if c != nil {
			c.Stop()
		}
		for _, j := range journals {
			j.Close()
		}
	}()
	if err != nil {
		return err
	}
	addrs, hist, rec := c.Addrs(), c.History(), c.Tracer()

	// Workload clients: disjoint tag spaces, each submitting increments
	// and reads to rotating coordinators. Failures under faults are
	// expected (omissions, denials); safety is judged on what committed.
	var committed, failedTxns atomic.Int64
	stopC := make(chan struct{})
	var cwg sync.WaitGroup
	for k := 0; k < opt.clients; k++ {
		cwg.Add(1)
		go func(k int) {
			defer cwg.Done()
			rng := rand.New(rand.NewSource(opt.seed + int64(k)*7919))
			tag := uint64(k+1) << 32
			for {
				select {
				case <-stopC:
					return
				default:
				}
				tag++
				target := addrs[procs[rng.Intn(len(procs))]]
				obj := objs[rng.Intn(len(objs))]
				var ops []wire.Op
				if rng.Float64() < 0.5 {
					ops = []wire.Op{wire.ReadOp(obj)}
				} else {
					ops = wire.IncrementOps(obj, 1)
				}
				res, err := vnet.SubmitTCPRetry(target, wire.ClientTxn{Tag: tag, Ops: ops},
					800*time.Millisecond, time.Now().Add(2*time.Second))
				if err == nil && res.Committed {
					committed.Add(1)
				} else {
					failedTxns.Add(1)
				}
				time.Sleep(time.Duration(rng.Intn(40)) * time.Millisecond)
			}
		}(k)
	}

	// Nemesis driver: walk the schedule in wall time. In -kill9 mode
	// each crash step is preceded by a lead-in that makes the victim's
	// fsync fail (the disk dying under the group-commit barrier), and
	// the crash itself freezes the disk mid-write, abandons the pending
	// batch without a sync, and tears bytes off the newest segment —
	// the restart then has to recover from exactly that damage.
	type liveEvent struct {
		at    time.Duration
		step  *nemesis.Step
		fsync model.ProcID // arm failing fsync on this node (kill9 lead-in)
	}
	events := make([]liveEvent, 0, len(sched.Steps)+opt.crashes)
	for i := range sched.Steps {
		st := &sched.Steps[i]
		if opt.kill9 && st.Kind == nemesis.StepCrash {
			lead := st.At - 60*time.Millisecond
			if lead < 0 {
				lead = 0
			}
			events = append(events, liveEvent{at: lead, fsync: st.Victim})
		}
		events = append(events, liveEvent{at: st.At, step: st})
	}
	sort.SliceStable(events, func(i, j int) bool { return events[i].at < events[j].at })
	chopRng := rand.New(rand.NewSource(opt.seed ^ 0x6b696c6c39)) // "kill9"
	var kills int
	start := time.Now()
	for _, ev := range events {
		if d := ev.at - time.Since(start); d > 0 {
			time.Sleep(d)
		}
		if ev.step == nil {
			if df, ok := disks[ev.fsync]; ok {
				if opt.verbose {
					fmt.Printf("  %8s nemesis: fsync failures on node %v\n", time.Since(start).Round(time.Millisecond), ev.fsync)
				}
				df.FailFsync(true)
			}
			continue
		}
		st := *ev.step
		if opt.verbose {
			fmt.Printf("  %8s nemesis: %s\n", time.Since(start).Round(time.Millisecond), strings.TrimSpace(st.String()))
		}
		if inj.Apply(st) {
			continue
		}
		switch st.Kind {
		case nemesis.StepCrash:
			if c.Node(st.Victim) != nil {
				if opt.kill9 {
					df := disks[st.Victim]
					// Tear whatever barrier flush is in flight, then
					// freeze the disk and kill the node.
					df.TearNextWrite(chopRng.Intn(24))
					time.Sleep(5 * time.Millisecond)
					df.Crash()
					c.StopNode(st.Victim)
					journals[st.Victim].HardCrash()
					if n, err := durable.ChopTail(nil, dir(st.Victim), 1+chopRng.Int63n(16)); err == nil && n > 0 && opt.verbose {
						fmt.Printf("  node %v: chopped %d bytes off the journal tail\n", st.Victim, n)
					}
					kills++
				} else {
					c.StopNode(st.Victim)
					journals[st.Victim].Close()
				}
				delete(journals, st.Victim)
				delete(disks, st.Victim)
			}
		case nemesis.StepRestart:
			if c.Node(st.Victim) == nil {
				if err := c.Boot(st.Victim); err != nil {
					close(stopC)
					cwg.Wait()
					return err
				}
			}
		}
	}
	close(stopC)
	cwg.Wait()

	// Liveness: after the final heal a fresh write must commit within
	// the recovery bound (generous wall-clock slack for CI).
	liveTag := uint64(1) << 62
	res, err := vnet.SubmitTCPRetry(addrs[procs[0]], wire.ClientTxn{Tag: liveTag, Ops: wire.IncrementOps(objs[0], 1)},
		2*time.Second, time.Now().Add(30*time.Second))
	if err != nil || !res.Committed {
		return fmt.Errorf("liveness: no committed write after final heal: res=%+v err=%v", res, err)
	}

	// Majority view: a majority of processors must agree on one final
	// virtual partition whose view is itself a majority.
	majority := opt.n/2 + 1
	viewMu.Lock()
	byVP := map[model.VPID]int{}
	var bigView bool
	for p, on := range assigned {
		if !on {
			continue
		}
		e := lastJoin[p]
		byVP[e.VP]++
		if byVP[e.VP] >= majority && e.View.Len() >= majority {
			bigView = true
		}
	}
	viewMu.Unlock()
	if !bigView {
		return fmt.Errorf("liveness: no majority view re-formed (assignments: %v)", byVP)
	}

	// Safety checks on what actually happened.
	if r := onecopy.CheckGraph(hist); !r.OK {
		return fmt.Errorf("1SR check failed: %s", r.Reason)
	}
	rep := trace.Check(rec.Events())
	if !rep.OK() {
		var b strings.Builder
		for _, v := range rep.Violations {
			fmt.Fprintf(&b, "\n  %s", v)
		}
		return fmt.Errorf("trace invariants violated:%s", b.String())
	}
	if rec.Dropped() > 0 {
		fmt.Printf("  note: trace ring dropped %d events (checks ran on the retained window)\n", rec.Dropped())
	}
	if opt.traceOut != "" {
		f, err := os.Create(opt.traceOut)
		if err != nil {
			return err
		}
		if err := rec.WriteJSONL(f); err != nil {
			f.Close()
			return err
		}
		if err := f.Close(); err != nil {
			return err
		}
		fmt.Printf("  %d trace events -> %s\n", rec.Len(), opt.traceOut)
	}

	counts := sched.Counts()
	var reconnects, drops, catchup int64
	for _, p := range procs {
		tn := c.Node(p)
		if tn == nil {
			continue
		}
		reconnects += tn.Metrics().Get(metrics.CPeerReconnect)
		drops += tn.Metrics().Get(metrics.CMsgDropped)
		catchup += tn.Metrics().Get(metrics.CCatchupWrites)
	}
	if opt.kill9 {
		fmt.Printf("vpchaos live: %d kill -9 crashes, %d torn journal tails repaired, %d log catch-up writes served\n",
			kills, tornRepairs, catchup)
	}
	fmt.Printf("vpchaos live: %d committed / %d failed txns; %d partitions, %d isolations, %d crashes; "+
		"%d drops, %d reconnects; 1SR ok, trace ok (S1-S3/R2/R3 checked %v), post-heal commit ok\n",
		committed.Load(), failedTxns.Load(),
		counts[nemesis.StepPartition], counts[nemesis.StepIsolateOne], counts[nemesis.StepCrash],
		drops, reconnects, checkedSummary(rep))
	if committed.Load() == 0 {
		return fmt.Errorf("workload committed nothing; the run proves nothing")
	}
	return nil
}

// runSim replays the same schedule on the deterministic simulation twice
// and demands byte-identical runs, plus the same safety and liveness
// bars as the live run.
func runSim(opt *options, sched nemesis.Schedule) error {
	digest1, err1 := simDigest(opt, sched, true)
	if err1 != nil {
		return err1
	}
	digest2, err2 := simDigest(opt, sched, false)
	if err2 != nil {
		return err2
	}
	if digest1 != digest2 {
		return fmt.Errorf("sim replay is not byte-deterministic for seed %d (digest lengths %d vs %d)",
			opt.seed, len(digest1), len(digest2))
	}
	fmt.Printf("vpchaos sim: byte-deterministic replay ok (%d-byte digest), 1SR ok, post-heal commit ok\n", len(digest1))
	return nil
}

// simDigest runs the schedule once on the sim backend, enforces the
// safety/liveness bar, and returns a byte-exact digest of the run.
func simDigest(opt *options, sched nemesis.Schedule, check bool) (string, error) {
	spec := bench.Spec{
		Protocol: bench.ProtoVP,
		N:        opt.n,
		Objects:  opt.objects,
		Seed:     opt.seed,
		Delta:    2 * time.Millisecond,
	}
	r := bench.NewRunner(spec)
	rec := r.EnableTrace(1 << 18)
	r.WarmUp()
	nemesis.ApplyToSim(r.Cluster, r.Topo, sched)

	gen := workload.NewGenerator(opt.seed+1, workload.Objects(opt.objects), r.Topo.Procs(),
		workload.Mix{ReadFraction: 0.5}, 0)
	r.Load(gen.Schedule(sched.Steps[0].At/2, 10*time.Millisecond, 200))
	liveTag := uint64(1) << 62
	r.Submit(sched.End+500*time.Millisecond, workload.Txn{
		Coordinator: 1,
		Request:     wire.ClientTxn{Tag: liveTag, Ops: wire.IncrementOps(workload.Objects(1)[0], 1)},
	})
	r.Run(sched.End + 2*time.Second)

	if check {
		if res := r.ResultFor(liveTag); !res.Committed {
			return "", fmt.Errorf("sim liveness: post-heal write did not commit: %+v", res)
		}
		if stats := r.Stats(); !stats.OneCopySR {
			return "", fmt.Errorf("sim history is not 1SR")
		}
		if rep := trace.Check(rec.Events()); !rep.OK() {
			return "", fmt.Errorf("sim trace invariants violated: %v", rep.Violations[0])
		}
	}
	var b strings.Builder
	b.WriteString(r.Hist.String())
	b.WriteString("\n---\n")
	b.WriteString(r.Cluster.Reg.String())
	b.WriteString("\n---\n")
	if err := rec.WriteJSONL(&b); err != nil {
		return "", err
	}
	return b.String(), nil
}

func checkedSummary(rep *trace.Report) string {
	keys := make([]string, 0, len(rep.Checked))
	for k := range rep.Checked {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	parts := make([]string, len(keys))
	for i, k := range keys {
		parts[i] = fmt.Sprintf("%s=%d", k, rep.Checked[k])
	}
	return strings.Join(parts, " ")
}
