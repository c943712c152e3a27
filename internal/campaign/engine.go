package campaign

import (
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"sort"
	"strings"
	"time"

	"github.com/virtualpartitions/vp/internal/bench"
	"github.com/virtualpartitions/vp/internal/metrics"
	"github.com/virtualpartitions/vp/internal/model"
	"github.com/virtualpartitions/vp/internal/nemesis"
	"github.com/virtualpartitions/vp/internal/onecopy"
	"github.com/virtualpartitions/vp/internal/shard"
	"github.com/virtualpartitions/vp/internal/trace"
	"github.com/virtualpartitions/vp/internal/wire"
	"github.com/virtualpartitions/vp/internal/workload"
)

// probeTagBase is the reserved tag range for post-heal liveness probes,
// far above any workload tag (the generator counts up from 1).
const probeTagBase = uint64(1) << 62

// isProbeTag reports whether a tag is in the reserved probe range.
func isProbeTag(tag uint64) bool { return tag >= probeTagBase }

// probeCount is how many liveness probes the heal window carries; the
// gate needs one commit, the spread tolerates individual wedged
// coordinators.
const probeCount = 6

// shardProbeTagBase marks the sub-range of probe tags used by
// DURING-fault shard-isolation probes (still >= probeTagBase, so every
// platform treats them as probes). The shard id rides in bits 16+.
const shardProbeTagBase = probeTagBase | uint64(1)<<61

// shardProbeSpread is how many isolation probes each live shard gets
// inside the partition window.
const shardProbeSpread = 3

func shardProbeTag(s model.ShardID, i int) uint64 {
	return shardProbeTagBase + uint64(s)<<16 + uint64(i)
}

// shardTopology derives a sharded cell's placement map and the fault's
// target shard: the lowest-numbered shard that owns at least one object
// (cutting an empty shard would assert nothing).
func shardTopology(c Cell) (*shard.Map, model.ShardID) {
	procs := make([]model.ProcID, c.N)
	for i := range procs {
		procs[i] = model.ProcID(i + 1)
	}
	m, err := shard.NewMap(shard.Config{
		Shards: c.Shards, Replicas: c.ShardReplicas, Seed: c.Seed,
		Procs: procs, Objects: workload.Objects(c.Objects),
	})
	if err != nil {
		panic(fmt.Sprintf("campaign: shard map: %v", err)) // inputs validated at expansion
	}
	target := model.ShardID(1)
	for s := 1; s <= c.Shards; s++ {
		if len(m.ShardCatalog(model.ShardID(s)).Objects()) > 0 {
			target = model.ShardID(s)
			break
		}
	}
	return m, target
}

// BuildPlan expands a cell into its phased experiment plan. All times
// are offsets from cluster start:
//
//	warm-up   [0, 84δ)            — no load, views form (3·(π+8δ), π=20δ)
//	load-ramp [84δ, +ramp)        — inter-arrival shrinks 4·gap → gap
//	steady    [+steady)           — fixed pacing, fault-free
//	faults    [+fault)            — nemesis schedule, load continues
//	heal      [+heal)             — no new load, probes must commit
//
// The plan is a pure function of the cell, so a deterministic backend
// given the same cell twice runs the same experiment twice.
func BuildPlan(c Cell) Plan {
	warm := 3 * (20*c.Delta + 8*c.Delta)
	rampStart := warm
	steadyStart := rampStart + c.Phases.ramp()
	faultStart := steadyStart + c.Phases.steady()
	healStart := faultStart + c.Phases.fault()
	end := healStart + c.Phases.heal()

	procs := make([]model.ProcID, c.N)
	for i := range procs {
		procs[i] = model.ProcID(i + 1)
	}
	objs := workload.Objects(c.Objects)
	gen := workload.NewGenerator(c.Seed, objs, procs,
		workload.Mix{ReadFraction: c.ReadFraction}, c.Zipf)
	gap := time.Duration(float64(time.Second) / c.Rate)

	var txns []workload.ScheduledTxn
	// Load-ramp: arrival gaps shrink linearly from 4·gap to gap. The
	// interpolation is arithmetic, not sampled, so arrival times carry no
	// generator state and the stream stays reproducible phase by phase.
	ramp := c.Phases.ramp()
	for at := rampStart; at < steadyStart; {
		txns = append(txns, workload.ScheduledTxn{At: at, Txn: gen.Next()})
		frac := float64(at-rampStart) / float64(ramp)
		at += time.Duration((4 - 3*frac) * float64(gap))
	}
	// Steady state and fault window: fixed pacing. Load keeps flowing
	// while faults are live — availability under faults is a metric, not
	// a gate.
	for at := steadyStart; at < healStart; at += gap {
		txns = append(txns, workload.ScheduledTxn{At: at, Txn: gen.Next()})
	}

	var m *shard.Map
	var target model.ShardID
	if c.Shards > 1 {
		m, target = shardTopology(c)
	}
	var faults nemesis.Schedule
	if c.Nemesis == NemesisShard {
		faults = shardNemesis(m, target, faultStart, healStart)
	} else {
		faults = buildNemesis(c, faultStart, healStart)
	}

	// Heal window: liveness probes on rotating coordinators, each a
	// blind increment with a reserved tag.
	probes := make([]workload.ScheduledTxn, 0, probeCount)
	heal := c.Phases.heal()
	for i := 0; i < probeCount; i++ {
		at := healStart + heal*time.Duration(i+1)/time.Duration(probeCount+2)
		probes = append(probes, workload.ScheduledTxn{
			At: at,
			Txn: workload.Txn{
				Coordinator: procs[i%len(procs)],
				Request: wire.ClientTxn{
					Tag: probeTagBase + uint64(i),
					Ops: wire.IncrementOps(objs[0], 1),
				},
			},
		})
	}
	// Shard-isolation probes: while the target shard's majority is cut,
	// every OTHER object-owning shard must keep committing. The probes
	// run INSIDE the partition window (strictly between the cut and the
	// heal), coordinated by a member of the probed shard, writing one of
	// that shard's own objects. The isolation gate requires each probed
	// shard to commit at least one before the heal.
	if c.Nemesis == NemesisShard {
		window := healStart - faultStart
		cutAt := faultStart + window/4    // matches nemesis.GenerateShard
		healAt := faultStart + 3*window/4 // "
		for s := 1; s <= c.Shards; s++ {
			sid := model.ShardID(s)
			if sid == target {
				continue
			}
			sobjs := m.ShardCatalog(sid).Objects()
			if len(sobjs) == 0 {
				continue
			}
			members := m.MemberList(sid)
			for i := 0; i < shardProbeSpread; i++ {
				at := cutAt + (healAt-cutAt)*time.Duration(i+1)/time.Duration(shardProbeSpread+1)
				probes = append(probes, workload.ScheduledTxn{
					At: at,
					Txn: workload.Txn{
						Coordinator: members[i%len(members)],
						Request: wire.ClientTxn{
							Tag: shardProbeTag(sid, i),
							Ops: wire.IncrementOps(sobjs[i%len(sobjs)], 1),
						},
					},
				})
			}
		}
	}
	return Plan{Txns: txns, Faults: faults, Probes: probes, End: end, Shards: m}
}

// shardNemesis is the shard profile's one surgical fault, in the fault
// window [start, end): split the target shard's copy set into
// singletons (no group retains a weighted majority, so the shard stalls
// by rule R1) for the shard's frames only; the rest of the network never
// notices.
func shardNemesis(m *shard.Map, target model.ShardID, start, end time.Duration) nemesis.Schedule {
	members := m.MemberList(target)
	groups := make([][]model.ProcID, 0, len(members))
	for _, p := range members {
		groups = append(groups, []model.ProcID{p})
	}
	return nemesis.GenerateShard(target, groups, start, end-start)
}

// buildNemesis derives the cell's fault schedule (the shard profile's is
// shardNemesis), confined to the fault window [start, end). Profiles
// reuse the seeded generator and filter: crash/restart pairs drop
// together, and a heal on a healthy network is a no-op, so filtering
// never leaves a fault open.
func buildNemesis(c Cell, start, end time.Duration) nemesis.Schedule {
	if c.Nemesis == NemesisNone {
		return nemesis.Schedule{End: start}
	}
	procs := make([]model.ProcID, c.N)
	for i := range procs {
		procs[i] = model.ProcID(i + 1)
	}
	window := end - start
	opts := nemesis.Options{
		Procs:    procs,
		Start:    start,
		MeanHold: window / 10,
		MeanGap:  window / 10,
	}
	var drop map[nemesis.StepKind]bool
	switch c.Nemesis {
	case NemesisMixed:
		opts.MinPartitions, opts.MinCrashes, opts.Flaky = 1, 1, true
	case NemesisPartitions:
		opts.MinPartitions, opts.MinCrashes = 2, 1
		drop = map[nemesis.StepKind]bool{nemesis.StepCrash: true, nemesis.StepRestart: true}
	case NemesisCrashes, NemesisKill9:
		opts.MinPartitions, opts.MinCrashes = 1, 2
		drop = map[nemesis.StepKind]bool{nemesis.StepPartition: true, nemesis.StepIsolateOne: true}
	}
	sched := nemesis.Generate(c.Seed, opts)
	if drop != nil {
		kept := sched.Steps[:0]
		for _, st := range sched.Steps {
			if drop[st.Kind] {
				continue
			}
			if st.Kind == nemesis.StepCrash && c.Nemesis == NemesisKill9 {
				st.Kind = nemesis.StepKill
			}
			kept = append(kept, st)
		}
		sched.Steps = kept
	}
	return confine(sched, start, end)
}

// confine linearly compresses a schedule that overruns its window back
// into [start, end), preserving step order and relative spacing.
func confine(s nemesis.Schedule, start, end time.Duration) nemesis.Schedule {
	if len(s.Steps) == 0 || s.End <= end {
		return s
	}
	span := float64(s.End - start)
	target := float64(end - start)
	for i := range s.Steps {
		s.Steps[i].At = start + time.Duration(float64(s.Steps[i].At-start)*target/span)
	}
	s.End = end
	return s
}

// Gates are the per-cell pass/fail verdicts on the paper's claims.
type Gates struct {
	// Progress: the workload committed something; a run that commits
	// nothing proves nothing.
	Progress bool `json:"progress"`
	// OneSR: the committed history is one-copy serializable.
	OneSR bool `json:"one_sr"`
	// TraceInvariants: the trace replays with zero S1–S3/R2/R3
	// violations.
	TraceInvariants bool `json:"trace_invariants"`
	// Liveness: a post-heal probe write committed within the heal
	// window (the paper's Δ = π + 8δ recovery bound, with slack). A
	// committed write needs a view holding a majority of its object's
	// copies (R1), so this also shows that a majority view re-formed.
	Liveness bool `json:"liveness"`
	// ShardIsolation: while one shard's weighted majority was
	// partitioned, every other object-owning shard committed a probe
	// before the heal. Vacuously true for cells without shard probes.
	ShardIsolation bool `json:"shard_isolation"`
}

// OK reports whether every gate passed.
func (g Gates) OK() bool {
	return g.Progress && g.OneSR && g.TraceInvariants && g.Liveness && g.ShardIsolation
}

// CellResult is one cell's outcome: identity, throughput/latency
// metrics, gate verdicts, and the run digest. Field order is the
// BENCH_trajectory.json schema — append-only, tested.
type CellResult struct {
	ID           string  `json:"id"`
	Backend      string  `json:"backend"`
	N            int     `json:"n"`
	Objects      int     `json:"objects"`
	Zipf         float64 `json:"zipf"`
	ReadFraction float64 `json:"read_fraction"`
	Nemesis      string  `json:"nemesis"`
	Seed         int64   `json:"seed"`

	Submitted int `json:"submitted"`
	Committed int `json:"committed"`
	Aborted   int `json:"aborted"`
	Denied    int `json:"denied"`
	Pending   int `json:"pending"`

	Availability  float64 `json:"availability"`
	LatencyP50MS  float64 `json:"latency_p50_ms"`
	LatencyP95MS  float64 `json:"latency_p95_ms"`
	MsgsPerCommit float64 `json:"msgs_per_commit"`
	ViewChanges   int     `json:"view_changes"`

	Gates Gates `json:"gates"`
	// Digest fingerprints the run (history + counters + trace). For the
	// sim backend it is byte-deterministic per (cell, seed) — the
	// determinism regression compares it across serial and parallel runs.
	Digest string `json:"digest"`
	// WallMS is how long the cell took to execute; informational, never
	// part of the digest.
	WallMS int64 `json:"wall_ms"`
	// Failures lists gate diagnostics and platform errors; empty on a
	// passing cell.
	Failures []string `json:"failures,omitempty"`
	// Phases is the per-phase latency breakdown assembled from the causal
	// spans the run captured (coordinator 2PC phases, lock waits, journal
	// staging, view changes). Appended to the schema; absent when the
	// platform recorded no spans.
	Phases []PhaseLatency `json:"phases,omitempty"`
}

// PhaseLatency is one protocol phase's latency distribution within a
// cell, in milliseconds.
type PhaseLatency struct {
	Phase string  `json:"phase"`
	Count int     `json:"count"`
	P50MS float64 `json:"p50_ms"`
	P99MS float64 `json:"p99_ms"`
	MaxMS float64 `json:"max_ms"`
}

// OK reports whether the cell passed (gates up, no platform failures).
func (r CellResult) OK() bool { return r.Gates.OK() && len(r.Failures) == 0 }

// RunCell executes one cell end to end: platform lifecycle, injection
// hook, gates, metrics. Platform errors fail the cell, never panic the
// campaign.
func RunCell(c Cell) CellResult {
	res := CellResult{
		ID: c.ID, Backend: c.Backend, N: c.N, Objects: c.Objects,
		Zipf: c.Zipf, ReadFraction: c.ReadFraction,
		Nemesis: c.Nemesis, Seed: c.Seed,
	}
	began := time.Now()
	defer func() { res.WallMS = time.Since(began).Milliseconds() }()

	p, err := NewPlatform(c.Backend)
	if err != nil {
		res.Failures = append(res.Failures, err.Error())
		return res
	}
	plan := BuildPlan(c)
	cfg := ClusterConfig{
		N: c.N, Objects: c.Objects, Seed: c.Seed, Delta: c.Delta,
		Shards: plan.Shards,
	}
	if err := p.Start(cfg); err != nil {
		res.Failures = append(res.Failures, fmt.Sprintf("start: %v", err))
		return res
	}
	defer p.Stop() //nolint:errcheck // best-effort teardown on early return
	if err := p.Drive(plan); err != nil {
		res.Failures = append(res.Failures, fmt.Sprintf("drive: %v", err))
		return res
	}
	snap, err := p.Scrape()
	if err != nil {
		res.Failures = append(res.Failures, fmt.Sprintf("scrape: %v", err))
		return res
	}
	if err := p.Stop(); err != nil {
		res.Failures = append(res.Failures, fmt.Sprintf("stop: %v", err))
		return res
	}
	injectViolation(c.Inject, snap)
	evaluate(&res, plan, snap)
	return res
}

// evaluate fills a cell result's metrics and gates from the scraped
// snapshot.
func evaluate(res *CellResult, plan Plan, snap *Snapshot) {
	res.Submitted = len(plan.Txns)
	var lats []float64
	for _, s := range plan.Txns {
		tag := s.Txn.Request.Tag
		out, ok := snap.Results[tag]
		switch {
		case !ok:
			res.Pending++
		case out.Committed:
			res.Committed++
			if lat, ok := snap.Latency[tag]; ok {
				lats = append(lats, float64(lat)/float64(time.Millisecond))
			}
		case out.Denied:
			res.Denied++
		default:
			res.Aborted++
		}
	}
	if res.Submitted > 0 {
		res.Availability = float64(res.Committed) / float64(res.Submitted)
	}
	sort.Float64s(lats)
	res.LatencyP50MS = percentile(lats, 0.50)
	res.LatencyP95MS = percentile(lats, 0.95)
	if res.Committed > 0 {
		res.MsgsPerCommit = float64(snap.Counters[metrics.CMsgSent]) / float64(res.Committed)
	}
	for _, e := range snap.Events {
		if e.Kind == trace.EvVPJoin {
			res.ViewChanges++
		}
	}
	ms := func(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }
	for _, st := range trace.PhaseStats(trace.BuildTrees(snap.Events)) {
		res.Phases = append(res.Phases, PhaseLatency{
			Phase: st.Phase, Count: st.Count,
			P50MS: ms(st.P50), P99MS: ms(st.P99), MaxMS: ms(st.Max),
		})
	}

	res.Gates.Progress = res.Committed > 0
	if !res.Gates.Progress {
		res.Failures = append(res.Failures, "progress: workload committed nothing")
	}
	if sr := onecopy.CheckGraph(snap.Hist); sr.OK {
		res.Gates.OneSR = true
	} else {
		res.Failures = append(res.Failures, "1SR: "+sr.Reason)
	}
	if rep := trace.Check(snap.Events); rep.OK() {
		res.Gates.TraceInvariants = true
	} else {
		for i, v := range rep.Violations {
			if i == 3 {
				res.Failures = append(res.Failures,
					fmt.Sprintf("trace: ... and %d more violations", len(rep.Violations)-i))
				break
			}
			res.Failures = append(res.Failures, "trace: "+v.String())
		}
	}
	healProbes := 0
	for _, s := range plan.Probes {
		tag := s.Txn.Request.Tag
		if tag >= shardProbeTagBase {
			continue // during-fault shard probe; judged by the isolation gate
		}
		healProbes++
		if snap.Results[tag].Committed {
			res.Gates.Liveness = true
		}
	}
	if !res.Gates.Liveness {
		res.Failures = append(res.Failures,
			fmt.Sprintf("liveness: none of %d post-heal probes committed", healProbes))
	}

	// Shard isolation: every probed live shard must commit at least one
	// probe BEFORE the heal (a commit that only lands after the network
	// heals proves recovery, not isolation).
	res.Gates.ShardIsolation = true
	shardSeen := map[model.ShardID]bool{}
	shardOK := map[model.ShardID]bool{}
	for _, s := range plan.Probes {
		tag := s.Txn.Request.Tag
		if tag < shardProbeTagBase {
			continue
		}
		sid := model.ShardID((tag - shardProbeTagBase) >> 16)
		shardSeen[sid] = true
		if snap.Results[tag].Committed {
			if lat, ok := snap.Latency[tag]; ok && s.At+lat <= plan.Faults.End {
				shardOK[sid] = true
			}
		}
	}
	for sid := range shardSeen {
		if !shardOK[sid] {
			res.Gates.ShardIsolation = false
			res.Failures = append(res.Failures,
				fmt.Sprintf("shard-isolation: shard %v committed no probe during the partition", sid))
		}
	}
	res.Digest = digest(snap)
}

func percentile(sorted []float64, p float64) float64 {
	if len(sorted) == 0 {
		return 0
	}
	return sorted[int(p*float64(len(sorted)-1))]
}

// digest fingerprints a run: committed history, sorted counters, and the
// trace. Byte-deterministic whenever the platform is, which is what
// TestSimCellDeterminism and the -parallel comparison hold the sim to.
func digest(snap *Snapshot) string {
	h := sha256.New()
	h.Write([]byte(snap.Hist.String()))
	h.Write([]byte("\n---\n"))
	keys := make([]string, 0, len(snap.Counters))
	for k := range snap.Counters {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	for _, k := range keys {
		fmt.Fprintf(h, "%s=%d\n", k, snap.Counters[k])
	}
	h.Write([]byte("---\n"))
	for _, e := range snap.Events {
		fmt.Fprintf(h, "%+v\n", e)
	}
	return hex.EncodeToString(h.Sum(nil))
}

// injectViolation is the seeded-violation hook behind Spec.Inject: it
// corrupts the snapshot *after* the run so a healthy protocol plus a
// known-bad observation must trip the corresponding gate. This is how
// the campaign proves its gates have teeth.
func injectViolation(kind string, snap *Snapshot) {
	switch kind {
	case InjectS2:
		// A processor assigned to a view that omits it: a reflexivity
		// (S2) violation by construction. The VP id is below any real one
		// so the injected join cannot also confuse S3's per-proc order.
		snap.Events = append(snap.Events, trace.Event{
			Kind:  trace.EvVPJoin,
			Proc:  1,
			VP:    model.VPID{N: 0, P: 2},
			Procs: model.NewProcSet(2, 3),
		})
	case InjectHistory:
		// A committed write-skew pair on two otherwise-untouched objects:
		// each transaction reads the other's written object at its
		// initial version, which puts a cycle (rw edges both ways) in the
		// serialization graph.
		t1 := model.TxnID{Start: 1 << 50, P: 98, Seq: 1}
		t2 := model.TxnID{Start: 1 << 50, P: 99, Seq: 1}
		epoch := model.VPID{N: 1, P: 1}
		a, b := model.ObjectID("inject-a"), model.ObjectID("inject-b")
		snap.Hist.Record(onecopy.TxnRecord{
			ID: t1, Epoch: epoch, Committed: true,
			Reads:  map[model.ObjectID]model.Version{a: {}},
			Writes: map[model.ObjectID]model.Version{b: {Date: epoch, Ctr: 1, Writer: t1}},
		})
		snap.Hist.Record(onecopy.TxnRecord{
			ID: t2, Epoch: epoch, Committed: true,
			Reads:  map[model.ObjectID]model.Version{b: {}},
			Writes: map[model.ObjectID]model.Version{a: {Date: epoch, Ctr: 1, Writer: t2}},
		})
	case InjectLiveness:
		// Drop every probe outcome, as if the cluster never recovered.
		for tag := range snap.Results {
			if isProbeTag(tag) {
				delete(snap.Results, tag)
			}
		}
	}
}

// Result is a whole campaign's outcome.
type Result struct {
	Name  string
	Seed  int64
	Cells []CellResult
}

// Failed returns the ids of failing cells.
func (r *Result) Failed() []string {
	var out []string
	for _, c := range r.Cells {
		if !c.OK() {
			out = append(out, c.ID)
		}
	}
	return out
}

// OK reports whether every cell passed.
func (r *Result) OK() bool { return len(r.Failed()) == 0 }

// Run expands and executes a campaign. Deterministic (sim) cells run
// through the bench worker pool with `workers` goroutines — each cell
// owns a private simulation, so parallel execution cannot perturb
// results, and the determinism regression enforces it stays that way.
// Real-time cells run serially: they are wall-clock experiments and
// co-scheduling them would contend for the clock. logf, when non-nil,
// receives one line per completed cell.
func Run(spec Spec, workers int, logf func(format string, args ...any)) (*Result, error) {
	cells, err := spec.Expand()
	if err != nil {
		return nil, err
	}
	if len(cells) == 0 {
		return nil, fmt.Errorf("campaign: spec %q expands to zero cells", spec.Name)
	}
	if workers <= 0 {
		workers = 1
	}
	note := func(c CellResult) {
		if logf == nil {
			return
		}
		status := "ok"
		if !c.OK() {
			status = "FAIL " + strings.Join(c.Failures, "; ")
		}
		logf("cell %-40s committed=%d/%d p50=%.2fms views=%d %s",
			c.ID, c.Committed, c.Submitted, c.LatencyP50MS, c.ViewChanges, status)
	}

	out := make([]CellResult, len(cells))
	var detIdx []int
	for i, c := range cells {
		if c.Backend == BackendSim {
			detIdx = append(detIdx, i)
		}
	}
	if len(detIdx) > 0 {
		detRes := bench.Parallel(len(detIdx), workers, func(i int) CellResult {
			return RunCell(cells[detIdx[i]])
		})
		for i, r := range detRes {
			out[detIdx[i]] = r
			note(r)
		}
	}
	for i, c := range cells {
		if c.Backend == BackendSim {
			continue
		}
		out[i] = RunCell(c)
		note(out[i])
	}
	name := spec.Name
	if name == "" {
		name = "campaign"
	}
	seed := spec.Seed
	if seed == 0 {
		seed = 1
	}
	return &Result{Name: name, Seed: seed, Cells: out}, nil
}
