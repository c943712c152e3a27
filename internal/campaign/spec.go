// Package campaign expands a declarative scenario matrix into cells and
// runs every cell through a common Platform adapter — the deterministic
// simulation or the in-process real-time cluster — with a phased
// lifecycle (warm-up → load-ramp → steady state → fault window →
// heal/drain) and in-engine gates on the paper's invariants: one-copy
// serializability of the committed history, the S1–S3/R2/R3 trace
// replay, and post-heal liveness. A cell that fails a gate fails the
// campaign, which makes this a test platform first and a benchmark
// runner second. Cell results append to the host-baseline-stamped
// BENCH_trajectory.json so perf and correctness regressions across PRs
// are a CI diff.
package campaign

import (
	"fmt"
	"hash/fnv"
	"slices"
	"time"
)

// Backend names for Axes.Backend.
const (
	BackendSim    = "sim"    // deterministic virtual-time simulation (internal/bench)
	BackendInproc = "inproc" // in-process loopback TCP cluster (internal/cluster)
)

// Nemesis profile names for Axes.Nemesis.
const (
	NemesisNone       = "none"
	NemesisPartitions = "partitions" // partition/heal episodes only
	NemesisCrashes    = "crashes"    // crash/restart episodes only
	NemesisMixed      = "mixed"      // partitions + crashes + flaky links
	// NemesisKill9 is the crashes profile with every crash a kill -9
	// under a failing disk (nemesis.StepKill): fsync failures and a torn
	// write armed around the kill, the disk frozen, the node stopped and
	// its journal abandoned, then the bytes no fsync covered lost.
	// Requires the inproc backend — the sim has no disk.
	NemesisKill9 = "kill9"
	// NemesisShard partitions exactly one shard's weighted majority
	// (every member of the target shard isolated from every other, for
	// that shard's frames only) while the rest of the network stays
	// healthy. The cell then asserts the sharded deployment's central
	// claim: every OTHER shard keeps committing during the fault
	// (shard-isolation gate), and the target shard recovers after the
	// heal (liveness gate). Requires shards > 1 on the inproc backend —
	// the injector must inspect frames to scope the cut.
	NemesisShard = "shard-partition"
)

// Injection hooks for Spec.Inject; see injectViolation. Used by tests
// and by the acceptance demo: a seeded injected violation must make the
// whole campaign exit non-zero.
const (
	InjectNone     = ""
	InjectS2       = "s2"       // fabricate a view that violates reflexivity
	InjectHistory  = "history"  // fabricate a write-skew pair breaking 1SR
	InjectLiveness = "liveness" // suppress the post-heal probe commits
)

// Spec is one declarative campaign: a seed, a matrix of axes, and the
// per-cell phase durations. The matrix is the cross product of every
// axis; empty axes take a single-value default so a spec only names the
// dimensions it sweeps.
type Spec struct {
	Name string `json:"name"`
	// Seed derives every cell's seed (mixed with the cell's identity),
	// so one campaign seed reproduces every cell exactly.
	Seed int64 `json:"seed"`
	Axes Axes  `json:"axes"`
	// Phases are per-cell phase durations (defaults: ramp 200ms, steady
	// 600ms, fault 600ms, heal 600ms). Warm-up is derived from δ.
	Phases Phases `json:"phases"`
	// RatePerSec is the steady-state arrival rate per cell (default 150).
	RatePerSec float64 `json:"rate_per_sec,omitempty"`
	// DeltaMS overrides the per-backend default message-delay bound δ
	// (sim 2ms, inproc 10ms).
	DeltaMS int `json:"delta_ms,omitempty"`
	// Inject seeds a deliberate violation into every cell (see the
	// Inject* constants); the campaign must then fail. Test hook.
	Inject string `json:"inject,omitempty"`
	// ShardReplicas is the copy-set size per shard for sharded cells
	// (0 = every processor holds every shard). Ignored when the shards
	// axis is absent.
	ShardReplicas int `json:"shard_replicas,omitempty"`
}

// Axes are the sweep dimensions. Each slice is one axis of the cross
// product; nil means "the default value only".
type Axes struct {
	Backend      []string  `json:"backend,omitempty"`       // default [sim]
	N            []int     `json:"n,omitempty"`             // cluster size, default [5]
	Objects      []int     `json:"objects,omitempty"`       // default [4]
	Zipf         []float64 `json:"zipf,omitempty"`          // popularity skew, default [0]
	ReadFraction []float64 `json:"read_fraction,omitempty"` // default [0.5]
	Nemesis      []string  `json:"nemesis,omitempty"`       // default [mixed]
	Shards       []int     `json:"shards,omitempty"`        // shard count, default [1] (unsharded)
}

// Phases are the per-cell phase durations in milliseconds.
type Phases struct {
	RampMS   int `json:"ramp_ms,omitempty"`
	SteadyMS int `json:"steady_ms,omitempty"`
	FaultMS  int `json:"fault_ms,omitempty"`
	HealMS   int `json:"heal_ms,omitempty"`
}

func (p Phases) withDefaults() Phases {
	if p.RampMS <= 0 {
		p.RampMS = 200
	}
	if p.SteadyMS <= 0 {
		p.SteadyMS = 600
	}
	if p.FaultMS <= 0 {
		p.FaultMS = 600
	}
	if p.HealMS <= 0 {
		p.HealMS = 600
	}
	return p
}

func (p Phases) ramp() time.Duration   { return time.Duration(p.RampMS) * time.Millisecond }
func (p Phases) steady() time.Duration { return time.Duration(p.SteadyMS) * time.Millisecond }
func (p Phases) fault() time.Duration  { return time.Duration(p.FaultMS) * time.Millisecond }
func (p Phases) heal() time.Duration   { return time.Duration(p.HealMS) * time.Millisecond }

func (a Axes) withDefaults() Axes {
	if len(a.Backend) == 0 {
		a.Backend = []string{BackendSim}
	}
	if len(a.N) == 0 {
		a.N = []int{5}
	}
	if len(a.Objects) == 0 {
		a.Objects = []int{4}
	}
	if len(a.Zipf) == 0 {
		a.Zipf = []float64{0}
	}
	if len(a.ReadFraction) == 0 {
		a.ReadFraction = []float64{0.5}
	}
	if len(a.Nemesis) == 0 {
		a.Nemesis = []string{NemesisMixed}
	}
	if len(a.Shards) == 0 {
		a.Shards = []int{1}
	}
	return a
}

// defaultDelta is the per-backend message-delay bound δ: the sim runs in
// virtual time so δ only scales the protocol's own timers; the real-time
// backend needs slack for goroutine scheduling.
func defaultDelta(backend string) time.Duration {
	if backend == BackendInproc {
		return 10 * time.Millisecond
	}
	return 2 * time.Millisecond
}

// Cell is one fully-instantiated point of the matrix.
type Cell struct {
	Index        int           `json:"index"`
	ID           string        `json:"id"`
	Backend      string        `json:"backend"`
	N            int           `json:"n"`
	Objects      int           `json:"objects"`
	Zipf         float64       `json:"zipf"`
	ReadFraction float64       `json:"read_fraction"`
	Nemesis      string        `json:"nemesis"`
	Shards       int           `json:"shards,omitempty"`
	Seed         int64         `json:"seed"`
	Delta        time.Duration `json:"-"`
	Rate         float64       `json:"-"`
	Phases       Phases        `json:"-"`
	Inject       string        `json:"-"`
	// ShardReplicas is the per-shard copy-set size (spec-level knob, not
	// an axis).
	ShardReplicas int `json:"-"`
}

// Validate rejects specs that cannot run before any cluster boots.
func (s Spec) Validate() error {
	a := s.Axes.withDefaults()
	for _, b := range a.Backend {
		switch b {
		case BackendSim, BackendInproc:
		default:
			return fmt.Errorf("campaign: unknown backend %q (want sim|inproc)", b)
		}
	}
	for _, n := range a.N {
		if n < 3 {
			return fmt.Errorf("campaign: n=%d too small (need a majority to survive faults)", n)
		}
	}
	for _, o := range a.Objects {
		if o < 1 {
			return fmt.Errorf("campaign: objects=%d must be positive", o)
		}
	}
	for _, z := range a.Zipf {
		if z < 0 {
			return fmt.Errorf("campaign: zipf=%v must be non-negative", z)
		}
	}
	for _, rf := range a.ReadFraction {
		if rf < 0 || rf > 1 {
			return fmt.Errorf("campaign: read_fraction=%v out of [0,1]", rf)
		}
	}
	for _, nm := range a.Nemesis {
		switch nm {
		case NemesisNone, NemesisPartitions, NemesisCrashes, NemesisMixed:
		case NemesisKill9:
			if !slices.Contains(a.Backend, BackendInproc) {
				return fmt.Errorf("campaign: nemesis %q needs the inproc backend (the sim has no disk to fail)", nm)
			}
		case NemesisShard:
			if !slices.Contains(a.Backend, BackendInproc) {
				return fmt.Errorf("campaign: nemesis=shard-partition needs the inproc backend (the injector must inspect frames)")
			}
			sharded := false
			for _, k := range a.Shards {
				if k > 1 {
					sharded = true
				}
			}
			if !sharded {
				return fmt.Errorf("campaign: nemesis=shard-partition needs a shards axis value > 1")
			}
		default:
			return fmt.Errorf("campaign: unknown nemesis profile %q", nm)
		}
	}
	for _, k := range a.Shards {
		if k < 1 {
			return fmt.Errorf("campaign: shards=%d must be >= 1", k)
		}
	}
	switch s.Inject {
	case InjectNone, InjectS2, InjectHistory, InjectLiveness:
	default:
		return fmt.Errorf("campaign: unknown inject hook %q", s.Inject)
	}
	return nil
}

// Expand materializes the matrix in a fixed nesting order (backend
// outermost, shards innermost) so cell indices and seeds are stable for
// a given spec.
func (s Spec) Expand() ([]Cell, error) {
	if err := s.Validate(); err != nil {
		return nil, err
	}
	a := s.Axes.withDefaults()
	ph := s.Phases.withDefaults()
	rate := s.RatePerSec
	if rate <= 0 {
		rate = 150
	}
	seed := s.Seed
	if seed == 0 {
		seed = 1
	}
	var cells []Cell
	for _, backend := range a.Backend {
		delta := defaultDelta(backend)
		if s.DeltaMS > 0 {
			delta = time.Duration(s.DeltaMS) * time.Millisecond
		}
		for _, n := range a.N {
			for _, objects := range a.Objects {
				for _, zipf := range a.Zipf {
					for _, rf := range a.ReadFraction {
						for _, nem := range a.Nemesis {
							for _, shards := range a.Shards {
								// Sharded clusters run shard.Routers and kill -9
								// needs a disk, which only the inproc backend
								// has; and the shard-partition fault is
								// meaningless unsharded.
								if (shards > 1 || nem == NemesisKill9) && backend != BackendInproc {
									continue
								}
								if nem == NemesisShard && shards <= 1 {
									continue
								}
								c := Cell{
									Index:         len(cells),
									Backend:       backend,
									N:             n,
									Objects:       objects,
									Zipf:          zipf,
									ReadFraction:  rf,
									Nemesis:       nem,
									Shards:        shards,
									ShardReplicas: s.ShardReplicas,
									Delta:         delta,
									Rate:          rate,
									Phases:        ph,
									Inject:        s.Inject,
								}
								c.ID = cellID(c)
								c.Seed = cellSeed(seed, c.ID)
								cells = append(cells, c)
							}
						}
					}
				}
			}
		}
	}
	return cells, nil
}

func cellID(c Cell) string {
	id := fmt.Sprintf("%s/n%d/o%d/z%.2f/rf%.2f/%s",
		c.Backend, c.N, c.Objects, c.Zipf, c.ReadFraction, c.Nemesis)
	// The shard segment appears only on sharded cells.
	if c.Shards > 1 {
		id += fmt.Sprintf("/sh%d", c.Shards)
	}
	return id
}

// cellSeed mixes the campaign seed with the cell identity, so every cell
// of a campaign has its own deterministic seed and the same cell of two
// campaigns with the same seed reproduces identically.
func cellSeed(seed int64, id string) int64 {
	h := fnv.New64a()
	fmt.Fprintf(h, "%d|%s", seed, id)
	v := int64(h.Sum64() >> 1) // keep it positive: rand sources dislike MinInt64 negation
	if v == 0 {
		v = 1
	}
	return v
}
