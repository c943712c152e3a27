// Package metrics provides the counters and distributions collected by
// the experiment harness: message counts by kind, physical accesses per
// logical operation, commit/abort tallies, and latency/staleness
// histograms. Counters are safe for concurrent use so the same registry
// serves both the single-threaded simulation engine and the real-time
// goroutine-per-node engine.
package metrics

import (
	"fmt"
	"math/rand"
	"sort"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"github.com/virtualpartitions/vp/internal/model"
)

// DefaultSampleCap bounds how many raw observations a distribution
// retains. Beyond the cap, reservoir sampling keeps a uniform sample of
// everything seen, so long experiments cannot grow memory without bound
// while quantile estimates stay representative.
const DefaultSampleCap = 4096

// sampleSet is one bounded distribution: the retained reservoir plus the
// total number of observations ever made.
type sampleSet struct {
	vals []float64
	seen int64
}

// Registry is a named collection of counters and samples.
type Registry struct {
	mu        sync.Mutex
	counters  map[string]int64
	samples   map[string]*sampleSet
	sampleCap int
	// rng drives reservoir replacement. Seeded deterministically so the
	// same run retains the same sample (the registry is already serialized
	// by mu, so this costs nothing extra).
	rng *rand.Rand
}

// NewRegistry returns an empty registry.
func NewRegistry() *Registry {
	return &Registry{
		counters:  make(map[string]int64),
		samples:   make(map[string]*sampleSet),
		sampleCap: DefaultSampleCap,
		rng:       rand.New(rand.NewSource(1)),
	}
}

// SetSampleCap changes the per-distribution retention bound. It applies
// to subsequent observations; existing reservoirs are not trimmed. A cap
// of at least 1 is enforced.
func (r *Registry) SetSampleCap(n int) {
	if n < 1 {
		n = 1
	}
	r.mu.Lock()
	r.sampleCap = n
	r.mu.Unlock()
}

// Inc adds delta to the named counter.
func (r *Registry) Inc(name string, delta int64) {
	r.mu.Lock()
	r.counters[name] += delta
	r.mu.Unlock()
}

// Set overwrites the named counter, for the few that are states rather
// than tallies (CNodeHalted).
func (r *Registry) Set(name string, v int64) {
	r.mu.Lock()
	r.counters[name] = v
	r.mu.Unlock()
}

// Get returns the current value of a counter (0 if never incremented).
func (r *Registry) Get(name string) int64 {
	r.mu.Lock()
	defer r.mu.Unlock()
	return r.counters[name]
}

// Observe records one sample of a distribution. Below the cap every
// observation is retained exactly; past it, observation k replaces a
// random reservoir slot with probability cap/k (Vitter's algorithm R),
// so the reservoir stays a uniform sample of the whole stream.
func (r *Registry) Observe(name string, v float64) {
	r.mu.Lock()
	s := r.samples[name]
	if s == nil {
		s = &sampleSet{}
		r.samples[name] = s
	}
	s.seen++
	switch {
	case len(s.vals) < r.sampleCap:
		s.vals = append(s.vals, v)
	default:
		if j := r.rng.Int63n(s.seen); j < int64(len(s.vals)) {
			s.vals[j] = v
		}
	}
	r.mu.Unlock()
}

// ObserveDuration records a duration sample in milliseconds.
func (r *Registry) ObserveDuration(name string, d time.Duration) {
	r.Observe(name, float64(d)/float64(time.Millisecond))
}

// Counters returns a snapshot of every counter.
func (r *Registry) Counters() map[string]int64 {
	r.mu.Lock()
	defer r.mu.Unlock()
	out := make(map[string]int64, len(r.counters))
	for k, v := range r.counters {
		out[k] = v
	}
	return out
}

// Summary describes a recorded distribution.
type Summary struct {
	Count          int
	Mean, Min, Max float64
	P50, P95, P99  float64
}

// Samples returns a summary of the named distribution. The zero Summary
// is returned when nothing was observed. Count is the total number of
// observations; when it exceeds the sample cap, the remaining statistics
// are estimates over the retained reservoir.
func (r *Registry) Samples(name string) Summary {
	r.mu.Lock()
	var vals []float64
	seen := 0
	if s := r.samples[name]; s != nil {
		vals = append(vals, s.vals...)
		seen = int(s.seen)
	}
	r.mu.Unlock()
	if len(vals) == 0 {
		return Summary{}
	}
	sort.Float64s(vals)
	var sum float64
	for _, v := range vals {
		sum += v
	}
	pct := func(p float64) float64 {
		i := int(p * float64(len(vals)-1))
		return vals[i]
	}
	return Summary{
		Count: seen,
		Mean:  sum / float64(len(vals)),
		Min:   vals[0],
		Max:   vals[len(vals)-1],
		P50:   pct(0.50),
		P95:   pct(0.95),
		P99:   pct(0.99),
	}
}

// SampleNames returns the names of all recorded distributions, sorted.
func (r *Registry) SampleNames() []string {
	r.mu.Lock()
	defer r.mu.Unlock()
	return model.SortedKeys(r.samples)
}

// Reset clears all counters and samples.
func (r *Registry) Reset() {
	r.mu.Lock()
	r.counters = make(map[string]int64)
	r.samples = make(map[string]*sampleSet)
	r.mu.Unlock()
}

// String renders every counter on one line each, sorted by name.
func (r *Registry) String() string {
	c := r.Counters()
	var b strings.Builder
	for _, k := range model.SortedKeys(c) {
		fmt.Fprintf(&b, "%-32s %d\n", k, c[k])
	}
	return b.String()
}

// Family names the per-label members of one counter family
// ("net.msg.sent" → "net.msg.sent.lockreq"), building each name once: a
// hot path that counts by message kind pays a map lookup per event, not
// a string concatenation. The label set is small and fixed after
// warm-up, so the names live in an immutable map that is copied on the
// rare miss and read without a lock. Safe for concurrent use.
type Family struct {
	base  string
	names atomic.Pointer[map[string]string]
}

// NewFamily returns the family of counters named base+"."+label.
func NewFamily(base string) *Family {
	f := &Family{base: base}
	f.names.Store(&map[string]string{})
	return f
}

// Name returns base+"."+label.
func (f *Family) Name(label string) string {
	for {
		old := f.names.Load()
		if name, ok := (*old)[label]; ok {
			return name
		}
		grown := make(map[string]string, len(*old)+1)
		for k, v := range *old {
			grown[k] = v
		}
		grown[label] = f.base + "." + label
		f.names.CompareAndSwap(old, &grown)
	}
}

// Well-known counter names used across the harness. Protocol code uses
// these so experiments can compare like with like.
const (
	CMsgSent      = "net.msg.sent"
	CMsgDelivered = "net.msg.delivered"
	CMsgDropped   = "net.msg.dropped"
	CPhysRead     = "replica.phys.read"
	CPhysWrite    = "replica.phys.write"
	CLogicalRead  = "replica.logical.read"
	CLogicalWrite = "replica.logical.write"
	CTxnCommit    = "txn.commit"
	CTxnAbort     = "txn.abort"
	CTxnDenied    = "txn.denied" // aborted at submit time: object inaccessible
	CVPCreated    = "vp.created"
	CVPInvites    = "vp.invitations"
	CRefreshReads = "vp.refresh.reads"
	CRefreshSkips = "vp.refresh.skipped"
	// CRefreshing is a level: the copies locked for rule R5 refresh now.
	CRefreshing    = "vp.refreshing"
	CRefreshBytes  = "vp.refresh.bytes"
	CCatchupWrites = "vp.catchup.writes"
	CStaleReads    = "replica.stale.reads"
	CMergeCombined = "mergeable.merges"
	// Transport health (TCP engine): connection losses, (re)establishments
	// and successful redials of the per-peer reconnect loop.
	CPeerDown      = "net.peer.down"
	CPeerUp        = "net.peer.up"
	CPeerReconnect = "net.peer.reconnect"
	// CFrameRejected counts inbound frames that did not decode, each of
	// which closed its connection.
	CFrameRejected = "net.frame.rejected"
	// Client gateway: admission control, group-commit batching and
	// session freshness. "Logical writes/reads" count client operations
	// acknowledged committed; "backend write txns" counts ClientTxn
	// submissions carrying writes (each is one locking + 2PC round, so
	// rounds-per-write = backend.write.txns / write.committed).
	CGwAdmitted       = "gateway.admitted"
	CGwShed           = "gateway.shed"
	CGwFailed         = "gateway.failed"
	CGwBatchRounds    = "gateway.batch.rounds"
	CGwBatchedWrites  = "gateway.batch.writes"
	CGwBatchOverlap   = "gateway.batch.overlap" // rounds that departed with another round of their lane in flight
	CGwWriteTxns      = "gateway.backend.write.txns"
	CGwWriteCommitted = "gateway.write.committed"
	CGwReadCommitted  = "gateway.read.committed"
	CGwStaleRetries   = "gateway.session.stale"
	CGwNodeDown       = "gateway.pool.node.down"
	// Durability pipeline (internal/durable): records appended to the
	// WAL batch, bytes and fsyncs of group commits, snapshot generations
	// written, and retained-segment scans serving §6 log catch-up after
	// the store's in-memory log evicted the range.
	CJournalRecords      = "journal.records"
	CJournalBytes        = "journal.bytes"
	CJournalFsyncs       = "journal.fsync"
	CJournalSnapshots    = "journal.snapshots"
	CJournalCatchupScans = "journal.catchup.scans"
	// CNodeHalted is 0 until a failed durability barrier takes the node
	// out of the protocol (node.Base.Halted), 1 from then on.
	CNodeHalted = "node.halted"
	// CTxnInDoubt is a level too: the transactions this node coordinates
	// whose vote record is in the journal with no decision behind it yet.
	// CTxnRecollect counts those a restart found that way and asked the
	// participants about again.
	CTxnInDoubt   = "txn.indoubt"
	CTxnRecollect = "txn.recollect"
)

// Well-known sample (distribution) names.
const (
	// SViewChange is the time from a processor departing its virtual
	// partition to joining the next one, in milliseconds.
	SViewChange = "vp.viewchange.ms"
	// SGwLatency is the gateway's per-request service time in
	// milliseconds (admission to response, shed requests excluded).
	SGwLatency = "gateway.request.ms"
	// SGwBatchSize is the number of logical writes coalesced per
	// group-commit round.
	SGwBatchSize = "gateway.batch.size"
	// SJournalBatch is the number of WAL records made durable per
	// group-commit fsync.
	SJournalBatch = "journal.batch.size"
	// SJournalLag is how long the oldest record of a batch waited
	// between append and fsync, in milliseconds.
	SJournalLag = "journal.lag.ms"
	// SJournalWaiters is the number of barriers released per fsync: how
	// many promises shared one disk flush.
	SJournalWaiters = "journal.waiters.per.fsync"
	// SJournalBarrierWait is the time from a node registering a barrier
	// to its continuation running on the event loop, in milliseconds.
	SJournalBarrierWait = "journal.barrier.wait.ms"
	// SJournalFlush is the write+fsync time of one group commit, in
	// milliseconds: the disk's share of a barrier's wait.
	SJournalFlush = "journal.flush.ms"
	// SRecovery is the duration of a journal replay at startup, in
	// milliseconds (observed once per Open).
	SRecovery = "journal.recovery.ms"
)
