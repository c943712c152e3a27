// Package store implements a processor's local replica storage: the
// physical copies of logical objects with their values and dates (§5's
// value/date functions), the per-object recovery locks used by rule R5,
// staged (prepared) transactional writes, and a bounded write log that
// supports the §6 log-based catch-up optimization.
//
// The store performs no I/O beyond the optional journal. Its object map
// is sharded into a fixed power-of-two number of stripes (FNV-1a on the
// object id), each behind its own mutex, so concurrent operations on
// different objects proceed in parallel. Every exported method is safe
// for concurrent use; single-object operations are atomic, and compound
// operations spanning objects (UnlockAllRecovery, Restore) sweep the
// stripes one at a time. Staged writes are also indexed by transaction,
// so DropAllStagedBy costs what the transaction staged here, not a sweep.
package store

import (
	"fmt"
	"slices"
	"sync"

	"github.com/virtualpartitions/vp/internal/durable"
	"github.com/virtualpartitions/vp/internal/model"
)

// LoggedWrite is one entry of the per-object write log.
type LoggedWrite struct {
	Val model.Value
	Ver model.Version
}

type objectState struct {
	copyVal model.Copy
	// locked implements membership in the "locked" set of Figure 3: the
	// copy is being refreshed after a partition change and must not be
	// read or written by transactions until recovery completes.
	locked bool
	// staged holds a prepared-but-undecided transactional write.
	staged   *LoggedWrite
	stagedBy model.TxnID
	// missing marks processors whose copies missed a write of this
	// object (missing-writes baseline only).
	missing model.ProcSet
	log     []LoggedWrite
	// logBase is the version of the newest write ever evicted from the
	// log (zero if none was): the log is complete for a reader at
	// version v iff logBase ≤ v.
	logBase model.Version
	// comps are the per-writer counter components of a mergeable object
	// (nil outside mergeable mode). The copy's value is initVal plus the
	// sum of the component totals.
	comps map[model.ProcID]Comp
	// stagedDelta marks the staged write as a component increment.
	stagedDelta bool
}

// Comp is one writer's counter component: the running total of its
// committed deltas and the version of its latest one.
type Comp struct {
	Ver   model.Version
	Total model.Value
}

// stripe is one shard of the object map.
type stripe struct {
	mu      sync.Mutex
	objects map[model.ObjectID]*objectState
	_       [24]byte // pad toward a cache line; stripes are written hot
}

// Store holds the physical copies residing at one processor.
type Store struct {
	owner   model.ProcID
	mask    uint32
	stripes []stripe
	// LogCap bounds each object's write log; 0 disables logging. A
	// truncated log forces full-value recovery, mirroring real systems.
	logCap  int
	initVal model.Value
	// journal, when set, receives every committed physical write for
	// crash-restart durability.
	journal durable.Journal
	// stagedObjs lists, per transaction, the objects whose staged write
	// is its own: exactly the objects with staged != nil && stagedBy ==
	// txn. stagedMu is taken inside a stripe's mutex, never around one.
	stagedMu   sync.Mutex
	stagedObjs map[model.TxnID][]model.ObjectID
}

// SetJournal attaches a durability journal (nil disables).
func (s *Store) SetJournal(j durable.Journal) { s.journal = j }

// New creates the store for processor p holding the copies assigned to it
// by the catalog, all initialized to initVal with the zero version (the
// paper's "suitably initialized" value/date functions).
func New(p model.ProcID, cat *model.Catalog, initVal model.Value, logCap int) *Store {
	s := newStore(p, initVal, logCap, model.StripeCount())
	for obj := range cat.Local(p) {
		sp := s.stripe(obj)
		sp.objects[obj] = &objectState{
			copyVal: model.Copy{Val: initVal},
			missing: model.NewProcSet(),
		}
	}
	return s
}

// newStore builds the shell with an explicit stripe count; stripes=1
// degenerates to a single global mutex, the contended benchmarks'
// baseline.
func newStore(p model.ProcID, initVal model.Value, logCap, stripes int) *Store {
	s := &Store{
		owner:   p,
		mask:    uint32(stripes - 1),
		stripes: make([]stripe, stripes),
		logCap:  logCap,
		initVal: initVal,

		stagedObjs: make(map[model.TxnID][]model.ObjectID),
	}
	for i := range s.stripes {
		s.stripes[i].objects = make(map[model.ObjectID]*objectState)
	}
	return s
}

func (s *Store) stripe(obj model.ObjectID) *stripe {
	return &s.stripes[model.FNVObj(obj)&s.mask]
}

// Owner returns the processor this store belongs to.
func (s *Store) Owner() model.ProcID { return s.owner }

// Has reports whether a copy of obj resides here.
func (s *Store) Has(obj model.ObjectID) bool {
	sp := s.stripe(obj)
	sp.mu.Lock()
	_, ok := sp.objects[obj]
	sp.mu.Unlock()
	return ok
}

// Objects returns the objects stored here, sorted.
func (s *Store) Objects() []model.ObjectID {
	set := model.NewObjSet()
	for i := range s.stripes {
		sp := &s.stripes[i]
		sp.mu.Lock()
		for o := range sp.objects {
			set.Add(o)
		}
		sp.mu.Unlock()
	}
	return set.Sorted()
}

// lock locks obj's stripe and returns its state; the caller must unlock
// the returned stripe. Panics if no copy of obj resides here — every
// caller sits behind catalog routing, so a miss is a programming error.
func (s *Store) lock(obj model.ObjectID) (*stripe, *objectState) {
	sp := s.stripe(obj)
	sp.mu.Lock()
	st, ok := sp.objects[obj]
	if !ok {
		sp.mu.Unlock()
		panic(fmt.Sprintf("store: %v holds no copy of %q", s.owner, obj))
	}
	return sp, st
}

// tryLock is lock for the paths that tolerate a missing copy.
func (s *Store) tryLock(obj model.ObjectID) (*stripe, *objectState, bool) {
	sp := s.stripe(obj)
	sp.mu.Lock()
	st, ok := sp.objects[obj]
	if !ok {
		sp.mu.Unlock()
		return nil, nil, false
	}
	return sp, st, true
}

// Get returns the current committed copy.
func (s *Store) Get(obj model.ObjectID) model.Copy {
	sp, st := s.lock(obj)
	c := st.copyVal
	sp.mu.Unlock()
	return c
}

// applyLocked installs a committed write with the object's stripe held:
// value(obj) ← val, date(obj) ← ver's date (Figure 12, lines 11). The
// write is appended to the object log.
func (s *Store) applyLocked(st *objectState, obj model.ObjectID, val model.Value, ver model.Version) {
	st.copyVal = model.Copy{Val: val, Ver: ver}
	if s.journal != nil {
		s.journal.Apply(obj, val, ver)
	}
	if s.logCap > 0 {
		st.log = append(st.log, LoggedWrite{Val: val, Ver: ver})
		for len(st.log) > s.logCap {
			if st.logBase.Less(st.log[0].Ver) {
				st.logBase = st.log[0].Ver
			}
			st.log = st.log[1:]
		}
	}
}

// Apply installs a committed write.
func (s *Store) Apply(obj model.ObjectID, val model.Value, ver model.Version) {
	sp, st := s.lock(obj)
	s.applyLocked(st, obj, val, ver)
	sp.mu.Unlock()
}

// Restore seeds the store from durable state: committed copy values and
// staged (prepared) writes. It must run before the node starts and does
// not journal (the journal already holds these records).
func (s *Store) Restore(copies map[model.ObjectID]model.Copy,
	staged map[model.TxnID]map[model.ObjectID]durable.StagedWrite) {
	for obj, c := range copies {
		if sp, st, ok := s.tryLock(obj); ok {
			st.copyVal = c
			// The in-memory log restarts empty, so it can prove nothing
			// about writes older than the restored copy: floor it at the
			// copy's version or LogSince would claim a complete, empty
			// delta for pre-restart ranges. Older ranges route to the
			// journal's retained segments (or a full-copy fallback).
			st.logBase = c.Ver
			sp.mu.Unlock()
		}
	}
	for txn, objs := range staged {
		for obj, w := range objs {
			if sp, st, ok := s.tryLock(obj); ok {
				s.stageLocked(st, obj, txn, w.Val, w.Ver, w.Delta)
				sp.mu.Unlock()
			}
		}
	}
}

// ---------------------------------------------------------------------------
// R5 recovery locks
// ---------------------------------------------------------------------------

// LockForRecovery puts every listed object into the locked set (Figure 5
// line 18 / Figure 6 lines 15–17). Objects without a local copy are
// ignored, matching "l ∈ local" in the paper.
func (s *Store) LockForRecovery(objs []model.ObjectID) {
	for _, obj := range objs {
		if sp, st, ok := s.tryLock(obj); ok {
			st.locked = true
			sp.mu.Unlock()
		}
	}
}

// UnlockRecovered removes obj from the locked set (Figure 9 line 17).
func (s *Store) UnlockRecovered(obj model.ObjectID) {
	if sp, st, ok := s.tryLock(obj); ok {
		st.locked = false
		sp.mu.Unlock()
	}
}

// UnlockAllRecovery clears the locked set, used when a node abandons an
// in-progress refresh because it departed to yet another partition.
func (s *Store) UnlockAllRecovery() {
	for i := range s.stripes {
		sp := &s.stripes[i]
		sp.mu.Lock()
		for _, st := range sp.objects {
			st.locked = false
		}
		sp.mu.Unlock()
	}
}

// RecoveryLocked reports whether obj is in the locked set.
func (s *Store) RecoveryLocked(obj model.ObjectID) bool {
	sp, st, ok := s.tryLock(obj)
	if !ok {
		return false
	}
	locked := st.locked
	sp.mu.Unlock()
	return locked
}

// LockedObjects returns the objects currently under recovery, sorted.
func (s *Store) LockedObjects() []model.ObjectID {
	set := model.NewObjSet()
	for i := range s.stripes {
		sp := &s.stripes[i]
		sp.mu.Lock()
		for o, st := range sp.objects {
			if st.locked {
				set.Add(o)
			}
		}
		sp.mu.Unlock()
	}
	return set.Sorted()
}

// ---------------------------------------------------------------------------
// Prepared (staged) transactional writes
// ---------------------------------------------------------------------------

// stageLocked sets obj's staged write with its stripe held, replacing
// whatever was staged there, and keeps the per-transaction index exact.
func (s *Store) stageLocked(st *objectState, obj model.ObjectID, txn model.TxnID, val model.Value, ver model.Version, delta bool) {
	if st.staged == nil || st.stagedBy != txn {
		s.unstageLocked(st, obj)
		s.stagedMu.Lock()
		s.stagedObjs[txn] = append(s.stagedObjs[txn], obj)
		s.stagedMu.Unlock()
	}
	st.staged = &LoggedWrite{Val: val, Ver: ver}
	st.stagedBy = txn
	st.stagedDelta = delta
}

// unstageLocked clears obj's staged write, if any, with its stripe held.
func (s *Store) unstageLocked(st *objectState, obj model.ObjectID) {
	if st.staged == nil {
		return
	}
	s.stagedMu.Lock()
	objs := s.stagedObjs[st.stagedBy]
	if i := slices.Index(objs, obj); i >= 0 {
		objs = slices.Delete(objs, i, i+1)
	}
	if len(objs) == 0 {
		delete(s.stagedObjs, st.stagedBy)
	} else {
		s.stagedObjs[st.stagedBy] = objs
	}
	s.stagedMu.Unlock()
	st.staged = nil
	st.stagedBy = model.TxnID{}
	st.stagedDelta = false
}

// Stage records a prepared write for a transaction. It replaces any write
// the same transaction staged earlier for the object.
func (s *Store) Stage(obj model.ObjectID, txn model.TxnID, val model.Value, ver model.Version) {
	sp, st := s.lock(obj)
	s.stageLocked(st, obj, txn, val, ver, false)
	sp.mu.Unlock()
}

// StageDelta records a prepared component increment (mergeable mode).
func (s *Store) StageDelta(obj model.ObjectID, txn model.TxnID, delta model.Value, ver model.Version) {
	sp, st := s.lock(obj)
	s.stageLocked(st, obj, txn, delta, ver, true)
	sp.mu.Unlock()
}

// StagedBy returns the transaction with a prepared write on obj, if any.
func (s *Store) StagedBy(obj model.ObjectID) (model.TxnID, bool) {
	sp, st, ok := s.tryLock(obj)
	if !ok {
		return model.TxnID{}, false
	}
	defer sp.mu.Unlock()
	if st.staged == nil {
		return model.TxnID{}, false
	}
	return st.stagedBy, true
}

// StagedVer returns the version a prepared write would install on obj,
// if there is one.
func (s *Store) StagedVer(obj model.ObjectID) (model.Version, bool) {
	sp, st, ok := s.tryLock(obj)
	if !ok {
		return model.Version{}, false
	}
	defer sp.mu.Unlock()
	if st.staged == nil {
		return model.Version{}, false
	}
	return st.staged.Ver, true
}

// CommitStaged applies the staged write of txn on obj and reports
// whether the copy changed. It is a no-op if no matching staged write
// exists (e.g. a duplicate Decide after a retransmission); a staged write
// the copy has already moved past is dropped, not applied.
func (s *Store) CommitStaged(obj model.ObjectID, txn model.TxnID) bool {
	sp, st, ok := s.tryLock(obj)
	if !ok {
		return false
	}
	if st.staged == nil || st.stagedBy != txn {
		sp.mu.Unlock()
		return false
	}
	w := *st.staged
	isDelta := st.stagedDelta
	s.unstageLocked(st, obj)
	switch {
	case isDelta:
		s.applyDeltaLocked(st, obj, txn.P, w.Val, w.Ver)
	case !st.copyVal.Ver.Less(w.Ver):
		// The copy is already at this write or past it: the processor sat
		// out the decision (killed prepared, restarted) and rule R5 has
		// since installed what the view holds, this write included. A
		// late Decide must not take the copy back.
		sp.mu.Unlock()
		return false
	default:
		s.applyLocked(st, obj, w.Val, w.Ver)
	}
	sp.mu.Unlock()
	return true
}

// ---------------------------------------------------------------------------
// Mergeable counter components (§7 integration; see core/mergeable.go)
// ---------------------------------------------------------------------------

// applyDeltaLocked commits a component increment by writer p with the
// object's stripe held: the writer's running total grows by delta and
// its component version advances. The copy's scalar value tracks initVal
// plus the sum of all components.
func (s *Store) applyDeltaLocked(st *objectState, obj model.ObjectID, p model.ProcID, delta model.Value, ver model.Version) {
	if st.comps == nil {
		st.comps = make(map[model.ProcID]Comp)
	}
	c := st.comps[p]
	if !c.Ver.Less(ver) {
		return // duplicate or stale apply (retransmitted decide)
	}
	st.comps[p] = Comp{Ver: ver, Total: c.Total + delta}
	s.applyLocked(st, obj, s.sumComps(st), ver)
}

// ApplyDelta commits a component increment by writer p.
func (s *Store) ApplyDelta(obj model.ObjectID, p model.ProcID, delta model.Value, ver model.Version) {
	sp, st := s.lock(obj)
	s.applyDeltaLocked(st, obj, p, delta, ver)
	sp.mu.Unlock()
}

func (s *Store) sumComps(st *objectState) model.Value {
	v := s.initVal
	for _, c := range st.comps {
		v += c.Total
	}
	return v
}

// Comps returns a copy of the object's components.
func (s *Store) Comps(obj model.ObjectID) map[model.ProcID]Comp {
	sp, st := s.lock(obj)
	out := make(map[model.ProcID]Comp, len(st.comps))
	for p, c := range st.comps {
		out[p] = c
	}
	sp.mu.Unlock()
	return out
}

// MergeComps folds another copy's components into this one: per writer,
// the entry with the greater version wins (each writer's components are
// totally ordered, so this neither loses nor double-counts increments).
// The scalar value is recomputed; ver stamps the copy. It reports
// whether anything changed.
func (s *Store) MergeComps(obj model.ObjectID, remote map[model.ProcID]Comp, ver model.Version) bool {
	sp, st := s.lock(obj)
	if st.comps == nil {
		st.comps = make(map[model.ProcID]Comp)
	}
	changed := false
	for p, rc := range remote {
		if cur, ok := st.comps[p]; !ok || cur.Ver.Less(rc.Ver) {
			st.comps[p] = rc
			changed = true
		}
	}
	if changed {
		s.applyLocked(st, obj, s.sumComps(st), ver)
	}
	sp.mu.Unlock()
	return changed
}

// DropStaged discards the staged write of txn on obj (abort path).
func (s *Store) DropStaged(obj model.ObjectID, txn model.TxnID) {
	if sp, st, ok := s.tryLock(obj); ok {
		if st.stagedBy == txn {
			s.unstageLocked(st, obj)
		}
		sp.mu.Unlock()
	}
}

// DropAllStagedBy discards every staged write of txn. It costs the
// writes txn has staged here; for a transaction with none — every
// read-only one — that is a map miss.
func (s *Store) DropAllStagedBy(txn model.TxnID) {
	s.stagedMu.Lock()
	objs := s.stagedObjs[txn]
	delete(s.stagedObjs, txn) // objs is ours now; DropStaged finds nothing left to unlist
	s.stagedMu.Unlock()
	for _, obj := range objs {
		s.DropStaged(obj, txn)
	}
}

// ---------------------------------------------------------------------------
// Missing-write marks (missing-writes baseline)
// ---------------------------------------------------------------------------

// MarkMissing records that the copies at the given processors missed a
// write of obj.
func (s *Store) MarkMissing(obj model.ObjectID, procs []model.ProcID) {
	sp, st := s.lock(obj)
	for _, p := range procs {
		st.missing.Add(p)
	}
	sp.mu.Unlock()
}

// HasMissing reports whether obj carries any missing-write marks here.
func (s *Store) HasMissing(obj model.ObjectID) bool {
	sp, st, ok := s.tryLock(obj)
	if !ok {
		return false
	}
	missing := st.missing.Len() > 0
	sp.mu.Unlock()
	return missing
}

// ClearMissing removes all missing-write marks of obj.
func (s *Store) ClearMissing(obj model.ObjectID) {
	if sp, st, ok := s.tryLock(obj); ok {
		st.missing = model.NewProcSet()
		sp.mu.Unlock()
	}
}

// ---------------------------------------------------------------------------
// Write log (§6 log-based catch-up)
// ---------------------------------------------------------------------------

// journalLog is the optional capability of a journal to serve the §6
// log catch-up from its retained on-disk segments after the in-memory
// log evicted the range (durable.FileJournal implements it).
type journalLog interface {
	LogSince(model.ObjectID, model.Version) ([]durable.LogRec, bool)
}

// LogSince returns, oldest first, every logged write of obj with version
// strictly greater than since. complete is false when the log may be
// missing such writes (it was truncated past `since`), in which case the
// caller must fall back to full-value recovery. When the in-memory log
// cannot prove completeness, the durable journal's retained segments are
// consulted before giving up.
func (s *Store) LogSince(obj model.ObjectID, since model.Version) (entries []LoggedWrite, complete bool) {
	sp, st := s.lock(obj)
	defer sp.mu.Unlock()
	if !since.Less(st.copyVal.Ver) {
		// Requester is already as recent as this copy: nothing missed.
		return nil, true
	}
	if s.logCap == 0 || since.Less(st.logBase) {
		// Logging disabled, or writes newer than `since` were evicted.
		if jl, ok := s.journal.(journalLog); ok {
			if recs, ok := jl.LogSince(obj, since); ok {
				for _, r := range recs {
					entries = append(entries, LoggedWrite{Val: r.Val, Ver: r.Ver})
				}
				return entries, true
			}
		}
		return nil, false
	}
	for _, e := range st.log {
		if since.Less(e.Ver) {
			entries = append(entries, e)
		}
	}
	return entries, true
}

// ApplyLog replays missed writes onto the local copy, skipping entries
// not newer than the current version. It returns the number applied.
func (s *Store) ApplyLog(obj model.ObjectID, entries []LoggedWrite) int {
	sp, st := s.lock(obj)
	n := 0
	for _, e := range entries {
		if st.copyVal.Ver.Less(e.Ver) {
			s.applyLocked(st, obj, e.Val, e.Ver)
			n++
		}
	}
	sp.mu.Unlock()
	return n
}

// LogLen returns the current length of obj's write log.
func (s *Store) LogLen(obj model.ObjectID) int {
	sp, st := s.lock(obj)
	n := len(st.log)
	sp.mu.Unlock()
	return n
}
