// Package store implements a processor's local replica storage: the
// physical copies of logical objects with their values and dates (§5's
// value/date functions), the per-object recovery locks used by rule R5,
// staged (prepared) transactional writes, and a bounded write log that
// supports the §6 log-based catch-up optimization.
//
// The store performs no I/O beyond its journal. Its object map
// sits behind one mutex: the node calls in under its handler mutex, but
// debug readers may call from outside it, so
// every exported method locks and is atomic. Staged writes are also
// indexed by transaction, so DropAllStagedBy costs what the transaction
// staged here, not a sweep.
package store

import (
	"fmt"
	"slices"
	"sync"

	"github.com/virtualpartitions/vp/internal/durable"
	"github.com/virtualpartitions/vp/internal/model"
)

type objectState struct {
	copyVal model.Copy
	// locked implements membership in the "locked" set of Figure 3: the
	// copy is being refreshed after a partition change and must not be
	// read or written by transactions until recovery completes.
	locked bool
	// staged holds a prepared-but-undecided transactional write.
	staged   *model.Copy
	stagedBy model.TxnID
	// missing marks processors whose copies missed a write of this
	// object (missing-writes baseline only).
	missing model.ProcSet
	log     []model.Copy // the per-object write log, oldest first
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

// Store holds the physical copies residing at one processor.
type Store struct {
	owner   model.ProcID
	mu      sync.Mutex
	objects map[model.ObjectID]*objectState
	// LogCap bounds each object's in-memory write log; 0 keeps none.
	// Past the log, LogSince asks the journal's retained segments.
	logCap  int
	initVal model.Value
	// journal receives every committed physical write for crash-restart
	// durability.
	journal durable.Journal
	// stagedObjs lists, per transaction, the objects whose staged write
	// is its own: exactly the objects with staged != nil && stagedBy ==
	// txn.
	stagedObjs map[model.TxnID][]model.ObjectID
	// newest is the newest version any copy here has held: every apply,
	// restore and log replay raises it, so a write digest costs O(1).
	newest model.Version
	// nlocked counts the copies in the locked set.
	nlocked int
}

// SetJournal sets the journal every committed write goes to. A store
// without one (as New returns it) journals nothing; a node always sets
// its own (node.NewBase).
func (s *Store) SetJournal(j durable.Journal) { s.journal = j }

// New creates the store for processor p holding the copies assigned to it
// by the catalog, all initialized to initVal with the zero version (the
// paper's "suitably initialized" value/date functions).
func New(p model.ProcID, cat *model.Catalog, initVal model.Value, logCap int) *Store {
	local := cat.Local(p)
	s := &Store{
		owner:      p,
		objects:    make(map[model.ObjectID]*objectState, len(local)),
		logCap:     logCap,
		initVal:    initVal,
		stagedObjs: make(map[model.TxnID][]model.ObjectID),
	}
	states := make([]objectState, len(local))
	for i, obj := range local {
		states[i].copyVal.Val = initVal
		s.objects[obj] = &states[i]
	}
	return s
}

// Owner returns the processor this store belongs to.
func (s *Store) Owner() model.ProcID { return s.owner }

// Has reports whether a copy of obj resides here.
func (s *Store) Has(obj model.ObjectID) bool {
	s.mu.Lock()
	_, ok := s.objects[obj]
	s.mu.Unlock()
	return ok
}

// Objects returns the objects stored here, sorted.
func (s *Store) Objects() []model.ObjectID {
	s.mu.Lock()
	defer s.mu.Unlock()
	return model.SortedKeys(s.objects)
}

// lock locks the store and returns obj's state; the caller must unlock
// s.mu. Panics if no copy of obj resides here — every caller sits behind
// catalog routing, so a miss is a programming error.
func (s *Store) lock(obj model.ObjectID) *objectState {
	s.mu.Lock()
	st, ok := s.objects[obj]
	if !ok {
		s.mu.Unlock()
		panic(fmt.Sprintf("store: %v holds no copy of %q", s.owner, obj))
	}
	return st
}

// tryLock is lock for the paths that tolerate a missing copy: the store
// is locked only when it returns true.
func (s *Store) tryLock(obj model.ObjectID) (*objectState, bool) {
	s.mu.Lock()
	st, ok := s.objects[obj]
	if !ok {
		s.mu.Unlock()
		return nil, false
	}
	return st, true
}

// Get returns the current committed copy.
func (s *Store) Get(obj model.ObjectID) model.Copy {
	st := s.lock(obj)
	c := st.copyVal
	s.mu.Unlock()
	return c
}

// applyLocked installs a committed write with the store locked:
// value(obj) ← val, date(obj) ← ver's date (Figure 12, lines 11). The
// write is appended to the object log.
func (s *Store) applyLocked(st *objectState, obj model.ObjectID, val model.Value, ver model.Version) {
	st.copyVal = model.Copy{Val: val, Ver: ver}
	s.raiseNewest(ver)
	if s.journal != nil {
		s.journal.Apply(obj, val, ver)
	}
	if s.logCap > 0 {
		st.log = append(st.log, model.Copy{Val: val, Ver: ver})
		for len(st.log) > s.logCap {
			if st.logBase.Less(st.log[0].Ver) {
				st.logBase = st.log[0].Ver
			}
			st.log = st.log[1:]
		}
	}
}

func (s *Store) raiseNewest(ver model.Version) {
	if s.newest.Less(ver) {
		s.newest = ver
	}
}

// Digest returns the newest version any copy here has held and the
// objects holding a prepared, undecided write, sorted: what a processor
// reports of its copies when it accepts an invitation (wire.AcceptVP).
func (s *Store) Digest() (newest model.Version, staged []model.ObjectID) {
	s.mu.Lock()
	defer s.mu.Unlock()
	for _, objs := range s.stagedObjs {
		staged = append(staged, objs...)
	}
	slices.Sort(staged)
	return s.newest, staged
}

// Apply installs a committed write.
func (s *Store) Apply(obj model.ObjectID, val model.Value, ver model.Version) {
	st := s.lock(obj)
	s.applyLocked(st, obj, val, ver)
	s.mu.Unlock()
}

// Restore seeds the store from durable state: committed copy values and
// staged (prepared) writes. It must run before the node starts and does
// not journal (the journal already holds these records).
func (s *Store) Restore(copies map[model.ObjectID]model.Copy,
	staged map[model.TxnID]map[model.ObjectID]durable.StagedWrite) {
	for obj, c := range copies {
		if st, ok := s.tryLock(obj); ok {
			st.copyVal = c
			s.raiseNewest(c.Ver)
			// The in-memory log restarts empty, so it can prove nothing
			// about writes older than the restored copy: floor it at the
			// copy's version or LogSince would claim a complete, empty
			// delta for pre-restart ranges. Older ranges route to the
			// journal's retained segments (or a full-copy fallback).
			st.logBase = c.Ver
			s.mu.Unlock()
		}
	}
	for txn, objs := range staged {
		for obj, w := range objs {
			if st, ok := s.tryLock(obj); ok {
				s.stageLocked(st, obj, txn, w.Val, w.Ver, w.Delta)
				s.mu.Unlock()
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
		if st, ok := s.tryLock(obj); ok {
			if !st.locked {
				st.locked = true
				s.nlocked++
			}
			s.mu.Unlock()
		}
	}
}

// UnlockRecovered removes obj from the locked set (Figure 9 line 17).
func (s *Store) UnlockRecovered(obj model.ObjectID) {
	if st, ok := s.tryLock(obj); ok {
		if st.locked {
			st.locked = false
			s.nlocked--
		}
		s.mu.Unlock()
	}
}

// UnlockAllRecovery clears the locked set, used when a node abandons an
// in-progress refresh because it departed to yet another partition.
func (s *Store) UnlockAllRecovery() {
	s.mu.Lock()
	if s.nlocked > 0 {
		for _, st := range s.objects {
			st.locked = false
		}
		s.nlocked = 0
	}
	s.mu.Unlock()
}

// RecoveryLocked reports whether obj is in the locked set.
func (s *Store) RecoveryLocked(obj model.ObjectID) bool {
	st, ok := s.tryLock(obj)
	if !ok {
		return false
	}
	locked := st.locked
	s.mu.Unlock()
	return locked
}

// LockedObjects returns the objects currently under recovery, sorted.
func (s *Store) LockedObjects() []model.ObjectID {
	var objs []model.ObjectID
	s.mu.Lock()
	for o, st := range s.objects {
		if st.locked {
			objs = append(objs, o)
		}
	}
	s.mu.Unlock()
	slices.Sort(objs)
	return objs
}

// ---------------------------------------------------------------------------
// Prepared (staged) transactional writes
// ---------------------------------------------------------------------------

// stageLocked sets obj's staged write with the store locked, replacing
// whatever was staged there, and keeps the per-transaction index exact.
func (s *Store) stageLocked(st *objectState, obj model.ObjectID, txn model.TxnID, val model.Value, ver model.Version, delta bool) {
	if st.staged == nil || st.stagedBy != txn {
		s.unstageLocked(st, obj)
		s.stagedObjs[txn] = append(s.stagedObjs[txn], obj)
	}
	st.staged = &model.Copy{Val: val, Ver: ver}
	st.stagedBy = txn
	st.stagedDelta = delta
}

// unstageLocked clears obj's staged write, if any, with the store locked.
func (s *Store) unstageLocked(st *objectState, obj model.ObjectID) {
	if st.staged == nil {
		return
	}
	objs := s.stagedObjs[st.stagedBy]
	if i := slices.Index(objs, obj); i >= 0 {
		objs = slices.Delete(objs, i, i+1)
	}
	if len(objs) == 0 {
		delete(s.stagedObjs, st.stagedBy)
	} else {
		s.stagedObjs[st.stagedBy] = objs
	}
	st.staged = nil
	st.stagedBy = model.TxnID{}
	st.stagedDelta = false
}

// Stage records a prepared write for a transaction. It replaces any write
// the same transaction staged earlier for the object.
func (s *Store) Stage(obj model.ObjectID, txn model.TxnID, val model.Value, ver model.Version) {
	st := s.lock(obj)
	s.stageLocked(st, obj, txn, val, ver, false)
	s.mu.Unlock()
}

// StageDelta records a prepared component increment (mergeable mode).
func (s *Store) StageDelta(obj model.ObjectID, txn model.TxnID, delta model.Value, ver model.Version) {
	st := s.lock(obj)
	s.stageLocked(st, obj, txn, delta, ver, true)
	s.mu.Unlock()
}

// StagedBy returns the transaction with a prepared write on obj, if any.
func (s *Store) StagedBy(obj model.ObjectID) (model.TxnID, bool) {
	st, ok := s.tryLock(obj)
	if !ok {
		return model.TxnID{}, false
	}
	defer s.mu.Unlock()
	if st.staged == nil {
		return model.TxnID{}, false
	}
	return st.stagedBy, true
}

// StagedVer returns the version a prepared write would install on obj,
// if there is one.
func (s *Store) StagedVer(obj model.ObjectID) (model.Version, bool) {
	st, ok := s.tryLock(obj)
	if !ok {
		return model.Version{}, false
	}
	defer s.mu.Unlock()
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
	st, ok := s.tryLock(obj)
	if !ok {
		return false
	}
	if st.staged == nil || st.stagedBy != txn {
		s.mu.Unlock()
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
		s.mu.Unlock()
		return false
	default:
		s.applyLocked(st, obj, w.Val, w.Ver)
	}
	s.mu.Unlock()
	return true
}

// ---------------------------------------------------------------------------
// Mergeable counter components (§7 integration; see core/mergeable.go)
// ---------------------------------------------------------------------------

// applyDeltaLocked commits a component increment by writer p with the
// store locked: the writer's running total grows by delta and
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
	st := s.lock(obj)
	s.applyDeltaLocked(st, obj, p, delta, ver)
	s.mu.Unlock()
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
	st := s.lock(obj)
	out := make(map[model.ProcID]Comp, len(st.comps))
	for p, c := range st.comps {
		out[p] = c
	}
	s.mu.Unlock()
	return out
}

// MergeComps folds another copy's components into this one: per writer,
// the entry with the greater version wins (each writer's components are
// totally ordered, so this neither loses nor double-counts increments).
// The scalar value is recomputed; ver stamps the copy. It reports
// whether anything changed.
func (s *Store) MergeComps(obj model.ObjectID, remote map[model.ProcID]Comp, ver model.Version) bool {
	st := s.lock(obj)
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
	s.mu.Unlock()
	return changed
}

// DropStaged discards the staged write of txn on obj (abort path).
func (s *Store) DropStaged(obj model.ObjectID, txn model.TxnID) {
	if st, ok := s.tryLock(obj); ok {
		if st.stagedBy == txn {
			s.unstageLocked(st, obj)
		}
		s.mu.Unlock()
	}
}

// DropAllStagedBy discards every staged write of txn. It costs the
// writes txn has staged here; for a transaction with none — every
// read-only one — that is a map miss.
func (s *Store) DropAllStagedBy(txn model.TxnID) {
	s.mu.Lock()
	defer s.mu.Unlock()
	objs := s.stagedObjs[txn]
	delete(s.stagedObjs, txn) // objs is ours now; unstageLocked finds nothing left to unlist
	for _, obj := range objs {
		if st := s.objects[obj]; st.stagedBy == txn {
			s.unstageLocked(st, obj)
		}
	}
}

// ---------------------------------------------------------------------------
// Missing-write marks (missing-writes baseline)
// ---------------------------------------------------------------------------

// MarkMissing records that the copies at the given processors missed a
// write of obj.
func (s *Store) MarkMissing(obj model.ObjectID, procs []model.ProcID) {
	st := s.lock(obj)
	for _, p := range procs {
		st.missing.Add(p)
	}
	s.mu.Unlock()
}

// HasMissing reports whether obj carries any missing-write marks here.
func (s *Store) HasMissing(obj model.ObjectID) bool {
	st, ok := s.tryLock(obj)
	if !ok {
		return false
	}
	missing := st.missing != 0
	s.mu.Unlock()
	return missing
}

// ClearMissing removes all missing-write marks of obj.
func (s *Store) ClearMissing(obj model.ObjectID) {
	if st, ok := s.tryLock(obj); ok {
		st.missing = 0
		s.mu.Unlock()
	}
}

// ---------------------------------------------------------------------------
// Write log (§6 log-based catch-up)
// ---------------------------------------------------------------------------

// journalLog is the optional capability of a journal to serve the §6
// log catch-up from its retained on-disk segments after the in-memory
// log evicted the range (durable.FileJournal implements it).
type journalLog interface {
	LogSince(model.ObjectID, model.Version) ([]model.Copy, bool)
}

// LogSince returns, oldest first, every logged write of obj with version
// strictly greater than since. complete is false when the log may be
// missing such writes (it was truncated past `since`), in which case the
// caller must fall back to full-value recovery. When the in-memory log
// cannot prove completeness, the durable journal's retained segments are
// consulted before giving up.
func (s *Store) LogSince(obj model.ObjectID, since model.Version) (entries []model.Copy, complete bool) {
	st := s.lock(obj)
	defer s.mu.Unlock()
	if !since.Less(st.copyVal.Ver) {
		// Requester is already as recent as this copy: nothing missed.
		return nil, true
	}
	if s.logCap == 0 || since.Less(st.logBase) {
		// Logging disabled, or writes newer than `since` were evicted.
		if jl, ok := s.journal.(journalLog); ok {
			if recs, ok := jl.LogSince(obj, since); ok {
				return recs, true
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
func (s *Store) ApplyLog(obj model.ObjectID, entries []model.Copy) int {
	st := s.lock(obj)
	n := 0
	for _, e := range entries {
		if st.copyVal.Ver.Less(e.Ver) {
			s.applyLocked(st, obj, e.Val, e.Ver)
			n++
		}
	}
	s.mu.Unlock()
	return n
}

// LogLen returns the current length of obj's write log.
func (s *Store) LogLen(obj model.ObjectID) int {
	st := s.lock(obj)
	n := len(st.log)
	s.mu.Unlock()
	return n
}
