package durable

import (
	"errors"
	"fmt"
	"path/filepath"
	"sync"
	"time"

	"github.com/virtualpartitions/vp/internal/metrics"
	"github.com/virtualpartitions/vp/internal/model"
)

// This file is the segmented write-ahead log behind FileJournal.
//
// Layout of a journal directory:
//
//	wal-00000001.seg   appended frames (see record.go), oldest retained
//	wal-00000002.seg   ...
//	wal-00000003.seg   current segment, open for append
//	snap-00000003.snap state as of the START of segment 3
//
// A snapshot named for base b captures every record in segments < b, so
// restart replay is "newest snapshot + segments ≥ its base". Older
// snapshots (up to RetainSnapshots) are kept with their segments to
// serve §6 log catch-up: a rejoining peer's missed writes can be
// streamed straight from the retained tail instead of copying whole
// objects. Everything older is pruned.
//
// Writes are group-committed: Journal methods append to an in-memory
// batch; a flush swaps the batch out under the journal lock, writes it
// and fsyncs once outside the lock, so appends never wait for the disk.
// With Options.Committer one goroutine does every flush and releases
// the barriers that waited on it (see Journal.Barrier); without it a
// Barrier flushes on the caller's goroutine. A torn final batch is
// exactly what recovery's torn-tail rule repairs.

const (
	defaultSegmentBytes    = 1 << 20
	defaultRetainSnapshots = 2
	defaultSnapshotEvery   = 4
	snapTmpName            = "snap.tmp"
)

// Options tune a FileJournal. The zero value gives the production
// defaults on the real filesystem.
type Options struct {
	// FS is the filesystem seam; nil means the real one.
	FS VFS
	// SegmentBytes is the roll threshold: once the current segment
	// exceeds it, the journal rolls to a new segment and snapshots.
	SegmentBytes int64
	// RetainSnapshots is how many snapshot generations (and their
	// segments) to keep for log catch-up before pruning.
	RetainSnapshots int
	// SnapshotEvery is how many segment rolls pass between snapshots.
	// Larger values cheapen steady-state writing (fewer full-state
	// encodes) at the cost of replaying more segments on restart.
	SnapshotEvery int
	// Committer starts the journal's committer goroutine: Barrier then
	// returns at once and its continuation runs after a shared fsync.
	// Without it every Barrier flushes on the caller's goroutine — what
	// the deterministic simulation and single-goroutine tools need.
	Committer bool
	// FlushInterval is the maximum age of an unsynced record: the
	// committer flushes no later than this after the oldest pending append
	// even when no urgent barrier asks. Zero sets no deadline and makes
	// every barrier urgent. Setting it without Committer is an error.
	FlushInterval time.Duration
	// Scope, when non-nil, is the hosted-object universe of the owning
	// processor (partial replication: the objects of its hosted shards).
	// Snapshots record it, and LogSince only attests delta completeness
	// for an object absent from the oldest retained snapshot if that
	// snapshot's universe covered the object — a journal opened under a
	// grown shard map cannot pass off "never saw it" as "no writes".
	// Nil means the processor replicates everything (the unsharded
	// default), and snapshots record "all objects".
	Scope []model.ObjectID
}

func (o Options) withDefaults() Options {
	if o.FS == nil {
		o.FS = OS()
	}
	if o.SegmentBytes <= 0 {
		o.SegmentBytes = defaultSegmentBytes
	}
	if o.RetainSnapshots <= 0 {
		o.RetainSnapshots = defaultRetainSnapshots
	}
	if o.SnapshotEvery <= 0 {
		o.SnapshotEvery = defaultSnapshotEvery
	}
	return o
}

// RecoveryStats describes what Open had to do to bring the state back.
type RecoveryStats struct {
	Duration  time.Duration // wall time spent replaying
	Segments  int           // segment files replayed
	Records   int           // records replayed (excluding the snapshot)
	TornBytes int64         // bytes truncated off a torn tail
	Torn      bool          // a torn tail was found and repaired
	Snapshot  bool          // replay started from a snapshot
	Resolved  int           // staged txns finished on decide evidence (see Open)
}

// snapInfo is one retained snapshot generation: the segment index its
// state is current as of, and each object's version at that point (the
// completeness floor for log catch-up). universe, when non-nil, is the
// hosted-object set the snapshot was taken under; objects outside it
// have no provable history in this journal.
type snapInfo struct {
	base     uint64
	vers     map[model.ObjectID]model.Version
	universe map[model.ObjectID]bool
}

// FileJournal is a segmented, checksummed, group-committed write-ahead
// log. Safe for concurrent use; all appends land in a batch that one
// flush makes durable with one fsync.
type FileJournal struct {
	dir  string
	opts Options

	// ioMu serializes flushes: one writer to the live segment at a time.
	// It is taken before mu and held across the write and the fsync; mu
	// is not, so appends proceed while the disk works.
	ioMu sync.Mutex

	mu        sync.Mutex
	seg       File
	segIndex  uint64
	segSize   int64 // bytes of the live segment known durable
	sinceSnap int   // segment rolls since the last snapshot
	buf       []byte
	spare     []byte // the idle half of the double buffer
	flying    []byte // the batch a flush is writing right now, else nil
	pending   int
	oldest    time.Time // append time of the oldest unsynced record
	shadow    *State
	ring      []snapInfo // retained snapshots, oldest first
	stats     RecoveryStats
	reg       *metrics.Registry
	err       error
	// waiters are the barrier continuations not yet released; urgent
	// says one of them wants the flush now.
	waiters []func(error)
	urgent  bool

	// Committer goroutine (Options.Committer): wake re-evaluates what it
	// is waiting for, stop ends it, done reports it gone.
	wake     chan struct{}
	stop     chan struct{}
	stopOnce sync.Once
	done     chan struct{}
}

func segName(idx uint64) string  { return fmt.Sprintf("wal-%08d.seg", idx) }
func snapName(idx uint64) string { return fmt.Sprintf("snap-%08d.snap", idx) }

func parseIndexed(name, prefix, suffix string) (uint64, bool) {
	var idx uint64
	n, err := fmt.Sscanf(name, prefix+"%08d"+suffix, &idx)
	return idx, err == nil && n == 1
}

// Open replays the journal in dir (creating it if absent) and returns
// the recovered state plus the journal ready for appending. A torn tail
// on the newest segment is truncated and recovery proceeds; corruption
// anywhere else is fatal — it means the disk lost acknowledged data,
// and serving from it could violate the protocol's promises.
func Open(dir string) (*State, *FileJournal, error) {
	return OpenOptions(dir, Options{})
}

// OpenOptions is Open with explicit tuning.
func OpenOptions(dir string, o Options) (*State, *FileJournal, error) {
	start := time.Now()
	if o.FlushInterval > 0 && !o.Committer {
		return nil, nil, errors.New("durable: FlushInterval needs Committer: nothing else flushes on a deadline")
	}
	o = o.withDefaults()
	fs := o.FS
	if err := fs.MkdirAll(dir); err != nil {
		return nil, nil, fmt.Errorf("durable: %w", err)
	}
	names, err := fs.ReadDir(dir)
	if err != nil {
		return nil, nil, fmt.Errorf("durable: %w", err)
	}
	var segs, snaps []uint64
	for _, name := range names {
		if idx, ok := parseIndexed(name, "wal-", ".seg"); ok {
			segs = append(segs, idx)
		} else if idx, ok := parseIndexed(name, "snap-", ".snap"); ok {
			snaps = append(snaps, idx)
		}
	}

	j := &FileJournal{dir: dir, opts: o}
	st := NewState()

	if len(segs) == 0 && len(snaps) == 0 {
		// Fresh directory.
		j.segIndex = 1
		if err := j.writeSnapshot(st, 1); err != nil {
			return nil, nil, err
		}
		j.ring = []snapInfo{{base: 1, vers: versionMap(st), universe: j.scopeSet()}}
		f, err := fs.Create(filepath.Join(dir, segName(1)))
		if err != nil {
			return nil, nil, fmt.Errorf("durable: %w", err)
		}
		j.seg = f
	} else {
		if len(snaps) == 0 {
			return nil, nil, fmt.Errorf("durable: segments without a snapshot in %s (journal damaged)", dir)
		}
		base := snaps[len(snaps)-1]
		// Load the retained snapshot generations, newest last. The newest
		// seeds replay; the olders' version maps set the catch-up floor.
		for _, b := range snaps {
			snap, uni, err := j.readSnapshot(b)
			if err != nil {
				if b != base {
					continue // an old generation may be half-pruned; skip it
				}
				return nil, nil, err
			}
			if b == base {
				st = snap
			}
			j.ring = append(j.ring, snapInfo{base: b, vers: versionMap(snap), universe: uni})
		}
		maxSeg := base
		if len(segs) > 0 && segs[len(segs)-1] > maxSeg {
			maxSeg = segs[len(segs)-1]
		}
		present := make(map[uint64]bool, len(segs))
		for _, idx := range segs {
			present[idx] = true
		}
		j.stats.Snapshot = true
		for idx := base; idx <= maxSeg; idx++ {
			if !present[idx] {
				if idx == maxSeg {
					break // crashed between snapshot and segment create
				}
				return nil, nil, fmt.Errorf("durable: missing segment %s in %s (journal damaged)", segName(idx), dir)
			}
			path := filepath.Join(dir, segName(idx))
			data, err := fs.ReadFile(path)
			if err != nil {
				return nil, nil, fmt.Errorf("durable: %w", err)
			}
			valid, torn, werr := walkFrames(data, func(payload []byte) error {
				var r record
				if err := parseRecord(payload, &r); err != nil {
					return err
				}
				st.apply(&r)
				j.stats.Records++
				return nil
			})
			if errors.Is(werr, ErrEarlierFormat) {
				return nil, nil, fmt.Errorf("durable: %s: %w", path, werr)
			}
			if werr != nil || (torn && idx != maxSeg) {
				if werr == nil {
					werr = errors.New("torn frames before the newest segment")
				}
				return nil, nil, fmt.Errorf("durable: corrupt journal %s: %w", path, werr)
			}
			if torn {
				j.stats.Torn = true
				j.stats.TornBytes = int64(len(data)) - valid
				if err := fs.Truncate(path, valid); err != nil {
					return nil, nil, fmt.Errorf("durable: %w", err)
				}
			}
			j.stats.Segments++
			if idx == maxSeg {
				j.segSize = valid
			}
		}
		j.segIndex = maxSeg
		j.sinceSnap = int(maxSeg - base)
		path := filepath.Join(dir, segName(maxSeg))
		f, err := fs.OpenAppend(path)
		if err != nil {
			return nil, nil, fmt.Errorf("durable: %w", err)
		}
		j.seg = f
	}

	resolved, repairs := resolveDecidedStages(st)
	j.stats.Resolved = resolved
	j.shadow = cloneState(st)
	j.mu.Lock()
	// Make the resolution durable: append the applies and drop-stages the
	// torn batch lost, so the on-disk log agrees with the recovered state
	// (LogSince serves catch-up deltas straight from the segments, and a
	// re-crash replays the repair instead of re-deriving it). The shadow
	// already reflects the resolved state, so the frames are buffered
	// directly; the next group commit lands them.
	for i := range repairs {
		j.buf = appendFrame(j.buf, &repairs[i])
		j.pending++
	}
	j.pruneLocked()
	j.mu.Unlock()
	j.stats.Duration = time.Since(start)
	if o.Committer {
		j.wake = make(chan struct{}, 1)
		j.stop = make(chan struct{})
		j.done = make(chan struct{})
		go j.commitLoop()
	}
	return st, j, nil
}

// resolveDecidedStages finishes staged transactions whose decide is
// already evidenced in the copies, returning how many were resolved
// plus the records that make the resolution explicit on disk. A Decide
// applies every staged write and then drops the stage in one batch; a
// torn tail can eat the drop-stage record while an apply from the same
// batch survives, which would resurrect an already-decided transaction
// as prepared — and its coordinator, having been acked, has
// legitimately forgotten it. A copy at or past a staged write's version
// can only exist if that transaction's decide ran (the staged write
// held an exclusive lock until then), so any such write proves the
// whole transaction was decided — and decided COMMIT: an abort's
// drop-stage is journaled before its locks release, so no later apply
// can survive a tear that ate it. The tear may also have eaten some of
// the transaction's OTHER applies, so every staged write not yet
// reflected in its copy is installed before the stage is dropped;
// merely dropping it would leave this replica permanently stale on
// those objects — the retransmitted Decide is acked without applying
// (the txn is no longer prepared) and rule R5 has them in no MissedBy
// set. Stages with no evidence are genuinely undecided and are restored
// as prepared, blocking until the retransmitted Decide — the only sound
// behavior (a timeout would abort a transaction a partitioned
// coordinator may have committed).
func resolveDecidedStages(st *State) (int, []record) {
	// Iterate in sorted order so the repair records land on disk in a
	// deterministic sequence.
	resolved := 0
	var repairs []record
	for _, txn := range model.SortedTxns(st.Staged) {
		ws := st.Staged[txn]
		evidenced := false
		for obj, w := range ws {
			if c, ok := st.Copies[obj]; ok && !c.Ver.Less(w.Ver) {
				evidenced = true
				break
			}
		}
		if !evidenced {
			continue
		}
		for _, obj := range model.SortedKeys(ws) {
			w := ws[obj]
			c := st.Copies[obj]
			if !c.Ver.Less(w.Ver) {
				continue // this write's apply survived the tear
			}
			if w.Delta {
				c.Val += w.Val // mergeable mode stages the increment
			} else {
				c.Val = w.Val
			}
			c.Ver = w.Ver
			st.Copies[obj] = c
			ver := w.Ver
			repairs = append(repairs, record{ApplyObj: obj, ApplyVal: c.Val, ApplyVer: &ver})
		}
		id := txn
		repairs = append(repairs, record{DropTxn: &id})
		delete(st.Staged, txn)
		resolved++
	}
	return resolved, repairs
}

// readSnapshot loads and verifies one snapshot file. Snapshots are
// written via tmp+rename, so any damage here is real, not a crash. The
// returned universe is the hosted-object set the snapshot was scoped
// to, or nil for an unscoped (fully-replicating) snapshot.
func (j *FileJournal) readSnapshot(base uint64) (*State, map[model.ObjectID]bool, error) {
	path := filepath.Join(j.dir, snapName(base))
	data, err := j.opts.FS.ReadFile(path)
	if err != nil {
		return nil, nil, fmt.Errorf("durable: %w", err)
	}
	st := NewState()
	var universe map[model.ObjectID]bool
	got := 0
	_, torn, werr := walkFrames(data, func(payload []byte) error {
		var r record
		if err := parseRecord(payload, &r); err != nil {
			return err
		}
		if r.Snapshot == nil {
			return errors.New("not a snapshot record")
		}
		if r.SnapUniverse != nil {
			universe = objSet(r.SnapUniverse)
		}
		st.apply(&r)
		got++
		return nil
	})
	if errors.Is(werr, ErrEarlierFormat) {
		return nil, nil, fmt.Errorf("durable: %s: %w", path, werr)
	}
	if werr != nil || torn || got != 1 {
		if werr == nil {
			werr = errors.New("snapshot incomplete")
		}
		return nil, nil, fmt.Errorf("durable: corrupt snapshot %s: %w", path, werr)
	}
	return st, universe, nil
}

// objSet builds the membership set of an object list; never nil, so a
// scoped-but-empty universe stays distinguishable from an unscoped one.
func objSet(objs []model.ObjectID) map[model.ObjectID]bool {
	m := make(map[model.ObjectID]bool, len(objs))
	for _, o := range objs {
		m[o] = true
	}
	return m
}

// writeSnapshot persists st as the state at the start of segment base,
// atomically (tmp, fsync, rename).
func (j *FileJournal) writeSnapshot(st *State, base uint64) error {
	fs := j.opts.FS
	tmp := filepath.Join(j.dir, snapTmpName)
	f, err := fs.Create(tmp)
	if err != nil {
		return fmt.Errorf("durable: %w", err)
	}
	frame := appendFrame(nil, &record{Snapshot: st, SnapUniverse: j.opts.Scope})
	if _, err := f.Write(frame); err != nil {
		f.Close()
		return fmt.Errorf("durable: snapshot: %w", err)
	}
	if err := f.Sync(); err != nil {
		f.Close()
		return fmt.Errorf("durable: snapshot: %w", err)
	}
	if err := f.Close(); err != nil {
		return fmt.Errorf("durable: snapshot: %w", err)
	}
	if err := fs.Rename(tmp, filepath.Join(j.dir, snapName(base))); err != nil {
		return fmt.Errorf("durable: %w", err)
	}
	if j.reg != nil {
		j.reg.Inc(metrics.CJournalSnapshots, 1)
	}
	return nil
}

// scopeSet is the configured hosted-object universe as a set, nil when
// the journal is unscoped.
func (j *FileJournal) scopeSet() map[model.ObjectID]bool {
	if j.opts.Scope == nil {
		return nil
	}
	return objSet(j.opts.Scope)
}

func versionMap(s *State) map[model.ObjectID]model.Version {
	m := make(map[model.ObjectID]model.Version, len(s.Copies))
	for o, c := range s.Copies {
		m[o] = c.Ver
	}
	return m
}

func cloneState(s *State) *State {
	c := NewState()
	c.MaxID = s.MaxID
	for o, cp := range s.Copies {
		c.Copies[o] = cp
	}
	for t, ws := range s.Staged {
		m := make(map[model.ObjectID]StagedWrite, len(ws))
		for o, w := range ws {
			m[o] = w
		}
		c.Staged[t] = m
	}
	for t, d := range s.Decides {
		c.Decides[t] = d
	}
	for t, v := range s.Votes {
		c.Votes[t] = v
	}
	return c
}

// SetMetrics attaches a registry; subsequent appends, fsyncs, and
// snapshots are counted there.
func (j *FileJournal) SetMetrics(reg *metrics.Registry) {
	j.mu.Lock()
	j.reg = reg
	j.mu.Unlock()
}

// Recovery reports what the Open that produced this journal had to do.
func (j *FileJournal) Recovery() RecoveryStats { return j.stats }

// write appends one record to the pending batch (and to the shadow
// state that feeds snapshots).
func (j *FileJournal) write(r *record) {
	j.mu.Lock()
	if j.err != nil {
		j.mu.Unlock()
		return
	}
	j.shadow.apply(r)
	j.buf = appendFrame(j.buf, r)
	j.pending++
	first := j.pending == 1
	if first {
		j.oldest = time.Now()
	}
	if j.reg != nil {
		j.reg.Inc(metrics.CJournalRecords, 1)
	}
	j.mu.Unlock()
	if first && j.opts.FlushInterval > 0 {
		j.signal() // the committer arms this batch's age deadline
	}
}

// flush makes the pending batch durable: it swaps the double buffer
// under mu, writes and fsyncs outside it, publishes the new durable
// size (rolling the segment past the threshold) under mu again, and
// returns the journal's sticky error; synced says this call completed an
// fsync (false for an empty batch). Callers hold ioMu.
func (j *FileJournal) flush() (synced bool, err error) {
	j.mu.Lock()
	if j.err != nil || len(j.buf) == 0 || j.seg == nil {
		err := j.err
		j.mu.Unlock()
		return false, err
	}
	batch, recs, oldest, seg := j.buf, j.pending, j.oldest, j.seg
	j.buf, j.spare, j.pending, j.flying = j.spare[:0], nil, 0, batch
	j.mu.Unlock()

	start := time.Now()
	if _, err = seg.Write(batch); err == nil {
		err = seg.Sync()
	}
	took := time.Since(start)

	j.mu.Lock()
	defer j.mu.Unlock()
	j.spare, j.flying = batch[:0], nil
	if j.seg != seg {
		return false, j.err // hard-crashed under the flush: the outcome is moot
	}
	if err != nil {
		j.err = err
		return false, err
	}
	j.segSize += int64(len(batch))
	if j.reg != nil {
		j.reg.Inc(metrics.CJournalBytes, int64(len(batch)))
		j.reg.Inc(metrics.CJournalFsyncs, 1)
		j.reg.Observe(metrics.SJournalBatch, float64(recs))
		j.reg.ObserveDuration(metrics.SJournalLag, time.Since(oldest))
		j.reg.ObserveDuration(metrics.SJournalFlush, took)
	}
	if j.segSize >= j.opts.SegmentBytes {
		j.rollLocked()
	}
	return true, j.err
}

// rollLocked closes the current segment and opens the next. Every
// SnapshotEvery rolls it also snapshots the shadow state at the
// boundary and prunes generations past retention. The shadow may be
// ahead of the boundary by the records appended during the flush that
// triggered the roll; they land in the new segment too, and replaying a
// record over a state that already reflects it changes nothing (every
// record sets or deletes by key, max-id merges monotonically).
func (j *FileJournal) rollLocked() {
	if err := j.seg.Close(); err != nil {
		j.err = err
		return
	}
	j.segIndex++
	f, err := j.opts.FS.Create(filepath.Join(j.dir, segName(j.segIndex)))
	if err != nil {
		j.err = err
		return
	}
	j.seg = f
	j.segSize = 0
	j.sinceSnap++
	if j.sinceSnap < j.opts.SnapshotEvery {
		return
	}
	if err := j.writeSnapshot(j.shadow, j.segIndex); err != nil {
		j.err = err
		return
	}
	j.sinceSnap = 0
	j.ring = append(j.ring, snapInfo{base: j.segIndex, vers: versionMap(j.shadow), universe: j.scopeSet()})
	for len(j.ring) > j.opts.RetainSnapshots {
		j.ring = j.ring[1:]
	}
	j.pruneLocked()
}

// pruneLocked removes snapshot and segment files older than the oldest
// retained generation, plus any leftover snapshot temp file.
func (j *FileJournal) pruneLocked() {
	if len(j.ring) == 0 {
		return
	}
	keep := j.ring[0].base
	names, err := j.opts.FS.ReadDir(j.dir)
	if err != nil {
		return
	}
	for _, name := range names {
		if idx, ok := parseIndexed(name, "wal-", ".seg"); ok && idx < keep {
			j.opts.FS.Remove(filepath.Join(j.dir, name)) //nolint:errcheck // best-effort
		} else if idx, ok := parseIndexed(name, "snap-", ".snap"); ok && idx < keep {
			j.opts.FS.Remove(filepath.Join(j.dir, name)) //nolint:errcheck // best-effort
		} else if name == snapTmpName {
			j.opts.FS.Remove(filepath.Join(j.dir, name)) //nolint:errcheck // best-effort
		}
	}
}

// signal asks the committer to look again; a signal already pending
// covers this one.
func (j *FileJournal) signal() {
	select {
	case j.wake <- struct{}{}:
	default:
	}
}

// commitLoop is the committer goroutine: it sleeps until a barrier
// needs releasing or the oldest unsynced record reaches FlushInterval,
// flushes once, and releases every barrier registered before the flush
// began — however many piled up behind the previous fsync.
func (j *FileJournal) commitLoop() {
	defer close(j.done)
	for {
		j.mu.Lock()
		// Barriers over an empty batch are released without disk work:
		// their records went out with an earlier flush.
		due := j.urgent || (len(j.waiters) > 0 && j.pending == 0)
		var age *time.Timer
		if !due && j.pending > 0 && j.opts.FlushInterval > 0 {
			if left := time.Until(j.oldest.Add(j.opts.FlushInterval)); left > 0 {
				age = time.NewTimer(left)
			} else {
				due = true
			}
		}
		var waiters []func(error)
		if due {
			waiters, j.waiters, j.urgent = j.waiters, nil, false
		}
		j.mu.Unlock()
		if !due {
			var aged <-chan time.Time
			if age != nil {
				aged = age.C
			}
			select {
			case <-j.stop:
				return
			case <-j.wake:
			case <-aged:
			}
			if age != nil {
				age.Stop()
			}
			continue
		}
		j.ioMu.Lock()
		synced, err := j.flush()
		j.ioMu.Unlock()
		select {
		case <-j.stop:
			return // closed or crashed under the flush: waiters are abandoned
		default:
		}
		j.mu.Lock()
		reg := j.reg
		j.mu.Unlock()
		if reg != nil && synced && len(waiters) > 0 {
			reg.Observe(metrics.SJournalWaiters, float64(len(waiters)))
		}
		for _, release := range waiters {
			release(err)
		}
	}
}

// stopCommitter ends the committer goroutine, waiting out a flush in
// progress. Barriers it had not released are dropped uncalled.
func (j *FileJournal) stopCommitter() {
	if j.stop == nil {
		return
	}
	j.stopOnce.Do(func() { close(j.stop) })
	<-j.done
}

// Committing reports whether barriers are released from the committer
// goroutine (Options.Committer) rather than run on the caller's.
func (j *FileJournal) Committing() bool { return j.opts.Committer }

// Barrier implements Journal.
func (j *FileJournal) Barrier(urgent bool, release func(error)) (bool, error) {
	if !j.opts.Committer {
		return true, j.Sync()
	}
	j.mu.Lock()
	j.waiters = append(j.waiters, release)
	if urgent || j.opts.FlushInterval <= 0 {
		j.urgent = true
	}
	// A lazy barrier over pending records rides their age deadline, which
	// the first append of the batch already armed.
	wake := j.urgent || j.pending == 0
	j.mu.Unlock()
	if wake {
		j.signal()
	}
	return false, nil
}

// Sync makes every record appended so far durable on the caller's
// goroutine, waiting out a flush in progress. The error is sticky: a
// journal that failed a sync stays failed, and the caller must treat the
// processor as crashed. Barriers waiting on a committing journal stay
// with its committer.
func (j *FileJournal) Sync() error {
	j.ioMu.Lock()
	defer j.ioMu.Unlock()
	_, err := j.flush()
	return err
}

// Err reports the first write or sync error.
func (j *FileJournal) Err() error {
	j.mu.Lock()
	defer j.mu.Unlock()
	return j.err
}

// Pending reports how many records are buffered but not yet durable
// (the journal lag, in records).
func (j *FileJournal) Pending() int {
	j.mu.Lock()
	defer j.mu.Unlock()
	return j.pending
}

// LogSince returns the committed writes of obj strictly newer than
// since, replayed from the retained segments, with complete=true only
// when the retained tail provably holds every such write (the oldest
// retained snapshot's version of obj is not newer than since). The
// store consults this when its in-memory log has evicted the range, so
// R5 catch-up can stay log-based far longer before falling back to a
// full copy.
func (j *FileJournal) LogSince(obj model.ObjectID, since model.Version) ([]model.Copy, bool) {
	j.mu.Lock()
	if j.err != nil || len(j.ring) == 0 {
		j.mu.Unlock()
		return nil, false
	}
	if base, ok := j.ring[0].vers[obj]; ok && since.Less(base) {
		j.mu.Unlock()
		return nil, false // writes older than the retained tail are gone
	} else if !ok && j.ring[0].universe != nil && !j.ring[0].universe[obj] {
		// The oldest retained snapshot was scoped and did not cover obj:
		// this processor did not host the object's shard then, so "no
		// recorded version" means "no history", not "no writes". Nothing
		// can be proven — the caller falls back to a full copy.
		j.mu.Unlock()
		return nil, false
	}
	// The store only asks about writes it has applied, and those were
	// appended before this call — but maybe not flushed yet. Rather than
	// fsync on the caller's (the node's handler) thread, the unflushed
	// records are read from memory: the batch a flush is writing, then the
	// pending one, copied because both buffers are recycled.
	unflushed := append(append([]byte(nil), j.flying...), j.buf...)
	first, last, lastSize := j.ring[0].base, j.segIndex, j.segSize
	reg := j.reg
	j.mu.Unlock()
	// The disk scan runs without j.mu so rejoin storms never stall the
	// append path: rolled segments are immutable, and of the live segment
	// only the lastSize bytes a completed flush made durable are read —
	// what the committer is writing past that point is in unflushed. A
	// segment pruned by a concurrent roll reads as missing; completeness
	// can no longer be proven then, and the caller falls back.
	var out []model.Copy
	collect := func(payload []byte) error {
		var r record
		if err := parseRecord(payload, &r); err != nil {
			return err
		}
		if r.ApplyVer != nil && r.ApplyObj == obj && since.Less(*r.ApplyVer) {
			out = append(out, model.Copy{Val: r.ApplyVal, Ver: *r.ApplyVer})
		}
		return nil
	}
	for idx := first; idx <= last; idx++ {
		data, err := j.opts.FS.ReadFile(filepath.Join(j.dir, segName(idx)))
		if err != nil {
			return nil, false
		}
		if idx == last && int64(len(data)) > lastSize {
			data = data[:lastSize]
		}
		if _, torn, werr := walkFrames(data, collect); werr != nil || torn {
			return nil, false
		}
	}
	if _, torn, werr := walkFrames(unflushed, collect); werr != nil || torn {
		return nil, false
	}
	if reg != nil {
		reg.Inc(metrics.CJournalCatchupScans, 1)
	}
	return out, true
}

// Close flushes, syncs, and closes the journal. Barriers the committer
// had not released are dropped uncalled.
func (j *FileJournal) Close() error {
	j.stopCommitter()
	j.ioMu.Lock()
	defer j.ioMu.Unlock()
	_, err := j.flush()
	j.mu.Lock()
	defer j.mu.Unlock()
	if j.seg == nil {
		return nil
	}
	if cerr := j.seg.Close(); err == nil {
		err = cerr
	}
	j.seg = nil
	return err
}

// HardCrash abandons the journal as a kill -9 would: the pending batch
// is dropped on the floor and the segment file is closed without a
// sync. Only fault-injection harnesses call this; the on-disk state is
// whatever the last group commit made durable, possibly with a torn
// batch behind it.
func (j *FileJournal) HardCrash() {
	j.stopCommitter()
	j.mu.Lock()
	defer j.mu.Unlock()
	if j.seg != nil {
		j.seg.Close() //nolint:errcheck // crash semantics: nothing to report to
		j.seg = nil
	}
	j.buf = nil
	j.pending = 0
	j.err = errors.New("durable: journal hard-crashed")
}

// MaxID implements Journal.
func (j *FileJournal) MaxID(v model.VPID) { j.write(&record{SetMaxID: &v}) }

// Apply implements Journal.
func (j *FileJournal) Apply(obj model.ObjectID, val model.Value, ver model.Version) {
	j.write(&record{ApplyObj: obj, ApplyVal: val, ApplyVer: &ver})
}

// Stage implements Journal.
func (j *FileJournal) Stage(txn model.TxnID, obj model.ObjectID, w StagedWrite) {
	j.write(&record{StageTxn: &txn, StageObj: obj, StageW: &w})
}

// DropStage implements Journal.
func (j *FileJournal) DropStage(txn model.TxnID, obj model.ObjectID) {
	j.write(&record{DropTxn: &txn, DropObj: obj})
}

// Vote implements Journal.
func (j *FileJournal) Vote(txn model.TxnID, v VoteRec) { j.write(&record{VoteTxn: &txn, VoteRec: v}) }

// Decide implements Journal.
func (j *FileJournal) Decide(txn model.TxnID, commit bool, pending []model.ProcID, shards []model.ShardID) {
	j.write(&record{DecideTxn: &txn, DecideCommit: commit, DecidePending: pending, DecideShards: shards})
}

// DecideDone implements Journal.
func (j *FileJournal) DecideDone(txn model.TxnID) { j.write(&record{DoneTxn: &txn}) }

var _ Journal = (*FileJournal)(nil)
