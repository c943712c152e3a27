package durable

import (
	"os"
	"path/filepath"
	"strings"
	"testing"

	"github.com/virtualpartitions/vp/internal/model"
)

func v(n uint64, p model.ProcID) model.VPID { return model.VPID{N: n, P: p} }

func ver(n, c uint64) model.Version {
	return model.Version{Date: model.VPID{N: n, P: 1}, Ctr: c}
}

func txn(i int64) model.TxnID { return model.TxnID{Start: i, P: 1, Seq: uint64(i)} }

func TestFileJournalRoundTrip(t *testing.T) {
	dir := t.TempDir()
	st, j, err := Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	if !st.MaxID.IsZero() || len(st.Copies) != 0 {
		t.Fatal("fresh state not empty")
	}
	j.MaxID(v(3, 2))
	j.MaxID(v(1, 1)) // lower: must not regress on replay
	j.Apply("x", 42, ver(3, 1))
	j.Apply("x", 43, ver(3, 2)) // later write wins
	j.Apply("y", 7, ver(3, 3))
	j.Stage(txn(9), "x", StagedWrite{Val: 44, Ver: ver(3, 4), MissedBy: []model.ProcID{3}})
	j.Decide(txn(8), true, []model.ProcID{2, 3}, nil)
	if err := j.Close(); err != nil {
		t.Fatal(err)
	}

	st2, j2, err := Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	defer j2.Close()
	if st2.MaxID != v(3, 2) {
		t.Fatalf("MaxID = %v", st2.MaxID)
	}
	if c := st2.Copies["x"]; c.Val != 43 || c.Ver.Ctr != 2 {
		t.Fatalf("x = %+v", c)
	}
	if c := st2.Copies["y"]; c.Val != 7 {
		t.Fatalf("y = %+v", c)
	}
	w, ok := st2.Staged[txn(9)]["x"]
	if !ok || w.Val != 44 || len(w.MissedBy) != 1 {
		t.Fatalf("staged = %+v", st2.Staged)
	}
	d, ok := st2.Decides[txn(8)]
	if !ok || !d.Commit || len(d.Pending) != 2 {
		t.Fatalf("decides = %+v", st2.Decides)
	}
}

func TestDropAndDoneRecords(t *testing.T) {
	dir := t.TempDir()
	_, j, err := Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	j.Stage(txn(1), "x", StagedWrite{Val: 1, Ver: ver(1, 1)})
	j.Stage(txn(1), "y", StagedWrite{Val: 2, Ver: ver(1, 2)})
	j.Stage(txn(2), "x", StagedWrite{Val: 3, Ver: ver(1, 3)})
	j.DropStage(txn(1), "y") // scoped
	j.DropStage(txn(2), "")  // whole txn
	j.Decide(txn(5), false, []model.ProcID{2}, nil)
	j.DecideDone(txn(5))
	j.Close()

	st, j2, err := Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	defer j2.Close()
	if len(st.Staged) != 1 || len(st.Staged[txn(1)]) != 1 {
		t.Fatalf("staged = %+v", st.Staged)
	}
	if _, ok := st.Staged[txn(1)]["x"]; !ok {
		t.Fatal("surviving staged write missing")
	}
	if len(st.Decides) != 0 {
		t.Fatalf("decides = %+v", st.Decides)
	}
}

// dirBytes sums the sizes of every file in dir.
func dirBytes(t *testing.T, dir string) int64 {
	t.Helper()
	ents, err := os.ReadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	var total int64
	for _, e := range ents {
		info, err := e.Info()
		if err != nil {
			t.Fatal(err)
		}
		total += info.Size()
	}
	return total
}

func TestSegmentRollAndSnapshotBoundReplay(t *testing.T) {
	dir := t.TempDir()
	// Tiny segments so a few thousand records roll many times.
	_, j, err := OpenOptions(dir, Options{SegmentBytes: 4 << 10})
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 2000; i++ {
		j.Apply("x", model.Value(i), ver(1, uint64(i+1)))
		if i%50 == 0 {
			if err := j.Sync(); err != nil {
				t.Fatal(err)
			}
		}
	}
	if err := j.Close(); err != nil {
		t.Fatal(err)
	}
	// Retention bounds the directory: pruned segments are gone, so the
	// total on disk is far below 2000 records' worth of history.
	ents, _ := os.ReadDir(dir)
	segs, snaps := 0, 0
	for _, e := range ents {
		switch {
		case strings.HasSuffix(e.Name(), ".seg"):
			segs++
		case strings.HasSuffix(e.Name(), ".snap"):
			snaps++
		}
	}
	if snaps == 0 || snaps > defaultRetainSnapshots {
		t.Fatalf("retained %d snapshots (want 1..%d)", snaps, defaultRetainSnapshots)
	}
	if segs == 0 || segs > 32 {
		t.Fatalf("retained %d segments", segs)
	}

	st, j2, err := OpenOptions(dir, Options{SegmentBytes: 4 << 10})
	if err != nil {
		t.Fatal(err)
	}
	defer j2.Close()
	if st.Copies["x"].Val != 1999 {
		t.Fatalf("replayed value = %v", st.Copies["x"])
	}
	if rs := j2.Recovery(); !rs.Snapshot {
		t.Fatalf("recovery did not start from a snapshot: %+v", rs)
	}
}

func TestTornTailIsTolerated(t *testing.T) {
	dir := t.TempDir()
	_, j, err := Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	j.Apply("x", 1, ver(1, 1))
	j.Apply("x", 2, ver(1, 2))
	j.Close()
	// Chop bytes off the tail, as a crash mid-write would.
	if _, err := ChopTail(nil, dir, 3); err != nil {
		t.Fatal(err)
	}
	st, j2, err := Open(dir)
	if err != nil {
		t.Fatalf("torn tail should replay the prefix: %v", err)
	}
	defer j2.Close()
	if st.Copies["x"].Val != 1 {
		t.Fatalf("prefix state = %+v (want the first, intact record)", st.Copies["x"])
	}
	// The torn frame is dropped whole: everything from the last good
	// frame boundary to EOF goes.
	if rs := j2.Recovery(); !rs.Torn || rs.TornBytes < 3 {
		t.Fatalf("recovery stats = %+v (want a repaired torn tail)", rs)
	}
	// The truncation is physical: appending after recovery and reopening
	// must replay cleanly with the new record on top of the prefix.
	j2.Apply("x", 9, ver(1, 9))
	j2.Close()
	st3, j3, err := Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	defer j3.Close()
	if st3.Copies["x"].Val != 9 {
		t.Fatalf("post-repair append lost: %+v", st3.Copies["x"])
	}
}

func TestInteriorCorruptionIsFatal(t *testing.T) {
	dir := t.TempDir()
	_, j, err := Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	j.Apply("x", 1, ver(1, 1))
	j.Apply("x", 2, ver(1, 2))
	j.Apply("x", 3, ver(1, 3))
	j.Close()
	// Flip a byte in the FIRST record's payload: a bad frame with valid
	// frames after it is damage, not a crash, and must refuse to start.
	path := filepath.Join(dir, segName(1))
	raw, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	raw[frameHeaderLen] ^= 0xFF
	if err := os.WriteFile(path, raw, 0o644); err != nil {
		t.Fatal(err)
	}
	if _, _, err := Open(dir); err == nil {
		t.Fatal("interior corruption must be fatal")
	} else if !strings.Contains(err.Error(), "corrupt") {
		t.Fatalf("unexpected error: %v", err)
	}
}

func TestCorruptionInOlderSegmentIsFatal(t *testing.T) {
	dir := t.TempDir()
	// A huge SnapshotEvery keeps every segment in the replayed tail, so
	// damage to any segment but the newest is mid-log corruption.
	opts := Options{SegmentBytes: 512, SnapshotEvery: 1 << 20}
	_, j, err := OpenOptions(dir, opts)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 200; i++ {
		j.Apply("x", model.Value(i), ver(1, uint64(i+1)))
		if i%10 == 0 {
			if err := j.Sync(); err != nil {
				t.Fatal(err)
			}
		}
	}
	j.Close()
	// Damage the tail of a RETAINED but non-newest segment. Even though
	// the damage is at that file's end, readable segments follow it, so
	// this is interior corruption of the log as a whole.
	ents, _ := os.ReadDir(dir)
	var segNames []string
	for _, e := range ents {
		if strings.HasSuffix(e.Name(), ".seg") {
			segNames = append(segNames, e.Name())
		}
	}
	if len(segNames) < 2 {
		t.Skipf("only %d segments; need 2+", len(segNames))
	}
	victim := filepath.Join(dir, segNames[0])
	raw, _ := os.ReadFile(victim)
	if err := os.WriteFile(victim, raw[:len(raw)-2], 0o644); err != nil {
		t.Fatal(err)
	}
	if _, _, err := OpenOptions(dir, opts); err == nil {
		t.Fatal("torn frames before the newest segment must be fatal")
	}
}

func TestMemJournal(t *testing.T) {
	m := NewMemJournal()
	m.MaxID(v(5, 1))
	m.Apply("x", 9, ver(5, 1))
	m.Stage(txn(1), "x", StagedWrite{Val: 10, Ver: ver(5, 2)})
	m.Decide(txn(1), true, []model.ProcID{2}, nil)
	if done, err := m.Barrier(true, nil); !done || err != nil {
		t.Fatalf("Barrier = %v, %v; memory is always durable", done, err)
	}
	if m.St.MaxID != v(5, 1) || m.St.Copies["x"].Val != 9 {
		t.Fatalf("state = %+v", m.St)
	}
	m.DropStage(txn(1), "")
	m.DecideDone(txn(1))
	if len(m.St.Staged) != 0 || len(m.St.Decides) != 0 {
		t.Fatal("drops not applied")
	}
}

func TestOpenCreatesDir(t *testing.T) {
	dir := filepath.Join(t.TempDir(), "a", "b")
	_, j, err := Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	j.Close()
	if _, err := os.Stat(filepath.Join(dir, segName(1))); err != nil {
		t.Fatal("first segment not created")
	}
	if _, err := os.Stat(filepath.Join(dir, snapName(1))); err != nil {
		t.Fatal("base snapshot not created")
	}
}

func TestSyncEveryWrite(t *testing.T) {
	dir := t.TempDir()
	_, j, err := Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	j.SyncEveryWrite = true
	j.Apply("x", 1, ver(1, 1))
	if j.Err() != nil {
		t.Fatal(j.Err())
	}
	if j.Pending() != 0 {
		t.Fatal("SyncEveryWrite left records buffered")
	}
	j.Close()
	st, j2, _ := Open(dir)
	j2.Close()
	if st.Copies["x"].Val != 1 {
		t.Fatal("synced write lost")
	}
}

func TestGroupCommitBuffersUntilSync(t *testing.T) {
	dir := t.TempDir()
	_, j, err := Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	defer j.Close()
	for i := 0; i < 10; i++ {
		j.Apply("x", model.Value(i), ver(1, uint64(i+1)))
	}
	if j.Pending() != 10 {
		t.Fatalf("pending = %d, want 10 buffered records", j.Pending())
	}
	if err := j.Sync(); err != nil {
		t.Fatal(err)
	}
	if j.Pending() != 0 {
		t.Fatalf("pending after Sync = %d", j.Pending())
	}
}

func TestHardCrashDropsPendingBatch(t *testing.T) {
	dir := t.TempDir()
	_, j, err := Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	j.Apply("x", 1, ver(1, 1))
	if err := j.Sync(); err != nil {
		t.Fatal(err)
	}
	j.Apply("x", 2, ver(1, 2)) // never synced
	j.HardCrash()

	st, j2, err := Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	defer j2.Close()
	if st.Copies["x"].Val != 1 {
		t.Fatalf("x = %+v (want only the synced write)", st.Copies["x"])
	}
}
