package durable

import (
	"encoding/binary"
	"errors"
	"hash/crc32"
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"testing"

	"github.com/virtualpartitions/vp/internal/model"
)

func stateEqual(a, b *State) bool {
	return a.MaxID == b.MaxID &&
		reflect.DeepEqual(a.Copies, b.Copies) &&
		reflect.DeepEqual(a.Staged, b.Staged) &&
		reflect.DeepEqual(a.Decides, b.Decides) &&
		reflect.DeepEqual(a.Votes, b.Votes)
}

// frameOffsets parses the frame boundaries of a segment's bytes: the
// returned slice holds the offset just past each complete frame.
func frameOffsets(t *testing.T, data []byte) []int {
	t.Helper()
	var ends []int
	off := 0
	for off < len(data) {
		if len(data)-off < frameHeaderLen {
			t.Fatalf("trailing garbage in intact segment at %d", off)
		}
		length := int(binary.LittleEndian.Uint32(data[off:]))
		off += frameHeaderLen + length
		if off > len(data) {
			t.Fatalf("frame overruns intact segment at %d", off)
		}
		ends = append(ends, off)
	}
	return ends
}

// refJournal is the reference model TestEveryOffsetTruncation checks
// recovery against: it builds each record from the call's arguments and
// applies it to a State, with no framing, buffering or files between.
type refJournal struct{ st *State }

func (m refJournal) MaxID(v model.VPID) { m.st.apply(&record{SetMaxID: &v}) }
func (m refJournal) Apply(obj model.ObjectID, val model.Value, ver model.Version) {
	m.st.apply(&record{ApplyObj: obj, ApplyVal: val, ApplyVer: &ver})
}
func (m refJournal) Stage(txn model.TxnID, obj model.ObjectID, w StagedWrite) {
	m.st.apply(&record{StageTxn: &txn, StageObj: obj, StageW: &w})
}
func (m refJournal) DropStage(txn model.TxnID, obj model.ObjectID) {
	m.st.apply(&record{DropTxn: &txn, DropObj: obj})
}
func (m refJournal) Vote(txn model.TxnID, v VoteRec) { m.st.apply(&record{VoteTxn: &txn, VoteRec: v}) }
func (m refJournal) Decide(txn model.TxnID, commit bool, pending []model.ProcID, shards []model.ShardID) {
	m.st.apply(&record{DecideTxn: &txn, DecideCommit: commit, DecidePending: pending, DecideShards: shards})
}
func (m refJournal) DecideDone(txn model.TxnID)              { m.st.apply(&record{DoneTxn: &txn}) }
func (m refJournal) Barrier(bool, func(error)) (bool, error) { return true, nil }

// TestEveryOffsetTruncation is the crash-consistency property test: for
// EVERY byte offset of the segment, truncating there and recovering
// must succeed, yield exactly the state after some whole-record prefix
// of the history (records are atomic — a transaction's Decide can never
// be visible without the Stages journaled before it), and keep MaxID
// monotone as the prefix grows.
func TestEveryOffsetTruncation(t *testing.T) {
	src := t.TempDir()
	_, j, err := Open(src)
	if err != nil {
		t.Fatal(err)
	}
	// A scripted history mixing every record kind, mirrored into a
	// refJournal after each step to know the expected state per prefix.
	m := refJournal{NewState()}
	var expected []*State
	step := func(f func(Journal)) {
		f(j)
		f(m)
		expected = append(expected, cloneState(m.st))
	}
	step(func(q Journal) { q.MaxID(v(1, 1)) })
	for i := 0; i < 6; i++ {
		i := i
		tx := txn(int64(10 + i))
		step(func(q Journal) {
			q.Stage(tx, "a", StagedWrite{Val: model.Value(i), Ver: ver(1, uint64(2*i+1))})
		})
		step(func(q Journal) {
			q.Stage(tx, "b", StagedWrite{Val: model.Value(-i), Ver: ver(1, uint64(2*i+2)), Delta: i%2 == 0})
		})
		step(func(q Journal) {
			q.Vote(tx, VoteRec{Parts: []model.ProcID{1, 2, 3}, Epochs: []model.VPID{v(1, 1), v(1, 1), v(1, 1)}})
		})
		step(func(q Journal) { q.Decide(tx, i%3 != 0, []model.ProcID{2, 3}, nil) })
		step(func(q Journal) { q.Apply("a", model.Value(i), ver(1, uint64(2*i+1))) })
		step(func(q Journal) { q.Apply("b", model.Value(-i), ver(1, uint64(2*i+2))) })
		step(func(q Journal) { q.DropStage(tx, "") })
		step(func(q Journal) { q.DecideDone(tx) })
		step(func(q Journal) { q.MaxID(v(uint64(2+i), model.ProcID(1+i%3))) })
	}
	if err := j.Close(); err != nil {
		t.Fatal(err)
	}
	seg, err := os.ReadFile(filepath.Join(src, segName(1)))
	if err != nil {
		t.Fatal(err)
	}
	snap, err := os.ReadFile(filepath.Join(src, snapName(1)))
	if err != nil {
		t.Fatal(err)
	}
	ends := frameOffsets(t, seg)
	if len(ends) != len(expected) {
		t.Fatalf("%d frames but %d scripted records", len(ends), len(expected))
	}

	var prevMax model.VPID
	for cut := 0; cut <= len(seg); cut++ {
		dir := t.TempDir()
		if err := os.WriteFile(filepath.Join(dir, snapName(1)), snap, 0o644); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(filepath.Join(dir, segName(1)), seg[:cut], 0o644); err != nil {
			t.Fatal(err)
		}
		st, j2, err := Open(dir)
		if err != nil {
			t.Fatalf("cut %d: recovery failed: %v", cut, err)
		}
		j2.Close()
		// The recovered state must be exactly the longest whole-record
		// prefix that fits under the cut.
		k := 0
		for k < len(ends) && ends[k] <= cut {
			k++
		}
		want := NewState()
		if k > 0 {
			want = cloneState(expected[k-1])
		}
		// Recovery resolves stages whose decide is evidenced by an apply
		// surviving in the same prefix; the expected state must too.
		resolveDecidedStages(want)
		if !stateEqual(st, want) {
			t.Fatalf("cut %d (prefix %d records): state %+v, want %+v", cut, k, st, want)
		}
		if st.MaxID.Less(prevMax) {
			t.Fatalf("cut %d: MaxID regressed %v -> %v", cut, prevMax, st.MaxID)
		}
		prevMax = st.MaxID
	}
}

func TestSnapshotTruncationRoundTrip(t *testing.T) {
	dir := t.TempDir()
	_, j, err := OpenOptions(dir, Options{SegmentBytes: 1 << 10, RetainSnapshots: 2})
	if err != nil {
		t.Fatal(err)
	}
	// Enough writes over two objects to roll segments many times, with
	// group commits small enough that rolls actually trigger.
	for i := 1; i <= 500; i++ {
		j.Apply("x", model.Value(i), ver(1, uint64(i)))
		if i%5 == 0 {
			j.Apply("y", model.Value(i*10), ver(1, uint64(i)))
		}
		if i%25 == 0 {
			if err := j.Sync(); err != nil {
				t.Fatal(err)
			}
		}
	}
	j.Stage(txn(7), "x", StagedWrite{Val: 501, Ver: ver(1, 501)})
	j.Decide(txn(7), true, []model.ProcID{2}, nil)
	if err := j.Close(); err != nil {
		t.Fatal(err)
	}

	st, j2, err := OpenOptions(dir, Options{SegmentBytes: 1 << 10, RetainSnapshots: 2})
	if err != nil {
		t.Fatal(err)
	}
	defer j2.Close()
	if st.Copies["x"].Val != 500 || st.Copies["y"].Val != 5000 {
		t.Fatalf("round trip lost writes: %+v", st.Copies)
	}
	if _, ok := st.Staged[txn(7)]["x"]; !ok {
		t.Fatal("staged write lost across snapshot boundary")
	}
	if _, ok := st.Decides[txn(7)]; !ok {
		t.Fatal("decide lost across snapshot boundary")
	}
	rs := j2.Recovery()
	if !rs.Snapshot {
		t.Fatal("replay did not start from a snapshot")
	}
	// Truncation happened: early segments are pruned, so replay touched
	// far fewer records than the 601 written.
	if rs.Records >= 601 {
		t.Fatalf("replayed %d records; snapshot+tail should be shorter", rs.Records)
	}
}

func TestLogSinceServesRetainedTail(t *testing.T) {
	dir := t.TempDir()
	_, j, err := OpenOptions(dir, Options{SegmentBytes: 1 << 10, RetainSnapshots: 2, SnapshotEvery: 1})
	if err != nil {
		t.Fatal(err)
	}
	defer j.Close()
	for i := 1; i <= 400; i++ {
		j.Apply("x", model.Value(i), ver(1, uint64(i)))
		if i%10 == 0 {
			if err := j.Sync(); err != nil {
				t.Fatal(err)
			}
		}
	}
	// Recent range: every write after 390 is in the retained tail.
	recs, ok := j.LogSince("x", ver(1, 390))
	if !ok {
		t.Fatal("recent range should be complete")
	}
	if len(recs) != 10 {
		t.Fatalf("got %d entries, want 10", len(recs))
	}
	for i, r := range recs {
		if r.Val != model.Value(391+i) || r.Ver.Ctr != uint64(391+i) {
			t.Fatalf("entry %d = %+v", i, r)
		}
	}
	// Ancient range: segments holding it were pruned, so the journal
	// must refuse rather than return an incomplete delta.
	if _, ok := j.LogSince("x", model.Version{}); ok {
		t.Fatal("pruned range must not claim completeness")
	}
	// Caught-up peer: nothing newer, still complete.
	recs, ok = j.LogSince("x", ver(1, 400))
	if !ok || len(recs) != 0 {
		t.Fatalf("caught-up peer: recs=%v ok=%v", recs, ok)
	}
}

func TestRecordCodecRoundTrip(t *testing.T) {
	vv := model.Version{Date: v(3, 2), Ctr: 9, Writer: txn(5)}
	recs := []*record{
		{SetMaxID: &model.VPID{N: 7, P: 3}},
		{ApplyObj: "obj-1", ApplyVal: -42, ApplyVer: &vv},
		{StageTxn: &model.TxnID{Start: -5, P: 2, Seq: 8}, StageObj: "o",
			StageW: &StagedWrite{Val: 1, Ver: vv, Delta: true, MissedBy: []model.ProcID{4, 5}}},
		{DropTxn: &model.TxnID{Start: 1, P: 1, Seq: 1}, DropObj: ""},
		{DecideTxn: &model.TxnID{Start: 2, P: 2, Seq: 2}, DecideCommit: true, DecidePending: []model.ProcID{1}},
		{DecideTxn: &model.TxnID{Start: 2, P: 2, Seq: 3}, DecidePending: []model.ProcID{1, 4},
			DecideShards: []model.ShardID{0, 2}},
		{DoneTxn: &model.TxnID{Start: 3, P: 3, Seq: 3}},
		{VoteTxn: &model.TxnID{Start: 4, P: 1, Seq: 4}, VoteRec: VoteRec{Parts: []model.ProcID{1, 2}}},
		{VoteTxn: &model.TxnID{Start: 4, P: 1, Seq: 5}, VoteRec: VoteRec{Parts: []model.ProcID{1, 2},
			Shards: []model.ShardID{3, 4}, Epochs: []model.VPID{v(2, 1), v(5, 2)}}},
	}
	st := NewState()
	st.MaxID = v(9, 1)
	st.Copies["x"] = model.Copy{Val: 4, Ver: vv}
	st.Staged[txn(1)] = map[model.ObjectID]StagedWrite{"x": {Val: 5, Ver: vv}}
	st.Decides[txn(2)] = DecideRec{Commit: false, Pending: []model.ProcID{2, 3}}
	recs = append(recs, &record{Snapshot: st})
	// Undecided coordinator votes ride behind everything else in a snapshot.
	withVotes := cloneState(st)
	withVotes.Votes[txn(3)] = VoteRec{Parts: []model.ProcID{2, 3}, Epochs: []model.VPID{v(2, 1), v(2, 1)}}
	recs = append(recs, &record{Snapshot: withVotes})

	for i, r := range recs {
		frame := appendFrame(nil, r)
		var back record
		n := 0
		_, torn, err := walkFrames(frame, func(payload []byte) error {
			if err := parseRecord(payload, &back); err != nil {
				t.Fatalf("record %d: parse failed: %v", i, err)
			}
			n++
			return nil
		})
		if err != nil || torn || n != 1 {
			t.Fatalf("record %d: walk err=%v torn=%v n=%d", i, err, torn, n)
		}
		a, b := NewState(), NewState()
		a.apply(r)
		b.apply(&back)
		if !stateEqual(a, b) {
			t.Fatalf("record %d: round trip diverged:\n%+v\n%+v", i, a, b)
		}
	}
}

// TestResolveStagedOnDecideEvidence: a torn tail can eat a decide's
// drop-stage record while an apply from the same group-commit batch
// survives. Recovery must not resurrect the transaction as prepared —
// the applied copy at the staged version proves the decide ran, and
// the coordinator (already acked) has forgotten it.
func TestResolveStagedOnDecideEvidence(t *testing.T) {
	dir := t.TempDir()
	_, j, err := Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	j.Apply("x", 1, ver(1, 1))
	// Prepare: stage at the next version and sync (the yes-vote barrier).
	j.Stage(txn(9), "x", StagedWrite{Val: 2, Ver: ver(1, 2)})
	if err := j.Sync(); err != nil {
		t.Fatal(err)
	}
	// Decide commit: apply + drop-stage in one batch, synced for the ack.
	// The drop-stage is the final frame on disk.
	j.Apply("x", 2, ver(1, 2))
	j.DropStage(txn(9), "")
	if err := j.Sync(); err != nil {
		t.Fatal(err)
	}
	j.HardCrash()
	// Disk damage tears one byte off the tail: the drop-stage frame is
	// truncated away, but the apply from the same batch survives.
	if err := chopTail(dir, 1); err != nil {
		t.Fatal(err)
	}

	st, j2, err := Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	defer j2.Close()
	rs := j2.Recovery()
	if !rs.Torn {
		t.Fatal("expected a torn tail")
	}
	if st.Copies["x"].Val != 2 {
		t.Fatalf("x = %v, want 2", st.Copies["x"].Val)
	}
	if _, ok := st.Staged[txn(9)]; ok {
		t.Fatal("decided transaction resurrected as prepared")
	}
	if rs.Resolved != 1 {
		t.Fatalf("Resolved = %d, want 1", rs.Resolved)
	}
}

// TestTornDecideBatchInstallsLostWrites: a commit's decide batch is
// [Apply(a), Apply(b), DropStage], and a tear can cut mid-batch so
// Apply(a) survives while Apply(b) and the drop-stage are lost. The
// surviving apply proves the decide committed, so recovery must not
// drop b's staged write with the stage — it installs it (honoring delta
// merge) and re-journals the repair, or this replica would serve a
// permanently stale b: the retransmitted Decide is acked without
// applying and rule R5 has b in no MissedBy set.
func TestTornDecideBatchInstallsLostWrites(t *testing.T) {
	dir := t.TempDir()
	_, j, err := Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	j.Apply("a", 1, ver(1, 1))
	j.Apply("b", 10, ver(1, 2))
	// Prepare: stage a plain write on a and a delta (+5) on b, synced for
	// the yes-vote.
	j.Stage(txn(9), "a", StagedWrite{Val: 2, Ver: ver(1, 3)})
	j.Stage(txn(9), "b", StagedWrite{Val: 5, Ver: ver(1, 4), Delta: true})
	if err := j.Sync(); err != nil {
		t.Fatal(err)
	}
	// Decide commit: both applies plus the drop-stage in one batch.
	j.Apply("a", 2, ver(1, 3))
	j.Apply("b", 15, ver(1, 4))
	j.DropStage(txn(9), "")
	if err := j.Sync(); err != nil {
		t.Fatal(err)
	}
	j.HardCrash()
	// Tear the batch in the middle: everything past Apply(a, 2) is lost.
	seg, err := os.ReadFile(filepath.Join(dir, segName(1)))
	if err != nil {
		t.Fatal(err)
	}
	ends := frameOffsets(t, seg)
	if err := os.Truncate(filepath.Join(dir, segName(1)), int64(ends[len(ends)-3])); err != nil {
		t.Fatal(err)
	}

	st, j2, err := Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	if _, ok := st.Staged[txn(9)]; ok {
		t.Fatal("decided transaction resurrected as prepared")
	}
	if c := st.Copies["a"]; c.Val != 2 || c.Ver != ver(1, 3) {
		t.Fatalf("a = %+v, want {2 %v}", c, ver(1, 3))
	}
	// The lost delta apply is reconstructed: 10 + 5 at the staged version.
	if c := st.Copies["b"]; c.Val != 15 || c.Ver != ver(1, 4) {
		t.Fatalf("b = %+v, want {15 %v}", c, ver(1, 4))
	}
	if rs := j2.Recovery(); rs.Resolved != 1 {
		t.Fatalf("Resolved = %d, want 1", rs.Resolved)
	}
	// The repair is re-journaled, so log catch-up serves the installed
	// write instead of silently omitting it.
	recs, ok := j2.LogSince("b", ver(1, 2))
	if !ok || len(recs) != 1 || recs[0].Val != 15 || recs[0].Ver != ver(1, 4) {
		t.Fatalf("LogSince(b) = %+v ok=%v, want the installed write", recs, ok)
	}
	if err := j2.Close(); err != nil {
		t.Fatal(err)
	}
	// A second restart replays the durable repair instead of re-deriving
	// it: nothing left to resolve, same state.
	st2, j3, err := Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	defer j3.Close()
	if j3.Recovery().Resolved != 0 {
		t.Fatalf("repair not durable: Resolved = %d on reopen", j3.Recovery().Resolved)
	}
	if !stateEqual(st, st2) {
		t.Fatalf("reopen diverged:\n%+v\n%+v", st, st2)
	}
}

// The evidence rule must only fire on decided transactions: a stage
// beyond the copy's version (the normal prepared shape) is restored.
func TestUndecidedStageSurvivesRecovery(t *testing.T) {
	dir := t.TempDir()
	_, j, err := Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	j.Apply("x", 1, ver(1, 1))
	j.Stage(txn(9), "x", StagedWrite{Val: 2, Ver: ver(1, 2)})
	if err := j.Sync(); err != nil {
		t.Fatal(err)
	}
	j.HardCrash()
	st, j2, err := Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	defer j2.Close()
	if w, ok := st.Staged[txn(9)]["x"]; !ok || w.Val != 2 {
		t.Fatalf("undecided stage lost: %+v", st.Staged)
	}
	if j2.Recovery().Resolved != 0 {
		t.Fatalf("Resolved = %d, want 0", j2.Recovery().Resolved)
	}
}

// TestScopedJournalCompletenessFence pins the partial-replication rule:
// a journal scoped to its hosted objects stamps the universe into every
// snapshot, and a restart under a grown shard map must not mistake
// "never hosted" for "no writes". Unscoped journals keep the old
// shortcut (absent from the oldest snapshot ⇒ provably zero history).
func TestScopedJournalCompletenessFence(t *testing.T) {
	dir := t.TempDir()
	opts := Options{SegmentBytes: 1 << 10, RetainSnapshots: 2, SnapshotEvery: 1,
		Scope: []model.ObjectID{"x"}}
	_, j, err := OpenOptions(dir, opts)
	if err != nil {
		t.Fatal(err)
	}
	for i := 1; i <= 400; i++ {
		j.Apply("x", model.Value(i), ver(1, uint64(i)))
		if i%10 == 0 {
			if err := j.Sync(); err != nil {
				t.Fatal(err)
			}
		}
	}
	if err := j.Close(); err != nil {
		t.Fatal(err)
	}

	// Restart after the shard map grew: this node now also hosts y's
	// shard. y has cluster-wide history this journal never observed, so
	// the retained tail proves nothing about it.
	opts.Scope = []model.ObjectID{"x", "y"}
	_, j2, err := OpenOptions(dir, opts)
	if err != nil {
		t.Fatal(err)
	}
	defer j2.Close()
	if _, ok := j2.LogSince("y", model.Version{}); ok {
		t.Fatal("newly hosted object claimed a complete (empty) delta from a journal that never saw it")
	}
	// Hosted-since-genesis objects are unaffected: a caught-up peer still
	// gets a complete empty delta.
	if recs, ok := j2.LogSince("x", ver(1, 400)); !ok || len(recs) != 0 {
		t.Fatalf("caught-up peer on a hosted object: recs=%v ok=%v", recs, ok)
	}
	// Once y's writes are journaled and snapshots under the new scope
	// rotate past retention, y's recent ranges become servable.
	for i := 1; i <= 400; i++ {
		j2.Apply("y", model.Value(i), ver(2, uint64(i)))
		if i%10 == 0 {
			if err := j2.Sync(); err != nil {
				t.Fatal(err)
			}
		}
	}
	recs, ok := j2.LogSince("y", ver(2, 395))
	if !ok || len(recs) != 5 {
		t.Fatalf("post-rotation recent range: recs=%d ok=%v", len(recs), ok)
	}
}

// TestScopedSnapshotRecordRoundTrip pins the snapshot's universe field:
// "all objects" (nil) and a scope list, empty included (a node hosting
// no shards), each survive the frame round trip as what they were,
// next to sharded decisions and votes.
func TestScopedSnapshotRecordRoundTrip(t *testing.T) {
	vv := model.Version{Date: v(3, 2), Ctr: 9, Writer: txn(5)}
	st := NewState()
	st.MaxID = v(9, 1)
	st.Copies["x"] = model.Copy{Val: 4, Ver: vv}
	st.Decides[txn(2)] = DecideRec{Commit: true, Pending: []model.ProcID{2, 3},
		Shards: []model.ShardID{1, 2}}
	st.Votes[txn(3)] = VoteRec{Parts: []model.ProcID{1, 4}, Shards: []model.ShardID{1, 2},
		Epochs: []model.VPID{v(2, 1), v(3, 4)}}
	for _, universe := range [][]model.ObjectID{nil, {"a", "x"}, {}} {
		frame := appendFrame(nil, &record{Snapshot: st, SnapUniverse: universe})
		var back record
		_, torn, err := walkFrames(frame, func(payload []byte) error {
			return parseRecord(payload, &back)
		})
		if err != nil || torn {
			t.Fatalf("walk err=%v torn=%v", err, torn)
		}
		if (back.SnapUniverse == nil) != (universe == nil) || len(back.SnapUniverse) != len(universe) {
			t.Fatalf("universe %#v came back as %#v", universe, back.SnapUniverse)
		}
		a, b := NewState(), NewState()
		a.apply(&record{Snapshot: st})
		b.apply(&back)
		if !stateEqual(a, b) {
			t.Fatalf("scoped snapshot state diverged:\n%+v\n%+v", a, b)
		}
	}
}

// rawFrame frames a hand-written payload, as appendFrame frames a record.
func rawFrame(payload []byte) []byte {
	frame := binary.LittleEndian.AppendUint32(nil, uint32(len(payload)))
	frame = binary.LittleEndian.AppendUint32(frame, crc32.Checksum(payload, crcTable))
	return append(frame, payload...)
}

// TestEarlierFormatIsRefused: a journal holding a snapshot or decision
// record in the layout of an earlier format (tags 1, 6, 8, 9) is refused
// by name — not reported corrupt, and never truncated as a torn tail,
// even when the record is the last frame of the newest segment.
func TestEarlierFormatIsRefused(t *testing.T) {
	for name, damage := range map[string]func(t *testing.T, dir string){
		// The snapshot an earlier format wrote for a fresh journal: tag 1,
		// a zero max-id, no copies, no staged writes, no decisions.
		"tag-1 snapshot": func(t *testing.T, dir string) {
			path := filepath.Join(dir, snapName(1))
			if err := os.WriteFile(path, rawFrame([]byte{1, 0, 0, 0, 0, 0}), 0o644); err != nil {
				t.Fatal(err)
			}
		},
		// An unsharded decision of an earlier format: tag 6, txn(3),
		// commit, pending [2].
		"tag-6 decision in a segment": func(t *testing.T, dir string) {
			path := filepath.Join(dir, segName(1))
			f, err := os.OpenFile(path, os.O_APPEND|os.O_WRONLY, 0)
			if err != nil {
				t.Fatal(err)
			}
			defer f.Close()
			if _, err := f.Write(rawFrame([]byte{6, 6, 1, 3, 1, 1, 2})); err != nil {
				t.Fatal(err)
			}
		},
	} {
		t.Run(name, func(t *testing.T) {
			dir := t.TempDir()
			_, j, err := Open(dir)
			if err != nil {
				t.Fatal(err)
			}
			j.Apply("x", 1, ver(1, 1))
			j.Decide(txn(2), true, []model.ProcID{2}, nil)
			if err := j.Close(); err != nil {
				t.Fatal(err)
			}
			damage(t, dir)
			before := dirFiles(t, dir)

			_, _, err = Open(dir)
			if !errors.Is(err, ErrEarlierFormat) {
				t.Fatalf("Open = %v, want ErrEarlierFormat", err)
			}
			if strings.Contains(err.Error(), "corrupt") {
				t.Fatalf("an earlier format reported as corruption: %v", err)
			}
			if after := dirFiles(t, dir); !reflect.DeepEqual(after, before) {
				t.Fatal("Open changed the refused journal's files")
			}
		})
	}
}

// dirFiles reads every file of a journal directory.
func dirFiles(t *testing.T, dir string) map[string][]byte {
	t.Helper()
	entries, err := os.ReadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	files := map[string][]byte{}
	for _, e := range entries {
		raw, err := os.ReadFile(filepath.Join(dir, e.Name()))
		if err != nil {
			t.Fatal(err)
		}
		files[e.Name()] = raw
	}
	return files
}
