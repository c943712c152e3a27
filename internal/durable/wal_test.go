package durable

import (
	"encoding/binary"
	"os"
	"path/filepath"
	"reflect"
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
	// MemJournal after each step to know the expected state per prefix.
	m := NewMemJournal()
	var expected []*State
	step := func(f func(Journal)) {
		f(j)
		f(m)
		expected = append(expected, cloneState(m.St))
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
			if !parseRecord(payload, &back) {
				t.Fatalf("record %d: parse failed", i)
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
	if _, err := ChopTail(nil, dir, 1); err != nil {
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

// TestScopedSnapshotRecordRoundTrip pins the tagSnapshotScoped codec:
// the universe survives the frame round trip, including when the state
// carries sharded decisions (the trailer the universe parses after) and
// when the universe is empty (a node hosting no shards).
func TestScopedSnapshotRecordRoundTrip(t *testing.T) {
	vv := model.Version{Date: v(3, 2), Ctr: 9, Writer: txn(5)}
	st := NewState()
	st.MaxID = v(9, 1)
	st.Copies["x"] = model.Copy{Val: 4, Ver: vv}
	st.Decides[txn(2)] = DecideRec{Commit: true, Pending: []model.ProcID{2, 3},
		Shards: []model.ShardID{1, 2}}
	st.Votes[txn(3)] = VoteRec{Parts: []model.ProcID{1, 4}, Shards: []model.ShardID{1, 2},
		Epochs: []model.VPID{v(2, 1), v(3, 4)}}
	for _, universe := range [][]model.ObjectID{{"a", "x"}, {}} {
		frame := appendFrame(nil, &record{Snapshot: st, SnapScoped: true, SnapUniverse: universe})
		var back record
		_, torn, err := walkFrames(frame, func(payload []byte) error {
			if !parseRecord(payload, &back) {
				t.Fatal("scoped snapshot failed to parse")
			}
			return nil
		})
		if err != nil || torn {
			t.Fatalf("walk err=%v torn=%v", err, torn)
		}
		if !back.SnapScoped || len(back.SnapUniverse) != len(universe) {
			t.Fatalf("universe %v came back as scoped=%v %v", universe, back.SnapScoped, back.SnapUniverse)
		}
		a, b := NewState(), NewState()
		a.apply(&record{Snapshot: st})
		b.apply(&back)
		if !stateEqual(a, b) {
			t.Fatalf("scoped snapshot state diverged:\n%+v\n%+v", a, b)
		}
		if back.Snapshot.Decides[txn(2)].Shards == nil {
			t.Fatal("sharded-decision trailer lost under the scoped tag")
		}
	}
}
