package trace

import (
	"testing"
	"time"

	"github.com/virtualpartitions/vp/internal/model"
)

// Hand-built traces exercising each checker. Seq numbers are assigned in
// slice order for readability.

func seqd(evs []Event) []Event {
	for i := range evs {
		evs[i].Seq = uint64(i + 1)
	}
	return evs
}

var (
	vpA  = model.VPID{N: 1, P: 1}
	vpB  = model.VPID{N: 2, P: 2}
	txn1 = model.TxnID{Start: 10, P: 1, Seq: 1}
)

func cleanTrace() []Event {
	return seqd([]Event{
		{Kind: EvPlacement, Obj: "x", Procs: model.NewProcSet(1, 2, 3)},
		{Kind: EvVPJoin, Proc: 1, VP: vpA, Procs: model.NewProcSet(1, 2, 3)},
		{Kind: EvVPJoin, Proc: 2, VP: vpA, Procs: model.NewProcSet(1, 2, 3)},
		{Kind: EvVPJoin, Proc: 3, VP: vpA, Procs: model.NewProcSet(1, 2, 3)},
		{Kind: EvTxnBegin, Proc: 1, VP: vpA, Txn: txn1},
		{Kind: EvTxnRead, Proc: 1, Txn: txn1, Obj: "x", Procs: model.NewProcSet(2)},
		{Kind: EvTxnWrite, Proc: 1, Txn: txn1, Obj: "x", Procs: model.NewProcSet(1, 2, 3)},
		{Kind: EvTxnCommit, Proc: 1, Txn: txn1},
	})
}

func TestCheckCleanTracePasses(t *testing.T) {
	rep := Check(cleanTrace())
	if !rep.OK() {
		t.Fatalf("clean trace flagged: %v", rep.Violations)
	}
	for _, rule := range []string{"S1", "S2", "S3", "R2", "R3"} {
		if rep.Checked[rule] == 0 {
			t.Errorf("rule %s checked nothing", rule)
		}
	}
}

func TestCheckS1ViewDisagreement(t *testing.T) {
	evs := cleanTrace()
	evs[2].Procs = model.NewProcSet(1, 2) // P2's view of vpA omits P3
	rep := Check(evs)
	if rep.OK() {
		t.Fatal("diverged views not flagged")
	}
	if rep.Violations[0].Rule != "S1" {
		t.Fatalf("want S1 violation, got %v", rep.Violations[0])
	}
}

func TestCheckS2MissingSelf(t *testing.T) {
	evs := seqd([]Event{
		{Kind: EvVPJoin, Proc: 4, VP: vpA, Procs: model.NewProcSet(1, 2, 3)},
	})
	rep := Check(evs)
	if rep.OK() || rep.Violations[0].Rule != "S2" {
		t.Fatalf("want S2 violation, got %v", rep.Violations)
	}
}

func TestCheckS3OutOfOrderJoins(t *testing.T) {
	evs := seqd([]Event{
		{Kind: EvVPJoin, Proc: 1, VP: vpB, Procs: model.NewProcSet(1)},
		{Kind: EvVPJoin, Proc: 1, VP: vpA, Procs: model.NewProcSet(1)}, // vpA ≺ vpB: illegal
	})
	rep := Check(evs)
	if rep.OK() || rep.Violations[0].Rule != "S3" {
		t.Fatalf("want S3 violation, got %v", rep.Violations)
	}
	// Equal ids are just as illegal: joining the same partition twice in
	// a row must be flagged too.
	evs = seqd([]Event{
		{Kind: EvVPJoin, Proc: 1, VP: vpA, Procs: model.NewProcSet(1)},
		{Kind: EvVPJoin, Proc: 1, VP: vpA, Procs: model.NewProcSet(1)},
	})
	if rep := Check(evs); rep.OK() {
		t.Fatal("repeated join of the same VP not flagged")
	}
}

func TestCheckR2MultiCopyRead(t *testing.T) {
	evs := cleanTrace()
	evs[5].Procs = model.NewProcSet(2, 3) // read-one became read-two
	rep := Check(evs)
	if rep.OK() || rep.Violations[0].Rule != "R2" {
		t.Fatalf("want R2 violation, got %v", rep.Violations)
	}
}

func TestCheckR2ReadOutsideView(t *testing.T) {
	evs := cleanTrace()
	evs[5].Procs = model.NewProcSet(4) // target outside view (and no copy)
	rep := Check(evs)
	if rep.OK() || rep.Violations[0].Rule != "R2" {
		t.Fatalf("want R2 violation, got %v", rep.Violations)
	}
}

func TestCheckR3MissedCopy(t *testing.T) {
	evs := cleanTrace()
	evs[6].Procs = model.NewProcSet(1, 2) // write-all missed P3's copy
	rep := Check(evs)
	if rep.OK() || rep.Violations[0].Rule != "R3" {
		t.Fatalf("want R3 violation, got %v", rep.Violations)
	}
}

func TestCheckR3ViewScoped(t *testing.T) {
	// A minority-excluded copy is legitimately missed: view {1,2} of a
	// 3-copy object needs writes only on {1,2}.
	evs := seqd([]Event{
		{Kind: EvPlacement, Obj: "x", Procs: model.NewProcSet(1, 2, 3)},
		{Kind: EvVPJoin, Proc: 1, VP: vpA, Procs: model.NewProcSet(1, 2)},
		{Kind: EvVPJoin, Proc: 2, VP: vpA, Procs: model.NewProcSet(1, 2)},
		{Kind: EvTxnBegin, Proc: 1, VP: vpA, Txn: txn1},
		{Kind: EvTxnWrite, Proc: 1, Txn: txn1, Obj: "x", Procs: model.NewProcSet(1, 2)},
		{Kind: EvTxnCommit, Proc: 1, Txn: txn1},
	})
	if rep := Check(evs); !rep.OK() {
		t.Fatalf("view-scoped write flagged: %v", rep.Violations)
	}
}

func TestCheckSkipsUncommittedAndPartitionFree(t *testing.T) {
	evs := seqd([]Event{
		{Kind: EvPlacement, Obj: "x", Procs: model.NewProcSet(1, 2, 3)},
		{Kind: EvVPJoin, Proc: 1, VP: vpA, Procs: model.NewProcSet(1)},
		// Aborted txn with an over-wide read: not checked.
		{Kind: EvTxnBegin, Proc: 1, VP: vpA, Txn: txn1},
		{Kind: EvTxnRead, Proc: 1, Txn: txn1, Obj: "x", Procs: model.NewProcSet(2, 3)},
		{Kind: EvTxnAbort, Proc: 1, Txn: txn1},
		// Partition-free txn (zero epoch) reading a majority: not checked.
		{Kind: EvTxnBegin, Proc: 2, Txn: model.TxnID{Start: 11, P: 2, Seq: 1}},
		{Kind: EvTxnRead, Proc: 2, Txn: model.TxnID{Start: 11, P: 2, Seq: 1}, Obj: "x", Procs: model.NewProcSet(1, 2)},
		{Kind: EvTxnCommit, Proc: 2, Txn: model.TxnID{Start: 11, P: 2, Seq: 1}},
	})
	rep := Check(evs)
	if !rep.OK() {
		t.Fatalf("skippable transactions flagged: %v", rep.Violations)
	}
	if rep.Skipped["R2"] != 2 {
		t.Errorf("R2 skipped = %d, want 2", rep.Skipped["R2"])
	}
}

func TestCheckWithoutPlacementSkipsAccessRules(t *testing.T) {
	evs := cleanTrace()[1:] // drop the placement event
	for i := range evs {
		evs[i].Seq = uint64(i + 1)
	}
	rep := Check(evs)
	if !rep.OK() {
		t.Fatalf("trace without placements flagged: %v", rep.Violations)
	}
	if rep.Checked["R2"] != 0 || rep.Checked["R3"] != 0 {
		t.Error("access rules claim to be checked without placement data")
	}
	if rep.Skipped["R2"] != 1 || rep.Skipped["R3"] != 1 {
		t.Errorf("skip counts wrong: %v", rep.Skipped)
	}
}

func TestTimelines(t *testing.T) {
	evs := seqd([]Event{
		{Kind: EvVPInvite, Proc: 1, VP: vpB, At: 10 * time.Millisecond},
		{Kind: EvVPCommit, Proc: 1, VP: vpB, At: 14 * time.Millisecond, Procs: model.NewProcSet(1, 2)},
		{Kind: EvVPJoin, Proc: 1, VP: vpB, At: 14 * time.Millisecond, Procs: model.NewProcSet(1, 2)},
		{Kind: EvVPJoin, Proc: 2, VP: vpB, At: 15 * time.Millisecond, Procs: model.NewProcSet(1, 2)},
		{Kind: EvVPJoin, Proc: 3, VP: vpA, At: 2 * time.Millisecond, Procs: model.NewProcSet(3)},
	})
	tls := Timelines(evs)
	if len(tls) != 2 {
		t.Fatalf("got %d timelines, want 2", len(tls))
	}
	if tls[0].VP != vpA || tls[1].VP != vpB {
		t.Fatalf("timelines not in ≺ order: %v then %v", tls[0].VP, tls[1].VP)
	}
	b := tls[1]
	if b.InviteAt != 10*time.Millisecond || len(b.Joins) != 2 {
		t.Fatalf("vpB timeline wrong: %+v", b)
	}
	if got := b.FormationLatency(); got != 5*time.Millisecond {
		t.Errorf("formation latency = %v, want 5ms", got)
	}
	if a := tls[0]; a.FormationLatency() != 0 {
		t.Errorf("timeline without invite must report zero formation latency")
	}
}

func TestViewChangeLatencies(t *testing.T) {
	evs := seqd([]Event{
		{Kind: EvVPDepart, Proc: 1, VP: vpA, At: 10 * time.Millisecond},
		{Kind: EvVPJoin, Proc: 1, VP: vpB, At: 16 * time.Millisecond, Procs: model.NewProcSet(1)},
		{Kind: EvVPDepart, Proc: 1, VP: vpB, At: 30 * time.Millisecond},
		{Kind: EvVPJoin, Proc: 1, VP: model.VPID{N: 3, P: 1}, At: 32 * time.Millisecond, Procs: model.NewProcSet(1)},
		// A join without a preceding depart (initial assignment) is ignored.
		{Kind: EvVPJoin, Proc: 2, VP: vpB, At: 16 * time.Millisecond, Procs: model.NewProcSet(2)},
	})
	stats := ViewChangeLatencies(evs)
	if len(stats) != 1 {
		t.Fatalf("got %d stats, want 1 (only P1 departed): %+v", len(stats), stats)
	}
	st := stats[0]
	if st.Proc != 1 || st.Count != 2 {
		t.Fatalf("stat wrong: %+v", st)
	}
	if st.Min != 2*time.Millisecond || st.Max != 6*time.Millisecond || st.Mean != 4*time.Millisecond {
		t.Errorf("latency aggregates wrong: %+v", st)
	}
}
