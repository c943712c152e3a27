package wire

import (
	"testing"
)

func TestDecodeGarbage(t *testing.T) {
	if _, err := NewDecoder().Decode([]byte("not a frame")); err == nil {
		t.Fatal("expected error decoding garbage")
	}
}

func TestOpBuilders(t *testing.T) {
	inc := IncrementOps("x", 2)
	if len(inc) != 2 || inc[0].Kind != OpRead || inc[1].Kind != OpWrite ||
		!inc[1].UseSrc || inc[1].Src != "x" || inc[1].Const != 2 {
		t.Fatalf("IncrementOps = %+v", inc)
	}
	tr := TransferOps("a", "b", 10)
	if len(tr) != 4 || tr[2].Const != -10 || tr[3].Const != 10 {
		t.Fatalf("TransferOps = %+v", tr)
	}
	r := ReadOp("y")
	w := WriteOp("y", 9)
	if r.Kind != OpRead || w.Kind != OpWrite || w.Const != 9 || w.UseSrc {
		t.Fatal("builders wrong")
	}
}

func TestLockStatusString(t *testing.T) {
	if LockGranted.String() != "granted" || LockDenied.String() != "denied" ||
		LockWrongEpoch.String() != "wrong-epoch" {
		t.Fatal("LockStatus strings wrong")
	}
}

// TestKindCoversAllMessages pins every kind's name, which the per-kind
// message counters and the trace's Msg field carry: each kind but
// kindInvalid and the two reserved ones has one, a ShardMsg is named
// "shard:" and its inner kind, naming allocates nothing, and a type
// outside the vocabulary is unknown.
func TestKindCoversAllMessages(t *testing.T) {
	want := map[kindID]string{
		kindNewVP: "newvp", kindAcceptVP: "acceptvp", kindCommitVP: "commitvp",
		kindProbe: "probe", kindProbeAck: "probeack",
		kindRecoverRead: "recoverread", kindRecoverReadResp: "recoverreadresp",
		kindLockReq: "lockreq", kindLockResp: "lockresp", kindPrepare: "prepare",
		kindVote: "vote", kindDecide: "decide", kindDecideAck: "decideack",
		kindRelease: "release", kindClientTxn: "clienttxn", kindClientResult: "clientresult",
		kindCatchupReq: "catchupreq", kindCatchupResp: "catchupresp",
		kindDecideQuery: "decidequery", kindShardMsg: "shard",
		kindShardEpochReq: "shardepochreq", kindShardEpochResp: "shardepochresp",
	}
	for k := range kindNames {
		switch kindID(k) {
		case kindInvalid, kindRecoverLog, kindRecoverLogResp:
			if kindNames[k] != "" {
				t.Errorf("kind %d is unnamed on the wire but named %q", k, kindNames[k])
			}
		default:
			if kindNames[k] != want[kindID(k)] {
				t.Errorf("kind %d named %q, want %q", k, kindNames[k], want[kindID(k)])
			}
		}
	}
	msgs := []Message{
		NewVP{}, AcceptVP{}, CommitVP{}, Probe{}, ProbeAck{},
		RecoverRead{}, RecoverReadResp{}, CatchupReq{}, CatchupResp{},
		LockReq{}, LockResp{}, Prepare{}, Vote{}, Decide{}, DecideAck{},
		DecideQuery{}, Release{}, ClientTxn{}, ClientResult{},
		ShardEpochReq{}, ShardEpochResp{},
	}
	for _, m := range msgs {
		if got := Kind(m); got != want[kindOf(m)] {
			t.Errorf("Kind(%T) = %q, want %q", m, got, want[kindOf(m)])
		}
		var sm Message = ShardMsg{Shard: 2, Msg: m}
		if got := Kind(sm); got != "shard:"+Kind(m) {
			t.Errorf("Kind(ShardMsg{%T}) = %q, want %q", m, got, "shard:"+Kind(m))
		}
		if n := testing.AllocsPerRun(100, func() { Kind(m); Kind(sm) }); n != 0 {
			t.Errorf("Kind(%T) allocates %.1f times", m, n)
		}
	}
	if got := Kind(struct{ X int }{}); got != "unknown(struct { X int })" {
		t.Errorf("Kind of an unregistered type = %q", got)
	}
}
