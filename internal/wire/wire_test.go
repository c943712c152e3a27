package wire

import (
	"testing"
)

func TestKindCoversAllMessages(t *testing.T) {
	msgs := []Message{
		NewVP{}, AcceptVP{}, CommitVP{}, Probe{}, ProbeAck{},
		RecoverRead{}, RecoverReadResp{}, RecoverLog{}, RecoverLogResp{},
		LockReq{}, LockResp{}, Prepare{}, Vote{}, Decide{}, DecideAck{},
		DecideQuery{}, Release{}, ClientTxn{}, ClientResult{},
	}
	seen := map[string]bool{}
	for _, m := range msgs {
		k := Kind(m)
		if k == "" || seen[k] {
			t.Fatalf("Kind(%T) = %q (empty or duplicate)", m, k)
		}
		if len(k) > 7 && k[:7] == "unknown" {
			t.Fatalf("Kind(%T) unknown", m)
		}
		seen[k] = true
	}
	if Kind(struct{ X int }{})[:7] != "unknown" {
		t.Fatal("unregistered type should be unknown")
	}
}

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
