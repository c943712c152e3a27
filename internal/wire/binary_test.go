package wire

import (
	"bytes"
	"reflect"
	"testing"

	"github.com/virtualpartitions/vp/internal/model"
)

// binaryEnvelopes is one envelope per message kind with edge values the
// binary codec must get right: zero and large ids, negative signed
// fields, empty and non-empty strings, multi-entry maps (sort order),
// nested slices.
func binaryEnvelopes() []Envelope {
	vp := model.VPID{N: 7, P: 3}
	big := model.VPID{N: 1 << 40, P: 300}
	txn := model.TxnID{Start: -1234567, P: 2, Seq: 5}
	ver := model.Version{Date: vp, Ctr: 4, Writer: txn}
	return []Envelope{
		{From: 1, To: 2, Msg: NewVP{ID: big}},
		{From: 2, To: 1, Msg: AcceptVP{ID: vp, From: 2, Prev: model.VPID{N: 6, P: 1}}},
		{From: 1, To: 2, Msg: CommitVP{ID: vp, View: []model.ProcID{3, 1, 2},
			Prevs: map[model.ProcID]model.VPID{3: {N: 1, P: 3}, 1: {N: 6, P: 1}, 2: {N: 2, P: 2}}}},
		{From: 1, To: 2, Msg: Probe{From: 1, VP: vp, Seq: 1 << 50}},
		{From: 2, To: 1, Msg: ProbeAck{From: 2, Seq: 9}},
		{From: 1, To: 2, Msg: RecoverRead{Obj: "account/7", VP: vp, Seq: 1}},
		{From: 2, To: 1, Msg: RecoverReadResp{Obj: "x", Seq: 1, OK: true, Busy: true, Val: -42, Ver: ver,
			Comps: []CompEntry{{P: 1, Ver: ver, Total: -3}, {P: 2, Total: 8}}}},
		// The two edge shapes of a catch-up round: a request with no
		// objects, and a refusal (OK false, nothing attached).
		{From: 1, To: 2, Msg: CatchupReq{VP: vp}},
		{From: 2, To: 1, Msg: CatchupResp{}},
		{From: 1, To: 2, Msg: LockReq{Txn: txn, Obj: "x", Mode: model.LockExclusive, Epoch: vp, HasEpoch: true}},
		{From: 1, To: 2, Msg: LockReq{Txn: txn, Obj: "x", Mode: model.LockShared, Patient: true}},
		{From: 2, To: 1, Msg: LockResp{Txn: txn, Obj: "x", Status: LockWrongEpoch, Val: 5, Ver: ver,
			Epoch: vp, HasEpoch: true, HasMissing: true}},
		{From: 1, To: 2, Msg: Prepare{Txn: txn, Epoch: vp, HasEpoch: true,
			Writes: []ObjWrite{
				{Obj: "x", Val: 6, Ver: ver, MissedBy: []model.ProcID{3, 9}},
				{Obj: "y", Val: -6, Ver: ver, Delta: true},
				{Obj: "z", Val: 1, Ver: ver, Lock: true, Base: model.Version{Date: big, Ctr: 4, Writer: txn}},
			}}},
		{From: 1, To: 2, Msg: Prepare{Txn: txn, Epoch: vp, HasEpoch: true, Recollect: true}},
		{From: 2, To: 1, Msg: Vote{Txn: txn, From: 2, OK: true, Epoch: vp, HasEpoch: true}},
		{From: 2, To: 1, Msg: Vote{Txn: txn, From: 2, Why: NoBaseVersion, Epoch: vp, HasEpoch: true}},
		{From: 1, To: 2, Msg: Decide{Txn: txn, Commit: true}},
		{From: 2, To: 1, Msg: DecideAck{Txn: txn, From: 2}},
		{From: 2, To: 1, Msg: DecideQuery{Txn: txn, From: 2}},
		{From: 1, To: 2, Msg: Release{Txn: txn, Obj: ""}},
		{From: 0, To: 1, Msg: ClientTxn{Tag: 3, Ops: IncrementOps("x", -1)}},
		{From: 1, To: 0, Msg: ClientResult{Tag: 3, Txn: txn, Committed: false, Denied: true,
			Reason: "object y inaccessible",
			Reads:  []ObjVal{{Obj: "x", Val: 7, Ver: ver}},
			Writes: []ObjVal{{Obj: "y", Val: 8, Ver: ver}}}},
		{From: 1, To: 2, Msg: CatchupReq{VP: big, Objs: []ObjSince{
			{Obj: "x", Since: ver, Seq: 1},
			{Obj: "account/7", Seq: 1 << 33}}}},
		{From: 2, To: 1, Msg: CatchupResp{OK: true, Objs: []ObjDelta{
			{Obj: "x", Seq: 1, Complete: true,
				Entries: []model.Copy{{Val: 3, Ver: ver}, {Val: -7, Ver: model.Version{Date: big}}}},
			{Obj: "account/7", Seq: 1 << 33, Busy: true}}}},
		{From: 1, To: 2, Msg: ShardMsg{Shard: 3,
			Msg: LockReq{Txn: txn, Obj: "x", Mode: model.LockShared, Epoch: vp, HasEpoch: true}}},
		{From: 2, To: 1, Msg: ShardMsg{Shard: 1 << 20,
			Msg: Prepare{Txn: txn, Epoch: vp, HasEpoch: true,
				Writes: []ObjWrite{{Obj: "x", Val: 6, Ver: ver, MissedBy: []model.ProcID{3}}}}}},
		{From: 3, To: 2, Msg: ShardMsg{Shard: 2, Msg: CommitVP{ID: vp, View: []model.ProcID{1, 2, 3},
			Prevs: map[model.ProcID]model.VPID{1: {N: 6, P: 1}}}}},
		{From: 1, To: 2, Msg: ShardEpochReq{Shard: 4}},
		{From: 2, To: 1, Msg: ShardEpochResp{Shard: 4, VP: big, Has: true,
			View: []model.ProcID{2, 4, 5}}},
		// Formation carrying write digests (the ones above carry empty ones).
		{From: 2, To: 1, Msg: AcceptVP{ID: vp, From: 2, Prev: model.VPID{N: 6, P: 1},
			Digest: Digest{Newest: ver, Staged: []model.ObjectID{"account/7", "x"}}}},
		{From: 1, To: 2, Msg: CommitVP{ID: vp, View: []model.ProcID{1, 2, 3},
			Prevs: map[model.ProcID]model.VPID{1: {N: 6, P: 1}, 2: {N: 6, P: 1}, 3: {N: 2, P: 3}},
			Digests: map[model.ProcID]Digest{
				3: {Newest: model.Version{Date: big, Ctr: 1 << 35, Writer: txn}},
				1: {Newest: ver, Staged: []model.ObjectID{"x"}},
				2: {Staged: []model.ObjectID{"y", ""}},
			}}},
	}
}

// TestBinaryCodecAllKinds round-trips every message kind through the
// binary codec in owned mode, twice, over one persistent encoder/decoder
// pair (the second pass exercises a warm intern table).
func TestBinaryCodecAllKinds(t *testing.T) {
	enc := new(FrameEncoder)
	dec := NewDecoder()
	for pass := 0; pass < 2; pass++ {
		for _, env := range binaryEnvelopes() {
			frame, err := enc.Encode(&env)
			if err != nil {
				t.Fatalf("pass %d: encode %s: %v", pass, Kind(env.Msg), err)
			}
			got, err := dec.Decode(frame)
			if err != nil {
				t.Fatalf("pass %d: decode %s: %v", pass, Kind(env.Msg), err)
			}
			if !reflect.DeepEqual(got, env) {
				t.Errorf("pass %d: round trip of %s:\n got %#v\nwant %#v",
					pass, Kind(env.Msg), got, env)
			}
		}
	}
}

// TestBinaryCodecBorrowed checks borrowed-mode decoding: the result must
// equal the input while current, and the next decode may reuse its
// backings (which is the documented contract, not corruption).
func TestBinaryCodecBorrowed(t *testing.T) {
	enc := new(FrameEncoder)
	dec := NewDecoder()
	for _, env := range binaryEnvelopes() {
		frame, err := enc.Encode(&env)
		if err != nil {
			t.Fatalf("encode %s: %v", Kind(env.Msg), err)
		}
		var got Envelope
		if err := dec.DecodeBorrowed(frame, &got); err != nil {
			t.Fatalf("decode %s: %v", Kind(env.Msg), err)
		}
		if !reflect.DeepEqual(got, env) {
			t.Errorf("borrowed round trip of %s:\n got %#v\nwant %#v",
				Kind(env.Msg), got, env)
		}
	}
}

// TestBinaryOwnedSurvivesReuse pins the ownership contract: an owned
// decode must stay intact after the decoder processes more frames,
// because transports enqueue decoded messages into an async mailbox.
func TestBinaryOwnedSurvivesReuse(t *testing.T) {
	enc := new(FrameEncoder)
	dec := NewDecoder()
	first := Envelope{From: 1, To: 2, Msg: Prepare{
		Txn:    model.TxnID{Start: 1, P: 1, Seq: 1},
		Writes: []ObjWrite{{Obj: "x", Val: 42}},
	}}
	frame, err := enc.Encode(&first)
	if err != nil {
		t.Fatal(err)
	}
	got, err := dec.Decode(frame)
	if err != nil {
		t.Fatal(err)
	}
	// Hammer the decoder with different payloads that would overwrite any
	// shared backing.
	for i := 0; i < 8; i++ {
		clobber := Envelope{From: 3, To: 4, Msg: Prepare{
			Txn:    model.TxnID{Start: 99, P: 9, Seq: uint64(i)},
			Writes: []ObjWrite{{Obj: "zzz", Val: -1}, {Obj: "q", Val: 7}},
		}}
		f2, err := enc.Encode(&clobber)
		if err != nil {
			t.Fatal(err)
		}
		if _, err := dec.Decode(f2); err != nil {
			t.Fatal(err)
		}
	}
	if !reflect.DeepEqual(got, first) {
		t.Fatalf("owned decode mutated by later decodes:\n got %#v\nwant %#v", got, first)
	}
}

// TestBinaryDeterministic: encoding the same envelope must produce the
// same bytes every time, including map-carrying messages (CommitVP.Prevs
// and CommitVP.Digests are encoded in sorted key order).
func TestBinaryDeterministic(t *testing.T) {
	env := Envelope{From: 1, To: 2, Msg: CommitVP{
		ID:   model.VPID{N: 9, P: 1},
		View: []model.ProcID{1, 2, 3, 4},
		Prevs: map[model.ProcID]model.VPID{
			4: {N: 4, P: 4}, 2: {N: 2, P: 2}, 1: {N: 1, P: 1}, 3: {N: 3, P: 3},
		},
		Digests: map[model.ProcID]Digest{
			4: {Staged: []model.ObjectID{"d"}}, 2: {Newest: model.Version{Ctr: 2}},
			1: {Staged: []model.ObjectID{"a", "b"}}, 3: {},
		},
	}}
	var first []byte
	for i := 0; i < 8; i++ {
		b, err := new(FrameEncoder).Encode(&env)
		if err != nil {
			t.Fatal(err)
		}
		if i == 0 {
			first = append([]byte(nil), b...)
			continue
		}
		if !bytes.Equal(b, first) {
			t.Fatalf("encode %d differs from first:\n %x\nvs %x", i, b, first)
		}
	}
}

// TestBinaryFrameFraming checks EncodeFrame's length prefix and that
// AppendFrame composes frames onto one buffer without corrupting either.
func TestBinaryFrameFraming(t *testing.T) {
	enc := new(FrameEncoder)
	dec := NewDecoder()
	env1 := Envelope{From: 1, To: 2, Msg: Decide{Commit: true}}
	env2 := Envelope{From: 2, To: 1, Msg: ProbeAck{From: 2, Seq: 8}}
	frame, err := enc.EncodeFrame(&env1)
	if err != nil {
		t.Fatal(err)
	}
	size := int(uint32(frame[0])<<24 | uint32(frame[1])<<16 | uint32(frame[2])<<8 | uint32(frame[3]))
	if size != len(frame)-FrameHeaderLen {
		t.Fatalf("length prefix %d != payload %d", size, len(frame)-FrameHeaderLen)
	}
	if got, err := dec.Decode(frame[FrameHeaderLen:]); err != nil || !reflect.DeepEqual(got, env1) {
		t.Fatalf("decode framed: %v %#v", err, got)
	}

	var batch []byte
	batch, err = enc.AppendFrame(batch, &env1)
	if err != nil {
		t.Fatal(err)
	}
	n1 := len(batch)
	batch, err = enc.AppendFrame(batch, &env2)
	if err != nil {
		t.Fatal(err)
	}
	if got, err := dec.Decode(batch[FrameHeaderLen:n1]); err != nil || !reflect.DeepEqual(got, env1) {
		t.Fatalf("decode first of batch: %v %#v", err, got)
	}
	if got, err := dec.Decode(batch[n1+FrameHeaderLen:]); err != nil || !reflect.DeepEqual(got, env2) {
		t.Fatalf("decode second of batch: %v %#v", err, got)
	}
}

// TestBinaryDecodeGarbage throws malformed frames at the decoder: all
// must error, none may panic, and truncations of valid frames must never
// decode (the codec has no optional trailing fields).
func TestBinaryDecodeGarbage(t *testing.T) {
	dec := NewDecoder()
	bad := [][]byte{
		nil,
		{},
		{0x80},                     // kindInvalid
		{0x80 | 21},                // kind out of range
		{0x01},                     // binary bit missing
		{0x80 | byte(kindPrepare)}, // truncated header
		{0x80 | byte(kindClientTxn), 1, 2, 0xff, 0xff, 0xff, 0xff, 0xff}, // huge count
		bytes.Repeat([]byte{0xff}, 64),
	}
	for i, b := range bad {
		if _, err := dec.Decode(b); err == nil {
			t.Errorf("case %d (% x): expected error", i, b)
		}
	}
	enc := new(FrameEncoder)
	for _, env := range binaryEnvelopes() {
		full, err := enc.Encode(&env)
		if err != nil {
			t.Fatal(err)
		}
		for n := 0; n < len(full); n++ {
			if _, err := dec.Decode(full[:n]); err == nil {
				t.Fatalf("%s truncated to %d/%d bytes decoded without error",
					Kind(env.Msg), n, len(full))
			}
		}
		withJunk := append(append([]byte(nil), full...), 0)
		if _, err := dec.Decode(withJunk); err == nil {
			t.Fatalf("%s with trailing junk decoded without error", Kind(env.Msg))
		}
	}
}

// TestBinaryRoundTripAllocBudget is the perf gate of ISSUE 6: a warm
// binary-codec round-trip (encode + borrowed decode) must cost at most 1
// allocation — the interface boxing of the decoded message — and the
// encode half exactly 0.
func TestBinaryRoundTripAllocBudget(t *testing.T) {
	env := benchEnvelope()
	enc := new(FrameEncoder)
	dec := NewDecoder()
	var scratch Envelope
	// Warm: buffer growth, intern-table fill.
	frame, err := enc.Encode(&env)
	if err != nil {
		t.Fatal(err)
	}
	if err := dec.DecodeBorrowed(frame, &scratch); err != nil {
		t.Fatal(err)
	}
	encAllocs := testing.AllocsPerRun(200, func() {
		if _, err := enc.Encode(&env); err != nil {
			t.Fatal(err)
		}
	})
	if encAllocs != 0 {
		t.Errorf("warm binary encode costs %.1f allocs/op, want 0", encAllocs)
	}
	allocs := testing.AllocsPerRun(200, func() {
		frame, err := enc.Encode(&env)
		if err != nil {
			t.Fatal(err)
		}
		if err := dec.DecodeBorrowed(frame, &scratch); err != nil {
			t.Fatal(err)
		}
	})
	if allocs > 1 {
		t.Fatalf("warm binary round-trip costs %.1f allocs/op, want <= 1", allocs)
	}
}

// TestCodecSelection covers the constructor the deployed-stack harness
// calls: NewFrameEncoder(CodecBinary) frames decode through NewDecoder.
func TestCodecSelection(t *testing.T) {
	enc := NewFrameEncoder(CodecBinary)
	dec := NewDecoder()
	env := Envelope{From: 1, To: 2, Msg: Probe{From: 1, VP: model.VPID{N: 1, P: 1}, Seq: 4}}
	frame, err := enc.EncodeFrame(&env)
	if err != nil {
		t.Fatal(err)
	}
	got, err := dec.Decode(frame[FrameHeaderLen:])
	if err != nil || !reflect.DeepEqual(got, env) {
		t.Fatalf("frame through Decoder: %v %#v", err, got)
	}
}

// TestInternTableBounded makes sure a hostile peer cannot grow the
// decoder's intern table without limit.
func TestInternTableBounded(t *testing.T) {
	d := NewDecoder()
	buf := make([]byte, 0, 64)
	for i := 0; i < internCap+100; i++ {
		buf = buf[:0]
		buf = append(buf, byte('a'+i%26))
		for v := i; v > 0; v /= 10 {
			buf = append(buf, byte('0'+v%10))
		}
		d.intern(buf)
	}
	if len(d.tab) > internCap {
		t.Fatalf("intern table grew to %d entries, cap is %d", len(d.tab), internCap)
	}
	// Oversized strings are returned but never retained.
	big := bytes.Repeat([]byte{'x'}, internMaxLen+1)
	before := len(d.tab)
	if got := d.intern(big); got != string(big) {
		t.Fatal("oversized string mangled")
	}
	if len(d.tab) != before {
		t.Fatal("oversized string interned")
	}
}
