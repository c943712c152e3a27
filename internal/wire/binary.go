// The wire codec: a hand-rolled binary encoding of every message kind,
// one frame per envelope, stateless between frames.
//
// Frame payload layout (after the transport's length prefix):
//
//	byte 0        0x80 | kindID        (the high bit is required: a frame
//	                                    without it — say from a peer still
//	                                    speaking the retired gob codec,
//	                                    whose frames began with the bare
//	                                    kindID — is rejected)
//	uvarint       From (ProcID)
//	uvarint       To   (ProcID)
//	...           message body, fixed field order per kind (below)
//
// Scalars, ids and versions are spelled by internal/varint; enums are
// one byte, and maps are a count plus entries sorted by key, so encoding
// is byte-deterministic.
//
// Decoding never panics on garbage: every read is bounds-checked, slice
// counts are validated against the remaining payload before any
// allocation, and trailing bytes are an error (so a frame decodes to
// exactly one message or not at all). See FuzzCodecRoundTrip.
//
// Ownership (see DESIGN.md §9): DecodeInto returns a fully owned message
// — slices are freshly allocated, strings are interned in the decoder's
// table — safe to retain or enqueue. DecodeBorrowed reuses the decoder's
// scratch backings for the top-level slice fields: the message is valid
// only until the next call on the same decoder, which is what makes a
// warm round-trip 0–1 allocations for a strictly synchronous consumer.
package wire

import (
	"encoding/binary"
	"fmt"

	"github.com/virtualpartitions/vp/internal/model"
	"github.com/virtualpartitions/vp/internal/varint"
)

// binaryKindFlag is set on the first payload byte of every frame. A
// decoder refuses a frame without it.
const binaryKindFlag = 0x80

// ctxKindFlag marks a frame as carrying a trace context: three uvarints
// (Trace, Span, Parent) follow the To field. Kind ids stop well below
// 0x40. Untraced frames never set the bit and are byte-identical to the
// pre-tracing format.
const ctxKindFlag = 0x40

// appendCtx writes a non-zero trace context.
func appendCtx(b []byte, ctx model.TraceCtx) []byte {
	b = varint.AppendU(b, ctx.Trace)
	b = varint.AppendU(b, uint64(ctx.Span))
	return varint.AppendU(b, uint64(ctx.Parent))
}

// CodecID names a wire codec. The binary codec is the only one:
// CodecBinary is the argument the deployed-stack harness
// (benchmark/probes.go) passes to NewFrameEncoder.
type CodecID uint8

// CodecBinary is the binary codec.
const CodecBinary CodecID = 0

// ---------------------------------------------------------------------------
// Encoder
// ---------------------------------------------------------------------------

// FrameEncoder encodes envelopes. It is stateless between messages, so
// any decoder can pick up any frame. The zero value is ready to use. Not
// safe for concurrent use: each connection writer owns one.
type FrameEncoder struct {
	buf []byte
}

// NewFrameEncoder returns an encoder with a warm reusable buffer. The
// codec is always CodecBinary.
func NewFrameEncoder(CodecID) *FrameEncoder {
	return &FrameEncoder{buf: make([]byte, 0, 512)}
}

// Encode serializes env without the length prefix. The returned slice is
// reused by the next call.
func (e *FrameEncoder) Encode(env *Envelope) ([]byte, error) {
	b, err := appendEnvelope(e.buf[:0], env)
	if err != nil {
		return nil, err
	}
	e.buf = b
	return b, nil
}

// EncodeFrame serializes env with the transport's length prefix in
// place. The returned slice is reused by the next call.
func (e *FrameEncoder) EncodeFrame(env *Envelope) ([]byte, error) {
	b, err := e.AppendFrame(e.buf[:0], env)
	if err != nil {
		return nil, err
	}
	e.buf = b
	return b, nil
}

// AppendFrame serializes env (length prefix included) onto dst and
// returns the extended slice, which the caller owns: the entry point for
// vectored writes, where every frame of a batch needs its own backing.
func (e *FrameEncoder) AppendFrame(dst []byte, env *Envelope) ([]byte, error) {
	start := len(dst)
	dst = append(dst, 0, 0, 0, 0) // length prefix placeholder
	dst, err := appendEnvelope(dst, env)
	if err != nil {
		return nil, err
	}
	payload := len(dst) - start - FrameHeaderLen
	if payload > MaxFrame {
		return nil, fmt.Errorf("wire: encode %s: frame exceeds %d bytes", Kind(env.Msg), MaxFrame)
	}
	binary.BigEndian.PutUint32(dst[start:], uint32(payload))
	return dst, nil
}

func appendDigest(b []byte, d *Digest) []byte {
	b = varint.AppendVersion(b, d.Newest)
	b = varint.AppendU(b, uint64(len(d.Staged)))
	for _, o := range d.Staged {
		b = varint.AppendString(b, string(o))
	}
	return b
}

// Flag bits of a LockReq, a Prepare and each ObjWrite in it. Bit 0 is the
// bool the byte used to be, so unflagged frames are byte-identical.
const (
	lockHasEpoch  = 1 << 0
	lockPatient   = 1 << 1
	prepHasEpoch  = 1 << 0
	prepRecollect = 1 << 1
	writeDelta    = 1 << 0
	writeLock     = 1 << 1
)

func appendObjWrite(b []byte, w *ObjWrite) []byte {
	b = varint.AppendString(b, string(w.Obj))
	b = varint.AppendZ(b, int64(w.Val))
	b = varint.AppendVersion(b, w.Ver)
	// One flags byte where Delta's bool was: a write without Lock encodes
	// as it always did.
	var flags byte
	if w.Delta {
		flags |= writeDelta
	}
	if w.Lock {
		flags |= writeLock
	}
	b = append(b, flags)
	b = varint.AppendProcs(b, w.MissedBy)
	if w.Lock {
		b = varint.AppendVersion(b, w.Base)
	}
	return b
}

func appendOp(b []byte, op *Op) []byte {
	b = append(b, byte(op.Kind))
	b = varint.AppendString(b, string(op.Obj))
	b = varint.AppendString(b, string(op.Src))
	b = varint.AppendZ(b, op.Const)
	return varint.AppendBool(b, op.UseSrc)
}

func appendObjVals(b []byte, vs []ObjVal) []byte {
	b = varint.AppendU(b, uint64(len(vs)))
	for i := range vs {
		b = varint.AppendString(b, string(vs[i].Obj))
		b = varint.AppendZ(b, int64(vs[i].Val))
		b = varint.AppendVersion(b, vs[i].Ver)
	}
	return b
}

// appendEnvelope writes the tagged payload (no length prefix).
func appendEnvelope(b []byte, env *Envelope) ([]byte, error) {
	k := kindOf(env.Msg)
	if k == kindInvalid {
		return nil, fmt.Errorf("wire: encode: unregistered message type %T", env.Msg)
	}
	tag := byte(k) | binaryKindFlag
	traced := !env.Ctx.IsZero()
	if traced {
		tag |= ctxKindFlag
	}
	b = append(b, tag)
	b = varint.AppendProc(b, env.From)
	b = varint.AppendProc(b, env.To)
	if traced {
		b = appendCtx(b, env.Ctx)
	}
	return appendMsgBody(b, k, env.Msg)
}

// appendMsgBody writes one message's body in the fixed per-kind field
// order. ShardMsg nests its inner message's body under an explicit bare
// kind byte, reusing every per-kind encoding unchanged.
func appendMsgBody(b []byte, k kindID, msg Message) ([]byte, error) {
	switch m := msg.(type) {
	case ShardMsg:
		ik := kindOf(m.Msg)
		if ik == kindInvalid {
			return nil, fmt.Errorf("wire: encode: unregistered message type %T in ShardMsg", m.Msg)
		}
		if ik == kindShardMsg {
			return nil, fmt.Errorf("wire: encode: nested ShardMsg")
		}
		b = varint.AppendU(b, uint64(m.Shard))
		b = append(b, byte(ik))
		return appendMsgBody(b, ik, m.Msg)
	case ShardEpochReq:
		b = varint.AppendU(b, uint64(m.Shard))
		return b, nil
	case ShardEpochResp:
		b = varint.AppendU(b, uint64(m.Shard))
		b = varint.AppendVPID(b, m.VP)
		b = varint.AppendBool(b, m.Has)
		b = varint.AppendProcs(b, m.View)
		return b, nil
	}
	switch m := msg.(type) {
	case NewVP:
		b = varint.AppendVPID(b, m.ID)
	case AcceptVP:
		b = varint.AppendVPID(b, m.ID)
		b = varint.AppendProc(b, m.From)
		b = varint.AppendVPID(b, m.Prev)
		b = appendDigest(b, &m.Digest)
	case CommitVP:
		b = varint.AppendVPID(b, m.ID)
		b = varint.AppendProcs(b, m.View)
		// Map entries sorted by key so encoding is byte-deterministic.
		b = varint.AppendU(b, uint64(len(m.Prevs)))
		for _, p := range model.SortedKeys(m.Prevs) {
			b = varint.AppendProc(b, p)
			b = varint.AppendVPID(b, m.Prevs[p])
		}
		b = varint.AppendU(b, uint64(len(m.Digests)))
		for _, p := range model.SortedKeys(m.Digests) {
			d := m.Digests[p]
			b = varint.AppendProc(b, p)
			b = appendDigest(b, &d)
		}
	case Probe:
		b = varint.AppendProc(b, m.From)
		b = varint.AppendVPID(b, m.VP)
		b = varint.AppendU(b, m.Seq)
	case ProbeAck:
		b = varint.AppendProc(b, m.From)
		b = varint.AppendU(b, m.Seq)
	case RecoverRead:
		b = varint.AppendString(b, string(m.Obj))
		b = varint.AppendVPID(b, m.VP)
		b = varint.AppendU(b, m.Seq)
	case RecoverReadResp:
		b = varint.AppendString(b, string(m.Obj))
		b = varint.AppendU(b, m.Seq)
		b = varint.AppendBool(b, m.OK)
		b = varint.AppendBool(b, m.Busy)
		b = varint.AppendZ(b, int64(m.Val))
		b = varint.AppendVersion(b, m.Ver)
		b = varint.AppendU(b, uint64(len(m.Comps)))
		for i := range m.Comps {
			b = varint.AppendProc(b, m.Comps[i].P)
			b = varint.AppendVersion(b, m.Comps[i].Ver)
			b = varint.AppendZ(b, int64(m.Comps[i].Total))
		}
	case CatchupReq:
		b = varint.AppendVPID(b, m.VP)
		b = varint.AppendU(b, uint64(len(m.Objs)))
		for i := range m.Objs {
			b = varint.AppendString(b, string(m.Objs[i].Obj))
			b = varint.AppendVersion(b, m.Objs[i].Since)
			b = varint.AppendU(b, m.Objs[i].Seq)
		}
	case CatchupResp:
		b = varint.AppendBool(b, m.OK)
		b = varint.AppendU(b, uint64(len(m.Objs)))
		for i := range m.Objs {
			o := &m.Objs[i]
			b = varint.AppendString(b, string(o.Obj))
			b = varint.AppendU(b, o.Seq)
			b = varint.AppendBool(b, o.Busy)
			b = varint.AppendBool(b, o.Complete)
			b = varint.AppendU(b, uint64(len(o.Entries)))
			for j := range o.Entries {
				b = varint.AppendZ(b, int64(o.Entries[j].Val))
				b = varint.AppendVersion(b, o.Entries[j].Ver)
			}
		}
	case LockReq:
		b = varint.AppendTxnID(b, m.Txn)
		b = varint.AppendString(b, string(m.Obj))
		b = append(b, byte(m.Mode))
		b = varint.AppendVPID(b, m.Epoch)
		var flags byte // HasEpoch in bit 0, where the bool was
		if m.HasEpoch {
			flags |= lockHasEpoch
		}
		if m.Patient {
			flags |= lockPatient
		}
		b = append(b, flags)
	case LockResp:
		b = varint.AppendTxnID(b, m.Txn)
		b = varint.AppendString(b, string(m.Obj))
		b = append(b, byte(m.Status))
		b = varint.AppendZ(b, int64(m.Val))
		b = varint.AppendVersion(b, m.Ver)
		b = varint.AppendVPID(b, m.Epoch)
		b = varint.AppendBool(b, m.HasEpoch)
		b = varint.AppendBool(b, m.HasMissing)
	case Prepare:
		b = varint.AppendTxnID(b, m.Txn)
		b = varint.AppendVPID(b, m.Epoch)
		var flags byte
		if m.HasEpoch {
			flags |= prepHasEpoch
		}
		if m.Recollect {
			flags |= prepRecollect
		}
		b = append(b, flags)
		b = varint.AppendU(b, uint64(len(m.Writes)))
		for i := range m.Writes {
			b = appendObjWrite(b, &m.Writes[i])
		}
	case Vote:
		b = varint.AppendTxnID(b, m.Txn)
		b = varint.AppendProc(b, m.From)
		// OK in bit 0, where the bool was; Why above it.
		ok := byte(m.Why) << 1
		if m.OK {
			ok |= 1
		}
		b = append(b, ok)
		b = varint.AppendVPID(b, m.Epoch)
		b = varint.AppendBool(b, m.HasEpoch)
	case Decide:
		b = varint.AppendTxnID(b, m.Txn)
		b = varint.AppendBool(b, m.Commit)
	case DecideAck:
		b = varint.AppendTxnID(b, m.Txn)
		b = varint.AppendProc(b, m.From)
	case DecideQuery:
		b = varint.AppendTxnID(b, m.Txn)
		b = varint.AppendProc(b, m.From)
	case Release:
		b = varint.AppendTxnID(b, m.Txn)
		b = varint.AppendString(b, string(m.Obj))
	case ClientTxn:
		b = varint.AppendU(b, m.Tag)
		b = varint.AppendU(b, uint64(len(m.Ops)))
		for i := range m.Ops {
			b = appendOp(b, &m.Ops[i])
		}
	case ClientResult:
		b = varint.AppendU(b, m.Tag)
		b = varint.AppendTxnID(b, m.Txn)
		b = varint.AppendBool(b, m.Committed)
		b = varint.AppendBool(b, m.Denied)
		b = varint.AppendString(b, m.Reason)
		b = appendObjVals(b, m.Reads)
		b = appendObjVals(b, m.Writes)
	default:
		return nil, fmt.Errorf("wire: encode: unhandled kind %d", k)
	}
	return b, nil
}

// ---------------------------------------------------------------------------
// Decoder
// ---------------------------------------------------------------------------

// errDecode is the sticky cursor error. It deliberately carries no
// position detail: a bad frame is dropped whole, and the transport tears
// the connection down.
var errDecode = fmt.Errorf("wire: decode: malformed binary frame")

// errNotBinary refuses a frame whose first byte lacks binaryKindFlag.
var errNotBinary = fmt.Errorf("wire: decode: first byte lacks the binary kind bit")

// binScratch holds the reusable backings DecodeBorrowed hands out. One
// instance per decoder; the contract is "valid until the next decode".
type binScratch struct {
	writes []ObjWrite
	ops    []Op
	reads  []ObjVal
	wvals  []ObjVal
	comps  []CompEntry
	sinces []ObjSince
	deltas []ObjDelta
	view   []model.ProcID
}

// internCap bounds the decoder's string table; internMaxLen bounds which
// strings are worth interning. Object ids come from a small fixed
// namespace, so the table converges and every warm decode reuses the
// same immutable string (zero allocations, safe to retain).
const (
	internCap    = 4096
	internMaxLen = 64
)

// Decoder decodes frames. Stateless across frames except for the intern
// table and borrowed-mode scratch, so frames may be lost or reordered
// without desynchronizing it. Not safe for concurrent use: each
// connection reader owns one.
type Decoder struct {
	tab map[string]string
	scr binScratch
}

// NewDecoder returns a decoder with an empty intern table.
func NewDecoder() *Decoder {
	return &Decoder{tab: make(map[string]string)}
}

// intern returns an owned, immutable string for b, reusing a previous
// copy when one exists. The map lookup on a []byte key does not
// allocate; only the first sighting of a string pays for its copy.
func (d *Decoder) intern(b []byte) string {
	if len(b) == 0 {
		return ""
	}
	if s, ok := d.tab[string(b)]; ok {
		return s
	}
	s := string(b)
	if len(d.tab) < internCap && len(s) <= internMaxLen {
		d.tab[s] = s
	}
	return s
}

func (d *Decoder) str(c *varint.Cursor) string { return d.intern(c.StrBytes()) }

func (d *Decoder) obj(c *varint.Cursor) model.ObjectID { return model.ObjectID(d.str(c)) }

// digest reads a write digest, always owned: digests are retained past
// the next decode.
func (d *Decoder) digest(c *varint.Cursor) Digest {
	dg := Digest{Newest: c.Version()}
	if n := c.Count(1); n > 0 && !c.Bad() {
		dg.Staged = make([]model.ObjectID, n)
		for i := 0; i < n && !c.Bad(); i++ {
			dg.Staged[i] = d.obj(c)
		}
	}
	return dg
}

// DecodeInto decodes one frame into env, producing a fully owned
// message: slices are freshly allocated and strings interned, so the
// result may be retained or enqueued freely. This is the transports'
// mode.
func (d *Decoder) DecodeInto(frame []byte, env *Envelope) error {
	return d.decode(frame, env, false)
}

// DecodeBorrowed decodes one frame into env reusing the decoder's
// scratch backings for top-level slice fields: the message is valid only
// until the next decode on this decoder, and a consumer that retains it
// must copy. Warm decodes of any kind cost at most the one interface
// boxing allocation.
func (d *Decoder) DecodeBorrowed(frame []byte, env *Envelope) error {
	return d.decode(frame, env, true)
}

// Decode is DecodeInto returning the envelope by value.
func (d *Decoder) Decode(frame []byte) (Envelope, error) {
	var env Envelope
	if err := d.DecodeInto(frame, &env); err != nil {
		return Envelope{}, err
	}
	return env, nil
}

func borrow[T any](scr *[]T, n int, borrowed bool) []T {
	if n == 0 {
		return nil
	}
	if borrowed {
		if cap(*scr) < n {
			*scr = make([]T, n, n+n/2+4)
		}
		return (*scr)[:n]
	}
	return make([]T, n)
}

func (d *Decoder) decode(frame []byte, env *Envelope, borrowed bool) error {
	if len(frame) < 1 {
		return errDecode
	}
	if frame[0]&binaryKindFlag == 0 {
		return errNotBinary
	}
	k := kindID(frame[0] &^ (binaryKindFlag | ctxKindFlag))
	c := varint.NewCursor(frame[1:])
	from := c.Proc()
	to := c.Proc()
	var ctx model.TraceCtx
	if frame[0]&ctxKindFlag != 0 {
		ctx = model.TraceCtx{Trace: c.U(), Span: uint32(c.U()), Parent: uint32(c.U())}
	}
	msg, err := d.decodeBody(&c, k, borrowed)
	if err != nil {
		return err
	}
	if !c.Done() {
		return errDecode
	}
	env.From, env.To, env.Msg, env.Ctx = from, to, msg, ctx
	return nil
}

// decodeBody decodes one message body of kind k at the cursor. ShardMsg
// recurses exactly once for its inner body (nesting is rejected) and
// always decodes the inner message owned: routers re-dispatch it across
// handler boundaries, where a borrowed backing would be unsafe.
func (d *Decoder) decodeBody(c *varint.Cursor, k kindID, borrowed bool) (Message, error) {
	var msg Message
	switch k {
	case kindShardMsg:
		shard := model.ShardID(c.U())
		ik := kindID(c.Byte())
		if c.Bad() {
			return nil, errDecode
		}
		if ik == kindShardMsg {
			return nil, errDecode
		}
		inner, err := d.decodeBody(c, ik, false)
		if err != nil {
			return nil, err
		}
		return ShardMsg{Shard: shard, Msg: inner}, nil
	case kindShardEpochReq:
		return ShardEpochReq{Shard: model.ShardID(c.U())}, nil
	case kindShardEpochResp:
		return ShardEpochResp{Shard: model.ShardID(c.U()), VP: c.VPID(), Has: c.Bool(), View: c.Procs()}, nil
	}
	switch k {
	case kindNewVP:
		msg = NewVP{ID: c.VPID()}
	case kindAcceptVP:
		msg = AcceptVP{ID: c.VPID(), From: c.Member(), Prev: c.VPID(), Digest: d.digest(c)}
	case kindCommitVP:
		m := CommitVP{ID: c.VPID()}
		n := c.Count(1)
		m.View = borrow(&d.scr.view, n, borrowed)
		for i := 0; i < n && !c.Bad(); i++ {
			m.View[i] = c.Member()
		}
		pn := c.Count(3)
		if pn > 0 && !c.Bad() {
			m.Prevs = make(map[model.ProcID]model.VPID, pn)
			for i := 0; i < pn && !c.Bad(); i++ {
				p := c.Proc()
				m.Prevs[p] = c.VPID()
			}
		}
		if dn := c.Count(8); dn > 0 && !c.Bad() {
			m.Digests = make(map[model.ProcID]Digest, dn)
			for i := 0; i < dn && !c.Bad(); i++ {
				p := c.Proc()
				m.Digests[p] = d.digest(c)
			}
		}
		msg = m
	case kindProbe:
		msg = Probe{From: c.Proc(), VP: c.VPID(), Seq: c.U()}
	case kindProbeAck:
		msg = ProbeAck{From: c.Proc(), Seq: c.U()}
	case kindRecoverRead:
		msg = RecoverRead{Obj: d.obj(c), VP: c.VPID(), Seq: c.U()}
	case kindRecoverReadResp:
		m := RecoverReadResp{Obj: d.obj(c), Seq: c.U(), OK: c.Bool(), Busy: c.Bool(),
			Val: model.Value(c.Z()), Ver: c.Version()}
		n := c.Count(6)
		m.Comps = borrow(&d.scr.comps, n, borrowed)
		for i := 0; i < n && !c.Bad(); i++ {
			m.Comps[i] = CompEntry{P: c.Proc(), Ver: c.Version(), Total: model.Value(c.Z())}
		}
		msg = m
	case kindCatchupReq:
		m := CatchupReq{VP: c.VPID()}
		n := c.Count(8)
		m.Objs = borrow(&d.scr.sinces, n, borrowed)
		for i := 0; i < n && !c.Bad(); i++ {
			m.Objs[i] = ObjSince{Obj: d.obj(c), Since: c.Version(), Seq: c.U()}
		}
		msg = m
	case kindCatchupResp:
		m := CatchupResp{OK: c.Bool()}
		n := c.Count(5)
		m.Objs = borrow(&d.scr.deltas, n, borrowed)
		for i := 0; i < n && !c.Bad(); i++ {
			o := &m.Objs[i]
			o.Obj = d.obj(c)
			o.Seq = c.U()
			o.Busy = c.Bool()
			o.Complete = c.Bool()
			// Entries nest inside the borrowed Objs slice, so they are
			// allocated fresh even in borrowed mode (same policy as
			// Prepare.MissedBy: nested backings are not worth the scratch
			// bookkeeping).
			en := c.Count(6)
			if en > 0 && !c.Bad() {
				o.Entries = make([]model.Copy, en)
				for j := 0; j < en && !c.Bad(); j++ {
					o.Entries[j] = model.Copy{Val: model.Value(c.Z()), Ver: c.Version()}
				}
			} else {
				o.Entries = nil
			}
		}
		msg = m
	case kindLockReq:
		m := LockReq{Txn: c.TxnID(), Obj: d.obj(c), Mode: model.LockMode(c.Byte()), Epoch: c.VPID()}
		lf := c.Byte()
		m.HasEpoch, m.Patient = lf&lockHasEpoch != 0, lf&lockPatient != 0
		msg = m
	case kindLockResp:
		msg = LockResp{Txn: c.TxnID(), Obj: d.obj(c), Status: LockStatus(c.Byte()),
			Val: model.Value(c.Z()), Ver: c.Version(), Epoch: c.VPID(),
			HasEpoch: c.Bool(), HasMissing: c.Bool()}
	case kindPrepare:
		m := Prepare{Txn: c.TxnID(), Epoch: c.VPID()}
		pf := c.Byte()
		m.HasEpoch, m.Recollect = pf&prepHasEpoch != 0, pf&prepRecollect != 0
		n := c.Count(8)
		m.Writes = borrow(&d.scr.writes, n, borrowed)
		for i := 0; i < n && !c.Bad(); i++ {
			w := &m.Writes[i]
			w.Obj = d.obj(c)
			w.Val = model.Value(c.Z())
			w.Ver = c.Version()
			wf := c.Byte()
			w.Delta, w.Lock = wf&writeDelta != 0, wf&writeLock != 0
			// MissedBy is almost always empty; when present it is
			// allocated fresh even in borrowed mode (nested backings are
			// not worth the scratch bookkeeping).
			w.MissedBy = c.Procs()
			w.Base = model.Version{}
			if w.Lock {
				w.Base = c.Version()
			}
		}
		msg = m
	case kindVote:
		m := Vote{Txn: c.TxnID(), From: c.Proc()}
		ok := c.Byte()
		m.OK, m.Why = ok&1 != 0, NoVote(ok>>1)
		m.Epoch, m.HasEpoch = c.VPID(), c.Bool()
		msg = m
	case kindDecide:
		msg = Decide{Txn: c.TxnID(), Commit: c.Bool()}
	case kindDecideAck:
		msg = DecideAck{Txn: c.TxnID(), From: c.Proc()}
	case kindDecideQuery:
		msg = DecideQuery{Txn: c.TxnID(), From: c.Proc()}
	case kindRelease:
		msg = Release{Txn: c.TxnID(), Obj: d.obj(c)}
	case kindClientTxn:
		m := ClientTxn{Tag: c.U()}
		n := c.Count(5)
		m.Ops = borrow(&d.scr.ops, n, borrowed)
		for i := 0; i < n && !c.Bad(); i++ {
			op := &m.Ops[i]
			op.Kind = OpKind(c.Byte())
			op.Obj = d.obj(c)
			op.Src = model.ObjectID(d.str(c))
			op.Const = c.Z()
			op.UseSrc = c.Bool()
		}
		msg = m
	case kindClientResult:
		m := ClientResult{Tag: c.U(), Txn: c.TxnID(), Committed: c.Bool(), Denied: c.Bool(),
			Reason: d.str(c)}
		rn := c.Count(4)
		m.Reads = borrow(&d.scr.reads, rn, borrowed)
		for i := 0; i < rn && !c.Bad(); i++ {
			m.Reads[i] = ObjVal{Obj: d.obj(c), Val: model.Value(c.Z()), Ver: c.Version()}
		}
		wn := c.Count(4)
		m.Writes = borrow(&d.scr.wvals, wn, borrowed)
		for i := 0; i < wn && !c.Bad(); i++ {
			m.Writes[i] = ObjVal{Obj: d.obj(c), Val: model.Value(c.Z()), Ver: c.Version()}
		}
		msg = m
	default:
		return nil, fmt.Errorf("wire: decode: unknown binary message kind %d", k)
	}
	return msg, nil
}
