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
// Scalar encodings:
//
//	unsigned ints (seqnos, counters, tags)  uvarint
//	signed ints   (values, deltas, starts)  zigzag uvarint
//	processor ids                           uvarint of the two's-complement
//	bools / enums                           one byte
//	strings (object ids, reasons)           uvarint length + raw bytes
//	slices / maps                           uvarint count + elements
//	                                        (map entries sorted by key, so
//	                                        encoding is byte-deterministic)
//
// Composite encodings:
//
//	VPID     = uvarint N, proc P
//	TxnID    = zigzag Start, proc P, uvarint Seq
//	Version  = VPID Date, uvarint Ctr, TxnID Writer
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
	"sort"

	"github.com/virtualpartitions/vp/internal/model"
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
	b = appendUvarint(b, ctx.Trace)
	b = appendUvarint(b, uint64(ctx.Span))
	return appendUvarint(b, uint64(ctx.Parent))
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

func appendUvarint(b []byte, v uint64) []byte {
	// Single-byte fast path: ids, counts, and small counters dominate.
	if v < 0x80 {
		return append(b, byte(v))
	}
	return binary.AppendUvarint(b, v)
}

// appendZigzag encodes a signed integer as a zigzag uvarint.
func appendZigzag(b []byte, v int64) []byte {
	return binary.AppendUvarint(b, uint64(v<<1)^uint64(v>>63))
}

func appendProc(b []byte, p model.ProcID) []byte {
	return appendUvarint(b, uint64(p))
}

func appendBool(b []byte, v bool) []byte {
	if v {
		return append(b, 1)
	}
	return append(b, 0)
}

func appendString(b []byte, s string) []byte {
	b = appendUvarint(b, uint64(len(s)))
	return append(b, s...)
}

func appendVPID(b []byte, v model.VPID) []byte {
	b = appendUvarint(b, v.N)
	return appendProc(b, v.P)
}

func appendTxnID(b []byte, t model.TxnID) []byte {
	b = appendZigzag(b, t.Start)
	b = appendProc(b, t.P)
	return appendUvarint(b, t.Seq)
}

func appendVersion(b []byte, v model.Version) []byte {
	b = appendVPID(b, v.Date)
	b = appendUvarint(b, v.Ctr)
	return appendTxnID(b, v.Writer)
}

func appendProcs(b []byte, ps []model.ProcID) []byte {
	b = appendUvarint(b, uint64(len(ps)))
	for _, p := range ps {
		b = appendProc(b, p)
	}
	return b
}

func appendDigest(b []byte, d *Digest) []byte {
	b = appendVersion(b, d.Newest)
	b = appendUvarint(b, uint64(len(d.Staged)))
	for _, o := range d.Staged {
		b = appendString(b, string(o))
	}
	return b
}

// sortedKeys returns a per-processor map's keys in ascending order, so
// map-carrying messages encode byte-deterministically.
func sortedKeys[V any](m map[model.ProcID]V) []model.ProcID {
	ps := make([]model.ProcID, 0, len(m))
	for p := range m {
		ps = append(ps, p)
	}
	sort.Slice(ps, func(i, j int) bool { return ps[i] < ps[j] })
	return ps
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
	b = appendString(b, string(w.Obj))
	b = appendZigzag(b, int64(w.Val))
	b = appendVersion(b, w.Ver)
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
	b = appendProcs(b, w.MissedBy)
	if w.Lock {
		b = appendVersion(b, w.Base)
	}
	return b
}

func appendOp(b []byte, op *Op) []byte {
	b = append(b, byte(op.Kind))
	b = appendString(b, string(op.Obj))
	b = appendString(b, string(op.Src))
	b = appendZigzag(b, op.Const)
	return appendBool(b, op.UseSrc)
}

func appendObjVals(b []byte, vs []ObjVal) []byte {
	b = appendUvarint(b, uint64(len(vs)))
	for i := range vs {
		b = appendString(b, string(vs[i].Obj))
		b = appendZigzag(b, int64(vs[i].Val))
		b = appendVersion(b, vs[i].Ver)
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
	b = appendProc(b, env.From)
	b = appendProc(b, env.To)
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
		b = appendUvarint(b, uint64(m.Shard))
		b = append(b, byte(ik))
		return appendMsgBody(b, ik, m.Msg)
	case ShardEpochReq:
		b = appendUvarint(b, uint64(m.Shard))
		return b, nil
	case ShardEpochResp:
		b = appendUvarint(b, uint64(m.Shard))
		b = appendVPID(b, m.VP)
		b = appendBool(b, m.Has)
		b = appendProcs(b, m.View)
		return b, nil
	}
	switch m := msg.(type) {
	case NewVP:
		b = appendVPID(b, m.ID)
	case AcceptVP:
		b = appendVPID(b, m.ID)
		b = appendProc(b, m.From)
		b = appendVPID(b, m.Prev)
		b = appendDigest(b, &m.Digest)
	case CommitVP:
		b = appendVPID(b, m.ID)
		b = appendProcs(b, m.View)
		// Map entries sorted by key so encoding is byte-deterministic.
		b = appendUvarint(b, uint64(len(m.Prevs)))
		for _, p := range sortedKeys(m.Prevs) {
			b = appendProc(b, p)
			b = appendVPID(b, m.Prevs[p])
		}
		b = appendUvarint(b, uint64(len(m.Digests)))
		for _, p := range sortedKeys(m.Digests) {
			d := m.Digests[p]
			b = appendProc(b, p)
			b = appendDigest(b, &d)
		}
	case Probe:
		b = appendProc(b, m.From)
		b = appendVPID(b, m.VP)
		b = appendUvarint(b, m.Seq)
	case ProbeAck:
		b = appendProc(b, m.From)
		b = appendUvarint(b, m.Seq)
	case RecoverRead:
		b = appendString(b, string(m.Obj))
		b = appendVPID(b, m.VP)
		b = appendUvarint(b, m.Seq)
	case RecoverReadResp:
		b = appendString(b, string(m.Obj))
		b = appendUvarint(b, m.Seq)
		b = appendBool(b, m.OK)
		b = appendBool(b, m.Busy)
		b = appendZigzag(b, int64(m.Val))
		b = appendVersion(b, m.Ver)
		b = appendUvarint(b, uint64(len(m.Comps)))
		for i := range m.Comps {
			b = appendProc(b, m.Comps[i].P)
			b = appendVersion(b, m.Comps[i].Ver)
			b = appendZigzag(b, int64(m.Comps[i].Total))
		}
	case CatchupReq:
		b = appendVPID(b, m.VP)
		b = appendUvarint(b, uint64(len(m.Objs)))
		for i := range m.Objs {
			b = appendString(b, string(m.Objs[i].Obj))
			b = appendVersion(b, m.Objs[i].Since)
			b = appendUvarint(b, m.Objs[i].Seq)
		}
	case CatchupResp:
		b = appendBool(b, m.OK)
		b = appendUvarint(b, uint64(len(m.Objs)))
		for i := range m.Objs {
			o := &m.Objs[i]
			b = appendString(b, string(o.Obj))
			b = appendUvarint(b, o.Seq)
			b = appendBool(b, o.Busy)
			b = appendBool(b, o.Complete)
			b = appendUvarint(b, uint64(len(o.Entries)))
			for j := range o.Entries {
				b = appendZigzag(b, int64(o.Entries[j].Val))
				b = appendVersion(b, o.Entries[j].Ver)
			}
		}
	case LockReq:
		b = appendTxnID(b, m.Txn)
		b = appendString(b, string(m.Obj))
		b = append(b, byte(m.Mode))
		b = appendVPID(b, m.Epoch)
		var flags byte // HasEpoch in bit 0, where the bool was
		if m.HasEpoch {
			flags |= lockHasEpoch
		}
		if m.Patient {
			flags |= lockPatient
		}
		b = append(b, flags)
	case LockResp:
		b = appendTxnID(b, m.Txn)
		b = appendString(b, string(m.Obj))
		b = append(b, byte(m.Status))
		b = appendZigzag(b, int64(m.Val))
		b = appendVersion(b, m.Ver)
		b = appendVPID(b, m.Epoch)
		b = appendBool(b, m.HasEpoch)
		b = appendBool(b, m.HasMissing)
	case Prepare:
		b = appendTxnID(b, m.Txn)
		b = appendVPID(b, m.Epoch)
		var flags byte
		if m.HasEpoch {
			flags |= prepHasEpoch
		}
		if m.Recollect {
			flags |= prepRecollect
		}
		b = append(b, flags)
		b = appendUvarint(b, uint64(len(m.Writes)))
		for i := range m.Writes {
			b = appendObjWrite(b, &m.Writes[i])
		}
	case Vote:
		b = appendTxnID(b, m.Txn)
		b = appendProc(b, m.From)
		// OK in bit 0, where the bool was; Why above it.
		ok := byte(m.Why) << 1
		if m.OK {
			ok |= 1
		}
		b = append(b, ok)
		b = appendVPID(b, m.Epoch)
		b = appendBool(b, m.HasEpoch)
	case Decide:
		b = appendTxnID(b, m.Txn)
		b = appendBool(b, m.Commit)
	case DecideAck:
		b = appendTxnID(b, m.Txn)
		b = appendProc(b, m.From)
	case DecideQuery:
		b = appendTxnID(b, m.Txn)
		b = appendProc(b, m.From)
	case Release:
		b = appendTxnID(b, m.Txn)
		b = appendString(b, string(m.Obj))
	case ClientTxn:
		b = appendUvarint(b, m.Tag)
		b = appendUvarint(b, uint64(len(m.Ops)))
		for i := range m.Ops {
			b = appendOp(b, &m.Ops[i])
		}
	case ClientResult:
		b = appendUvarint(b, m.Tag)
		b = appendTxnID(b, m.Txn)
		b = appendBool(b, m.Committed)
		b = appendBool(b, m.Denied)
		b = appendString(b, m.Reason)
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

// cursor walks a frame payload with a sticky error: any out-of-bounds
// read flips bad and every subsequent read returns a zero value, so
// decode paths stay straight-line and check once at the end.
type cursor struct {
	b   []byte
	bad bool
}

func (c *cursor) u() uint64 {
	// Fast path: single-byte varints dominate (ids, counts, small
	// counters). Kept small enough to inline; the multi-byte and error
	// cases live in uSlow.
	if !c.bad && len(c.b) > 0 && c.b[0] < 0x80 {
		v := uint64(c.b[0])
		c.b = c.b[1:]
		return v
	}
	return c.uSlow()
}

func (c *cursor) uSlow() uint64 {
	if c.bad {
		return 0
	}
	v, n := binary.Uvarint(c.b)
	if n <= 0 {
		c.bad = true
		return 0
	}
	c.b = c.b[n:]
	return v
}

func (c *cursor) z() int64 {
	v := c.u()
	return int64(v>>1) ^ -int64(v&1)
}

func (c *cursor) byte() byte {
	if c.bad || len(c.b) == 0 {
		c.bad = true
		return 0
	}
	v := c.b[0]
	c.b = c.b[1:]
	return v
}

func (c *cursor) bool() bool { return c.byte() != 0 }

// count reads a slice length and validates it against the remaining
// payload (each element costs at least elemMin bytes), so a corrupt
// count cannot trigger an unbounded allocation.
func (c *cursor) count(elemMin int) int {
	v := c.u()
	if c.bad {
		return 0
	}
	if elemMin < 1 {
		elemMin = 1
	}
	if v > uint64(len(c.b)/elemMin) {
		c.bad = true
		return 0
	}
	return int(v)
}

// strBytes returns the raw bytes of a length-prefixed string, aliasing
// the frame.
func (c *cursor) strBytes() []byte {
	n := c.u()
	if c.bad || n > uint64(len(c.b)) {
		c.bad = true
		return nil
	}
	s := c.b[:n]
	c.b = c.b[n:]
	return s
}

func (c *cursor) proc() model.ProcID { return model.ProcID(c.u()) }

func (c *cursor) vpid() model.VPID {
	return model.VPID{N: c.u(), P: c.proc()}
}

func (c *cursor) txn() model.TxnID {
	return model.TxnID{Start: c.z(), P: c.proc(), Seq: c.u()}
}

func (c *cursor) version() model.Version {
	return model.Version{Date: c.vpid(), Ctr: c.u(), Writer: c.txn()}
}

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

func (d *Decoder) str(c *cursor) string { return d.intern(c.strBytes()) }

func (d *Decoder) obj(c *cursor) model.ObjectID { return model.ObjectID(d.str(c)) }

// digest reads a write digest, always owned: digests are retained past
// the next decode.
func (d *Decoder) digest(c *cursor) Digest {
	dg := Digest{Newest: c.version()}
	if n := c.count(1); n > 0 && !c.bad {
		dg.Staged = make([]model.ObjectID, n)
		for i := 0; i < n && !c.bad; i++ {
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
	c := cursor{b: frame[1:]}
	from := c.proc()
	to := c.proc()
	var ctx model.TraceCtx
	if frame[0]&ctxKindFlag != 0 {
		ctx = model.TraceCtx{Trace: c.u(), Span: uint32(c.u()), Parent: uint32(c.u())}
	}
	msg, err := d.decodeBody(&c, k, borrowed)
	if err != nil {
		return err
	}
	if c.bad || len(c.b) != 0 {
		return errDecode
	}
	env.From, env.To, env.Msg, env.Ctx = from, to, msg, ctx
	return nil
}

// decodeBody decodes one message body of kind k at the cursor. ShardMsg
// recurses exactly once for its inner body (nesting is rejected) and
// always decodes the inner message owned: routers re-dispatch it across
// handler boundaries, where a borrowed backing would be unsafe.
func (d *Decoder) decodeBody(c *cursor, k kindID, borrowed bool) (Message, error) {
	var msg Message
	switch k {
	case kindShardMsg:
		shard := model.ShardID(c.u())
		ik := kindID(c.byte())
		if c.bad {
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
		return ShardEpochReq{Shard: model.ShardID(c.u())}, nil
	case kindShardEpochResp:
		m := ShardEpochResp{Shard: model.ShardID(c.u()), VP: c.vpid(), Has: c.bool()}
		n := c.count(1)
		if n > 0 && !c.bad {
			m.View = make([]model.ProcID, n)
			for i := 0; i < n && !c.bad; i++ {
				m.View[i] = c.proc()
			}
		}
		return m, nil
	}
	switch k {
	case kindNewVP:
		msg = NewVP{ID: c.vpid()}
	case kindAcceptVP:
		msg = AcceptVP{ID: c.vpid(), From: c.proc(), Prev: c.vpid(), Digest: d.digest(c)}
	case kindCommitVP:
		m := CommitVP{ID: c.vpid()}
		n := c.count(1)
		m.View = borrow(&d.scr.view, n, borrowed)
		for i := 0; i < n && !c.bad; i++ {
			m.View[i] = c.proc()
		}
		pn := c.count(3)
		if pn > 0 && !c.bad {
			m.Prevs = make(map[model.ProcID]model.VPID, pn)
			for i := 0; i < pn && !c.bad; i++ {
				p := c.proc()
				m.Prevs[p] = c.vpid()
			}
		}
		if dn := c.count(8); dn > 0 && !c.bad {
			m.Digests = make(map[model.ProcID]Digest, dn)
			for i := 0; i < dn && !c.bad; i++ {
				p := c.proc()
				m.Digests[p] = d.digest(c)
			}
		}
		msg = m
	case kindProbe:
		msg = Probe{From: c.proc(), VP: c.vpid(), Seq: c.u()}
	case kindProbeAck:
		msg = ProbeAck{From: c.proc(), Seq: c.u()}
	case kindRecoverRead:
		msg = RecoverRead{Obj: d.obj(c), VP: c.vpid(), Seq: c.u()}
	case kindRecoverReadResp:
		m := RecoverReadResp{Obj: d.obj(c), Seq: c.u(), OK: c.bool(), Busy: c.bool(),
			Val: model.Value(c.z()), Ver: c.version()}
		n := c.count(6)
		m.Comps = borrow(&d.scr.comps, n, borrowed)
		for i := 0; i < n && !c.bad; i++ {
			m.Comps[i] = CompEntry{P: c.proc(), Ver: c.version(), Total: model.Value(c.z())}
		}
		msg = m
	case kindCatchupReq:
		m := CatchupReq{VP: c.vpid()}
		n := c.count(8)
		m.Objs = borrow(&d.scr.sinces, n, borrowed)
		for i := 0; i < n && !c.bad; i++ {
			m.Objs[i] = ObjSince{Obj: d.obj(c), Since: c.version(), Seq: c.u()}
		}
		msg = m
	case kindCatchupResp:
		m := CatchupResp{OK: c.bool()}
		n := c.count(5)
		m.Objs = borrow(&d.scr.deltas, n, borrowed)
		for i := 0; i < n && !c.bad; i++ {
			o := &m.Objs[i]
			o.Obj = d.obj(c)
			o.Seq = c.u()
			o.Busy = c.bool()
			o.Complete = c.bool()
			// Entries nest inside the borrowed Objs slice, so they are
			// allocated fresh even in borrowed mode (same policy as
			// Prepare.MissedBy: nested backings are not worth the scratch
			// bookkeeping).
			en := c.count(6)
			if en > 0 && !c.bad {
				o.Entries = make([]LogEntry, en)
				for j := 0; j < en && !c.bad; j++ {
					o.Entries[j] = LogEntry{Val: model.Value(c.z()), Ver: c.version()}
				}
			} else {
				o.Entries = nil
			}
		}
		msg = m
	case kindLockReq:
		m := LockReq{Txn: c.txn(), Obj: d.obj(c), Mode: model.LockMode(c.byte()), Epoch: c.vpid()}
		lf := c.byte()
		m.HasEpoch, m.Patient = lf&lockHasEpoch != 0, lf&lockPatient != 0
		msg = m
	case kindLockResp:
		msg = LockResp{Txn: c.txn(), Obj: d.obj(c), Status: LockStatus(c.byte()),
			Val: model.Value(c.z()), Ver: c.version(), Epoch: c.vpid(),
			HasEpoch: c.bool(), HasMissing: c.bool()}
	case kindPrepare:
		m := Prepare{Txn: c.txn(), Epoch: c.vpid()}
		pf := c.byte()
		m.HasEpoch, m.Recollect = pf&prepHasEpoch != 0, pf&prepRecollect != 0
		n := c.count(8)
		m.Writes = borrow(&d.scr.writes, n, borrowed)
		for i := 0; i < n && !c.bad; i++ {
			w := &m.Writes[i]
			w.Obj = d.obj(c)
			w.Val = model.Value(c.z())
			w.Ver = c.version()
			wf := c.byte()
			w.Delta, w.Lock = wf&writeDelta != 0, wf&writeLock != 0
			// MissedBy is almost always empty; when present it is
			// allocated fresh even in borrowed mode (nested backings are
			// not worth the scratch bookkeeping).
			mn := c.count(1)
			if mn > 0 && !c.bad {
				w.MissedBy = make([]model.ProcID, mn)
				for j := 0; j < mn && !c.bad; j++ {
					w.MissedBy[j] = c.proc()
				}
			} else {
				w.MissedBy = nil
			}
			w.Base = model.Version{}
			if w.Lock {
				w.Base = c.version()
			}
		}
		msg = m
	case kindVote:
		m := Vote{Txn: c.txn(), From: c.proc()}
		ok := c.byte()
		m.OK, m.Why = ok&1 != 0, NoVote(ok>>1)
		m.Epoch, m.HasEpoch = c.vpid(), c.bool()
		msg = m
	case kindDecide:
		msg = Decide{Txn: c.txn(), Commit: c.bool()}
	case kindDecideAck:
		msg = DecideAck{Txn: c.txn(), From: c.proc()}
	case kindDecideQuery:
		msg = DecideQuery{Txn: c.txn(), From: c.proc()}
	case kindRelease:
		msg = Release{Txn: c.txn(), Obj: d.obj(c)}
	case kindClientTxn:
		m := ClientTxn{Tag: c.u()}
		n := c.count(5)
		m.Ops = borrow(&d.scr.ops, n, borrowed)
		for i := 0; i < n && !c.bad; i++ {
			op := &m.Ops[i]
			op.Kind = OpKind(c.byte())
			op.Obj = d.obj(c)
			op.Src = model.ObjectID(d.str(c))
			op.Const = c.z()
			op.UseSrc = c.bool()
		}
		msg = m
	case kindClientResult:
		m := ClientResult{Tag: c.u(), Txn: c.txn(), Committed: c.bool(), Denied: c.bool(),
			Reason: d.str(c)}
		rn := c.count(4)
		m.Reads = borrow(&d.scr.reads, rn, borrowed)
		for i := 0; i < rn && !c.bad; i++ {
			m.Reads[i] = ObjVal{Obj: d.obj(c), Val: model.Value(c.z()), Ver: c.version()}
		}
		wn := c.count(4)
		m.Writes = borrow(&d.scr.wvals, wn, borrowed)
		for i := 0; i < wn && !c.bad; i++ {
			m.Writes[i] = ObjVal{Obj: d.obj(c), Val: model.Value(c.z()), Ver: c.version()}
		}
		msg = m
	default:
		return nil, fmt.Errorf("wire: decode: unknown binary message kind %d", k)
	}
	return msg, nil
}
