// Package varint is the one binary spelling of the protocol's scalars,
// shared by the wire codec (internal/wire), the write-ahead log's record
// codec (internal/durable) and the gateway's session token
// (internal/gateway):
//
//	unsigned ints (seqnos, counters, tags)  uvarint
//	signed ints   (values, deltas, starts)  zigzag uvarint
//	processor and shard ids                 uvarint of the two's-complement
//	bools                                   one byte, 0 or 1
//	strings (object ids, reasons)           uvarint length + raw bytes
//	id lists                                uvarint count + elements
//	VPID     = uvarint N, proc P
//	TxnID    = zigzag Start, proc P, uvarint Seq
//	Version  = VPID Date, uvarint Ctr, TxnID Writer
//
// The Append functions write them; a Cursor reads them back.
package varint

import (
	"encoding/binary"

	"github.com/virtualpartitions/vp/internal/model"
)

// AppendU appends v as a uvarint.
func AppendU(b []byte, v uint64) []byte {
	// Single-byte fast path: ids, counts, and small counters dominate.
	if v < 0x80 {
		return append(b, byte(v))
	}
	return binary.AppendUvarint(b, v)
}

// AppendZ appends v as a zigzag uvarint.
func AppendZ(b []byte, v int64) []byte {
	return binary.AppendUvarint(b, uint64(v<<1)^uint64(v>>63))
}

// AppendProc appends a processor id.
func AppendProc(b []byte, p model.ProcID) []byte {
	return AppendU(b, uint64(p))
}

// AppendBool appends v as one byte.
func AppendBool(b []byte, v bool) []byte {
	if v {
		return append(b, 1)
	}
	return append(b, 0)
}

// AppendString appends s length-prefixed.
func AppendString(b []byte, s string) []byte {
	b = AppendU(b, uint64(len(s)))
	return append(b, s...)
}

// AppendVPID appends a virtual partition id.
func AppendVPID(b []byte, v model.VPID) []byte {
	b = AppendU(b, v.N)
	return AppendProc(b, v.P)
}

// AppendTxnID appends a transaction id.
func AppendTxnID(b []byte, t model.TxnID) []byte {
	b = AppendZ(b, t.Start)
	b = AppendProc(b, t.P)
	return AppendU(b, t.Seq)
}

// AppendVersion appends a copy version.
func AppendVersion(b []byte, v model.Version) []byte {
	b = AppendVPID(b, v.Date)
	b = AppendU(b, v.Ctr)
	return AppendTxnID(b, v.Writer)
}

// AppendProcs appends a counted processor list.
func AppendProcs(b []byte, ps []model.ProcID) []byte {
	b = AppendU(b, uint64(len(ps)))
	for _, p := range ps {
		b = AppendProc(b, p)
	}
	return b
}

// AppendShards appends a counted shard list.
func AppendShards(b []byte, ss []model.ShardID) []byte {
	b = AppendU(b, uint64(len(ss)))
	for _, s := range ss {
		b = AppendU(b, uint64(s))
	}
	return b
}

// Cursor reads the encodings above back with a sticky error: any
// malformed or out-of-bounds read marks it bad, and every later read
// returns a zero value, so decoders stay straight-line and check once
// at the end (Done).
type Cursor struct {
	b   []byte
	bad bool
}

// NewCursor returns a cursor at the start of b.
func NewCursor(b []byte) Cursor { return Cursor{b: b} }

// Bad reports whether a read has failed.
func (c *Cursor) Bad() bool { return c.bad }

// Fail marks the cursor bad: a decoder found a well-formed but invalid
// value.
func (c *Cursor) Fail() { c.bad = true }

// Len is the number of unread bytes.
func (c *Cursor) Len() int { return len(c.b) }

// Done reports whether every read succeeded and consumed all the input.
func (c *Cursor) Done() bool { return !c.bad && len(c.b) == 0 }

// U reads a uvarint.
func (c *Cursor) U() uint64 {
	// Fast path: single-byte varints dominate (ids, counts, small
	// counters). The multi-byte and error cases live in uSlow.
	if !c.bad && len(c.b) > 0 && c.b[0] < 0x80 {
		v := uint64(c.b[0])
		c.b = c.b[1:]
		return v
	}
	return c.uSlow()
}

func (c *Cursor) uSlow() uint64 {
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

// Z reads a zigzag uvarint.
func (c *Cursor) Z() int64 {
	v := c.U()
	return int64(v>>1) ^ -int64(v&1)
}

// Byte reads one raw byte.
func (c *Cursor) Byte() byte {
	if c.bad || len(c.b) == 0 {
		c.bad = true
		return 0
	}
	v := c.b[0]
	c.b = c.b[1:]
	return v
}

// Bool reads a one-byte bool; any non-zero byte is true.
func (c *Cursor) Bool() bool { return c.Byte() != 0 }

// Count reads a collection length and validates it against the unread
// bytes, each element costing at least elemMin of them, so a corrupt
// count cannot drive an unbounded allocation. elemMin must be a true
// lower bound on an element's encoded size.
func (c *Cursor) Count(elemMin int) int {
	v := c.U()
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

// StrBytes returns the raw bytes of a length-prefixed string, aliasing
// the input.
func (c *Cursor) StrBytes() []byte {
	n := c.U()
	if c.bad || n > uint64(len(c.b)) {
		c.bad = true
		return nil
	}
	s := c.b[:n]
	c.b = c.b[n:]
	return s
}

// Str reads a length-prefixed string into a fresh copy.
func (c *Cursor) Str() string { return string(c.StrBytes()) }

// Proc reads a processor id.
func (c *Cursor) Proc() model.ProcID { return model.ProcID(c.U()) }

// Member reads the id of a processor that can belong to a view: one in
// 1..model.MaxProc. Any other id fails the cursor, so a corrupt frame or
// record never reaches a model.ProcSet.
func (c *Cursor) Member() model.ProcID {
	v := c.U()
	if v < 1 || v > uint64(model.MaxProc) {
		c.bad = true
		return model.NoProc
	}
	return model.ProcID(v)
}

// VPID reads a virtual partition id.
func (c *Cursor) VPID() model.VPID {
	return model.VPID{N: c.U(), P: c.Proc()}
}

// TxnID reads a transaction id.
func (c *Cursor) TxnID() model.TxnID {
	return model.TxnID{Start: c.Z(), P: c.Proc(), Seq: c.U()}
}

// Version reads a copy version.
func (c *Cursor) Version() model.Version {
	return model.Version{Date: c.VPID(), Ctr: c.U(), Writer: c.TxnID()}
}

// Procs reads a counted list of processors, each read by Member; an
// empty list is nil.
func (c *Cursor) Procs() []model.ProcID {
	n := c.Count(1)
	if n == 0 {
		return nil
	}
	ps := make([]model.ProcID, n)
	for i := 0; i < n && !c.bad; i++ {
		ps[i] = c.Member()
	}
	return ps
}

// Shards reads a counted shard list; an empty one is nil.
func (c *Cursor) Shards() []model.ShardID {
	n := c.Count(1)
	if n == 0 {
		return nil
	}
	ss := make([]model.ShardID, n)
	for i := 0; i < n && !c.bad; i++ {
		ss[i] = model.ShardID(c.U())
	}
	return ss
}
