package varint

import (
	"bytes"
	"math"
	"reflect"
	"testing"

	"github.com/virtualpartitions/vp/internal/model"
)

func TestRoundTrip(t *testing.T) {
	ver := model.Version{Date: model.VPID{N: 1 << 40, P: 3}, Ctr: 300,
		Writer: model.TxnID{Start: -12345, P: 2, Seq: 7}}
	var b []byte
	b = AppendU(b, math.MaxUint64)
	b = AppendZ(b, math.MinInt64)
	b = AppendZ(b, -1)
	b = AppendBool(b, true)
	b = AppendString(b, "obj-1")
	b = AppendString(b, "")
	b = AppendVersion(b, ver)
	b = AppendProcs(b, []model.ProcID{1, 64})
	b = AppendProcs(b, nil)
	b = AppendShards(b, []model.ShardID{0, 5})

	c := NewCursor(b)
	if got := c.U(); got != math.MaxUint64 {
		t.Fatalf("U = %d", got)
	}
	if got := c.Z(); got != math.MinInt64 {
		t.Fatalf("Z = %d", got)
	}
	if got := c.Z(); got != -1 {
		t.Fatalf("Z = %d", got)
	}
	if !c.Bool() || c.Str() != "obj-1" || c.Str() != "" {
		t.Fatal("bool or strings lost")
	}
	if got := c.Version(); got != ver {
		t.Fatalf("Version = %+v, want %+v", got, ver)
	}
	if got := c.Procs(); !reflect.DeepEqual(got, []model.ProcID{1, 64}) {
		t.Fatalf("Procs = %v", got)
	}
	if got := c.Procs(); got != nil {
		t.Fatalf("empty Procs = %#v, want nil", got)
	}
	if got := c.Shards(); !reflect.DeepEqual(got, []model.ShardID{0, 5}) {
		t.Fatalf("Shards = %v", got)
	}
	if !c.Done() {
		t.Fatalf("cursor not done: bad=%v, %d bytes left", c.Bad(), c.Len())
	}
}

// TestCursorIsSticky: after the first failed read every read returns
// zero and the cursor stays bad, so a decoder checks once at the end.
func TestCursorIsSticky(t *testing.T) {
	for name, tc := range map[string]struct {
		in   []byte
		read func(*Cursor)
	}{
		"byte of nothing":     {nil, func(c *Cursor) { c.Byte() }},
		"unterminated":        {[]byte{0x80}, func(c *Cursor) { c.U() }},
		"overflow":            {append(bytes.Repeat([]byte{0xff}, 10), 1, 1), func(c *Cursor) { c.U() }},
		"string past the end": {[]byte{3, 'a'}, func(c *Cursor) { c.Str() }},
		"count past the end":  {[]byte{9, 1, 1}, func(c *Cursor) { c.Procs() }},
		"member 65":           {[]byte{65}, func(c *Cursor) { c.Member() }},
		"member 0":            {[]byte{0}, func(c *Cursor) { c.Member() }},
		"listed processor 65": {[]byte{2, 1, 65}, func(c *Cursor) { c.Procs() }},
		"listed processor 0":  {[]byte{2, 0, 1}, func(c *Cursor) { c.Procs() }},
	} {
		c := NewCursor(tc.in)
		tc.read(&c)
		if !c.Bad() || c.U() != 0 || c.Byte() != 0 || c.Done() {
			t.Errorf("%s: cursor not stuck bad", name)
		}
	}
}

// TestCountIsBoundedByTheInput: a count larger than the unread bytes can
// pay for at elemMin bytes each fails before anything is allocated.
func TestCountIsBoundedByTheInput(t *testing.T) {
	c := NewCursor([]byte{2, 0, 0, 0, 0})
	if n := c.Count(2); n != 2 || c.Bad() {
		t.Fatalf("Count(2) over 4 bytes = %d, bad=%v", n, c.Bad())
	}
	c = NewCursor([]byte{3, 0, 0, 0, 0})
	if n := c.Count(2); n != 0 || !c.Bad() {
		t.Fatalf("Count(2) of 3 over 4 bytes = %d, bad=%v", n, c.Bad())
	}
}
