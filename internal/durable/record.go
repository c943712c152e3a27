package durable

import (
	"encoding/binary"
	"fmt"
	"hash/crc32"
	"sort"

	"github.com/virtualpartitions/vp/internal/model"
)

// This file is the on-disk record codec of the segmented WAL: each
// record is framed as
//
//	[u32 payload length][u32 CRC32C of payload][payload]
//
// with both header words little-endian. The payload is a tag byte
// naming the record kind followed by the kind's fields in varint
// encoding. The checksum is what lets recovery tell a torn tail (the
// final frame is short or fails its CRC — expected after a crash) from
// interior corruption (a bad frame with intact frames after it — real
// damage, refuse to start).

var crcTable = crc32.MakeTable(crc32.Castagnoli)

const (
	frameHeaderLen = 8
	// maxRecordBytes bounds a single record; anything larger in a length
	// word is corruption, not data.
	maxRecordBytes = 64 << 20
)

// record tags. Values are disk format: never reorder, only append.
const (
	tagSnapshot = byte(1)
	tagMaxID    = byte(2)
	tagApply    = byte(3)
	tagStage    = byte(4)
	tagDrop     = byte(5)
	tagDecide   = byte(6)
	tagDone     = byte(7)
	// tagDecideShards is tagDecide plus a parallel shard list (sharded
	// coordinators). Unsharded decisions keep emitting tagDecide, so
	// unsharded log bytes are unchanged.
	tagDecideShards = byte(8)
	// tagSnapshotScoped is a snapshot that records the hosted-object
	// universe it was taken under (partial replication). Its sharded-
	// decision section is mandatory (possibly zero-length) so the
	// trailing universe list parses unambiguously. Journals without a
	// scope keep emitting tagSnapshot, so unsharded snapshot bytes are
	// unchanged.
	tagSnapshotScoped = byte(9)
	// tagVote is a coordinator's own vote (VoteRec).
	tagVote = byte(10)
)

// appendFrame appends the framed encoding of r to dst.
func appendFrame(dst []byte, r *record) []byte {
	head := len(dst)
	dst = append(dst, 0, 0, 0, 0, 0, 0, 0, 0)
	dst = appendRecord(dst, r)
	payload := dst[head+frameHeaderLen:]
	binary.LittleEndian.PutUint32(dst[head:], uint32(len(payload)))
	binary.LittleEndian.PutUint32(dst[head+4:], crc32.Checksum(payload, crcTable))
	return dst
}

func appendRecord(dst []byte, r *record) []byte {
	switch {
	case r.Snapshot != nil:
		// Undecided coordinator votes close the record, after everything
		// older readers know, and only when there are any: a snapshot
		// without them keeps its bytes. The sections before must then all
		// be present, or the reader would take the votes for one of them.
		votes := len(r.Snapshot.Votes) > 0
		if r.SnapScoped {
			dst = append(dst, tagSnapshotScoped)
			dst = appendStateBody(dst, r.Snapshot, true)
			dst = appendObjs(dst, r.SnapUniverse)
		} else {
			dst = append(dst, tagSnapshot)
			dst = appendStateBody(dst, r.Snapshot, votes)
		}
		if votes {
			dst = appendVotes(dst, r.Snapshot.Votes)
		}
	case r.SetMaxID != nil:
		dst = append(dst, tagMaxID)
		dst = appendVPID(dst, *r.SetMaxID)
	case r.ApplyVer != nil:
		dst = append(dst, tagApply)
		dst = appendString(dst, string(r.ApplyObj))
		dst = appendZigzag(dst, int64(r.ApplyVal))
		dst = appendVersion(dst, *r.ApplyVer)
	case r.StageTxn != nil:
		dst = append(dst, tagStage)
		dst = appendTxnID(dst, *r.StageTxn)
		dst = appendString(dst, string(r.StageObj))
		dst = appendStagedWrite(dst, *r.StageW)
	case r.DropTxn != nil:
		dst = append(dst, tagDrop)
		dst = appendTxnID(dst, *r.DropTxn)
		dst = appendString(dst, string(r.DropObj))
	case r.DecideTxn != nil:
		if len(r.DecideShards) > 0 {
			dst = append(dst, tagDecideShards)
			dst = appendTxnID(dst, *r.DecideTxn)
			dst = appendBool(dst, r.DecideCommit)
			dst = appendProcs(dst, r.DecidePending)
			dst = appendShards(dst, r.DecideShards)
		} else {
			dst = append(dst, tagDecide)
			dst = appendTxnID(dst, *r.DecideTxn)
			dst = appendBool(dst, r.DecideCommit)
			dst = appendProcs(dst, r.DecidePending)
		}
	case r.DoneTxn != nil:
		dst = append(dst, tagDone)
		dst = appendTxnID(dst, *r.DoneTxn)
	case r.VoteTxn != nil:
		dst = append(dst, tagVote)
		dst = appendTxnID(dst, *r.VoteTxn)
		dst = appendVoteRec(dst, r.VoteRec)
	}
	return dst
}

func appendVoteRec(dst []byte, v VoteRec) []byte {
	dst = appendProcs(dst, v.Parts)
	dst = appendShards(dst, v.Shards)
	dst = appendUvarint(dst, uint64(len(v.Epochs)))
	for _, e := range v.Epochs {
		dst = appendVPID(dst, e)
	}
	return dst
}

func appendVotes(dst []byte, votes map[model.TxnID]VoteRec) []byte {
	txns := make([]model.TxnID, 0, len(votes))
	for t := range votes {
		txns = append(txns, t)
	}
	sort.Slice(txns, func(i, j int) bool { return txns[i].Less(txns[j]) })
	dst = appendUvarint(dst, uint64(len(txns)))
	for _, t := range txns {
		dst = appendTxnID(dst, t)
		dst = appendVoteRec(dst, votes[t])
	}
	return dst
}

// appendState encodes a full State, votes aside (appendRecord puts
// those last). Map keys are sorted so the same state always encodes to
// the same bytes (snapshot files diff cleanly and tests can compare
// them).
func appendState(dst []byte, s *State) []byte {
	return appendStateBody(dst, s, false)
}

// appendStateBody is appendState with the sharded-decision trailer
// forced when forceTrailer is set: more sections follow the state, so
// every one before them must be present.
func appendStateBody(dst []byte, s *State, forceTrailer bool) []byte {
	dst = appendVPID(dst, s.MaxID)

	objs := make([]model.ObjectID, 0, len(s.Copies))
	for o := range s.Copies {
		objs = append(objs, o)
	}
	sort.Slice(objs, func(i, j int) bool { return objs[i] < objs[j] })
	dst = appendUvarint(dst, uint64(len(objs)))
	for _, o := range objs {
		c := s.Copies[o]
		dst = appendString(dst, string(o))
		dst = appendZigzag(dst, int64(c.Val))
		dst = appendVersion(dst, c.Ver)
	}

	txns := make([]model.TxnID, 0, len(s.Staged))
	for t := range s.Staged {
		txns = append(txns, t)
	}
	sort.Slice(txns, func(i, j int) bool { return txns[i].Less(txns[j]) })
	dst = appendUvarint(dst, uint64(len(txns)))
	for _, t := range txns {
		ws := s.Staged[t]
		dst = appendTxnID(dst, t)
		wobjs := make([]model.ObjectID, 0, len(ws))
		for o := range ws {
			wobjs = append(wobjs, o)
		}
		sort.Slice(wobjs, func(i, j int) bool { return wobjs[i] < wobjs[j] })
		dst = appendUvarint(dst, uint64(len(wobjs)))
		for _, o := range wobjs {
			dst = appendString(dst, string(o))
			dst = appendStagedWrite(dst, ws[o])
		}
	}

	dtxns := make([]model.TxnID, 0, len(s.Decides))
	for t := range s.Decides {
		dtxns = append(dtxns, t)
	}
	sort.Slice(dtxns, func(i, j int) bool { return dtxns[i].Less(dtxns[j]) })
	dst = appendUvarint(dst, uint64(len(dtxns)))
	for _, t := range dtxns {
		d := s.Decides[t]
		dst = appendTxnID(dst, t)
		dst = appendBool(dst, d.Commit)
		dst = appendProcs(dst, d.Pending)
	}

	// Sharded decisions append a trailing section keyed by transaction.
	// It is only emitted when at least one decision carries shard tags,
	// so unsharded snapshots keep their historical byte layout (and old
	// snapshots parse: the reader treats the section as optional).
	sharded := 0
	for _, t := range dtxns {
		if len(s.Decides[t].Shards) > 0 {
			sharded++
		}
	}
	if sharded > 0 || forceTrailer {
		dst = appendUvarint(dst, uint64(sharded))
		for _, t := range dtxns {
			d := s.Decides[t]
			if len(d.Shards) == 0 {
				continue
			}
			dst = appendTxnID(dst, t)
			dst = appendShards(dst, d.Shards)
		}
	}
	return dst
}

func appendUvarint(dst []byte, v uint64) []byte {
	if v < 0x80 {
		return append(dst, byte(v))
	}
	return binary.AppendUvarint(dst, v)
}

func appendZigzag(dst []byte, v int64) []byte {
	return appendUvarint(dst, uint64(v<<1)^uint64(v>>63))
}

func appendBool(dst []byte, b bool) []byte {
	if b {
		return append(dst, 1)
	}
	return append(dst, 0)
}

func appendString(dst []byte, s string) []byte {
	dst = appendUvarint(dst, uint64(len(s)))
	return append(dst, s...)
}

func appendVPID(dst []byte, v model.VPID) []byte {
	dst = appendUvarint(dst, v.N)
	return appendUvarint(dst, uint64(v.P))
}

func appendTxnID(dst []byte, t model.TxnID) []byte {
	dst = appendZigzag(dst, t.Start)
	dst = appendUvarint(dst, uint64(t.P))
	return appendUvarint(dst, t.Seq)
}

func appendVersion(dst []byte, v model.Version) []byte {
	dst = appendVPID(dst, v.Date)
	dst = appendUvarint(dst, v.Ctr)
	return appendTxnID(dst, v.Writer)
}

func appendStagedWrite(dst []byte, w StagedWrite) []byte {
	dst = appendZigzag(dst, int64(w.Val))
	dst = appendVersion(dst, w.Ver)
	dst = appendBool(dst, w.Delta)
	return appendProcs(dst, w.MissedBy)
}

func appendProcs(dst []byte, ps []model.ProcID) []byte {
	dst = appendUvarint(dst, uint64(len(ps)))
	for _, p := range ps {
		dst = appendUvarint(dst, uint64(p))
	}
	return dst
}

func appendShards(dst []byte, ss []model.ShardID) []byte {
	dst = appendUvarint(dst, uint64(len(ss)))
	for _, s := range ss {
		dst = appendUvarint(dst, uint64(s))
	}
	return dst
}

// appendObjs encodes an object list sorted, so equal universes always
// encode to the same bytes.
func appendObjs(dst []byte, objs []model.ObjectID) []byte {
	sorted := make([]model.ObjectID, len(objs))
	copy(sorted, objs)
	sort.Slice(sorted, func(i, j int) bool { return sorted[i] < sorted[j] })
	dst = appendUvarint(dst, uint64(len(sorted)))
	for _, o := range sorted {
		dst = appendString(dst, string(o))
	}
	return dst
}

// walCursor reads the varint primitives back with a sticky error: after
// the first malformed read every further read reports zero values and
// bad stays set, so record parsers do not need per-field error checks.
type walCursor struct {
	b   []byte
	bad bool
}

func (c *walCursor) u() uint64 {
	if c.bad {
		return 0
	}
	if len(c.b) > 0 && c.b[0] < 0x80 {
		v := uint64(c.b[0])
		c.b = c.b[1:]
		return v
	}
	v, n := binary.Uvarint(c.b)
	if n <= 0 {
		c.bad = true
		return 0
	}
	c.b = c.b[n:]
	return v
}

func (c *walCursor) z() int64 {
	u := c.u()
	return int64(u>>1) ^ -int64(u&1)
}

func (c *walCursor) byte() byte {
	if c.bad || len(c.b) == 0 {
		c.bad = true
		return 0
	}
	v := c.b[0]
	c.b = c.b[1:]
	return v
}

func (c *walCursor) bool() bool { return c.byte() != 0 }

func (c *walCursor) str() string {
	n := c.u()
	if c.bad || n > uint64(len(c.b)) {
		c.bad = true
		return ""
	}
	s := string(c.b[:n])
	c.b = c.b[n:]
	return s
}

// count reads a collection length and rejects values that could not fit
// in the remaining bytes (each element needs at least elemMin bytes), so
// corrupt lengths cannot drive huge allocations.
func (c *walCursor) count(elemMin int) int {
	n := c.u()
	if c.bad || n > uint64(len(c.b)/elemMin+1) {
		c.bad = true
		return 0
	}
	return int(n)
}

func (c *walCursor) vpid() model.VPID {
	return model.VPID{N: c.u(), P: model.ProcID(c.u())}
}

func (c *walCursor) txn() model.TxnID {
	return model.TxnID{Start: c.z(), P: model.ProcID(c.u()), Seq: c.u()}
}

func (c *walCursor) version() model.Version {
	return model.Version{Date: c.vpid(), Ctr: c.u(), Writer: c.txn()}
}

func (c *walCursor) stagedWrite() StagedWrite {
	return StagedWrite{
		Val:      model.Value(c.z()),
		Ver:      c.version(),
		Delta:    c.bool(),
		MissedBy: c.procs(),
	}
}

func (c *walCursor) procs() []model.ProcID {
	n := c.count(1)
	if n == 0 {
		return nil
	}
	ps := make([]model.ProcID, n)
	for i := range ps {
		ps[i] = model.ProcID(c.u())
	}
	return ps
}

// voteRec reads a VoteRec; its lists parallel Parts or are empty.
func (c *walCursor) voteRec() VoteRec {
	v := VoteRec{Parts: c.procs(), Shards: c.shards()}
	if n := c.count(2); n > 0 {
		v.Epochs = make([]model.VPID, n)
		for i := range v.Epochs {
			v.Epochs[i] = c.vpid()
		}
	}
	if (v.Shards != nil && len(v.Shards) != len(v.Parts)) || (v.Epochs != nil && len(v.Epochs) != len(v.Parts)) {
		c.bad = true
	}
	return v
}

// votes reads the snapshot section appendVotes wrote, if any bytes remain.
func (c *walCursor) votes(st *State) {
	if len(c.b) == 0 {
		return
	}
	for i, n := 0, c.count(4); i < n && !c.bad; i++ {
		t := c.txn()
		st.Votes[t] = c.voteRec()
	}
}

func (c *walCursor) shards() []model.ShardID {
	n := c.count(1)
	if n == 0 {
		return nil
	}
	ss := make([]model.ShardID, n)
	for i := range ss {
		ss[i] = model.ShardID(c.u())
	}
	return ss
}

// parseStateBody decodes a State off the cursor. The sharded-decision
// trailer is optional for legacy tagSnapshot payloads (absent in
// unsharded and pre-sharding snapshots) but mandatory when the caller
// knows more sections follow (tagSnapshotScoped), since "bytes remain"
// can no longer disambiguate it.
func parseStateBody(c *walCursor, trailerMandatory bool) (*State, bool) {
	st := NewState()
	st.MaxID = c.vpid()
	for i, n := 0, c.count(2); i < n; i++ {
		obj := model.ObjectID(c.str())
		val := model.Value(c.z())
		ver := c.version()
		if c.bad {
			return nil, false
		}
		st.Copies[obj] = model.Copy{Val: val, Ver: ver}
	}
	for i, n := 0, c.count(2); i < n; i++ {
		t := c.txn()
		ws := make(map[model.ObjectID]StagedWrite)
		for k, m := 0, c.count(2); k < m; k++ {
			obj := model.ObjectID(c.str())
			w := c.stagedWrite()
			if c.bad {
				return nil, false
			}
			ws[obj] = w
		}
		if c.bad {
			return nil, false
		}
		st.Staged[t] = ws
	}
	for i, n := 0, c.count(2); i < n; i++ {
		t := c.txn()
		d := DecideRec{Commit: c.bool(), Pending: c.procs()}
		if c.bad {
			return nil, false
		}
		st.Decides[t] = d
	}
	if trailerMandatory || len(c.b) > 0 {
		for i, n := 0, c.count(2); i < n; i++ {
			t := c.txn()
			ss := c.shards()
			if c.bad {
				return nil, false
			}
			d, ok := st.Decides[t]
			if !ok {
				return nil, false
			}
			d.Shards = ss
			st.Decides[t] = d
		}
	}
	return st, !c.bad
}

// parseRecord decodes one frame payload. It returns false for any
// structural problem: unknown tag, short fields, or trailing bytes.
func parseRecord(payload []byte, r *record) bool {
	*r = record{}
	c := walCursor{b: payload}
	switch c.byte() {
	case tagSnapshot:
		st, ok := parseStateBody(&c, false)
		if !ok {
			return false
		}
		c.votes(st)
		r.Snapshot = st
	case tagSnapshotScoped:
		st, ok := parseStateBody(&c, true)
		if !ok {
			return false
		}
		n := c.count(1)
		objs := make([]model.ObjectID, 0, n)
		for i := 0; i < n; i++ {
			objs = append(objs, model.ObjectID(c.str()))
		}
		c.votes(st)
		if c.bad {
			return false
		}
		r.Snapshot = st
		r.SnapScoped = true
		r.SnapUniverse = objs
	case tagMaxID:
		v := c.vpid()
		r.SetMaxID = &v
	case tagApply:
		r.ApplyObj = model.ObjectID(c.str())
		r.ApplyVal = model.Value(c.z())
		v := c.version()
		r.ApplyVer = &v
	case tagStage:
		t := c.txn()
		r.StageTxn = &t
		r.StageObj = model.ObjectID(c.str())
		w := c.stagedWrite()
		r.StageW = &w
	case tagDrop:
		t := c.txn()
		r.DropTxn = &t
		r.DropObj = model.ObjectID(c.str())
	case tagDecide:
		t := c.txn()
		r.DecideTxn = &t
		r.DecideCommit = c.bool()
		r.DecidePending = c.procs()
	case tagDecideShards:
		t := c.txn()
		r.DecideTxn = &t
		r.DecideCommit = c.bool()
		r.DecidePending = c.procs()
		r.DecideShards = c.shards()
		if len(r.DecideShards) != len(r.DecidePending) {
			return false
		}
	case tagDone:
		t := c.txn()
		r.DoneTxn = &t
	case tagVote:
		t := c.txn()
		r.VoteTxn = &t
		r.VoteRec = c.voteRec()
	default:
		return false
	}
	return !c.bad && len(c.b) == 0
}

// walkFrames scans data frame by frame, calling fn with each payload
// that passes its checksum. It returns the byte offset just past the
// last good frame and whether the remainder is a torn tail (incomplete
// or checksum-failing bytes that run to the end of data — the signature
// a crash mid-append leaves). A bad frame with intact data after it is
// not a torn tail; the caller treats that as interior corruption.
func walkFrames(data []byte, fn func(payload []byte) error) (valid int64, torn bool, err error) {
	off := 0
	for off < len(data) {
		rest := data[off:]
		if len(rest) < frameHeaderLen {
			return int64(off), true, nil
		}
		length := binary.LittleEndian.Uint32(rest)
		sum := binary.LittleEndian.Uint32(rest[4:])
		if length == 0 || length > maxRecordBytes || frameHeaderLen+int(length) > len(rest) {
			// The frame never finished (or the length word itself is
			// damaged); either way nothing readable follows.
			return int64(off), true, nil
		}
		payload := rest[frameHeaderLen : frameHeaderLen+int(length)]
		if crc32.Checksum(payload, crcTable) != sum {
			if frameHeaderLen+int(length) == len(rest) {
				// The final frame is present but damaged: torn tail.
				return int64(off), true, nil
			}
			return int64(off), false, fmt.Errorf("checksum mismatch at offset %d", off)
		}
		if err := fn(payload); err != nil {
			return int64(off), false, err
		}
		off += frameHeaderLen + int(length)
	}
	return int64(off), false, nil
}
