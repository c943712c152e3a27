package durable

import (
	"encoding/binary"
	"errors"
	"fmt"
	"hash/crc32"
	"slices"
	"sort"

	"github.com/virtualpartitions/vp/internal/model"
	"github.com/virtualpartitions/vp/internal/varint"
)

// This file is the on-disk record codec of the segmented WAL: each
// record is framed as
//
//	[u32 payload length][u32 CRC32C of payload][payload]
//
// with both header words little-endian. The payload is a tag byte
// naming the record kind followed by the kind's fields, spelled by
// internal/varint. The checksum is what lets recovery tell a torn tail
// (the final frame is short or fails its CRC — expected after a crash)
// from interior corruption (a bad frame with intact frames after it —
// real damage, refuse to start).

var crcTable = crc32.MakeTable(crc32.Castagnoli)

const (
	frameHeaderLen = 8
	// maxRecordBytes bounds a single record; anything larger in a length
	// word is corruption, not data.
	maxRecordBytes = 64 << 20
)

// record tags. Values are disk format: never reorder, only append. Each
// record kind has exactly one layout.
const (
	tagMaxID    = byte(2)  // VPID
	tagApply    = byte(3)  // object, zigzag value, version
	tagStage    = byte(4)  // txn, object, staged write
	tagDrop     = byte(5)  // txn, object ("" drops the whole transaction)
	tagDone     = byte(7)  // txn
	tagVote     = byte(10) // txn, vote record
	tagSnapshot = byte(11) // state (appendState), then the universe
	tagDecide   = byte(12) // txn, decision (appendDecision)
)

// ErrEarlierFormat is what Open reports for a journal holding a record
// in a layout this build does not read: tags 1 and 9 (snapshots) and 6
// and 8 (decisions) of earlier formats stay reserved for it. Such a
// record is intact, so it is neither corruption nor a torn tail.
var ErrEarlierFormat = errors.New("journal written by an earlier format")

var errMalformed = errors.New("malformed record")

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
		dst = append(dst, tagSnapshot)
		dst = appendState(dst, r.Snapshot)
		// The universe: all objects, or the scope list (possibly empty).
		dst = varint.AppendBool(dst, r.SnapUniverse != nil)
		if r.SnapUniverse != nil {
			dst = appendObjs(dst, r.SnapUniverse)
		}
	case r.SetMaxID != nil:
		dst = append(dst, tagMaxID)
		dst = varint.AppendVPID(dst, *r.SetMaxID)
	case r.ApplyVer != nil:
		dst = append(dst, tagApply)
		dst = varint.AppendString(dst, string(r.ApplyObj))
		dst = varint.AppendZ(dst, int64(r.ApplyVal))
		dst = varint.AppendVersion(dst, *r.ApplyVer)
	case r.StageTxn != nil:
		dst = append(dst, tagStage)
		dst = varint.AppendTxnID(dst, *r.StageTxn)
		dst = varint.AppendString(dst, string(r.StageObj))
		dst = appendStagedWrite(dst, *r.StageW)
	case r.DropTxn != nil:
		dst = append(dst, tagDrop)
		dst = varint.AppendTxnID(dst, *r.DropTxn)
		dst = varint.AppendString(dst, string(r.DropObj))
	case r.DecideTxn != nil:
		dst = append(dst, tagDecide)
		dst = appendDecision(dst, *r.DecideTxn,
			DecideRec{Commit: r.DecideCommit, Pending: r.DecidePending, Shards: r.DecideShards})
	case r.DoneTxn != nil:
		dst = append(dst, tagDone)
		dst = varint.AppendTxnID(dst, *r.DoneTxn)
	case r.VoteTxn != nil:
		dst = append(dst, tagVote)
		dst = varint.AppendTxnID(dst, *r.VoteTxn)
		dst = appendVoteRec(dst, r.VoteRec)
	}
	return dst
}

// appendState encodes a full State: max-id, copies, staged writes,
// decisions and votes, every section always present. Map keys are
// sorted so the same state always encodes to the same bytes (snapshot
// files diff cleanly and tests can compare them).
func appendState(dst []byte, s *State) []byte {
	dst = varint.AppendVPID(dst, s.MaxID)

	dst = varint.AppendU(dst, uint64(len(s.Copies)))
	for _, o := range sortedObjs(s.Copies) {
		c := s.Copies[o]
		dst = varint.AppendString(dst, string(o))
		dst = varint.AppendZ(dst, int64(c.Val))
		dst = varint.AppendVersion(dst, c.Ver)
	}

	txns := sortedTxns(s.Staged)
	dst = varint.AppendU(dst, uint64(len(txns)))
	for _, t := range txns {
		ws := s.Staged[t]
		dst = varint.AppendTxnID(dst, t)
		dst = varint.AppendU(dst, uint64(len(ws)))
		for _, o := range sortedObjs(ws) {
			dst = varint.AppendString(dst, string(o))
			dst = appendStagedWrite(dst, ws[o])
		}
	}

	txns = sortedTxns(s.Decides)
	dst = varint.AppendU(dst, uint64(len(txns)))
	for _, t := range txns {
		dst = appendDecision(dst, t, s.Decides[t])
	}

	txns = sortedTxns(s.Votes)
	dst = varint.AppendU(dst, uint64(len(txns)))
	for _, t := range txns {
		dst = varint.AppendTxnID(dst, t)
		dst = appendVoteRec(dst, s.Votes[t])
	}
	return dst
}

func sortedTxns[V any](m map[model.TxnID]V) []model.TxnID {
	txns := make([]model.TxnID, 0, len(m))
	for t := range m {
		txns = append(txns, t)
	}
	sort.Slice(txns, func(i, j int) bool { return txns[i].Less(txns[j]) })
	return txns
}

func sortedObjs[V any](m map[model.ObjectID]V) []model.ObjectID {
	objs := make([]model.ObjectID, 0, len(m))
	for o := range m {
		objs = append(objs, o)
	}
	slices.Sort(objs)
	return objs
}

func appendStagedWrite(dst []byte, w StagedWrite) []byte {
	dst = varint.AppendZ(dst, int64(w.Val))
	dst = varint.AppendVersion(dst, w.Ver)
	dst = varint.AppendBool(dst, w.Delta)
	return varint.AppendProcs(dst, w.MissedBy)
}

// appendDecision encodes a decision with its shard list, which is empty
// when unsharded and parallels Pending otherwise.
func appendDecision(dst []byte, t model.TxnID, d DecideRec) []byte {
	dst = varint.AppendTxnID(dst, t)
	dst = varint.AppendBool(dst, d.Commit)
	dst = varint.AppendProcs(dst, d.Pending)
	return varint.AppendShards(dst, d.Shards)
}

func appendVoteRec(dst []byte, v VoteRec) []byte {
	dst = varint.AppendProcs(dst, v.Parts)
	dst = varint.AppendShards(dst, v.Shards)
	dst = varint.AppendU(dst, uint64(len(v.Epochs)))
	for _, e := range v.Epochs {
		dst = varint.AppendVPID(dst, e)
	}
	return dst
}

// appendObjs encodes an object list sorted, so equal universes always
// encode to the same bytes.
func appendObjs(dst []byte, objs []model.ObjectID) []byte {
	sorted := slices.Clone(objs)
	slices.Sort(sorted)
	dst = varint.AppendU(dst, uint64(len(sorted)))
	for _, o := range sorted {
		dst = varint.AppendString(dst, string(o))
	}
	return dst
}

// The readers below undo the appenders above. Each Count's elemMin is a
// lower bound on the element's encoded size. A malformed field marks the
// cursor bad, which parseRecord reports.

func parseState(c *varint.Cursor) *State {
	st := NewState()
	st.MaxID = c.VPID()
	for i, n := 0, c.Count(2); i < n && !c.Bad(); i++ {
		obj := model.ObjectID(c.Str())
		st.Copies[obj] = model.Copy{Val: model.Value(c.Z()), Ver: c.Version()}
	}
	for i, n := 0, c.Count(2); i < n && !c.Bad(); i++ {
		t := c.TxnID()
		ws := make(map[model.ObjectID]StagedWrite)
		for k, m := 0, c.Count(2); k < m && !c.Bad(); k++ {
			obj := model.ObjectID(c.Str())
			ws[obj] = parseStagedWrite(c)
		}
		st.Staged[t] = ws
	}
	for i, n := 0, c.Count(2); i < n && !c.Bad(); i++ {
		t, d := parseDecision(c)
		st.Decides[t] = d
	}
	for i, n := 0, c.Count(4); i < n && !c.Bad(); i++ {
		t := c.TxnID()
		st.Votes[t] = parseVoteRec(c)
	}
	return st
}

func parseStagedWrite(c *varint.Cursor) StagedWrite {
	return StagedWrite{Val: model.Value(c.Z()), Ver: c.Version(), Delta: c.Bool(), MissedBy: c.Procs()}
}

func parseDecision(c *varint.Cursor) (model.TxnID, DecideRec) {
	t := c.TxnID()
	d := DecideRec{Commit: c.Bool(), Pending: c.Procs(), Shards: c.Shards()}
	if d.Shards != nil && len(d.Shards) != len(d.Pending) {
		c.Fail()
	}
	return t, d
}

// parseVoteRec reads a VoteRec; its lists parallel Parts or are empty.
func parseVoteRec(c *varint.Cursor) VoteRec {
	v := VoteRec{Parts: c.Procs(), Shards: c.Shards()}
	if n := c.Count(2); n > 0 {
		v.Epochs = make([]model.VPID, n)
		for i := range v.Epochs {
			v.Epochs[i] = c.VPID()
		}
	}
	if (v.Shards != nil && len(v.Shards) != len(v.Parts)) || (v.Epochs != nil && len(v.Epochs) != len(v.Parts)) {
		c.Fail()
	}
	return v
}

// parseObjs reads an object list; never nil, so a scoped-but-empty
// universe stays distinguishable from an unscoped one.
func parseObjs(c *varint.Cursor) []model.ObjectID {
	n := c.Count(1)
	objs := make([]model.ObjectID, 0, n)
	for i := 0; i < n && !c.Bad(); i++ {
		objs = append(objs, model.ObjectID(c.Str()))
	}
	return objs
}

// parseRecord decodes one frame payload. It fails with ErrEarlierFormat
// for a tag of an earlier format, and with errMalformed for any other
// structural problem: unknown tag, short fields, or trailing bytes.
func parseRecord(payload []byte, r *record) error {
	*r = record{}
	c := varint.NewCursor(payload)
	switch tag := c.Byte(); tag {
	case tagSnapshot:
		r.Snapshot = parseState(&c)
		if c.Bool() {
			r.SnapUniverse = parseObjs(&c)
		}
	case tagMaxID:
		v := c.VPID()
		r.SetMaxID = &v
	case tagApply:
		r.ApplyObj = model.ObjectID(c.Str())
		r.ApplyVal = model.Value(c.Z())
		v := c.Version()
		r.ApplyVer = &v
	case tagStage:
		t := c.TxnID()
		r.StageTxn = &t
		r.StageObj = model.ObjectID(c.Str())
		w := parseStagedWrite(&c)
		r.StageW = &w
	case tagDrop:
		t := c.TxnID()
		r.DropTxn = &t
		r.DropObj = model.ObjectID(c.Str())
	case tagDecide:
		t, d := parseDecision(&c)
		r.DecideTxn, r.DecideCommit, r.DecidePending, r.DecideShards = &t, d.Commit, d.Pending, d.Shards
	case tagDone:
		t := c.TxnID()
		r.DoneTxn = &t
	case tagVote:
		t := c.TxnID()
		r.VoteTxn = &t
		r.VoteRec = parseVoteRec(&c)
	case 1, 6, 8, 9:
		return fmt.Errorf("%w (record tag %d)", ErrEarlierFormat, tag)
	default:
		return errMalformed
	}
	if !c.Done() {
		return errMalformed
	}
	return nil
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
