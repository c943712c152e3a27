// Package gateway is the client-facing service of the system: a
// long-lived daemon that fronts a virtual-partition cluster and turns
// the raw submit-a-transaction transport into an API applications can
// use at scale. It adds what the protocol layer deliberately leaves
// out:
//
//   - sessions with read-your-writes and monotonic reads, carried in a
//     stateless token so any gateway instance can serve any request,
//     and checked on the one request path that serves GET /read and
//     POST /txn alike;
//   - group commit, coalescing concurrent increments into shared
//     transaction rounds that amortize the locking and two-phase commit
//     cost (batcher); every other transaction is submitted directly;
//   - admission control: a bounded in-flight budget with queue-depth
//     shedding, so overload degrades into fast 503s instead of
//     collapse;
//   - connection pooling over the persistent multiplexed client,
//     replacing a dial per request with one connection per node.
package gateway

import (
	"encoding/base64"
	"errors"
	"fmt"

	"github.com/virtualpartitions/vp/internal/model"
	"github.com/virtualpartitions/vp/internal/varint"
	"github.com/virtualpartitions/vp/internal/wire"
)

// sessionMarks bounds how many per-object version high-water marks one
// session token carries. Beyond it the least recently touched mark is
// evicted: the session keeps read-your-writes for the objects it touched
// most recently, which is the working set that matters, and the token
// stays small enough for a header.
const sessionMarks = 32

// Session is a client session's consistency state. It is carried to and
// from the client as an opaque token (the X-VP-Session header), so the
// gateway itself holds no per-session state: any instance, or a
// restarted one, continues any session.
//
// The token records the node the session last spoke to (affinity —
// reads routed there trivially observe the session's writes) and, per
// recently touched object, the highest Version the session has
// committed or observed. A read whose returned version is older than
// the session's mark for that object is STALE for this session — it
// would un-happen a write the client already saw acknowledged — and the
// gateway retries it elsewhere rather than return it.
type Session struct {
	Node  model.ProcID // last node that served a commit
	Seq   uint64       // touch counter driving mark LRU
	Marks []Mark
	limit int // mark bound; 0 selects sessionMarks (tests lower it)
}

// Mark is one object's version high-water mark: the newest version this
// session has written or observed for the object.
type Mark struct {
	Obj model.ObjectID
	// The version's ordering fields (model.Version less Writer, which
	// ordering ignores), kept flat so tokens stay compact.
	DateN uint64
	DateP model.ProcID
	Ctr   uint64
	Touch uint64 // Seq when last touched
}

// ver reconstructs the comparable version of a mark.
func (m Mark) ver() model.Version {
	return model.Version{Date: model.VPID{N: m.DateN, P: m.DateP}, Ctr: m.Ctr}
}

// tokenV1 is the first byte of a token body and names its layout: after
// it, uvarints for Node, Seq and the mark count, then per mark the
// object id (uvarint length, bytes) and uvarints DateN, DateP, Ctr,
// Touch, all spelled by internal/varint. The body travels
// base64url-encoded. A body in any other layout is malformed.
const tokenV1 = 1

// minMarkLen is the shortest a mark can be encoded: five one-byte
// uvarints around an empty object id.
const minMarkLen = 5

var errBadToken = errors.New("gateway: bad session token")

// ParseSession decodes a session token. An empty token yields a fresh
// session; a malformed one is an error (a client sending garbage should
// hear about it, not silently lose its consistency guarantees).
func ParseSession(token string) (*Session, error) {
	s := &Session{}
	if token == "" {
		return s, nil
	}
	raw, err := base64.RawURLEncoding.DecodeString(token)
	if err != nil {
		return nil, fmt.Errorf("%w: %v", errBadToken, err)
	}
	if len(raw) == 0 || raw[0] != tokenV1 {
		return nil, fmt.Errorf("%w: unknown format", errBadToken)
	}
	raw = raw[1:]
	ids := string(raw) // object ids are substrings of this one copy
	c := varint.NewCursor(raw)
	s.Node, s.Seq = c.Proc(), c.U()
	// The count is the client's claim; the bytes that follow bound what
	// it may make us allocate.
	if count := c.Count(minMarkLen); count > 0 {
		s.Marks = make([]Mark, count)
	}
	for i := 0; i < len(s.Marks) && !c.Bad(); i++ {
		m := &s.Marks[i]
		obj := c.StrBytes()
		end := len(raw) - c.Len()
		m.Obj = model.ObjectID(ids[end-len(obj) : end])
		m.DateN, m.DateP, m.Ctr, m.Touch = c.U(), c.Proc(), c.U(), c.U()
	}
	if !c.Done() {
		return nil, fmt.Errorf("%w: malformed body", errBadToken)
	}
	return s, nil
}

// Token encodes the session for the response header.
func (s *Session) Token() string {
	b := make([]byte, 0, 64+24*len(s.Marks))
	b = append(b, tokenV1)
	b = varint.AppendProc(b, s.Node)
	b = varint.AppendU(b, s.Seq)
	b = varint.AppendU(b, uint64(len(s.Marks)))
	for i := range s.Marks {
		m := &s.Marks[i]
		b = varint.AppendString(b, string(m.Obj))
		b = varint.AppendU(b, m.DateN)
		b = varint.AppendProc(b, m.DateP)
		b = varint.AppendU(b, m.Ctr)
		b = varint.AppendU(b, m.Touch)
	}
	return base64.RawURLEncoding.EncodeToString(b)
}

// Observe folds one object's returned version into the session: the
// mark ratchets monotonically upward and its LRU touch is refreshed.
// Both committed writes and successful reads are observed — writes give
// read-your-writes, reads give monotonic reads.
func (s *Session) Observe(obj model.ObjectID, ver model.Version) {
	s.Seq++
	for i := range s.Marks {
		if s.Marks[i].Obj == obj {
			if s.Marks[i].ver().Less(ver) {
				s.Marks[i].DateN, s.Marks[i].DateP, s.Marks[i].Ctr = ver.Date.N, ver.Date.P, ver.Ctr
			}
			s.Marks[i].Touch = s.Seq
			return
		}
	}
	limit := s.limit
	if limit <= 0 {
		limit = sessionMarks
	}
	if len(s.Marks) >= limit {
		// Evict the least recently touched mark.
		lru := 0
		for i := range s.Marks {
			if s.Marks[i].Touch < s.Marks[lru].Touch {
				lru = i
			}
		}
		s.Marks[lru] = s.Marks[len(s.Marks)-1]
		s.Marks = s.Marks[:len(s.Marks)-1]
	}
	s.Marks = append(s.Marks, Mark{
		Obj: obj, DateN: ver.Date.N, DateP: ver.Date.P, Ctr: ver.Ctr, Touch: s.Seq,
	})
}

// ObserveResult folds a committed transaction's reads and writes into
// the session and records the serving node for affinity routing.
func (s *Session) ObserveResult(node model.ProcID, res wire.ClientResult) {
	if !res.Committed {
		return
	}
	s.Node = node
	for _, w := range res.Writes {
		s.Observe(w.Obj, w.Ver)
	}
	for _, r := range res.Reads {
		s.Observe(r.Obj, r.Ver)
	}
}

// Stale reports whether a read of obj that returned ver is older than
// what this session has already observed — i.e. serving it would
// violate read-your-writes or monotonic reads.
func (s *Session) Stale(obj model.ObjectID, ver model.Version) bool {
	for i := range s.Marks {
		if s.Marks[i].Obj == obj {
			return ver.Less(s.Marks[i].ver())
		}
	}
	return false
}

// StaleReads returns the objects among a committed result's reads whose
// returned versions predate the session's marks. An empty slice means
// the result is fresh enough to serve.
func (s *Session) StaleReads(res wire.ClientResult) []model.ObjectID {
	var stale []model.ObjectID
	for _, r := range res.Reads {
		if s.Stale(r.Obj, r.Ver) {
			stale = append(stale, r.Obj)
		}
	}
	return stale
}
