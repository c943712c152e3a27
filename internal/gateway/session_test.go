package gateway

import (
	"encoding/base64"
	"fmt"
	"math/rand"
	"reflect"
	"testing"

	"github.com/virtualpartitions/vp/internal/model"
	"github.com/virtualpartitions/vp/internal/wire"
)

func ver(n uint64, p model.ProcID, ctr uint64) model.Version {
	return model.Version{Date: model.VPID{N: n, P: p}, Ctr: ctr}
}

func TestSessionTokenRoundTrip(t *testing.T) {
	s := &Session{}
	s.Node = 2
	s.Observe("x", ver(3, 1, 7))
	s.Observe("y", ver(3, 1, 9))

	s2, err := ParseSession(s.Token())
	if err != nil {
		t.Fatal(err)
	}
	if s2.Node != 2 {
		t.Errorf("Node = %v, want 2", s2.Node)
	}
	if !s2.Stale("x", ver(3, 1, 6)) || s2.Stale("x", ver(3, 1, 7)) || s2.Stale("x", ver(3, 1, 8)) {
		t.Error("x mark did not survive the round trip")
	}
	if !s2.Stale("y", ver(2, 3, 99)) { // older epoch, higher ctr: still stale
		t.Error("y mark ignores the VP date component")
	}

	// Empty and garbage tokens.
	if s3, err := ParseSession(""); err != nil || len(s3.Marks) != 0 {
		t.Errorf("empty token: %v, %+v", err, s3)
	}
	if _, err := ParseSession("!!not-base64!!"); err == nil {
		t.Error("garbage token accepted")
	}
}

func TestSessionMarkRatchetAndLRU(t *testing.T) {
	s := &Session{limit: 2}
	s.Observe("a", ver(1, 1, 5))
	s.Observe("a", ver(1, 1, 3)) // older: must not regress the mark
	if s.Stale("a", ver(1, 1, 4)) == false {
		t.Error("mark regressed on older observation")
	}

	s.Observe("b", ver(1, 1, 1))
	s.Observe("c", ver(1, 1, 1)) // evicts the least recently touched: a
	if len(s.Marks) != 2 {
		t.Fatalf("marks = %d, want 2", len(s.Marks))
	}
	if s.Stale("a", ver(0, 0, 0)) {
		t.Error("evicted mark still consulted")
	}
	if !s.Stale("b", ver(1, 1, 0)) || !s.Stale("c", ver(1, 1, 0)) {
		t.Error("retained marks lost")
	}
}

func TestSessionObserveResult(t *testing.T) {
	s := &Session{}
	s.ObserveResult(3, wire.ClientResult{
		Committed: true,
		Writes:    []wire.ObjVal{{Obj: "x", Val: 10, Ver: ver(2, 1, 4)}},
		Reads:     []wire.ObjVal{{Obj: "y", Val: 7, Ver: ver(2, 1, 2)}},
	})
	if s.Node != 3 {
		t.Errorf("Node = %v, want 3", s.Node)
	}
	if !s.Stale("x", ver(2, 1, 3)) || !s.Stale("y", ver(2, 1, 1)) {
		t.Error("writes/reads not observed")
	}

	// Aborted results leave the session untouched.
	before := s.Token()
	s.ObserveResult(1, wire.ClientResult{Committed: false,
		Writes: []wire.ObjVal{{Obj: "z", Val: 1, Ver: ver(9, 9, 9)}}})
	if s.Token() != before {
		t.Error("aborted result mutated the session")
	}

	stale := s.StaleReads(wire.ClientResult{Committed: true, Reads: []wire.ObjVal{
		{Obj: "x", Ver: ver(2, 1, 3)}, // stale
		{Obj: "y", Ver: ver(2, 1, 2)}, // fresh (equal)
	}})
	if len(stale) != 1 || stale[0] != "x" {
		t.Errorf("StaleReads = %v, want [x]", stale)
	}
}

// randomSession builds a session by observing n random versions of up to
// objs objects through a mark limit, so eviction is part of what the
// token must carry.
func randomSession(rng *rand.Rand, limit, objs, n int) *Session {
	s := &Session{limit: limit}
	s.Node = model.ProcID(rng.Intn(9))
	for i := 0; i < n; i++ {
		obj := model.ObjectID(fmt.Sprintf("obj/%d", rng.Intn(objs)))
		s.Observe(obj, ver(rng.Uint64()>>uint(rng.Intn(64)), model.ProcID(rng.Intn(9)), rng.Uint64()>>uint(rng.Intn(64))))
	}
	return s
}

// TestSessionTokenRoundTripRandom: every field of every mark survives
// the token, at and beyond the LRU limit, and the parsed session goes on
// evicting exactly as the original would.
func TestSessionTokenRoundTripRandom(t *testing.T) {
	rng := rand.New(rand.NewSource(18))
	for i := 0; i < 500; i++ {
		limit := 1 + rng.Intn(sessionMarks)
		s := randomSession(rng, limit, 1+rng.Intn(3*limit), rng.Intn(4*limit))
		got, err := ParseSession(s.Token())
		if err != nil {
			t.Fatalf("round %d: %v", i, err)
		}
		got.limit = limit
		if len(s.Marks) > limit {
			t.Fatalf("round %d: %d marks exceed the limit %d", i, len(s.Marks), limit)
		}
		if !reflect.DeepEqual(got, s) {
			t.Fatalf("round %d:\n got %+v\nwant %+v", i, got, s)
		}
		s.Observe("fresh", ver(1, 1, 1))
		got.Observe("fresh", ver(1, 1, 1))
		if !reflect.DeepEqual(got, s) {
			t.Fatalf("round %d: sessions diverge on the next observation", i)
		}
	}
}

// fullSession is a session at the default mark limit with object ids and
// versions of the size the deployed stack produces.
func fullSession() *Session {
	s := &Session{}
	s.Node = 3
	for i := 0; i < sessionMarks; i++ {
		s.Observe(model.ObjectID(fmt.Sprintf("o%d", 100+i)), ver(12, 3, uint64(40_000+i)))
	}
	return s
}

// TestSessionTokenBytesArePinned: clients hold tokens across gateway
// restarts and upgrades, so a token's spelling is a compatibility
// surface. This one, with single- and multi-byte uvarints and an empty
// object id, must encode to exactly these characters and parse back.
func TestSessionTokenBytesArePinned(t *testing.T) {
	const want = "AQOsAgMBeAcCKaoCDmFjY3QvbG9uZy1uYW1lgIBABcgBrAIAAAAAAA"
	s := &Session{Node: 3, Seq: 300, Marks: []Mark{
		{Obj: "x", DateN: 7, DateP: 2, Ctr: 41, Touch: 298},
		{Obj: "acct/long-name", DateN: 1 << 20, DateP: 5, Ctr: 200, Touch: 300},
		{Obj: ""},
	}}
	if got := s.Token(); got != want {
		t.Fatalf("token spelling changed:\n got %s\nwant %s", got, want)
	}
	back, err := ParseSession(want)
	if err != nil || !reflect.DeepEqual(back, s) {
		t.Fatalf("pinned token parsed to %+v (%v), want %+v", back, err, s)
	}
}

func TestSessionTokenFitsAHeader(t *testing.T) {
	if n := len(fullSession().Token()); n > 700 {
		t.Fatalf("a %d-mark token is %d bytes, want <= 700", sessionMarks, n)
	}
}

func TestSessionTokenRejectsOtherFormats(t *testing.T) {
	enc := base64.RawURLEncoding.EncodeToString
	for name, body := range map[string][]byte{
		"json (the retired format)": []byte(`{"n":2,"q":1,"m":[{"o":"x","c":7,"t":1}]}`),
		"unknown version":           {9, 0, 0, 0},
		"version only":              {tokenV1},
		"count beyond the bytes":    {tokenV1, 1, 1, 200},
		"id beyond the bytes":       {tokenV1, 1, 1, 1, 50, 'x', 0, 0, 0, 0},
		"truncated mark":            {tokenV1, 1, 1, 1, 1, 'x', 0, 0},
		"trailing bytes":            {tokenV1, 1, 1, 0, 0},
		"unterminated uvarint":      {tokenV1, 0x80},
	} {
		if s, err := ParseSession(enc(body)); err == nil {
			t.Errorf("%s: accepted as %+v", name, s)
		}
	}
}

// FuzzParseSession: no input panics, no input makes the parser allocate
// marks the input's length does not pay for, and what parses re-encodes
// to a token that parses to the same session.
func FuzzParseSession(f *testing.F) {
	f.Add(fullSession().Token())
	f.Add((&Session{}).Token())
	f.Add(base64.RawURLEncoding.EncodeToString([]byte{tokenV1, 1, 1, 0xff, 0xff, 0xff, 0xff, 0x0f}))
	f.Add("!!not-base64!!")
	f.Fuzz(func(t *testing.T, token string) {
		s, err := ParseSession(token)
		if err != nil {
			return
		}
		if max := base64.RawURLEncoding.DecodedLen(len(token)) / minMarkLen; len(s.Marks) > max {
			t.Fatalf("%d marks from a %d-byte token", len(s.Marks), len(token))
		}
		again, err := ParseSession(s.Token())
		if err != nil || !reflect.DeepEqual(again, s) {
			t.Fatalf("re-encoded token: %+v (%v), want %+v", again, err, s)
		}
	})
}

var sinkSession *Session

// BenchmarkSessionRoundTrip is what every gateway request pays for its
// session: parse the header, encode the reply's, at the full mark limit.
func BenchmarkSessionRoundTrip(b *testing.B) {
	token := fullSession().Token()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		s, err := ParseSession(token)
		if err != nil {
			b.Fatal(err)
		}
		token = s.Token()
		sinkSession = s
	}
}
