package wire

import (
	"bytes"
	"fmt"
	"os"
	"path/filepath"
	"reflect"
	"strconv"
	"strings"
	"testing"
)

// fuzzSeeds returns two frames per message kind: the binary frame, and
// the same frame with the binary kind bit cleared — the header a peer
// still speaking the retired gob codec sent (bare kind byte, From, To,
// context), which must be rejected.
func fuzzSeeds(tb testing.TB) [][]byte {
	var seeds [][]byte
	enc := new(FrameEncoder)
	for _, env := range binaryEnvelopes() {
		b, err := enc.Encode(&env)
		if err != nil {
			tb.Fatalf("seed encode %s: %v", Kind(env.Msg), err)
		}
		seeds = append(seeds, append([]byte(nil), b...), unflagged(b))
	}
	return seeds
}

// unflagged copies frame with the binary kind bit cleared.
func unflagged(frame []byte) []byte {
	out := append([]byte(nil), frame...)
	if len(out) > 0 {
		out[0] &^= binaryKindFlag
	}
	return out
}

// fuzzExtraSeeds extends the corpus with frames the basic per-kind seeds
// miss: group-commit batches (Batch-built ClientTxn frames carry many
// tags in one envelope) and the two frame shapes a nemesis era produces
// on a real link — duplicated (self-concatenated) and truncated frames.
// Extras are appended AFTER fuzzSeeds so existing seed-NN files keep
// their indices.
func fuzzExtraSeeds(tb testing.TB) [][]byte {
	batch := NewBatch(77)
	if !batch.Add(BatchEntry{Tag: 1, Ops: IncrementOps("x", 1)}) ||
		!batch.Add(BatchEntry{Tag: 2, Ops: IncrementOps("y", -3)}) ||
		!batch.Add(BatchEntry{Tag: 3, Ops: IncrementOps("x", 2)}) {
		tb.Fatal("batch seed entries rejected")
	}
	env := Envelope{From: 4, To: 1, Msg: batch.Txn()}

	bin, err := new(FrameEncoder).Encode(&env)
	if err != nil {
		tb.Fatalf("batch seed: %v", err)
	}
	dup := append(append([]byte(nil), bin...), bin...)
	var seeds [][]byte
	seeds = append(seeds, append([]byte(nil), bin...))
	seeds = append(seeds, unflagged(bin))
	seeds = append(seeds, dup)                                          // duplicate delivery
	seeds = append(seeds, append([]byte(nil), bin[:len(bin)/2]...))     // truncated mid-payload
	seeds = append(seeds, append([]byte(nil), bin[:FrameHeaderLen]...)) // header only
	seeds = append(seeds, unflagged(bin[:len(bin)/2]))                  // truncated, no kind bit

	// Trace-context shapes: the same envelope with a context aboard, with
	// and without the kind bit, plus a frame cut inside the context
	// uvarints — right after the kind tag and routing bytes — so the
	// fuzzer starts from the ctx decode path's error branches, not only
	// its happy path. (The ctx-absent shape is every seed above.)
	tenv := env
	tenv.Ctx = tracedCtx
	tbin, err := new(FrameEncoder).Encode(&tenv)
	if err != nil {
		tb.Fatalf("traced seed: %v", err)
	}
	seeds = append(seeds, append([]byte(nil), tbin...))
	seeds = append(seeds, unflagged(tbin))
	seeds = append(seeds, append([]byte(nil), tbin[:4]...)) // kind+From+To, ctx truncated away
	seeds = append(seeds, append([]byte(nil), tbin[:8]...)) // cut mid-ctx-uvarint
	seeds = append(seeds, unflagged(tbin[:4]))              // no kind bit, cut before ctx completes
	return seeds
}

// allFuzzSeeds is the generated seed set.
func allFuzzSeeds(tb testing.TB) [][]byte {
	return append(fuzzSeeds(tb), fuzzExtraSeeds(tb)...)
}

// FuzzCodecRoundTrip drives the Decoder with arbitrary bytes; the
// checked-in corpus under testdata adds the frames of earlier eras,
// gob-codec frames among them. Properties: decoding never panics
// regardless of input; a frame without the binary kind bit never
// decodes; any frame that decodes re-encodes deterministically and
// round-trips to an identical envelope.
func FuzzCodecRoundTrip(f *testing.F) {
	for _, s := range allFuzzSeeds(f) {
		f.Add(s)
	}
	f.Add([]byte{})
	f.Add([]byte{0x80})
	f.Add(bytes.Repeat([]byte{0xff}, 32))
	f.Fuzz(func(t *testing.T, data []byte) {
		env, err := NewDecoder().Decode(data)
		if err != nil {
			return // garbage is allowed to fail, never to panic
		}
		if data[0]&binaryKindFlag == 0 {
			t.Fatalf("frame without the binary kind bit decoded: %#v", env)
		}
		enc := new(FrameEncoder)
		b1, err := enc.Encode(&env)
		if err != nil {
			t.Fatalf("decoded envelope failed to re-encode: %v (%#v)", err, env)
		}
		env2, err := NewDecoder().Decode(b1)
		if err != nil {
			t.Fatalf("re-encoded frame failed to decode: %v", err)
		}
		b2, err := new(FrameEncoder).Encode(&env2)
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(b1, b2) {
			t.Fatalf("binary encoding not deterministic:\n %x\nvs %x", b1, b2)
		}
		if !reflect.DeepEqual(env, env2) {
			t.Fatalf("binary round trip drifted:\n got %#v\nwant %#v", env2, env)
		}
	})
}

// readCorpus loads the checked-in go-fuzz v1 seed files, so the mutation
// test exercises exactly what is committed rather than what the current
// generator produces. The odd-numbered seeds up to seed-53, and seed-57,
// seed-59 and seed-62, are gob-codec frames.
func readCorpus(t *testing.T) map[string][]byte {
	t.Helper()
	dir := filepath.Join("testdata", "fuzz", "FuzzCodecRoundTrip")
	entries, err := os.ReadDir(dir)
	if err != nil {
		t.Fatalf("read corpus dir: %v", err)
	}
	corpus := map[string][]byte{}
	for _, e := range entries {
		raw, err := os.ReadFile(filepath.Join(dir, e.Name()))
		if err != nil {
			t.Fatal(err)
		}
		lines := strings.SplitN(string(raw), "\n", 3)
		if len(lines) < 2 || lines[0] != "go test fuzz v1" {
			t.Fatalf("%s: not a go-fuzz v1 file", e.Name())
		}
		quoted := strings.TrimSuffix(strings.TrimPrefix(lines[1], "[]byte("), ")")
		s, err := strconv.Unquote(quoted)
		if err != nil {
			t.Fatalf("%s: unquote: %v", e.Name(), err)
		}
		corpus[e.Name()] = []byte(s)
	}
	if len(corpus) == 0 {
		t.Fatal("empty corpus")
	}
	return corpus
}

// decodeGracefully runs one Decode and converts a panic into a test
// failure naming the offending mutation. A successful decode must also
// re-encode: the decoder may not hand upper layers an envelope the codec
// itself cannot represent.
func decodeGracefully(t *testing.T, name string, data []byte) {
	t.Helper()
	defer func() {
		if r := recover(); r != nil {
			t.Fatalf("%s: Decode panicked: %v (input %x)", name, r, data)
		}
	}()
	env, err := NewDecoder().Decode(data)
	if err != nil {
		return
	}
	if _, err := new(FrameEncoder).Encode(&env); err != nil {
		t.Fatalf("%s: decoded envelope failed to re-encode: %v (%#v)", name, err, env)
	}
}

// TestDecoderGracefulOnMutations replays every corpus seed through the
// mutations a faulty nemesis-era link produces — truncation at every
// prefix length, duplicate (self-concatenated) delivery, and single-bit
// corruption at every position — and demands a graceful error, never a
// panic, from the decoder.
func TestDecoderGracefulOnMutations(t *testing.T) {
	for name, seed := range readCorpus(t) {
		decodeGracefully(t, name, seed)
		for cut := 0; cut < len(seed); cut++ {
			decodeGracefully(t, fmt.Sprintf("%s[:%d]", name, cut), seed[:cut])
		}
		decodeGracefully(t, name+"+dup", append(append([]byte(nil), seed...), seed...))
		for i := 0; i < len(seed); i++ {
			for bit := 0; bit < 8; bit++ {
				m := append([]byte(nil), seed...)
				m[i] ^= 1 << bit
				decodeGracefully(t, fmt.Sprintf("%s^bit(%d,%d)", name, i, bit), m)
			}
		}
	}
}

// TestGobFrameRejected: every gob-codec frame of the corpus decodes to
// an error, without a panic and without a message.
func TestGobFrameRejected(t *testing.T) {
	n := 0
	for name, seed := range readCorpus(t) {
		if len(seed) == 0 || seed[0]&binaryKindFlag != 0 {
			continue
		}
		n++
		var env Envelope
		if err := NewDecoder().DecodeInto(seed, &env); err == nil || env.Msg != nil {
			t.Errorf("%s: gob frame gave err=%v msg=%#v", name, err, env.Msg)
		}
	}
	if n == 0 {
		t.Fatal("no gob frame in the corpus")
	}
}
