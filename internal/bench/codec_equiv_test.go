package bench

import (
	"os"
	"path/filepath"
	"strings"
	"testing"

	"github.com/virtualpartitions/vp/internal/wire"
)

// TestCrossCodecGoldenEquivalence replays the golden seed-1 scenarios
// (E1, E2, E12) with every remote message routed through a real wire
// codec round-trip — encode to frame bytes, decode back — and asserts
// the rendered results are byte-for-byte identical to the golden file.
// Each codec runs as its own subtest; the binary codec is the only one.
// The simulation normally passes messages by value, so this is the test
// that proves the codec is faithful: any field it drops, reorders
// non-deterministically, or mangles (nil vs empty map, version zigzag,
// set encoding) perturbs the protocol run and diverges the markdown.
func TestCrossCodecGoldenEquivalence(t *testing.T) {
	if testing.Short() {
		t.Skip("E12 runs 8 fault-injection trials; skipped in -short")
	}
	want, err := os.ReadFile(filepath.Join("testdata", "golden_seed1.md"))
	if err != nil {
		t.Fatal(err)
	}
	t.Run("binary", func(t *testing.T) {
		simTranscode = roundTripper(t)
		defer func() { simTranscode = nil }()
		var b strings.Builder
		for _, id := range []string{"e1", "e2", "e12"} {
			e := Find(id)
			if e == nil {
				t.Fatalf("experiment %s not registered", id)
			}
			b.WriteString(e.Run(1).Markdown())
			b.WriteString("\n")
		}
		if got := b.String(); got != string(want) {
			t.Errorf("seed-1 trace through the wire codec diverged from golden file:\n--- got\n%s\n--- want\n%s",
				got, want)
		}
	})
}

// roundTripper returns a Transcode hook that pushes each envelope
// through one persistent encoder/decoder pair — the same shape as one
// long-lived connection. The sim engine is single-goroutine, so the
// shared pair needs no locking. Decode is the owning variant: the
// delivered message outlives the encoder's next reuse of its buffer.
func roundTripper(t *testing.T) func(wire.Envelope) wire.Envelope {
	var enc wire.FrameEncoder
	dec := wire.NewDecoder()
	return func(env wire.Envelope) wire.Envelope {
		frame, err := enc.EncodeFrame(&env)
		if err != nil {
			t.Fatalf("encode %T: %v", env.Msg, err)
		}
		out, err := dec.Decode(frame[wire.FrameHeaderLen:])
		if err != nil {
			t.Fatalf("decode %T: %v", env.Msg, err)
		}
		return out
	}
}
