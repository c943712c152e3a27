package main

import (
	"crypto/sha256"
	"encoding/hex"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

// TestSeed1TraceIsPinned runs the default split-heal scenario at seed 1
// and compares the SHA-256 of its JSONL trace with the digest in
// testdata. The trace records every probe, view, refresh, transaction
// and message in order, so a change that moves any of them, or the
// encoding of any event, fails here. Regenerate the digest only for a
// change that is meant to alter the protocol's behaviour:
//
//	go run ./cmd/vpsim -quiet -seed 1 -trace-out run.jsonl && sha256sum run.jsonl
func TestSeed1TraceIsPinned(t *testing.T) {
	want, err := os.ReadFile(filepath.Join("testdata", "seed1_trace.sha256"))
	if err != nil {
		t.Fatal(err)
	}
	out := filepath.Join(t.TempDir(), "run.jsonl")
	splitHeal(3, 1, false, out)
	got, err := os.ReadFile(out)
	if err != nil {
		t.Fatal(err)
	}
	sum := sha256.Sum256(got)
	if g, w := hex.EncodeToString(sum[:]), strings.TrimSpace(string(want)); g != w {
		t.Fatalf("seed-1 trace digest %s, want %s (%d lines)", g, w, strings.Count(string(got), "\n"))
	}
}
