package wal

import (
	"bytes"
	"fmt"
	"os"
	"path/filepath"
	"testing"

	"semcc/internal/compat"
	"semcc/internal/core"
	"semcc/internal/oid"
	"semcc/internal/val"
)

// frameOf appends one batch frame covering recs to buf, as a flush
// does.
func frameOf(buf []byte, recs []core.JournalRecord) []byte {
	return appendFrame(buf, appendRecords(nil, recs))
}

// frameSeeds builds representative durable images (batch-framed, the
// DurableBytes format) used as fuzz seeds and, via
// TestDurableSeedCorpus, as a plain regression suite: single-record
// frames from the sync log, coalesced multi-record frames like the
// group writer emits, torn tails, and a checksum-corrupt frame.
func frameSeeds() [][]byte {
	inv := compat.Inv(oid.OID{K: oid.Tuple, N: 5}, mUnship, val.OfInt(3), val.OfStr("x"))
	recs := []core.JournalRecord{
		schemaRecord(),
		{Kind: core.JBeginRoot, Node: 1},
		{Kind: core.JBegin, Node: 2, Parent: 1, Inv: &inv},
		{Kind: core.JSubCommit, Node: 2, Splice: true},
		{Kind: core.JRootCommit, Node: 1},
	}

	perRecord := NewLog()
	for _, r := range recs {
		perRecord.Append(r)
	}

	var coalesced []byte
	coalesced = frameOf(coalesced, recs[:3])
	coalesced = frameOf(coalesced, recs[3:])

	oneBatch := frameOf(nil, recs)

	seeds := [][]byte{perRecord.DurableBytes(), coalesced, oneBatch, nil}
	// Torn tails at both a frame header and mid-body, and a corrupt
	// frame: a flipped byte inside a complete body must be caught by
	// the checksum, not decoded.
	seeds = append(seeds, coalesced[:len(coalesced)-1], coalesced[:1])
	bad := append([]byte(nil), oneBatch...)
	bad[len(bad)/2] ^= 0xff
	seeds = append(seeds, bad)
	// Interleaved roots and gids, cut mid-tree so the second frame's
	// first record is written from 0 again.
	il := interleavedLog().Records()
	seeds = append(seeds, frameOf(frameOf(nil, il[:5]), il[5:]))
	return seeds
}

// TestDurableSeedCorpus runs every frame fuzz seed through the decode
// property directly, so the corpus acts as a regression suite under
// plain `go test`.
func TestDurableSeedCorpus(t *testing.T) {
	for i, b := range frameSeeds() {
		checkDurableRoundTrip(t, i, b)
	}
}

func checkDurableRoundTrip(t *testing.T, i int, b []byte) {
	t.Helper()
	l, batches, err := UnmarshalDurable(b)
	if err != nil {
		return // rejected input: fine, as long as it did not panic
	}
	// Batch boundaries must tile the decoded records exactly.
	end := 0
	for _, bi := range batches {
		if bi.Records <= 0 && bi.End != end {
			t.Fatalf("seed %d: degenerate batch %+v", i, bi)
		}
		if bi.End != end+bi.Records || bi.EndOff > len(b) {
			t.Fatalf("seed %d: inconsistent batch %+v after end %d", i, bi, end)
		}
		end = bi.End
	}
	if end != l.Len() {
		t.Fatalf("seed %d: batches cover %d records, log holds %d", i, end, l.Len())
	}
	// An accepted image re-decodes from the log's own durable image to
	// the same records and boundaries.
	l2, batches2, err := UnmarshalDurable(l.DurableBytes())
	if err != nil {
		t.Fatalf("seed %d: re-decode of accepted image failed: %v", i, err)
	}
	if l2.Len() != l.Len() || len(batches2) != len(batches) {
		t.Fatalf("seed %d: decode not stable: %d/%d records, %d/%d batches",
			i, l2.Len(), l.Len(), len(batches2), len(batches))
	}
	if !bytes.Equal(l2.Marshal(), l.Marshal()) {
		t.Fatalf("seed %d: records changed across re-decode", i)
	}
	// An accepted log must also analyse without panicking (errors are
	// acceptable: the log can be semantically inconsistent).
	_, _ = Analyze(l)
}

// TestGenerateDurableFuzzCorpus regenerates the checked-in seed corpus
// under testdata/fuzz/FuzzUnmarshalDurable from frameSeeds. Gated
// behind an env var so a plain test run never rewrites testdata.
func TestGenerateDurableFuzzCorpus(t *testing.T) {
	if os.Getenv("WAL_GEN_CORPUS") == "" {
		t.Skip("set WAL_GEN_CORPUS=1 to regenerate testdata/fuzz/FuzzUnmarshalDurable")
	}
	dir := filepath.Join("testdata", "fuzz", "FuzzUnmarshalDurable")
	if err := os.MkdirAll(dir, 0o755); err != nil {
		t.Fatal(err)
	}
	for i, b := range frameSeeds() {
		body := fmt.Sprintf("go test fuzz v1\n[]byte(%q)\n", b)
		name := filepath.Join(dir, fmt.Sprintf("seed-%02d", i))
		if err := os.WriteFile(name, []byte(body), 0o644); err != nil {
			t.Fatal(err)
		}
	}
}

// FuzzUnmarshalDurable hardens the batch-frame decoder: arbitrary
// bytes must never panic or over-allocate, torn tails must decode to
// the complete-frame prefix, and any accepted image must re-decode
// stably.
func FuzzUnmarshalDurable(f *testing.F) {
	for _, b := range frameSeeds() {
		f.Add(b)
	}
	f.Fuzz(func(t *testing.T, b []byte) {
		checkDurableRoundTrip(t, 0, b)
	})
}
