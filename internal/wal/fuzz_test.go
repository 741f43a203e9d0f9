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

// seedLogs builds representative serialised logs used both as fuzz
// seeds and (via TestUnmarshalSeedCorpus) as a plain regression suite,
// so the interesting inputs are exercised even when the fuzz engine is
// not running.
func seedLogs() [][]byte {
	inv := compat.Inv(oid.OID{K: oid.Tuple, N: 5}, mUnship, val.OfInt(3), val.OfStr("x"))
	splice := compat.Inv(oid.OID{K: oid.Set, N: 2}, compat.OpInsert,
		val.OfRef(oid.OID{K: oid.Tuple, N: 9}), val.OfInt(1+1<<32))

	full := NewLog()
	full.Append(schemaRecord())
	full.Append(core.JournalRecord{Kind: core.JBeginRoot, Node: 1})
	full.Append(core.JournalRecord{Kind: core.JBegin, Node: 2, Parent: 1, Inv: &inv})
	full.Append(core.JournalRecord{Kind: core.JSubCommit, Node: 2, Inv: &splice})
	full.Append(core.JournalRecord{Kind: core.JAbortStart, Node: 1})
	full.Append(core.JournalRecord{Kind: core.JCompensated, Node: 1})
	full.Append(core.JournalRecord{Kind: core.JNodeAborted, Node: 1})

	committed := NewLog()
	committed.Append(core.JournalRecord{Kind: core.JBeginRoot, Node: 1})
	committed.Append(core.JournalRecord{Kind: core.JSubCommit, Node: 2, Splice: true})
	committed.Append(core.JournalRecord{Kind: core.JRootCommit, Node: 1})

	empty := NewLog()

	seeds := [][]byte{full.Marshal(), committed.Marshal(), empty.Marshal(), nil}
	// Corrupt variants of the richest seed: truncations and a flipped
	// kind byte.
	rich := full.Marshal()
	seeds = append(seeds, rich[:len(rich)/2], rich[:1])
	bad := append([]byte(nil), rich...)
	bad[1] = 200 // first record's kind byte
	seeds = append(seeds, bad)
	seeds = append(seeds, interleavedLog().Marshal())
	return seeds
}

// schemaRecord is the schema record of a type whose methods include
// the mShip and mUnship the seeds invoke, as a database journals it.
func schemaRecord() core.JournalRecord {
	names := []val.V{val.OfStr("Item")}
	for _, m := range []string{"NewOrder", "ShipOrder", "PayOrder", "TotalPayment", "RemoveOrder", "UnshipOrder"} {
		names = append(names, val.OfStr(m))
	}
	inv := compat.Inv(oid.DB, compat.OpRoot, names...)
	return core.JournalRecord{Kind: core.JSchema, Inv: &inv}
}

// interleavedLog is a seed for the id codes' other branches: two
// roots' records interleaved, so Node steps down as well as up, and a
// prepare/decide pair whose Parent is a gid unrelated to any node id.
func interleavedLog() *Log {
	inv := compat.Inv(oid.OID{K: oid.Tuple, N: 5}, mShip, val.OfInt(3))
	const gid = 1<<64 - 2
	l := NewLog()
	l.Append(core.JournalRecord{Kind: core.JBeginRoot, Node: 300})
	l.Append(core.JournalRecord{Kind: core.JBeginRoot, Node: 301})
	l.Append(core.JournalRecord{Kind: core.JBegin, Node: 302, Parent: 300, Inv: &inv})
	l.Append(core.JournalRecord{Kind: core.JBegin, Node: 303, Parent: 301, Inv: &inv})
	l.Append(core.JournalRecord{Kind: core.JSubCommit, Node: 302, Splice: true})
	l.Append(core.JournalRecord{Kind: core.JSubCommit, Node: 303, Splice: true})
	l.Append(core.JournalRecord{Kind: core.JPrepare, Node: 300, Parent: gid})
	l.Append(core.JournalRecord{Kind: core.JRootCommit, Node: 301})
	l.Append(core.JournalRecord{Kind: core.JDecide, Node: 300, Parent: gid, Splice: true})
	l.Append(core.JournalRecord{Kind: core.JRootCommit, Node: 300})
	return l
}

// TestUnmarshalSeedCorpus runs every fuzz seed through the
// Unmarshal→Marshal→Unmarshal property directly, so the corpus acts as
// a regression suite under plain `go test`.
func TestUnmarshalSeedCorpus(t *testing.T) {
	for i, b := range seedLogs() {
		checkRoundTrip(t, i, b)
	}
}

func checkRoundTrip(t *testing.T, i int, b []byte) {
	t.Helper()
	l, err := Unmarshal(b)
	if err != nil {
		return // rejected input: fine, as long as it did not panic
	}
	// Accepted input must survive a marshal round trip unchanged in
	// record count and re-serialise to identical bytes (the encoding
	// is canonical).
	b2 := l.Marshal()
	l2, err := Unmarshal(b2)
	if err != nil {
		t.Fatalf("seed %d: re-unmarshal of own marshal failed: %v", i, err)
	}
	if l.Len() != l2.Len() {
		t.Fatalf("seed %d: record count changed across round trip: %d vs %d", i, l.Len(), l2.Len())
	}
	if !bytes.Equal(b2, l2.Marshal()) {
		t.Fatalf("seed %d: marshal is not canonical", i)
	}
	// An accepted log must also analyse without panicking (errors are
	// acceptable: the log can be semantically inconsistent).
	_, _ = Analyze(l)
}

// TestGenerateFuzzCorpus regenerates the checked-in seed corpus under
// testdata/fuzz/FuzzUnmarshal from seedLogs. Gated behind an env var
// so a plain test run never rewrites testdata.
func TestGenerateFuzzCorpus(t *testing.T) {
	if os.Getenv("WAL_GEN_CORPUS") == "" {
		t.Skip("set WAL_GEN_CORPUS=1 to regenerate testdata/fuzz/FuzzUnmarshal")
	}
	dir := filepath.Join("testdata", "fuzz", "FuzzUnmarshal")
	if err := os.MkdirAll(dir, 0o755); err != nil {
		t.Fatal(err)
	}
	for i, b := range seedLogs() {
		body := fmt.Sprintf("go test fuzz v1\n[]byte(%q)\n", b)
		name := filepath.Join(dir, fmt.Sprintf("seed-%02d", i))
		if err := os.WriteFile(name, []byte(body), 0o644); err != nil {
			t.Fatal(err)
		}
	}
}

// FuzzUnmarshal hardens the log decoder: arbitrary bytes must never
// panic or over-allocate, and any input Unmarshal accepts must
// round-trip through Marshal and analyse cleanly.
func FuzzUnmarshal(f *testing.F) {
	for _, b := range seedLogs() {
		f.Add(b)
	}
	f.Fuzz(func(t *testing.T, b []byte) {
		checkRoundTrip(t, 0, b)
	})
}
