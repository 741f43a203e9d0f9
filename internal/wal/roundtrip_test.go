package wal

import (
	"bytes"
	"testing"

	"semcc/internal/compat"
	"semcc/internal/core"
	"semcc/internal/oid"
	"semcc/internal/val"
)

// roundtripRecords is a record sequence exercising every kind and
// every optional field (invocation with args, splice flag).
func roundtripRecords() []core.JournalRecord {
	inv := compat.Inv(oid.OID{K: oid.Tuple, N: 7}, mShip, val.OfInt(42))
	return []core.JournalRecord{
		{Kind: core.JBeginRoot, Node: 1},
		{Kind: core.JBegin, Node: 2, Parent: 1, Inv: &inv},
		{Kind: core.JSubCommit, Node: 2, Inv: &inv},
		{Kind: core.JSubCommit, Node: 3, Splice: true},
		{Kind: core.JAbortStart, Node: 1},
		{Kind: core.JCompensated, Node: 1},
		{Kind: core.JNodeAborted, Node: 1},
		{Kind: core.JRootCommit, Node: 4},
		{Kind: core.JPrepare, Node: 5, Parent: 9},
		{Kind: core.JDecide, Node: 5, Parent: 9, Splice: true},
	}
}

// TestUnmarshalRoundTripPreservesStats pins the contract the one-giant-
// frame reconstruction used to break: a sync log surviving a
// Marshal→Unmarshal round trip must report the same Stats — in
// particular flushes == records, the synchronous log's invariant — and
// an identical durable image, not a single frame with flushes = 1.
func TestUnmarshalRoundTripPreservesStats(t *testing.T) {
	l := NewLog()
	for _, r := range roundtripRecords() {
		l.Append(r)
	}

	got, err := Unmarshal(l.Marshal())
	if err != nil {
		t.Fatal(err)
	}

	want, have := l.Stats(), got.Stats()
	if want != have {
		t.Fatalf("Stats round trip: want %+v, got %+v", want, have)
	}
	if have.Flushes != uint64(have.Records) {
		t.Fatalf("sync-log invariant broken after round trip: %d flushes for %d records", have.Flushes, have.Records)
	}
	if !bytes.Equal(l.DurableBytes(), got.DurableBytes()) {
		t.Fatalf("durable image not byte-identical after round trip")
	}
}

// TestUnmarshalRoundTripBatchBoundaries checks the reconstructed
// framing against UnmarshalDurable: one single-record frame per
// append, so a recovered-from-flat log and a recovered-from-durable
// log agree on batch boundaries too.
func TestUnmarshalRoundTripBatchBoundaries(t *testing.T) {
	l := NewLog()
	recs := roundtripRecords()
	for _, r := range recs {
		l.Append(r)
	}

	flat, err := Unmarshal(l.Marshal())
	if err != nil {
		t.Fatal(err)
	}
	_, batches, err := UnmarshalDurable(flat.DurableBytes())
	if err != nil {
		t.Fatal(err)
	}
	if len(batches) != len(recs) {
		t.Fatalf("got %d batches, want %d (one per record)", len(batches), len(recs))
	}
	for i, b := range batches {
		if b.Records != 1 || b.End != i+1 {
			t.Fatalf("batch %d = %+v, want single-record frame ending at %d", i, b, i+1)
		}
	}
}

// TestUnmarshalEmpty pins the degenerate case: an empty log round-trips
// to an empty log with no fabricated flushes.
func TestUnmarshalEmpty(t *testing.T) {
	got, err := Unmarshal(NewLog().Marshal())
	if err != nil {
		t.Fatal(err)
	}
	if s := got.Stats(); s.Records != 0 || s.Flushes != 0 {
		t.Fatalf("empty round trip: %+v", s)
	}
	if len(got.DurableBytes()) != 0 {
		t.Fatalf("empty round trip produced a durable image")
	}
}
