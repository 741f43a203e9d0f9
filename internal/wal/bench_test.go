package wal

import (
	"encoding/binary"
	"testing"

	"semcc/internal/compat"
	"semcc/internal/core"
	"semcc/internal/oid"
	"semcc/internal/val"
)

// BenchmarkJournalAppend is the writer's per-layer micro-benchmark: one
// op is two appends, a record without an invocation (JBegin) and one
// with (JSubCommit carrying its inverse), on a free-flush journal in
// each durability mode. Run with -cpu 1 (make bench-store): sync then
// measures append + frame, group and async the submit half with the
// writer sharing the one processor. The journal is cut every 64K ops so
// memory stays bounded; Reset keeps the buffers, so steady state does
// not regrow them.
func BenchmarkJournalAppend(b *testing.B) {
	inv := &compat.Invocation{Object: oid.OID{K: oid.Atomic, N: 7}, Method: "Put", Args: []val.V{val.OfInt(42)}}
	for _, mode := range Modes() {
		b.Run(mode.String(), func(b *testing.B) {
			j := New(Config{Mode: mode})
			defer j.Close()
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				if i&(1<<16-1) == 0 {
					j.Reset()
				}
				n := uint64(i + 2)
				j.Append(core.JournalRecord{Kind: core.JBegin, Node: n, Parent: n - 1})
				j.Append(core.JournalRecord{Kind: core.JSubCommit, Node: n, Inv: inv})
			}
		})
	}
}

// BenchmarkRecordCodec is the record codec's per-layer micro-benchmark:
// one op encodes the 75 records of testdata/golden/flat.bin — the
// dryRun order-entry scenario — as one chain (appendRecords, the flat
// format and the body of a batch frame) and decodes them back with
// decodeRecord. No journal, no framing, no checksum: the per-record
// encode and decode alone. Run with -cpu 1 (make bench-store).
func BenchmarkRecordCodec(b *testing.B) {
	l, err := Unmarshal(golden(b, "flat.bin"))
	if err != nil {
		b.Fatal(err)
	}
	recs := l.recs
	var buf []byte
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		buf = appendRecords(buf[:0], recs)
		n, p := binary.Uvarint(buf)
		prev := uint64(0)
		for j := uint64(0); j < n; j++ {
			r, np, err := decodeRecord(buf, p, j, prev)
			if err != nil {
				b.Fatal(err)
			}
			p, prev = np, r.Node
		}
		if n != uint64(len(recs)) || p != len(buf) {
			b.Fatalf("decoded %d records ending at %d, want %d ending at %d", n, p, len(recs), len(buf))
		}
	}
}
