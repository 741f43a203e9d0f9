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
	inv := &compat.Invocation{Object: oid.OID{K: oid.Atomic, N: 7}, Method: compat.OpPut, Args: []val.V{val.OfInt(42)}}
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

// BenchmarkRecordCodec is the record codec's per-layer micro-benchmark
// on the 77 records of testdata/golden/flat.bin — two schema records,
// then the dryRun order-entry scenario as the engine journaled it when
// the image was written, invocations on every JBegin. It reports the
// mean encoded size as B/record. One op of encode writes them
// as one chain (appendRecords, the flat format and the body of a batch
// frame) into a reused buffer, what a flush does; one op of decode
// reads that chain back with decodeRecord, what recovery does. No
// journal, no framing, no checksum: the per-record codec alone. Run
// with -cpu 1 (make bench-store).
func BenchmarkRecordCodec(b *testing.B) {
	recs := goldenRecords(b)
	b.Run("encode", func(b *testing.B) {
		var buf []byte
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			buf = appendRecords(buf[:0], recs)
		}
		b.ReportMetric(float64(len(buf))/float64(len(recs)), "B/record")
	})
	b.Run("decode", func(b *testing.B) {
		buf := appendRecords(nil, recs)
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
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
		b.ReportMetric(float64(len(buf))/float64(len(recs)), "B/record")
	})
}

// TestFrameEncodeAllocs: once a journal's buffers have grown, framing
// a batch allocates nothing. The body is encoded into the Log's own
// buffer, every argument straight into it, and the frame appended to
// the image. The batch is the frozen golden scenario, whose records
// carry invocations with arguments.
func TestFrameEncodeAllocs(t *testing.T) {
	l := NewLog()
	l.recs = goldenRecords(t)
	args := 0
	for _, r := range l.recs {
		if r.Inv != nil {
			args += len(r.Inv.Args)
		}
	}
	if args == 0 {
		t.Fatal("the batch carries no argument: the check would not reach val.V's encoder")
	}
	flush := func() {
		l.mu.Lock()
		l.durable, l.durableRecs = l.durable[:0], 0
		if n, _ := l.flushLocked(len(l.recs)); n != len(l.recs) {
			t.Fatalf("flushed %d of %d records", n, len(l.recs))
		}
		l.mu.Unlock()
	}
	flush() // grow the buffers
	if n := testing.AllocsPerRun(100, flush); n != 0 {
		t.Errorf("a warmed flush of %d records (%d arguments) allocates %v times, want 0", len(l.recs), args, n)
	}
}
