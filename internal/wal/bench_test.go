package wal

import (
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
