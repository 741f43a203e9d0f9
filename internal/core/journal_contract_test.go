// Cross-mode journal contract tests. The in-package tests of
// journal_test.go pin the engine's emission discipline against an
// in-memory recorder; this file (an external test package, because
// internal/wal imports internal/core) runs the same contract against
// the real journal in all three modes — sync, the group-commit
// pipeline, and its async-durability variant — via a table, so the -wal
// ablation axis cannot drift in what, or in what order, it journals.
package core_test

import (
	"bytes"
	"testing"
	"time"

	"semcc/internal/core"
	"semcc/internal/oodb"
	"semcc/internal/val"
	"semcc/internal/wal"
)

// journalImpls enumerates the three -wal modes. MaxBatch 3
// with an effectively infinite delay exercises real batch coalescing
// (several flushes per scenario) while keeping the single-goroutine
// runs deterministic.
func journalImpls() []struct {
	name string
	mk   func() wal.Journal
} {
	return []struct {
		name string
		mk   func() wal.Journal
	}{
		{"sync", func() wal.Journal { return wal.New(wal.Config{Mode: wal.ModeSync}) }},
		{"group", func() wal.Journal {
			return wal.New(wal.Config{Mode: wal.ModeGroup, MaxBatch: 3, MaxDelay: time.Hour})
		}},
		{"async", func() wal.Journal {
			return wal.New(wal.Config{Mode: wal.ModeAsync, MaxBatch: 3, MaxDelay: time.Hour})
		}},
	}
}

// driveJournal runs one committing and one aborting top-level
// transaction — a winner and a compensated loser, the two outcome
// paths the engine journals — and returns the ids of the two roots.
func driveJournal(t *testing.T, j core.Journal) (commitRoot, abortRoot uint64) {
	t.Helper()
	db := oodb.Open(oodb.Options{Protocol: core.Semantic, Journal: j})
	a, err := db.Store().NewAtomic(val.OfInt(0))
	if err != nil {
		t.Fatal(err)
	}

	tx := db.Begin()
	commitRoot = tx.Root().ID()
	if err := tx.Put(a, val.OfInt(1)); err != nil {
		t.Fatal(err)
	}
	if err := tx.Commit(); err != nil {
		t.Fatal(err)
	}

	tx2 := db.Begin()
	abortRoot = tx2.Root().ID()
	if err := tx2.Put(a, val.OfInt(2)); err != nil {
		t.Fatal(err)
	}
	if err := tx2.Abort(); err != nil {
		t.Fatal(err)
	}
	return commitRoot, abortRoot
}

// kindSeq extracts the record kinds.
func kindSeq(recs []core.JournalRecord) []core.JournalKind {
	out := make([]core.JournalKind, len(recs))
	for i, r := range recs {
		out[i] = r.Kind
	}
	return out
}

// indexOf returns the position of the first record matching kind and
// node, or -1.
func indexOf(recs []core.JournalRecord, kind core.JournalKind, node uint64) int {
	for i, r := range recs {
		if r.Kind == kind && r.Node == node {
			return i
		}
	}
	return -1
}

// TestJournalContractAcrossImplementations holds the three journal
// modes to one contract: the emission order of the
// winner/loser scenario is identical across all of them (down to the
// serialised bytes — the durability mode must not change *what* is
// journaled), every record is in the durable image after a Sync
// barrier, and root outcomes are durable at Commit/Abort return under
// sync and group (but need not be under async).
func TestJournalContractAcrossImplementations(t *testing.T) {
	var refBytes []byte
	var refName string
	for _, impl := range journalImpls() {
		t.Run(impl.name, func(t *testing.T) {
			j := impl.mk()
			defer j.Close()
			commitRoot, abortRoot := driveJournal(t, j)

			// Root outcomes are durable the moment the outcome call
			// returns — except in async mode, where durability waits
			// for a flush trigger or barrier.
			durable, _, err := wal.UnmarshalDurable(j.DurableBytes())
			if err != nil {
				t.Fatalf("decode durable image: %v", err)
			}
			durableRecs := durable.RecordsFrom(0)
			wantOutcomesDurable := j.Mode() != wal.ModeAsync
			haveCommit := indexOf(durableRecs, core.JRootCommit, commitRoot) >= 0
			haveAbort := indexOf(durableRecs, core.JNodeAborted, abortRoot) >= 0
			if wantOutcomesDurable && (!haveCommit || !haveAbort) {
				t.Fatalf("mode %s: outcomes acked but not durable (commit %v, abort %v)",
					j.Mode(), haveCommit, haveAbort)
			}

			// After the Sync barrier the durable image holds the whole
			// submitted sequence, in submission order.
			j.Sync()
			recs := j.Records()
			durable, _, err = wal.UnmarshalDurable(j.DurableBytes())
			if err != nil {
				t.Fatalf("decode durable image after sync: %v", err)
			}
			if durable.Len() != len(recs) {
				t.Fatalf("durable image holds %d records after Sync, journal submitted %d",
					durable.Len(), len(recs))
			}

			// Emission-order contract: the winner's records strictly
			// precede its JRootCommit; the loser's rollback runs
			// JAbortStart before JNodeAborted, and the abort's record
			// group follows the winner's.
			kinds := kindSeq(recs)
			ci := indexOf(recs, core.JRootCommit, commitRoot)
			as := indexOf(recs, core.JAbortStart, abortRoot)
			ai := indexOf(recs, core.JNodeAborted, abortRoot)
			if ci < 0 || as < 0 || ai < 0 {
				t.Fatalf("kinds = %v: missing outcome records (commit %d, abortStart %d, aborted %d)",
					kinds, ci, as, ai)
			}
			if kinds[0] != core.JBeginRoot {
				t.Fatalf("kinds = %v: journal does not open with JBeginRoot", kinds)
			}
			if !(ci < as && as < ai) {
				t.Fatalf("kinds = %v: outcome order commit=%d abortStart=%d aborted=%d", kinds, ci, as, ai)
			}

			// Cross-mode: serialised journals are
			// byte-identical — the ablation changes when bytes become
			// durable, never which bytes.
			flat := wal.NewLog()
			for _, r := range recs {
				flat.Append(r)
			}
			got := flat.Marshal()
			if refBytes == nil {
				refBytes, refName = got, impl.name
			} else if !bytes.Equal(got, refBytes) {
				t.Fatalf("journal bytes diverge from the %s mode (%d vs %d records)",
					refName, len(recs), durable.Len())
			}
		})
	}
}
