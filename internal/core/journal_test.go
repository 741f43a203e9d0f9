package core

import (
	"strings"
	"sync"
	"testing"

	"semcc/internal/compat"
	"semcc/internal/val"
)

// memJournal collects records for assertions. The tests here pin the
// engine's emission discipline in isolation; journal_contract_test.go
// runs the same contract against all three real Journal
// implementations (sync / group / async) through the full stack.
type memJournal struct {
	mu   sync.Mutex
	recs []JournalRecord
}

func (j *memJournal) Append(r JournalRecord) {
	j.mu.Lock()
	j.recs = append(j.recs, r)
	j.mu.Unlock()
}

func (j *memJournal) kinds() []JournalKind {
	j.mu.Lock()
	defer j.mu.Unlock()
	out := make([]JournalKind, len(j.recs))
	for i, r := range j.recs {
		out[i] = r.Kind
	}
	return out
}

func TestJournalEmissionOrder(t *testing.T) {
	j := &memJournal{}
	e := New(Config{Kind: Semantic, Table: newTestTable(), Journal: j})
	e.SetExec(func(parent *Tx, inv compat.Invocation) error { return nil })

	o := obj()
	r := e.BeginRoot()
	a := begin(t, e, r, compat.Inv(o, mA))
	inv := compat.Inv(o, mUndoA, val.OfInt(1))
	if err := e.CompleteChild(a, &inv); err != nil {
		t.Fatal(err)
	}
	if err := e.CommitRoot(r); err != nil {
		t.Fatal(err)
	}

	want := []JournalKind{JBeginRoot, JBegin, JSubCommit, JRootCommit}
	got := j.kinds()
	if len(got) != len(want) {
		t.Fatalf("kinds = %v, want %v", got, want)
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("kinds = %v, want %v", got, want)
		}
	}
	j.mu.Lock()
	if j.recs[2].Inv == nil || j.recs[2].Inv.Method != mUndoA {
		t.Errorf("subcommit inverse = %v", j.recs[2].Inv)
	}
	if j.recs[1].Parent != r.ID() || j.recs[1].Node != a.ID() {
		t.Errorf("begin record ids wrong: %+v", j.recs[1])
	}
	j.mu.Unlock()
}

func TestJournalAbortSequence(t *testing.T) {
	j := &memJournal{}
	e := New(Config{Kind: Semantic, Table: newTestTable(), Journal: j})
	e.SetExec(func(parent *Tx, inv compat.Invocation) error { return nil })

	o := obj()
	r := e.BeginRoot()
	a := begin(t, e, r, compat.Inv(o, mA))
	inv := compat.Inv(o, mUndoA)
	if err := e.CompleteChild(a, &inv); err != nil {
		t.Fatal(err)
	}
	if err := e.AbortRoot(r); err != nil {
		t.Fatal(err)
	}
	// BeginRoot, Begin(A), SubCommit(A), AbortStart(root),
	// Compensated(root), NodeAborted(root). (The exec stub does not
	// create real compensation children.)
	want := []JournalKind{JBeginRoot, JBegin, JSubCommit, JAbortStart, JCompensated, JNodeAborted}
	got := j.kinds()
	if len(got) != len(want) {
		t.Fatalf("kinds = %v, want %v", got, want)
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("kinds = %v, want %v", got, want)
		}
	}
}

// checkJournal runs an assertion callback on every Append — i.e. at
// exactly the instant the record would hit a durable log — before
// collecting the record like memJournal.
type checkJournal struct {
	memJournal
	onAppend func(r JournalRecord)
}

func (j *checkJournal) Append(r JournalRecord) {
	if j.onAppend != nil {
		j.onAppend(r)
	}
	j.memJournal.Append(r)
}

// TestJournalWriteAheadOfStateTransitions pins the write-ahead
// discipline: the records that make an outcome durable (JSubCommit,
// JRootCommit, JNodeAborted) must reach the journal while the node is
// still Active — before the state transition, the done-channel close,
// and (for JRootCommit) the lock release. A crash that persists the
// record but not the transition is recoverable (journal ahead of
// state); the reverse order would lose effects the journal never saw.
func TestJournalWriteAheadOfStateTransitions(t *testing.T) {
	byID := map[uint64]*Tx{}
	var e *Engine
	j := &checkJournal{}
	sawOutcomes := 0
	j.onAppend = func(r JournalRecord) {
		n, ok := byID[r.Node]
		if !ok {
			return
		}
		switch r.Kind {
		case JSubCommit, JRootCommit, JNodeAborted:
			sawOutcomes++
			if s := n.State(); s != Active {
				t.Errorf("%d: %v record appended after the transition to %s", r.Node, r.Kind, s)
			}
			select {
			case <-n.Done():
				t.Errorf("%d: %v record appended after close(done)", r.Node, r.Kind)
			default:
			}
			if r.Kind == JRootCommit {
				if dump := e.DumpLocks(); !strings.Contains(dump, "tuple:") {
					t.Errorf("JRootCommit appended after lock release; dump:\n%q", dump)
				}
			}
		}
	}

	e = New(Config{Kind: Semantic, Table: newTestTable(), Journal: j})
	e.SetExec(func(parent *Tx, inv compat.Invocation) error { return nil })

	// Commit path: root with one subcommitted child.
	o := obj()
	r := e.BeginRoot()
	byID[r.ID()] = r
	a := begin(t, e, r, compat.Inv(o, mA))
	byID[a.ID()] = a
	inv := compat.Inv(o, mUndoA)
	if err := e.CompleteChild(a, &inv); err != nil {
		t.Fatal(err)
	}
	if err := e.CommitRoot(r); err != nil {
		t.Fatal(err)
	}

	// Abort path: JNodeAborted must also precede the rollback becoming
	// observable.
	r2 := e.BeginRoot()
	byID[r2.ID()] = r2
	b := begin(t, e, r2, compat.Inv(obj(), mA))
	byID[b.ID()] = b
	inv2 := compat.Inv(o, mUndoA)
	if err := e.CompleteChild(b, &inv2); err != nil {
		t.Fatal(err)
	}
	if err := e.AbortRoot(r2); err != nil {
		t.Fatal(err)
	}

	// 2 subcommits + 1 root commit + 1 node abort; the callback must
	// actually have fired for all of them.
	if sawOutcomes != 4 {
		t.Errorf("outcome records checked = %d, want 4", sawOutcomes)
	}
}

func TestJournalSpliceFlag(t *testing.T) {
	j := &memJournal{}
	e := New(Config{Kind: Semantic, Table: newTestTable(), Journal: j})
	e.SetExec(func(parent *Tx, inv compat.Invocation) error { return nil })
	r := e.BeginRoot()
	a := begin(t, e, r, compat.Inv(obj(), mA))
	if err := e.CompleteChild(a, nil); err != nil {
		t.Fatal(err)
	}
	j.mu.Lock()
	last := j.recs[len(j.recs)-1]
	j.mu.Unlock()
	if last.Kind != JSubCommit || !last.Splice {
		t.Errorf("nil-inverse subcommit must set Splice: %+v", last)
	}
	if err := e.CommitRoot(r); err != nil {
		t.Fatal(err)
	}
}
