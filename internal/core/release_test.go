package core

import (
	"testing"
	"time"

	"semcc/internal/compat"
	"semcc/internal/obs"
)

// gatedJournal is an AckJournal whose durability the test owns: every
// AppendAck returns an unresolved future and announces the submission
// on submitted; each durable() then resolves the oldest outstanding
// future, so futures resolve in submission order — the only order a
// prefix-durable log can resolve them in.
type gatedJournal struct {
	memJournal
	submitted chan JournalRecord
	acks      []chan struct{}
}

func newGatedJournal() *gatedJournal {
	// One slot per outcome the test submits (T1's and T2's), so a
	// failed test never strands a committer on the send.
	return &gatedJournal{submitted: make(chan JournalRecord, 2)}
}

func (j *gatedJournal) AppendAck(r JournalRecord) Ack {
	ack := make(chan struct{})
	j.mu.Lock()
	j.recs = append(j.recs, r)
	j.acks = append(j.acks, ack)
	j.mu.Unlock()
	j.submitted <- r
	return Ack{C: ack}
}

// durable resolves the oldest outstanding future.
func (j *gatedJournal) durable() {
	j.mu.Lock()
	ack := j.acks[0]
	j.acks = j.acks[1:]
	j.mu.Unlock()
	close(ack)
}

// indexOf returns the journal position of the first record of the
// given kind and node, or -1.
func (j *gatedJournal) indexOf(kind JournalKind, node uint64) int {
	j.mu.Lock()
	defer j.mu.Unlock()
	for i, r := range j.recs {
		if r.Kind == kind && r.Node == node {
			return i
		}
	}
	return -1
}

// returned reports, without blocking, whether an outcome call has
// returned.
func returned(c <-chan error) bool {
	select {
	case <-c:
		return true
	default:
		return false
	}
}

// TestOutcomeObservableAtSubmitAckedWhenDurable steps the commit
// pipeline's contract — submit → make observable → wait — through a
// journal whose acks the test resolves by hand, for a root commit and
// for a root abort:
//
//  1. T1's outcome call has submitted its record and is parked on the
//     ack. Its locks are already gone: T2's conflicting request (same
//     object, method C, no commuting ancestor — the worst case that
//     waits for a top-level commit) is granted without ever blocking.
//  2. T1's call has still not returned: an outcome is acknowledged to
//     its caller only when durable.
//  3. T2 commits in turn; its outcome is journaled after T1's outcome
//     and after its own conflicting work, so in a log durable in
//     prefixes it cannot be acknowledged, or survive a crash, without
//     T1's. Resolving the acks in journal order returns T1 first and
//     T2 only after its own ack.
func TestOutcomeObservableAtSubmitAckedWhenDurable(t *testing.T) {
	for _, tc := range []struct {
		name    string
		outcome JournalKind
		finish  func(e *Engine, r *Tx) error
	}{
		{"commit", JRootCommit, (*Engine).CommitRoot},
		{"abort", JNodeAborted, (*Engine).AbortRoot},
	} {
		t.Run(tc.name, func(t *testing.T) {
			j := newGatedJournal()
			blocks := 0
			e := New(Config{Kind: Semantic, Table: newTestTable(), Journal: j,
				Hooks: Hooks{OnBlock: func(*Tx, []*Tx) { blocks++ }}})
			e.SetExec(func(parent *Tx, inv compat.Invocation) error { return nil })
			o := obj()

			// T1 does C(o), subcommits (lock retained until the root's
			// outcome) and starts its outcome call.
			r1 := e.BeginRoot()
			c1 := begin(t, e, r1, compat.Inv(o, mC))
			undo := compat.Inv(o, mUndoC)
			if err := e.CompleteChild(c1, &undo); err != nil {
				t.Fatal(err)
			}
			r2 := e.BeginRoot()
			if waits := e.ProbeConflicts(r2, compat.Inv(o, mC)); len(waits) != 1 || waits[0] != r1 {
				t.Fatalf("before T1's outcome: waits = %v, want [T1]", waits)
			}
			t1 := make(chan error, 1)
			go func() { t1 <- tc.finish(e, r1) }()
			for rec := range j.submitted {
				if rec.Kind == tc.outcome && rec.Node == r1.ID() {
					break
				}
			}
			select {
			case <-r1.Done(): // observable: state set, waiters woken
			case <-time.After(5 * time.Second):
				t.Fatal("T1's outcome is not observable while its ack is outstanding")
			}

			// T2's conflicting request sails through.
			c2, err := e.BeginChild(r2, compat.Inv(o, mC))
			if err != nil {
				t.Fatalf("T2's request after T1's submission: %v", err)
			}
			if blocks != 0 {
				t.Fatalf("T2 blocked %d time(s) on a root whose outcome was already submitted", blocks)
			}
			if s := e.Stats(); s.Blocks != 0 || s.RootWaits != 0 {
				t.Fatalf("stats count a wait: %+v", s)
			}
			if returned(t1) {
				t.Fatal("T1's outcome call returned before its record was durable")
			}

			// T2 finishes and commits behind T1 in the journal order.
			complete(t, e, c2)
			t2 := make(chan error, 1)
			go func() { t2 <- e.CommitRoot(r2) }()
			for rec := range j.submitted {
				if rec.Kind == JRootCommit && rec.Node == r2.ID() {
					break
				}
			}
			p1 := j.indexOf(tc.outcome, r1.ID())
			if w := j.indexOf(JBegin, c2.ID()); p1 < 0 || w < p1 {
				t.Fatalf("T2's conflicting work journaled at %d, before T1's outcome at %d", w, p1)
			}
			if returned(t1) || returned(t2) {
				t.Fatal("an outcome call returned with no ack resolved")
			}

			j.durable() // T1's record
			if err := <-t1; err != nil {
				t.Fatalf("T1: %v", err)
			}
			if returned(t2) {
				t.Fatal("T2's commit returned before its own record was durable")
			}
			j.durable() // T2's record
			if err := <-t2; err != nil {
				t.Fatalf("T2: %v", err)
			}
		})
	}
}

// TestReleaseToDurableObserved pins what the commit pipeline reports:
// semcc_core_release_to_durable_ns takes one observation per root
// outcome that was made observable ahead of its durability — commits
// (a read-only vote is one) and root aborts; never a PrepareRoot that
// prepares (it releases nothing), never a decided 2PC branch (its
// commit forces and awaits nothing: DecideRoot returns with no future
// outstanding) and never while obs is disabled — and the root span is
// still charged the whole submit-to-durable interval as WAL time.
func TestReleaseToDurableObserved(t *testing.T) {
	o := obs.New(obs.Config{})
	j := newGatedJournal()
	e := New(Config{Kind: Semantic, Table: newTestTable(), Journal: j, Obs: o})
	e.SetExec(func(parent *Tx, inv compat.Invocation) error { return nil })
	window := o.Registry.Hist("semcc_core_release_to_durable_ns", "")

	// outcome runs one outcome call to completion: submitted, made
	// durable by the test, returned.
	outcome := func(call func() error) {
		t.Helper()
		done := make(chan error, 1)
		go func() { done <- call() }()
		<-j.submitted
		j.durable()
		if err := <-done; err != nil {
			t.Fatal(err)
		}
	}
	want := func(n uint64, after string) {
		t.Helper()
		if got := window.Count(); got != n {
			t.Fatalf("after %s: %d observations, want %d", after, got, n)
		}
	}

	r := e.BeginRoot()
	outcome(func() error { return e.CommitRoot(r) })
	want(0, "a commit with obs disabled")

	o.SetEnabled(true)
	r = e.BeginRoot()
	outcome(func() error { return e.CommitRoot(r) })
	want(1, "a commit")
	r = e.BeginRoot()
	outcome(func() error { return e.AbortRoot(r) })
	want(2, "a root abort")
	prepare := func(r *Tx, wantReadOnly bool) func() error {
		return func() error {
			readOnly, err := e.PrepareRoot(r, 7)
			if readOnly != wantReadOnly {
				t.Errorf("PrepareRoot voted read-only=%v, want %v", readOnly, wantReadOnly)
			}
			return err
		}
	}
	r = e.BeginRoot()
	outcome(prepare(r, true))
	want(3, "a read-only vote")

	// A root with something to compensate really prepares.
	r = e.BeginRoot()
	c := begin(t, e, r, compat.Inv(obj(), mC))
	undo := compat.Inv(c.Invocation().Object, mUndoC)
	if err := e.CompleteChild(c, &undo); err != nil {
		t.Fatal(err)
	}
	outcome(prepare(r, false))
	want(3, "a prepare")
	if err := e.DecideRoot(r, 7, true); err != nil {
		t.Fatal(err)
	}
	want(3, "a decided branch")
	select {
	case rec := <-j.submitted:
		t.Fatalf("DecideRoot(commit) submitted an awaited %v record", rec.Kind)
	default:
	}

	recent := o.Spans.Snapshot(1).Recent
	if len(recent) != 1 || recent[0].ID != r.ID() {
		t.Fatalf("recent spans = %+v, want the decided root", recent)
	}
	// JBeginRoot, JPrepare, JDecide, JRootCommit (the child's JBegin and
	// JSubCommit are charged to the child); the one waited-for record
	// carries its ack wait.
	if sp := recent[0]; sp.WALAppends != 4 || sp.WALNanos == 0 {
		t.Errorf("root span charged %d appends / %d ns of WAL time, want 4 appends and a non-zero time", sp.WALAppends, sp.WALNanos)
	}
}
