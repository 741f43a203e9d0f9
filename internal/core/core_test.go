package core

import (
	"errors"
	"fmt"
	"sync"
	"testing"
	"time"

	"semcc/internal/compat"
	"semcc/internal/oid"
	"semcc/internal/val"
)

// The methods of testTable, and the compensations the tests journal.
const (
	mA compat.Method = compat.FirstMethod + iota
	mB
	mC
	mP
	mUndoA
	mUndoB
	mUndoC
)

var testNames = []string{"A", "B", "C", "P", "UndoA", "UndoB", "UndoC"}

// testTable is a compat.Table for protocol unit tests: methods A and B
// commute with themselves and with each other; C commutes with
// nothing; generic Get/Put/etc. use the generic matrix; parameterised
// method P commutes iff first arguments differ.
type testTable struct {
	generic *compat.Matrix
}

func newTestTable() *testTable { return &testTable{generic: compat.GenericMatrix()} }

func (t *testTable) Name(inv compat.Invocation) string {
	if i := int(inv.Method - compat.FirstMethod); inv.Method >= compat.FirstMethod && i < len(testNames) {
		return testNames[i]
	}
	return inv.Method.String()
}

func (t *testTable) Compatible(a, b compat.Invocation) bool {
	if compat.IsGenericOp(a.Method) && compat.IsGenericOp(b.Method) {
		return t.generic.Compatible(a, b)
	}
	switch {
	case a.Method == mA && b.Method == mA:
		return true
	case a.Method == mB && b.Method == mB:
		return true
	case a.Method == mP && b.Method == mP:
		return compat.ArgsDiffer(0)(a, b)
	case (a.Method == mA && b.Method == mB) || (a.Method == mB && b.Method == mA):
		return true
	default:
		return false
	}
}

func newTestEngine(kind ProtocolKind) *Engine {
	e := New(Config{Kind: kind, Table: newTestTable(), Record: true})
	e.SetExec(func(parent *Tx, inv compat.Invocation) error { return nil })
	return e
}

var testGen = oid.NewGenerator()

func obj() oid.OID  { return testGen.New(oid.Tuple) }
func atom() oid.OID { return testGen.New(oid.Atomic) }

// begin starts a child and fails the test on error.
func begin(t *testing.T, e *Engine, parent *Tx, inv compat.Invocation) *Tx {
	t.Helper()
	n, err := e.BeginChild(parent, inv)
	if err != nil {
		t.Fatalf("BeginChild(%s): %v", inv, err)
	}
	return n
}

func complete(t *testing.T, e *Engine, n *Tx) {
	t.Helper()
	if err := e.CompleteChild(n, nil); err != nil {
		t.Fatalf("CompleteChild(%s): %v", n, err)
	}
}

func TestCompatibleMethodsDoNotConflict(t *testing.T) {
	e := newTestEngine(Semantic)
	o := obj()
	r1, r2 := e.BeginRoot(), e.BeginRoot()
	a := begin(t, e, r1, compat.Inv(o, mA))
	// A/A commute: r2's A on the same object is granted immediately.
	if waits := e.ProbeConflicts(r2, compat.Inv(o, mA)); len(waits) != 0 {
		t.Fatalf("A vs A waits = %v, want none", waits)
	}
	b := begin(t, e, r2, compat.Inv(o, mA))
	complete(t, e, a)
	complete(t, e, b)
	if err := e.CommitRoot(r1); err != nil {
		t.Fatal(err)
	}
	if err := e.CommitRoot(r2); err != nil {
		t.Fatal(err)
	}
	st := e.Stats()
	if st.Blocks != 0 {
		t.Errorf("blocks = %d, want 0", st.Blocks)
	}
}

func TestConflictingMethodBlocksUntilRootCommit(t *testing.T) {
	e := newTestEngine(Semantic)
	o := obj()
	r1 := e.BeginRoot()
	c1 := begin(t, e, r1, compat.Inv(o, mC))
	complete(t, e, c1) // retained

	r2 := e.BeginRoot()
	waits := e.ProbeConflicts(r2, compat.Inv(o, mC))
	if len(waits) != 1 || waits[0] != r1 {
		t.Fatalf("waits = %v, want [r1]", waits)
	}

	// Live: blocks until r1 commits.
	done := make(chan *Tx)
	go func() {
		n := begin(t, e, r2, compat.Inv(o, mC))
		done <- n
	}()
	select {
	case <-done:
		t.Fatal("conflicting C granted while r1 held retained C lock")
	case <-time.After(20 * time.Millisecond):
	}
	if err := e.CommitRoot(r1); err != nil {
		t.Fatal(err)
	}
	n := <-done
	complete(t, e, n)
	if err := e.CommitRoot(r2); err != nil {
		t.Fatal(err)
	}
}

func TestParameterDependentCompatibility(t *testing.T) {
	e := newTestEngine(Semantic)
	o := obj()
	r1, r2 := e.BeginRoot(), e.BeginRoot()
	p1 := begin(t, e, r1, compat.Inv(o, mP, val.OfInt(1)))
	complete(t, e, p1)
	if waits := e.ProbeConflicts(r2, compat.Inv(o, mP, val.OfInt(2))); len(waits) != 0 {
		t.Errorf("P(1) vs P(2) waits = %v, want none", waits)
	}
	if waits := e.ProbeConflicts(r2, compat.Inv(o, mP, val.OfInt(1))); len(waits) != 1 {
		t.Errorf("P(1) vs P(1) waits = %v, want [r1]", waits)
	}
	_ = e.CommitRoot(r1)
	_ = e.CommitRoot(r2)
}

// TestCase1CommittedCommutativeAncestor reproduces Fig. 6 at engine
// level: a leaf conflict under committed commutative ancestors is a
// pseudo-conflict.
func TestCase1CommittedCommutativeAncestor(t *testing.T) {
	e := newTestEngine(Semantic)
	o, leaf := obj(), atom()

	r1 := e.BeginRoot()
	a1 := begin(t, e, r1, compat.Inv(o, mA))
	w := begin(t, e, a1, compat.Inv(leaf, compat.OpPut, val.OfInt(1)))
	complete(t, e, w)
	complete(t, e, a1) // A subtree committed; Put lock retained

	r2 := e.BeginRoot()
	b2 := begin(t, e, r2, compat.Inv(o, mB)) // B commutes with A
	if waits := e.ProbeConflicts(b2, compat.Inv(leaf, compat.OpGet)); len(waits) != 0 {
		t.Fatalf("case 1 not applied: waits = %v", waits)
	}
	g := begin(t, e, b2, compat.Inv(leaf, compat.OpGet))
	complete(t, e, g)
	complete(t, e, b2)
	if st := e.Stats(); st.Case1Grants == 0 {
		t.Error("Case1Grants = 0, want > 0")
	}
	_ = e.CommitRoot(r1)
	_ = e.CommitRoot(r2)
}

// TestCase2ActiveCommutativeAncestor reproduces Fig. 7 at engine
// level: the waiter resumes at the ancestor's subcommit, before the
// holder's top-level commit.
func TestCase2ActiveCommutativeAncestor(t *testing.T) {
	e := newTestEngine(Semantic)
	o, leaf := obj(), atom()

	r1 := e.BeginRoot()
	a1 := begin(t, e, r1, compat.Inv(o, mA))
	w := begin(t, e, a1, compat.Inv(leaf, compat.OpPut, val.OfInt(1)))
	complete(t, e, w)
	// a1 still active.

	r2 := e.BeginRoot()
	b2 := begin(t, e, r2, compat.Inv(o, mB))
	waits := e.ProbeConflicts(b2, compat.Inv(leaf, compat.OpGet))
	if len(waits) != 1 || waits[0] != a1 {
		t.Fatalf("case 2: waits = %v, want [a1]", waits)
	}

	granted := make(chan *Tx)
	go func() {
		granted <- begin(t, e, b2, compat.Inv(leaf, compat.OpGet))
	}()
	select {
	case <-granted:
		t.Fatal("granted while commutative ancestor still active")
	case <-time.After(20 * time.Millisecond):
	}
	complete(t, e, a1) // subcommit — r1 still active!
	g := <-granted
	if st := e.Stats(); st.Case2Waits == 0 {
		t.Error("Case2Waits = 0, want > 0")
	}
	complete(t, e, g)
	complete(t, e, b2)
	_ = e.CommitRoot(r2)
	_ = e.CommitRoot(r1)
}

// TestNoAncestorRelief checks the E5 ablation: with relief disabled,
// the case-1 situation degrades to a top-level wait.
func TestNoAncestorRelief(t *testing.T) {
	e := New(Config{Kind: Semantic, Table: newTestTable(), NoAncestorRelief: true})
	e.SetExec(func(parent *Tx, inv compat.Invocation) error { return nil })
	o, leaf := obj(), atom()

	r1 := e.BeginRoot()
	a1 := begin(t, e, r1, compat.Inv(o, mA))
	w := begin(t, e, a1, compat.Inv(leaf, compat.OpPut, val.OfInt(1)))
	complete(t, e, w)
	complete(t, e, a1)

	r2 := e.BeginRoot()
	b2 := begin(t, e, r2, compat.Inv(o, mB))
	waits := e.ProbeConflicts(b2, compat.Inv(leaf, compat.OpGet))
	if len(waits) != 1 || waits[0] != r1 {
		t.Fatalf("relief-off: waits = %v, want [r1]", waits)
	}
	_ = e.CommitRoot(r1)
	_ = e.CommitRoot(r2)
}

func TestSameTransactionNeverConflicts(t *testing.T) {
	for _, kind := range Protocols() {
		t.Run(kind.String(), func(t *testing.T) {
			e := newTestEngine(kind)
			leaf := atom()
			r := e.BeginRoot()
			w1 := begin(t, e, r, compat.Inv(leaf, compat.OpPut, val.OfInt(1)))
			complete(t, e, w1)
			// Same root writes the same atom again: never blocks.
			w2 := begin(t, e, r, compat.Inv(leaf, compat.OpPut, val.OfInt(2)))
			complete(t, e, w2)
			if err := e.CommitRoot(r); err != nil {
				t.Fatal(err)
			}
			if st := e.Stats(); st.Blocks != 0 {
				t.Errorf("blocks = %d, want 0", st.Blocks)
			}
		})
	}
}

func TestReadWriteBaselineConflicts(t *testing.T) {
	for _, kind := range []ProtocolKind{ClosedNested, TwoPLObject} {
		t.Run(kind.String(), func(t *testing.T) {
			e := newTestEngine(kind)
			o, leaf := obj(), atom()
			r1 := e.BeginRoot()
			// Method invocations take no lock under R/W baselines.
			m := begin(t, e, r1, compat.Inv(o, mC))
			g := begin(t, e, m, compat.Inv(leaf, compat.OpGet))
			complete(t, e, g)
			complete(t, e, m)

			r2 := e.BeginRoot()
			// Another C on the same object: NOT blocked (no method locks).
			if waits := e.ProbeConflicts(r2, compat.Inv(o, mC)); len(waits) != 0 {
				t.Errorf("method invocation blocked under %s: %v", kind, waits)
			}
			// Read/read compatible.
			if waits := e.ProbeConflicts(r2, compat.Inv(leaf, compat.OpGet)); len(waits) != 0 {
				t.Errorf("R/R blocked: %v", waits)
			}
			// Write conflicts with the held read until top-level commit.
			waits := e.ProbeConflicts(r2, compat.Inv(leaf, compat.OpPut, val.OfInt(1)))
			if len(waits) != 1 || waits[0] != r1 {
				t.Errorf("W vs R waits = %v, want [r1]", waits)
			}
			_ = e.CommitRoot(r1)
			_ = e.CommitRoot(r2)
		})
	}
}

func TestOpenNoRetainReleasesAtSubcommit(t *testing.T) {
	e := newTestEngine(OpenNoRetain)
	o, leaf := obj(), atom()
	r1 := e.BeginRoot()
	c := begin(t, e, r1, compat.Inv(o, mC))
	w := begin(t, e, c, compat.Inv(leaf, compat.OpPut, val.OfInt(1)))
	complete(t, e, w)

	r2 := e.BeginRoot()
	// While C is active, its leaf's lock is held.
	if waits := e.ProbeConflicts(r2, compat.Inv(leaf, compat.OpGet)); len(waits) == 0 {
		t.Error("leaf lock not held while subtransaction active")
	}
	complete(t, e, c)
	// After C's subcommit the leaf lock is gone (the §3 protocol) —
	// only C's own semantic lock remains.
	if waits := e.ProbeConflicts(r2, compat.Inv(leaf, compat.OpGet)); len(waits) != 0 {
		t.Errorf("leaf lock survived subcommit under open-noretain: %v", waits)
	}
	if waits := e.ProbeConflicts(r2, compat.Inv(o, mC)); len(waits) == 0 {
		t.Error("method lock must still be held by the parent")
	}
	_ = e.CommitRoot(r1)
	_ = e.CommitRoot(r2)
}

func TestDeadlockDetection(t *testing.T) {
	e := newTestEngine(Semantic)
	o1, o2 := atom(), atom()
	r1, r2 := e.BeginRoot(), e.BeginRoot()

	w1 := begin(t, e, r1, compat.Inv(o1, compat.OpPut, val.OfInt(1)))
	complete(t, e, w1)
	w2 := begin(t, e, r2, compat.Inv(o2, compat.OpPut, val.OfInt(1)))
	complete(t, e, w2)

	// r1 waits for o2; then r2 requests o1 and must be victimized (or
	// r1, depending on timing — exactly one aborts).
	errs := make(chan error, 2)
	var wg sync.WaitGroup
	wg.Add(2)
	go func() {
		defer wg.Done()
		_, err := e.BeginChild(r1, compat.Inv(o2, compat.OpGet))
		errs <- err
	}()
	time.Sleep(10 * time.Millisecond)
	go func() {
		defer wg.Done()
		_, err := e.BeginChild(r2, compat.Inv(o1, compat.OpGet))
		errs <- err
	}()

	// One of the two must fail with ErrDeadlock; unblock the other by
	// aborting the victim's root.
	var deadlocked, granted int
	for i := 0; i < 2; i++ {
		err := <-errs
		if errors.Is(err, ErrDeadlock) {
			deadlocked++
			// Abort the victim to release its locks.
			if victimErr := func() error {
				// The victim is whichever root the failing child
				// belonged to; abort both eventually below.
				return nil
			}(); victimErr != nil {
				t.Fatal(victimErr)
			}
			// Abort both roots' trees at the end; to unblock the
			// other waiter we must abort the victim root now. We
			// don't know which; abort r2 if it is still active and
			// blocked… simpler: abort both after loop.
		} else if err == nil {
			granted++
		} else {
			t.Fatalf("unexpected error: %v", err)
		}
		if i == 0 && deadlocked == 1 {
			// Release the victim's locks so the other request can
			// proceed.
			if err := e.AbortRoot(victimOf(e, r1, r2)); err != nil {
				t.Fatal(err)
			}
		}
	}
	wg.Wait()
	if deadlocked != 1 || granted != 1 {
		t.Fatalf("deadlocked=%d granted=%d, want 1/1", deadlocked, granted)
	}
	if st := e.Stats(); st.Deadlocks == 0 {
		t.Error("Deadlocks = 0, want > 0")
	}
}

// victimOf returns whichever of the two roots has an aborted child
// (the deadlock victim). Called after the victim's goroutine has
// returned, so the tree is quiescent.
func victimOf(e *Engine, r1, r2 *Tx) *Tx {
	_ = e
	hasAborted := func(r *Tx) bool {
		found := false
		r.eachNode(func(n *Tx) {
			if n != r && n.State() == Aborted {
				found = true
			}
		})
		return found
	}
	if hasAborted(r1) {
		return r1
	}
	return r2
}

func TestFCFSOrdering(t *testing.T) {
	e := newTestEngine(Semantic)
	leaf := atom()
	r1 := e.BeginRoot()
	w := begin(t, e, r1, compat.Inv(leaf, compat.OpPut, val.OfInt(1)))
	complete(t, e, w)

	// r2 queues a conflicting Put; r3's Get must queue behind it
	// (FCFS), even though Get would be compatible with… the held Put?
	// No: Get conflicts with Put, so both wait for r1. The FCFS
	// property tested here: r3 also waits for r2 (queued ahead).
	r2, r3 := e.BeginRoot(), e.BeginRoot()
	got2 := make(chan struct{})
	go func() {
		n := begin(t, e, r2, compat.Inv(leaf, compat.OpPut, val.OfInt(2)))
		complete(t, e, n)
		close(got2)
	}()
	time.Sleep(10 * time.Millisecond)
	waits := e.ProbeConflicts(r3, compat.Inv(leaf, compat.OpGet))
	foundR2 := false
	for _, b := range waits {
		if b.Root() == r2 {
			foundR2 = true
		}
	}
	if !foundR2 {
		t.Errorf("FCFS violated: r3 does not wait for queued r2 (waits=%v)", waits)
	}
	_ = e.CommitRoot(r1)
	<-got2
	_ = e.CommitRoot(r2)
	_ = e.CommitRoot(r3)
}

func TestCompensationOnAbort(t *testing.T) {
	e := New(Config{Kind: Semantic, Table: newTestTable(), Record: true})
	var executed []compat.Method
	e.SetExec(func(parent *Tx, inv compat.Invocation) error {
		executed = append(executed, inv.Method)
		return nil
	})
	o := obj()
	r := e.BeginRoot()
	a := begin(t, e, r, compat.Inv(o, mA))
	invA := compat.Inv(o, mUndoA)
	if err := e.CompleteChild(a, &invA); err != nil {
		t.Fatal(err)
	}
	b := begin(t, e, r, compat.Inv(o, mB))
	invB := compat.Inv(o, mUndoB)
	if err := e.CompleteChild(b, &invB); err != nil {
		t.Fatal(err)
	}
	if err := e.AbortRoot(r); err != nil {
		t.Fatal(err)
	}
	// Reverse chronological order.
	if len(executed) != 2 || executed[0] != mUndoB || executed[1] != mUndoA {
		t.Fatalf("compensations = %v, want [UndoB UndoA]", executed)
	}
	if st := e.Stats(); st.Compensations != 2 || st.RootsAborted != 1 {
		t.Errorf("stats = %+v", st)
	}
}

func TestUndoSpliceForNilInverse(t *testing.T) {
	e := New(Config{Kind: Semantic, Table: newTestTable()})
	var executed []compat.Method
	e.SetExec(func(parent *Tx, inv compat.Invocation) error {
		executed = append(executed, inv.Method)
		return nil
	})
	o, leaf := obj(), atom()
	r := e.BeginRoot()
	a := begin(t, e, r, compat.Inv(o, mA))
	w := begin(t, e, a, compat.Inv(leaf, compat.OpPut, val.OfInt(1)))
	inv := compat.Inv(leaf, compat.OpPut, val.OfInt(0))
	if err := e.CompleteChild(w, &inv); err != nil {
		t.Fatal(err)
	}
	// A has no inverse: its child's inverse must be spliced upward.
	if err := e.CompleteChild(a, nil); err != nil {
		t.Fatal(err)
	}
	if err := e.AbortRoot(r); err != nil {
		t.Fatal(err)
	}
	if len(executed) != 1 || executed[0] != compat.OpPut {
		t.Fatalf("compensations = %v, want [Put]", executed)
	}
}

func TestAbortChildCompensatesItsChildren(t *testing.T) {
	e := New(Config{Kind: Semantic, Table: newTestTable()})
	var executed []compat.Method
	e.SetExec(func(parent *Tx, inv compat.Invocation) error {
		executed = append(executed, inv.Method)
		return nil
	})
	o := obj()
	r := e.BeginRoot()
	a := begin(t, e, r, compat.Inv(o, mA))
	c := begin(t, e, a, compat.Inv(o, mB))
	invC := compat.Inv(o, mUndoB)
	if err := e.CompleteChild(c, &invC); err != nil {
		t.Fatal(err)
	}
	if err := e.AbortChild(a); err != nil {
		t.Fatal(err)
	}
	if len(executed) != 1 || executed[0] != mUndoB {
		t.Fatalf("compensations = %v, want [UndoB]", executed)
	}
	// Parent keeps going; no inverse of A reaches the root's undo.
	if err := e.CommitRoot(r); err != nil {
		t.Fatal(err)
	}
	if got := len(executed); got != 1 {
		t.Fatalf("extra compensations ran: %v", executed)
	}
}

func TestLocksReleasedAtCommitAndAbort(t *testing.T) {
	for _, finish := range []string{"commit", "abort"} {
		t.Run(finish, func(t *testing.T) {
			e := newTestEngine(Semantic)
			o := obj()
			r1 := e.BeginRoot()
			c := begin(t, e, r1, compat.Inv(o, mC))
			complete(t, e, c)
			r2 := e.BeginRoot()
			if waits := e.ProbeConflicts(r2, compat.Inv(o, mC)); len(waits) != 1 {
				t.Fatalf("pre: waits = %v", waits)
			}
			if finish == "commit" {
				if err := e.CommitRoot(r1); err != nil {
					t.Fatal(err)
				}
			} else {
				if err := e.AbortRoot(r1); err != nil {
					t.Fatal(err)
				}
			}
			if waits := e.ProbeConflicts(r2, compat.Inv(o, mC)); len(waits) != 0 {
				t.Fatalf("post-%s: waits = %v, want none", finish, waits)
			}
			_ = e.CommitRoot(r2)
		})
	}
}

func TestEngineStateErrors(t *testing.T) {
	e := newTestEngine(Semantic)
	r := e.BeginRoot()
	c := begin(t, e, r, compat.Inv(obj(), mA))
	if err := e.CommitRoot(c); err == nil {
		t.Error("CommitRoot on child must fail")
	}
	if err := e.AbortChild(r); err == nil {
		t.Error("AbortChild on root must fail")
	}
	complete(t, e, c)
	if err := e.CompleteChild(c, nil); err == nil {
		t.Error("double CompleteChild must fail")
	}
	if err := e.CommitRoot(r); err != nil {
		t.Fatal(err)
	}
	if err := e.CommitRoot(r); err == nil {
		t.Error("double CommitRoot must fail")
	}
	if _, err := e.BeginChild(r, compat.Inv(obj(), mA)); err == nil {
		t.Error("BeginChild on committed root must fail")
	}
	if _, err := e.BeginChild(nil, compat.Inv(obj(), mA)); err == nil {
		t.Error("BeginChild(nil) must fail")
	}
}

func TestForestSnapshot(t *testing.T) {
	e := newTestEngine(Semantic)
	o, leaf := obj(), atom()
	r := e.BeginRoot()
	a := begin(t, e, r, compat.Inv(o, mA))
	w := begin(t, e, a, compat.Inv(leaf, compat.OpPut, val.OfInt(1)))
	complete(t, e, w)
	complete(t, e, a)
	if err := e.CommitRoot(r); err != nil {
		t.Fatal(err)
	}
	f := e.Forest()
	if len(f.Roots) != 1 {
		t.Fatalf("roots = %d, want 1", len(f.Roots))
	}
	root := f.Roots[0]
	if !root.Committed || len(root.Children) != 1 || len(root.Children[0].Children) != 1 {
		t.Fatalf("unexpected tree shape: %s", f)
	}
	leafNode := root.Children[0].Children[0]
	if !leafNode.IsLeaf() || leafNode.Inv.Method != compat.OpPut {
		t.Errorf("leaf = %v", leafNode.Inv)
	}
	if leafNode.Begin <= root.Begin || leafNode.End >= root.End {
		t.Errorf("timestamps not nested: root [%d,%d], leaf [%d,%d]",
			root.Begin, root.End, leafNode.Begin, leafNode.End)
	}
	if lo, hi := root.Interval(); lo != root.Begin || hi != root.End {
		t.Errorf("interval = [%d,%d]", lo, hi)
	}
	if got := len(f.Leaves()); got != 1 {
		t.Errorf("leaves = %d, want 1", got)
	}
}

func TestPageProtocolTranslation(t *testing.T) {
	pageOf := func(a oid.OID) (oid.OID, error) { return oid.PageOID(77), nil }
	e := New(Config{Kind: TwoPLPage, Table: newTestTable(), PageOf: pageOf})
	e.SetExec(func(parent *Tx, inv compat.Invocation) error { return nil })
	a1, a2 := atom(), atom() // both map to page 77
	r1 := e.BeginRoot()
	w := begin(t, e, r1, compat.Inv(a1, compat.OpPut, val.OfInt(1)))
	complete(t, e, w)
	r2 := e.BeginRoot()
	// Different atom, same page: page-level conflict.
	waits := e.ProbeConflicts(r2, compat.Inv(a2, compat.OpGet))
	if len(waits) != 1 || waits[0] != r1 {
		t.Fatalf("page conflict waits = %v, want [r1]", waits)
	}
	_ = e.CommitRoot(r1)
	_ = e.CommitRoot(r2)
}

func TestClosedNestedInheritance(t *testing.T) {
	e := newTestEngine(ClosedNested)
	o, leaf := obj(), atom()
	r := e.BeginRoot()
	m := begin(t, e, r, compat.Inv(o, mA))
	w := begin(t, e, m, compat.Inv(leaf, compat.OpPut, val.OfInt(1)))
	complete(t, e, w)
	complete(t, e, m)
	// After subcommit the leaf's lock is owned by an ancestor; it must
	// still block other roots.
	r2 := e.BeginRoot()
	if waits := e.ProbeConflicts(r2, compat.Inv(leaf, compat.OpGet)); len(waits) != 1 {
		t.Fatalf("inherited lock not held: %v", waits)
	}
	_ = e.CommitRoot(r)
	if waits := e.ProbeConflicts(r2, compat.Inv(leaf, compat.OpGet)); len(waits) != 0 {
		t.Fatal("lock survived top-level commit")
	}
	_ = e.CommitRoot(r2)
}

func TestProtocolNames(t *testing.T) {
	want := map[ProtocolKind]string{
		Semantic: "semantic", OpenNoRetain: "open-noretain",
		ClosedNested: "closed-nested", TwoPLObject: "2pl-object", TwoPLPage: "2pl-page",
	}
	for k, name := range want {
		if k.String() != name {
			t.Errorf("%d.String() = %s, want %s", k, k.String(), name)
		}
	}
	if got := fmt.Sprint(ProtocolKind(99)); got != "protocol(99)" {
		t.Errorf("unknown protocol prints %q", got)
	}
	if len(Protocols()) != 5 {
		t.Errorf("Protocols() = %v", Protocols())
	}
}

func TestDumpLocks(t *testing.T) {
	e := newTestEngine(Semantic)
	o := obj()
	r := e.BeginRoot()
	c := begin(t, e, r, compat.Inv(o, mC))
	complete(t, e, c)
	dump := e.DumpLocks()
	if dump == "" {
		t.Fatal("empty lock dump with a held lock")
	}
	_ = e.CommitRoot(r)
	if e.DumpLocks() != "" {
		t.Fatal("locks remain after commit")
	}
}
