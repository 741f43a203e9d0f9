package core

import (
	"errors"
	"testing"
	"time"

	"semcc/internal/clock"
	"semcc/internal/compat"
	"semcc/internal/obs"
	"semcc/internal/val"
)

// observedEngine is a semantic engine with an enabled Obs and a fake
// clock, whose OnBlock hook reports every blocking request on blocked —
// the channel the tests below step on.
type observedEngine struct {
	*Engine
	o       *obs.Obs
	clk     *clock.Fake
	blocked chan *Tx
}

func newObservedEngine() *observedEngine {
	oe := &observedEngine{
		o:       obs.New(obs.Config{}),
		clk:     clock.NewFake(time.Unix(0, 0), time.Microsecond),
		blocked: make(chan *Tx, 1),
	}
	oe.o.SetEnabled(true)
	oe.Engine = New(Config{
		Kind: Semantic, Table: newTestTable(), Obs: oe.o, Clock: oe.clk,
		Hooks: Hooks{OnBlock: func(b *Tx, _ []*Tx) { oe.blocked <- b }},
	})
	oe.SetExec(func(parent *Tx, inv compat.Invocation) error { return nil })
	return oe
}

// events returns every recorded event with the sequence numbers
// cleared, so a test can compare whole values.
func (oe *observedEngine) events() []obs.Event {
	evs := oe.o.Events(0, 1<<20).Recent
	for i := range evs {
		evs[i].Seq = 0
	}
	return evs
}

// spanWaitNanos sums Waits[*].Nanos over a span tree.
func spanWaitNanos(s *obs.Span) uint64 {
	var sum uint64
	for _, w := range s.Waits {
		sum += w.Nanos
	}
	for _, c := range s.Children {
		sum += spanWaitNanos(c)
	}
	return sum
}

// TestUncontendedRootEmitsNoEvent: requests, immediate grants and
// retains are counters, not events — a root nobody conflicts with
// leaves the sink empty even with collection on.
func TestUncontendedRootEmitsNoEvent(t *testing.T) {
	oe := newObservedEngine()
	o, leaf := obj(), atom()
	r := oe.BeginRoot()
	a := begin(t, oe.Engine, r, compat.Inv(o, mA))
	complete(t, oe.Engine, begin(t, oe.Engine, a, compat.Inv(leaf, compat.OpPut, val.OfInt(1))))
	complete(t, oe.Engine, a)
	if err := oe.CommitRoot(r); err != nil {
		t.Fatal(err)
	}
	if st := oe.Stats(); st.LockRequests != 2 || st.ImmediateGrants != 2 || st.Retains != 2 {
		t.Fatalf("stats = %+v, want 2 requests, immediate grants and retains", st)
	}
	if snap := oe.o.Events(0, 10); snap.Emitted != 0 || len(snap.Hot) != 0 {
		t.Errorf("uncontended root left %+v, want no event", snap)
	}
	if r.Span() == nil {
		t.Error("collection was not on: the root carries no span")
	}
}

// TestConflictEvents steps the two decisions Fig. 9 can take on a
// conflict. Two roots conflicting on one atom: exactly a block (cause
// root-wait, peer the holder's root) and a grant after the fake clock's
// wait. The Figure 6 scenario: exactly one case-1 event naming the
// node whose retained lock was overruled.
func TestConflictEvents(t *testing.T) {
	t.Run("root-wait", func(t *testing.T) {
		oe := newObservedEngine()
		leaf := atom()
		r1 := oe.BeginRoot()
		complete(t, oe.Engine, begin(t, oe.Engine, r1, compat.Inv(leaf, compat.OpPut, val.OfInt(1))))

		r2 := oe.BeginRoot()
		granted := make(chan *Tx, 1)
		go func() {
			c, err := oe.BeginChild(r2, compat.Inv(leaf, compat.OpGet))
			if err != nil {
				t.Errorf("r2 Get: %v", err)
			}
			granted <- c
		}()
		b := <-oe.blocked
		const waited = 5 * time.Millisecond
		oe.clk.Advance(waited)
		if err := oe.CommitRoot(r1); err != nil {
			t.Fatal(err)
		}
		if c := <-granted; c != b {
			t.Fatalf("granted %v, blocked %v", c, b)
		}
		want := []obs.Event{
			{Kind: obs.EvBlock, Cause: obs.WaitRoot, Node: b.ID(), Root: r2.ID(), Obj: leaf, Peer: r1.ID()},
			{Kind: obs.EvGrant, Cause: obs.WaitRoot, Node: b.ID(), Root: r2.ID(), Obj: leaf, Nanos: uint64(waited)},
		}
		got := oe.events()
		if len(got) != len(want) {
			t.Fatalf("events = %+v, want %+v", got, want)
		}
		for i := range want {
			if got[i] != want[i] {
				t.Errorf("event %d = %+v, want %+v", i, got[i], want[i])
			}
		}
		if st := oe.Stats(); st.WaitNanos != uint64(waited) || spanWaitNanos(r2.Span()) != uint64(waited) {
			t.Errorf("WaitNanos = %d, span waits = %d, want %d both", st.WaitNanos, spanWaitNanos(r2.Span()), uint64(waited))
		}
		complete(t, oe.Engine, b)
		if err := oe.CommitRoot(r2); err != nil {
			t.Fatal(err)
		}
	})

	t.Run("case1", func(t *testing.T) {
		oe := newObservedEngine()
		o, leaf := obj(), atom()
		r1 := oe.BeginRoot()
		a1 := begin(t, oe.Engine, r1, compat.Inv(o, mA))
		w := begin(t, oe.Engine, a1, compat.Inv(leaf, compat.OpPut, val.OfInt(1)))
		complete(t, oe.Engine, w)
		complete(t, oe.Engine, a1) // A subtree committed; Put lock retained

		r2 := oe.BeginRoot()
		b2 := begin(t, oe.Engine, r2, compat.Inv(o, mB)) // B commutes with A
		g := begin(t, oe.Engine, b2, compat.Inv(leaf, compat.OpGet))
		want := obs.Event{Kind: obs.EvCase1, Node: g.ID(), Root: r2.ID(), Obj: leaf, Peer: w.ID()}
		if got := oe.events(); len(got) != 1 || got[0] != want {
			t.Errorf("events = %+v, want only %+v", got, want)
		}
		if st := oe.Stats(); st.Case1Grants != 1 || st.Blocks != 0 {
			t.Errorf("Case1Grants = %d, Blocks = %d; want 1 and 0", st.Case1Grants, st.Blocks)
		}
	})
}

// TestWaitChargedOnEveryExit: a request that blocked and then fails —
// as a deadlock victim, or because its root was aborted while it was
// queued — still charges its blocked time, once, to Stats.WaitNanos,
// to its span and to an event, so the counter reconciles with the span
// tree. (The victim exits used to charge the span only, the aborted
// exit nothing.)
func TestWaitChargedOnEveryExit(t *testing.T) {
	const waited = 3 * time.Millisecond
	cases := []struct {
		name string
		// fail makes r2's blocked request fail while r1 holds the atom.
		fail func(t *testing.T, oe *observedEngine, r1, r2 *Tx)
		kind obs.EventKind
		err  error // nil: any error
	}{
		{"deadlock victim", func(t *testing.T, oe *observedEngine, r1, r2 *Tx) {
			// Condemned from outside, as the cross-node detector does;
			// the waiter's next recheck consumes the sentence.
			oe.VictimizeRoot(r2.ID())
		}, obs.EvDeadlock, ErrDeadlock},
		{"root aborted while queued", func(t *testing.T, oe *observedEngine, r1, r2 *Tx) {
			if err := oe.AbortRoot(r2); err != nil {
				t.Fatal(err)
			}
			// The dead request still waits for the holder; it notices
			// the abort when the holder completes.
			if err := oe.CommitRoot(r1); err != nil {
				t.Fatal(err)
			}
		}, obs.EvAborted, nil},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			oe := newObservedEngine()
			leaf := atom()
			r1 := oe.BeginRoot()
			complete(t, oe.Engine, begin(t, oe.Engine, r1, compat.Inv(leaf, compat.OpPut, val.OfInt(1))))

			r2 := oe.BeginRoot()
			failed := make(chan error, 1)
			go func() {
				_, err := oe.BeginChild(r2, compat.Inv(leaf, compat.OpGet))
				failed <- err
			}()
			b := <-oe.blocked
			oe.clk.Advance(waited)
			tc.fail(t, oe, r1, r2)
			if err := <-failed; err == nil || (tc.err != nil && !errors.Is(err, tc.err)) {
				t.Fatalf("blocked request returned %v, want failure %v", err, tc.err)
			}
			if r2.State() == Active {
				if err := oe.AbortRoot(r2); err != nil {
					t.Fatal(err)
				}
			}

			st := oe.Stats()
			if spans := spanWaitNanos(r2.Span()); st.WaitNanos != spans || spans != uint64(waited) {
				t.Errorf("Stats.WaitNanos = %d, span tree waits = %d; want %d both", st.WaitNanos, spans, uint64(waited))
			}
			want := obs.Event{Kind: tc.kind, Cause: obs.WaitRoot, Node: b.ID(), Root: r2.ID(), Obj: leaf, Nanos: uint64(waited)}
			if got := oe.events(); len(got) != 2 || got[0].Kind != obs.EvBlock || got[1] != want {
				t.Errorf("events = %+v, want a block then %+v", got, want)
			}
			if hot := oe.o.Events(0, 0).Hot; len(hot) != 1 || hot[0].Blocks != 1 || hot[0].WaitNanos != uint64(waited) {
				t.Errorf("profile = %+v, want one object, 1 block, %d ns", hot, uint64(waited))
			}
		})
	}
}
