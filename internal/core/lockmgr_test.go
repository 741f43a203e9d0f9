package core

import (
	"strings"
	"sync"
	"testing"

	"semcc/internal/compat"
	"semcc/internal/core/locktable"
	"semcc/internal/val"
)

// lockTableLayouts are the shard counts the lock-manager contracts are
// pinned at: one shard (every object behind one global mutex) and the
// engine's GOMAXPROCS-derived default (0).
var lockTableLayouts = []struct {
	name   string
	shards int
}{{"striped", 0}, {"global", 1}}

// newEngineWithShards is New with the lock table's shard count pinned;
// the table is swapped before the engine is used.
func newEngineWithShards(cfg Config, shards int) *Engine {
	e := New(cfg)
	e.lm.(*lockMgr).tbl = locktable.New[*lock](shards)
	return e
}

// TestFCFSGrantOrderStress verifies paper §4.2's FCFS rule under many
// concurrent waiters: requests blocked on the same object are granted
// in enqueue order, at both lock-table layouts. Run with
// -race; the test also exercises the cross-tree state reads of the
// sharded conflict test.
func TestFCFSGrantOrderStress(t *testing.T) {
	for _, layout := range lockTableLayouts {
		t.Run(layout.name, func(t *testing.T) {
			const n = 24
			o := obj()

			// blockedOnce signals the first OnBlock of each root, so
			// waiters can be launched one at a time and the enqueue
			// order is deterministic.
			var (
				hookMu  sync.Mutex
				blocked = make(map[uint64]chan struct{})
			)
			blockedCh := func(root uint64) chan struct{} {
				hookMu.Lock()
				defer hookMu.Unlock()
				ch, ok := blocked[root]
				if !ok {
					ch = make(chan struct{})
					blocked[root] = ch
				}
				return ch
			}
			hooks := Hooks{OnBlock: func(b *Tx, waits []*Tx) {
				ch := blockedCh(b.Root().ID())
				select {
				case <-ch:
					// Re-block of an already-seen root (after a wake-up
					// that did not grant): already signalled.
				default:
					close(ch)
				}
			}}
			e := newEngineWithShards(Config{Kind: Semantic, Table: newTestTable(), Hooks: hooks}, layout.shards)
			e.SetExec(func(parent *Tx, inv compat.Invocation) error { return nil })

			// Holder: a retained "C" lock ("C" conflicts with itself),
			// held until r0's top-level commit.
			r0 := e.BeginRoot()
			complete(t, e, begin(t, e, r0, compat.Inv(o, mC)))

			var (
				orderMu sync.Mutex
				order   []int
				wg      sync.WaitGroup
			)
			roots := make([]*Tx, n)
			for i := 0; i < n; i++ {
				i := i
				r := e.BeginRoot()
				roots[i] = r
				wg.Add(1)
				go func() {
					defer wg.Done()
					c, err := e.BeginChild(r, compat.Inv(o, mC))
					if err != nil {
						t.Errorf("waiter %d: %v", i, err)
						return
					}
					orderMu.Lock()
					order = append(order, i)
					orderMu.Unlock()
					if err := e.CompleteChild(c, nil); err != nil {
						t.Errorf("waiter %d complete: %v", i, err)
						return
					}
					if err := e.CommitRoot(r); err != nil {
						t.Errorf("waiter %d commit: %v", i, err)
					}
				}()
				// Wait until waiter i is enqueued before launching i+1.
				<-blockedCh(r.ID())
			}

			if err := e.CommitRoot(r0); err != nil {
				t.Fatal(err)
			}
			wg.Wait()

			if len(order) != n {
				t.Fatalf("granted %d waiters, want %d", len(order), n)
			}
			for i, got := range order {
				if got != i {
					t.Fatalf("grant order = %v, want enqueue order 0..%d", order, n-1)
				}
			}
			st := e.Stats()
			if st.Deadlocks != 0 {
				t.Errorf("Deadlocks = %d, want 0", st.Deadlocks)
			}
			if st.Blocks < n {
				t.Errorf("Blocks = %d, want >= %d", st.Blocks, n)
			}
		})
	}
}

// TestFCFSConversionRule steps the waits-for cycle FCFS queueing used
// to manufacture. Root A holds the retained lock of its committed first
// ShipOrder(item, o1); root B's ShipOrder(item, o3) queues behind it
// (ShipOrder conflicts with ShipOrder on the same item, and only the
// roots are left as ancestors, so B waits for A's top-level commit);
// then A ships a second order on the same item. Tested against the
// queue, that request would wait for B, which waits for A — a deadlock
// with A as the victim. The conversion rule skips B (it is blocked by
// A's own lock), so the request is granted at once and B runs after A
// commits. Every step is ordered by a channel, not by timing.
func TestFCFSConversionRule(t *testing.T) {
	for _, layout := range lockTableLayouts {
		t.Run(layout.name, func(t *testing.T) {
			item := obj()
			ship := func(order int64) compat.Invocation {
				return compat.Inv(item, mC, val.OfInt(order))
			}
			type block struct {
				t     *Tx
				waits []*Tx
			}
			blocked := make(chan block, 1)
			hooks := Hooks{OnBlock: func(b *Tx, waits []*Tx) { blocked <- block{b, waits} }}
			e := newEngineWithShards(Config{Kind: Semantic, Table: newTestTable(), Hooks: hooks}, layout.shards)
			e.SetExec(func(parent *Tx, inv compat.Invocation) error { return nil })

			a := e.BeginRoot()
			complete(t, e, begin(t, e, a, ship(1)))

			b := e.BeginRoot()
			granted := make(chan *Tx, 1)
			go func() {
				c, err := e.BeginChild(b, ship(3))
				if err != nil {
					t.Errorf("B ShipOrder(item, o3): %v", err)
				}
				granted <- c
			}()
			if bl := <-blocked; bl.t.Root() != b || len(bl.waits) != 1 || bl.waits[0] != a {
				t.Fatalf("B blocked as %s on %v, want a child of %s waiting on [%s]", bl.t, bl.waits, b, a)
			}

			// B is queued. A's re-request must see through it.
			if waits := e.ProbeConflicts(a, ship(2)); len(waits) != 0 {
				t.Errorf("A's second ShipOrder would wait on %v, want nothing", waits)
			}
			second, err := e.BeginChild(a, ship(2))
			if err != nil {
				t.Fatalf("A ShipOrder(item, o2): %v", err)
			}
			complete(t, e, second)
			select {
			case c := <-granted:
				t.Fatalf("B's %s granted while A still holds the item", c)
			default:
			}
			if err := e.CommitRoot(a); err != nil {
				t.Fatal(err)
			}
			c := <-granted
			if c == nil || c.State() != Active {
				t.Fatalf("B's ShipOrder not granted after A's commit: %v", c)
			}
			complete(t, e, c)
			if err := e.CommitRoot(b); err != nil {
				t.Fatal(err)
			}
			if st := e.Stats(); st.Deadlocks != 0 || st.Blocks != 1 {
				t.Errorf("Deadlocks = %d, Blocks = %d; want 0 and 1 (only B ever waits)", st.Deadlocks, st.Blocks)
			}
		})
	}
}

// TestLockStringRendersBothTags pins the Dump rendering fix: a lock
// that is both retained (owner committed) and queued must show both
// tags — the old code let "queued" silently overwrite "retained",
// hiding the retention from diagnostic dumps.
func TestLockStringRendersBothTags(t *testing.T) {
	e := New(Config{Kind: Semantic, Table: newTestTable()})
	e.SetExec(func(parent *Tx, inv compat.Invocation) error { return nil })
	o := obj()
	r := e.BeginRoot()
	a := begin(t, e, r, compat.Inv(o, mA))
	complete(t, e, a) // a is Committed, so its locks are retained

	both := &lock{inv: compat.Inv(o, mA), owner: a, queued: true}
	if s := both.describe(e.table); !strings.Contains(s, "retained") || !strings.Contains(s, "queued") || !strings.HasPrefix(s, "A(") {
		t.Errorf("retained+queued lock String() = %q, want both tags", s)
	}
	ret := &lock{inv: compat.Inv(o, mA), owner: a}
	if s := ret.describe(e.table); !strings.Contains(s, "retained") || strings.Contains(s, "queued") {
		t.Errorf("retained lock String() = %q, want only the retained tag", s)
	}
	q := &lock{inv: compat.Inv(o, mA), owner: r, queued: true}
	if s := q.describe(e.table); strings.Contains(s, "retained") || !strings.Contains(s, "queued") {
		t.Errorf("queued lock String() = %q, want only the queued tag", s)
	}
	if err := e.CommitRoot(r); err != nil {
		t.Fatal(err)
	}
}

// TestOnBlockContract pins the Hooks.OnBlock contract: the callback
// runs with no lock-table shard mutex held — re-entering the engine
// (ProbeConflicts on the same object, DumpLocks) from inside the hook
// must not self-deadlock — and the waits argument is the consistent
// waits-for snapshot of the blocking request.
func TestOnBlockContract(t *testing.T) {
	for _, layout := range lockTableLayouts {
		t.Run(layout.name, func(t *testing.T) {
			o := obj()
			var (
				e       *Engine
				probeR  *Tx
				hookMu  sync.Mutex
				waitsIn []*Tx
				dumpIn  string
				probeIn []*Tx
				fired   = make(chan struct{})
			)
			hooks := Hooks{OnBlock: func(b *Tx, waits []*Tx) {
				hookMu.Lock()
				defer hookMu.Unlock()
				if waitsIn != nil {
					return // only record the first episode
				}
				waitsIn = append([]*Tx{}, waits...)
				// Both calls below take the blocking object's shard
				// mutex; they would self-deadlock if OnBlock ran under
				// it.
				dumpIn = e.DumpLocks()
				probeIn = e.ProbeConflicts(probeR, compat.Inv(o, mC))
				close(fired)
			}}
			e = newEngineWithShards(Config{Kind: Semantic, Table: newTestTable(), Hooks: hooks}, layout.shards)
			e.SetExec(func(parent *Tx, inv compat.Invocation) error { return nil })
			probeR = e.BeginRoot()

			r1 := e.BeginRoot()
			complete(t, e, begin(t, e, r1, compat.Inv(o, mC)))

			r2 := e.BeginRoot()
			done := make(chan *Tx, 1)
			go func() {
				c, err := e.BeginChild(r2, compat.Inv(o, mC))
				if err != nil {
					t.Errorf("BeginChild: %v", err)
				}
				done <- c
			}()
			<-fired
			if err := e.CommitRoot(r1); err != nil {
				t.Fatal(err)
			}
			c := <-done
			complete(t, e, c)
			if err := e.CommitRoot(r2); err != nil {
				t.Fatal(err)
			}
			if err := e.CommitRoot(probeR); err != nil {
				t.Fatal(err)
			}

			hookMu.Lock()
			defer hookMu.Unlock()
			if len(waitsIn) != 1 || waitsIn[0] != r1 {
				t.Errorf("OnBlock waits = %v, want [%s]", waitsIn, r1)
			}
			if !strings.Contains(dumpIn, "retained") {
				t.Errorf("DumpLocks inside OnBlock = %q, want the retained holder visible", dumpIn)
			}
			if !strings.Contains(dumpIn, "queued") {
				t.Errorf("DumpLocks inside OnBlock = %q, want the blocked request tagged queued", dumpIn)
			}
			// The probe from inside the hook sees the retained holder
			// plus the already-queued blocked request ahead of it
			// (Fig. 8 considers queued requests too).
			if len(probeIn) != 2 || probeIn[0] != r1 || probeIn[1] != r2 {
				t.Errorf("ProbeConflicts inside OnBlock = %v, want [%s %s]", probeIn, r1, r2)
			}
		})
	}
}

// TestWaitCountsOnlyKeptWaits pins exact wait accounting: a conflict
// whose holder has already completed is no wait, and counts as none.
// AbortRoot marks its tree Aborted and closes the done channels before
// it releases the tree's locks, so a request that arrives in between
// meets a granted lock of a root that is no longer Active. The test
// freezes that window: the request must be granted at once, with no
// block and no root wait counted.
func TestWaitCountsOnlyKeptWaits(t *testing.T) {
	e := newTestEngine(Semantic)
	o := obj()
	holder := e.BeginRoot()
	complete(t, e, begin(t, e, holder, compat.Inv(o, mC)))
	holder.setState(Aborted)

	begin(t, e, e.BeginRoot(), compat.Inv(o, mC))
	if s := e.Stats(); s.RootWaits != 0 || s.Case2Waits != 0 || s.Blocks != 0 || s.ImmediateGrants != 2 {
		t.Fatalf("request granted past a completed holder counted a wait: %+v", s)
	}
}
