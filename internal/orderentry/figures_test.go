package orderentry

// Deterministic reproductions of the paper's figures. Each test
// corresponds to one figure; see DESIGN.md §4 and EXPERIMENTS.md.

import (
	"strings"
	"sync"
	"testing"
	"time"

	"semcc/internal/compat"
	"semcc/internal/core"
	"semcc/internal/oid"
	"semcc/internal/oodb"
	"semcc/internal/serial"
	"semcc/internal/val"
)

// --- Figure 1: the object schema -----------------------------------

func TestFigure1Schema(t *testing.T) {
	app := newApp(t, core.Semantic, DefaultConfig())
	store := app.DB.Store()

	if store.Kind(app.Items) != oid.Set {
		t.Fatalf("Items is %s, want set", store.Kind(app.Items))
	}
	item, err := app.Item(1)
	if err != nil {
		t.Fatal(err)
	}
	comps, err := store.TupleComponents(item)
	if err != nil {
		t.Fatal(err)
	}
	want := []string{CompItemNo, CompPrice, CompQOH, CompOrders}
	if strings.Join(comps, ",") != strings.Join(want, ",") {
		t.Errorf("Item components = %v, want %v", comps, want)
	}
	ordersSet, err := app.DB.Component(item, CompOrders)
	if err != nil {
		t.Fatal(err)
	}
	if store.Kind(ordersSet) != oid.Set {
		t.Fatalf("Item.Orders is %s, want set", store.Kind(ordersSet))
	}
	nos, err := app.OrderNosOf(1)
	if err != nil {
		t.Fatal(err)
	}
	order, err := app.Order(1, nos[0])
	if err != nil {
		t.Fatal(err)
	}
	comps, err = store.TupleComponents(order)
	if err != nil {
		t.Fatal(err)
	}
	want = []string{CompOrderNo, CompCustomer, CompQuantity, CompStatus}
	if strings.Join(comps, ",") != strings.Join(want, ",") {
		t.Errorf("Order components = %v, want %v", comps, want)
	}
	// Atomic leaves: every non-set component is an atomic object.
	for _, c := range []string{CompOrderNo, CompCustomer, CompQuantity, CompStatus} {
		a, err := app.DB.Component(order, c)
		if err != nil {
			t.Fatal(err)
		}
		if store.Kind(a) != oid.Atomic {
			t.Errorf("Order.%s is %s, want atom", c, store.Kind(a))
		}
	}
	// Encapsulation: both types registered and bound.
	if tp, ok := app.DB.TypeOf(item); !ok || tp.Name != "Item" {
		t.Error("item instance not bound to type Item")
	}
	if tp, ok := app.DB.TypeOf(order); !ok || tp.Name != "Order" {
		t.Error("order instance not bound to type Order")
	}
}

// --- Figures 2 and 3: the compatibility matrices --------------------

func TestFigure2ItemMatrix(t *testing.T) {
	m := ItemMatrix()
	// The paper's explicit statement: ShipOrder and PayOrder are
	// compatible.
	cases := []struct {
		a, b string
		want string
	}{
		{MNewOrder, MNewOrder, "ok"},
		{MNewOrder, MShipOrder, "conflict"},
		{MNewOrder, MPayOrder, "conflict"},
		{MNewOrder, MTotalPayment, "conflict"},
		{MShipOrder, MShipOrder, "conflict"},
		{MShipOrder, MPayOrder, "ok"},
		{MShipOrder, MTotalPayment, "ok"}, // required by the paper's Fig. 7
		{MPayOrder, MPayOrder, "ok"},
		{MPayOrder, MTotalPayment, "conflict"},
		{MTotalPayment, MTotalPayment, "ok"},
	}
	for _, c := range cases {
		if got := m.Entry(c.a, c.b); got != c.want {
			t.Errorf("Item[%s,%s] = %s, want %s", c.a, c.b, got, c.want)
		}
		if got := m.Entry(c.b, c.a); got != c.want {
			t.Errorf("Item[%s,%s] = %s, want %s (symmetry)", c.b, c.a, got, c.want)
		}
	}
}

func TestFigure3OrderMatrix(t *testing.T) {
	m := OrderMatrix()
	sh, paid := evArg(EventShipped), evArg(EventPaid)
	o := oid.OID{K: oid.Tuple, N: 99}
	cases := []struct {
		a, b compat.Invocation
		want bool
	}{
		// ChangeStatus self-commutes for every event combination.
		{compat.Inv(o, mid(MChangeStatus), sh), compat.Inv(o, mid(MChangeStatus), sh), true},
		{compat.Inv(o, mid(MChangeStatus), sh), compat.Inv(o, mid(MChangeStatus), paid), true},
		// ChangeStatus(e) vs TestStatus(e'): conflict iff e = e'.
		{compat.Inv(o, mid(MChangeStatus), sh), compat.Inv(o, mid(MTestStatus), sh), false},
		{compat.Inv(o, mid(MChangeStatus), sh), compat.Inv(o, mid(MTestStatus), paid), true},
		{compat.Inv(o, mid(MChangeStatus), paid), compat.Inv(o, mid(MTestStatus), paid), false},
		{compat.Inv(o, mid(MChangeStatus), paid), compat.Inv(o, mid(MTestStatus), sh), true},
		// TestStatus self-commutes.
		{compat.Inv(o, mid(MTestStatus), sh), compat.Inv(o, mid(MTestStatus), sh), true},
		{compat.Inv(o, mid(MTestStatus), sh), compat.Inv(o, mid(MTestStatus), paid), true},
	}
	for _, c := range cases {
		if got := m.Compatible(c.a, c.b); got != c.want {
			t.Errorf("Order compat(%s, %s) = %t, want %t", c.a, c.b, got, c.want)
		}
		if got := m.Compatible(c.b, c.a); got != c.want {
			t.Errorf("Order compat(%s, %s) = %t, want %t (symmetry)", c.b, c.a, got, c.want)
		}
	}
}

// --- Figure 4: concurrent T1 and T2 without top-level blocking ------

func TestFigure4ConcurrentExecution(t *testing.T) {
	// T1 ships two orders, T2 pays the same two orders, concurrently.
	// Under the semantic protocol no top-level wait ever occurs
	// (ShipOrder/PayOrder commute, ChangeStatus/ChangeStatus commute;
	// leaf conflicts resolve via retained-lock cases), and the
	// execution is semantically serializable.
	for rep := 0; rep < 10; rep++ {
		app := newApp(t, core.Semantic, DefaultConfig())
		r1 := OrderRef{ItemNo: 1, OrderNo: mustNos(t, app, 1)[0]}
		r2 := OrderRef{ItemNo: 2, OrderNo: mustNos(t, app, 2)[0]}

		var wg sync.WaitGroup
		var err1, err2 error
		wg.Add(2)
		go func() { defer wg.Done(); err1 = app.T1(r1, r2) }()
		go func() { defer wg.Done(); err2 = app.T2(r1, r2) }()
		wg.Wait()
		if err1 != nil || err2 != nil {
			t.Fatalf("rep %d: T1 err=%v, T2 err=%v", rep, err1, err2)
		}
		st := app.DB.Engine().Stats()
		if st.RootWaits != 0 {
			t.Errorf("rep %d: semantic protocol had %d top-level waits, want 0", rep, st.RootWaits)
		}
		if st.Deadlocks != 0 {
			t.Errorf("rep %d: %d deadlocks, want 0", rep, st.Deadlocks)
		}

		// Semantic serial-equivalence check by exhaustive replay.
		progs := []Program{
			func(a *App) (string, error) { return "", a.T1(r1, r2) },
			func(a *App) (string, error) { return "", a.T2(r1, r2) },
		}
		state, err := app.ConcurrentState()
		if err != nil {
			t.Fatal(err)
		}
		res, err := serial.Check(NewReplayFactory(DefaultConfig(), progs),
			[]serial.Observation{{Name: "T1"}, {Name: "T2"}}, state)
		if err != nil {
			t.Fatal(err)
		}
		if !res.Serializable {
			t.Fatalf("rep %d: execution not semantically serializable: %v", rep, res.Mismatches)
		}
	}
}

func TestFigure4ConventionalBlocks(t *testing.T) {
	// The same workload under record-level strict 2PL: once T1 has
	// executed ShipOrder(i1,o1), T2's PayOrder(i1,o1) must wait for
	// T1's commit (both write o1.Status).
	app := newApp(t, core.TwoPLObject, DefaultConfig())
	r1 := OrderRef{ItemNo: 1, OrderNo: mustNos(t, app, 1)[0]}
	item1, _ := app.Item(1)
	order1, _ := app.Order(r1.ItemNo, r1.OrderNo)
	statusAtom, _ := app.StatusAtom(order1)

	tx1 := app.DB.Begin()
	if _, err := tx1.Call(item1, MShipOrder, val.OfInt(r1.OrderNo)); err != nil {
		t.Fatal(err)
	}
	tx2 := app.DB.Begin()
	waits := app.DB.Engine().ProbeConflicts(tx2.Root(), compat.Inv(statusAtom, compat.OpAdd, val.OfInt(paidUnit)))
	if len(waits) != 1 || waits[0] != tx1.Root() {
		t.Fatalf("2PL probe: PayOrder's status write waits for %v, want [T1 root]", waits)
	}
	if err := tx2.Abort(); err != nil {
		t.Fatal(err)
	}
	if err := tx1.Commit(); err != nil {
		t.Fatal(err)
	}
}

// --- Figure 5: the bypass anomaly ------------------------------------

// figure5Refs returns the two orders T1 ships and T3 audits.
func figure5Refs(t *testing.T, app *App) (OrderRef, OrderRef) {
	t.Helper()
	return OrderRef{ItemNo: 1, OrderNo: mustNos(t, app, 1)[0]},
		OrderRef{ItemNo: 2, OrderNo: mustNos(t, app, 2)[0]}
}

func TestFigure5AnomalyUnderOpenNoRetain(t *testing.T) {
	// §3's protocol (locks released at subtransaction commit) lets T3
	// observe T1's intermediate state: o1 shipped, o2 not — a result
	// no serial execution produces.
	app := newApp(t, core.OpenNoRetain, DefaultConfig())
	r1, r2 := figure5Refs(t, app)
	item1, _ := app.Item(r1.ItemNo)
	item2, _ := app.Item(r2.ItemNo)

	tx1 := app.DB.Begin()
	if _, err := tx1.Call(item1, MShipOrder, val.OfInt(r1.OrderNo)); err != nil {
		t.Fatal(err)
	}
	// T3 runs to completion in the middle of T1.
	s1, s2, err := app.T3(r1, r2)
	if err != nil {
		t.Fatalf("T3: %v", err)
	}
	if _, err := tx1.Call(item2, MShipOrder, val.OfInt(r2.OrderNo)); err != nil {
		t.Fatal(err)
	}
	if err := tx1.Commit(); err != nil {
		t.Fatal(err)
	}
	if !s1 || s2 {
		t.Fatalf("T3 observed (%t,%t); the anomaly requires (true,false)", s1, s2)
	}

	// The checker must reject this execution.
	progs := []Program{
		func(a *App) (string, error) { return "", a.T1(r1, r2) },
		func(a *App) (string, error) {
			x, y, err := a.T3(r1, r2)
			return obs2(x, y), err
		},
	}
	state, err := app.ConcurrentState()
	if err != nil {
		t.Fatal(err)
	}
	res, err := serial.Check(NewReplayFactory(DefaultConfig(), progs),
		[]serial.Observation{{Name: "T1"}, {Name: "T3", Obs: obs2(s1, s2)}}, state)
	if err != nil {
		t.Fatal(err)
	}
	if res.Serializable {
		t.Fatal("checker accepted the Fig. 5 anomaly; it must be non-serializable")
	}
}

func TestFigure5BlockedUnderSemantic(t *testing.T) {
	// With retained locks, the same T3 must wait for T1's top-level
	// commit (worst case of Fig. 9: no commutative ancestor pair).
	app := newApp(t, core.Semantic, DefaultConfig())
	r1, r2 := figure5Refs(t, app)
	item1, _ := app.Item(r1.ItemNo)
	item2, _ := app.Item(r2.ItemNo)
	order1, _ := app.Order(r1.ItemNo, r1.OrderNo)

	tx1 := app.DB.Begin()
	if _, err := tx1.Call(item1, MShipOrder, val.OfInt(r1.OrderNo)); err != nil {
		t.Fatal(err)
	}

	// Probe: T3's TestStatus(o1, shipped) conflicts with the retained
	// ChangeStatus(o1, shipped) lock; no commutative ancestor pair
	// exists, so T3 must wait for T1's root.
	tx3 := app.DB.Begin()
	waits := app.DB.Engine().ProbeConflicts(tx3.Root(), compat.Inv(order1, mid(MTestStatus), evArg(EventShipped)))
	if len(waits) != 1 || waits[0] != tx1.Root() {
		t.Fatalf("semantic probe: T3 waits for %v, want [T1 root]", waits)
	}
	if err := tx3.Abort(); err != nil {
		t.Fatal(err)
	}

	// Live run: T3 blocks until T1 commits, then observes (true,true).
	done := make(chan struct{})
	var s1, s2 bool
	var t3err error
	go func() {
		defer close(done)
		s1, s2, t3err = app.T3(r1, r2)
	}()
	select {
	case <-done:
		t.Fatal("T3 finished while T1 was still active; it must block")
	case <-time.After(30 * time.Millisecond):
	}
	if _, err := tx1.Call(item2, MShipOrder, val.OfInt(r2.OrderNo)); err != nil {
		t.Fatal(err)
	}
	if err := tx1.Commit(); err != nil {
		t.Fatal(err)
	}
	<-done
	if t3err != nil {
		t.Fatalf("T3: %v", t3err)
	}
	if !s1 || !s2 {
		t.Fatalf("T3 observed (%t,%t) after T1 commit, want (true,true)", s1, s2)
	}
}

// --- Figure 6: case 1 — committed commutative ancestor ---------------

func TestFigure6Case1CommittedAncestor(t *testing.T) {
	// T1 finished ShipOrder(i1,o1) and is still running. T4's direct
	// TestStatus(o1, paid) formally conflicts with T1's retained
	// Add(o1.Status) lock, but the ancestor pair
	// (ChangeStatus(o1,shipped), TestStatus(o1,paid)) commutes and
	// the ChangeStatus subtransaction is committed — so T4 proceeds
	// without blocking.
	app := newApp(t, core.Semantic, DefaultConfig())
	r1 := OrderRef{ItemNo: 1, OrderNo: mustNos(t, app, 1)[0]}
	r2 := OrderRef{ItemNo: 2, OrderNo: mustNos(t, app, 2)[0]}
	item1, _ := app.Item(1)

	tx1 := app.DB.Begin()
	if _, err := tx1.Call(item1, MShipOrder, val.OfInt(r1.OrderNo)); err != nil {
		t.Fatal(err)
	}

	before := app.DB.Engine().Stats()
	p1, p2, err := app.T4(r1, r2) // runs to completion while T1 is active
	if err != nil {
		t.Fatalf("T4: %v", err)
	}
	after := app.DB.Engine().Stats()

	if p1 || p2 {
		t.Errorf("T4 = (%t,%t), want (false,false): nothing is paid", p1, p2)
	}
	if after.Blocks != before.Blocks {
		t.Errorf("T4 blocked %d times, want 0 (case 1 must grant immediately)", after.Blocks-before.Blocks)
	}
	if after.Case1Grants == before.Case1Grants {
		t.Error("expected at least one case-1 grant (pseudo-conflict with retained lock ignored)")
	}
	if err := tx1.Commit(); err != nil {
		t.Fatal(err)
	}
}

func TestFigure6ConventionalWouldBlock(t *testing.T) {
	// Contrast: under record-level 2PL the same T4 read of o1.Status
	// waits for T1's commit.
	app := newApp(t, core.TwoPLObject, DefaultConfig())
	r1 := OrderRef{ItemNo: 1, OrderNo: mustNos(t, app, 1)[0]}
	item1, _ := app.Item(1)
	order1, _ := app.Order(r1.ItemNo, r1.OrderNo)
	statusAtom, _ := app.StatusAtom(order1)

	tx1 := app.DB.Begin()
	if _, err := tx1.Call(item1, MShipOrder, val.OfInt(r1.OrderNo)); err != nil {
		t.Fatal(err)
	}
	tx4 := app.DB.Begin()
	waits := app.DB.Engine().ProbeConflicts(tx4.Root(), compat.Inv(statusAtom, compat.OpGet))
	if len(waits) != 1 || waits[0] != tx1.Root() {
		t.Fatalf("2PL probe: T4's status read waits for %v, want [T1 root]", waits)
	}
	if err := tx4.Abort(); err != nil {
		t.Fatal(err)
	}
	if err := tx1.Commit(); err != nil {
		t.Fatal(err)
	}
}

// --- Figure 7: case 2 — commutative but uncommitted ancestor ---------

func TestFigure7Case2WaitForSubtransaction(t *testing.T) {
	// T1's ShipOrder(i1,o1) is held open after its ChangeStatus child
	// committed. T5's TotalPayment(i1) reads o1.Status directly; the
	// conflict with the retained Add(o1.Status) resolves through the
	// commutative ancestor pair (ShipOrder(i1,o1), TotalPayment(i1)),
	// which is NOT yet committed — so T5 waits exactly for the
	// ShipOrder subtransaction, not for T1's top-level commit.
	type blockEvent struct {
		t     *core.Tx
		waits []*core.Tx
	}
	blockCh := make(chan blockEvent, 16)
	db := oodb.Open(oodb.Options{
		Protocol: core.Semantic,
		Record:   true,
		Hooks: core.Hooks{OnBlock: func(t *core.Tx, waits []*core.Tx) {
			select {
			case blockCh <- blockEvent{t, waits}:
			default:
			}
		}},
	})
	app, err := Setup(db, DefaultConfig())
	if err != nil {
		t.Fatal(err)
	}
	r1 := OrderRef{ItemNo: 1, OrderNo: mustNos(t, app, 1)[0]}
	item1, _ := app.Item(1)
	order1, _ := app.Order(r1.ItemNo, r1.OrderNo)
	statusAtom, _ := app.StatusAtom(order1)

	atMid := make(chan struct{})
	release := make(chan struct{})
	app.HookShipMid = func(item oid.OID, orderNo int64) {
		if orderNo == r1.OrderNo {
			close(atMid)
			<-release
		}
	}

	tx1 := db.Begin()
	shipDone := make(chan error, 1)
	go func() {
		_, err := tx1.Call(item1, MShipOrder, val.OfInt(r1.OrderNo))
		shipDone <- err
	}()
	<-atMid // ShipOrder active; ChangeStatus(o1,shipped) committed

	// Probe from inside a TotalPayment subtransaction: the status
	// read must wait exactly for the ShipOrder node (depth 1, same
	// method, T1's tree) — not for T1's root.
	txp := db.Begin()
	probeNode, err := db.Engine().BeginChild(txp.Root(), compat.Inv(item1, mid(MTotalPayment)))
	if err != nil {
		t.Fatal(err)
	}
	waits := db.Engine().ProbeConflicts(probeNode, compat.Inv(statusAtom, compat.OpGet))
	if len(waits) != 1 {
		t.Fatalf("probe waits = %v, want exactly the ShipOrder subtransaction", waits)
	}
	if got := waits[0].Invocation().Method; got != mid(MShipOrder) {
		t.Fatalf("probe waits for %s, want ShipOrder", got)
	}
	if waits[0].Root() != tx1.Root() {
		t.Fatal("probe wait target is not in T1's tree")
	}
	if waits[0] == tx1.Root() {
		t.Fatal("probe waits for T1's root; case 2 requires waiting for the subtransaction only")
	}
	if err := txp.Abort(); err != nil {
		t.Fatal(err)
	}

	// Live T5: blocks on the ShipOrder subtransaction, resumes at its
	// commit, and completes while T1 is still active.
	tx5 := db.Begin()
	t5done := make(chan struct{})
	var total val.V
	var t5err error
	go func() {
		defer close(t5done)
		total, t5err = tx5.Call(item1, MTotalPayment)
	}()

	// Wait until T5 is actually blocked on the ShipOrder node.
	deadline := time.After(2 * time.Second)
	for blocked := false; !blocked; {
		select {
		case ev := <-blockCh:
			if ev.t.Root() == tx5.Root() {
				if len(ev.waits) != 1 || ev.waits[0].Invocation().Method != mid(MShipOrder) {
					t.Fatalf("T5 blocked on %v, want the ShipOrder subtransaction", ev.waits)
				}
				blocked = true
			}
		case <-t5done:
			t.Fatal("T5 completed without blocking; it must wait for ShipOrder's commit")
		case <-deadline:
			t.Fatal("timed out waiting for T5 to block")
		}
	}

	close(release) // let ShipOrder finish
	if err := <-shipDone; err != nil {
		t.Fatalf("ShipOrder: %v", err)
	}
	select {
	case <-t5done: // T5 resumed at ShipOrder's subcommit — T1 still active
	case <-time.After(2 * time.Second):
		t.Fatal("T5 did not resume after ShipOrder committed")
	}
	if t5err != nil {
		t.Fatalf("T5: %v", t5err)
	}
	if total.Int() != 0 {
		t.Errorf("TotalPayment = %d, want 0 (nothing paid)", total.Int())
	}
	if err := tx5.Commit(); err != nil {
		t.Fatal(err)
	}
	if st := db.Engine().Stats(); st.Case2Waits == 0 {
		t.Error("expected at least one case-2 wait")
	}
	if err := tx1.Commit(); err != nil {
		t.Fatal(err)
	}
}

func obs2(a, b bool) string {
	if a {
		if b {
			return "true,true"
		}
		return "true,false"
	}
	if b {
		return "false,true"
	}
	return "false,false"
}
