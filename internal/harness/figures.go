package harness

import (
	"fmt"
	"io"
	"sync"
	"time"

	"semcc/internal/compat"
	"semcc/internal/core"
	"semcc/internal/oid"
	"semcc/internal/oodb"
	"semcc/internal/orderentry"
	"semcc/internal/serial"
	"semcc/internal/val"
)

// RunFigure replays one of the paper's figures (1–7) and writes a
// narrated demonstration to w. Figures 8 and 9 are the protocol
// pseudo-code, i.e. internal/core itself; requesting them prints a
// pointer to the implementation.
func RunFigure(n int, w io.Writer) error {
	switch n {
	case 1:
		return figure1(w)
	case 2:
		fmt.Fprintln(w, "Figure 2 — compatibility matrix of object type Item")
		fmt.Fprintln(w, "(reconstruction documented in DESIGN.md §3.4; 'param' = depends on arguments)")
		fmt.Fprintln(w)
		fmt.Fprint(w, orderentry.ItemMatrix().Render())
		return nil
	case 3:
		fmt.Fprintln(w, "Figure 3 — compatibility matrix of object type Order")
		fmt.Fprintln(w, "(ChangeStatus/TestStatus conflict exactly when testing the event being changed)")
		fmt.Fprintln(w)
		fmt.Fprint(w, orderentry.OrderMatrix().Render())
		return nil
	case 4:
		return figure4(w)
	case 5:
		return figure5(w)
	case 6:
		return figure6(w)
	case 7:
		return figure7(w)
	case 8, 9:
		fmt.Fprintf(w, "Figure %d is the protocol pseudo-code; the implementation is\n", n)
		fmt.Fprintln(w, "internal/core/engine.go (exec-transaction, Fig. 8) and")
		fmt.Fprintln(w, "internal/core/conflict.go (test-conflict, Fig. 9).")
		return nil
	default:
		return fmt.Errorf("harness: no figure %d (paper has figures 1-9)", n)
	}
}

// figureApp builds a small order-entry database for the replays.
func figureApp(kind core.ProtocolKind, hooks core.Hooks) (*orderentry.App, error) {
	db := oodb.Open(oodb.Options{Protocol: kind, Record: true, Hooks: hooks})
	return orderentry.Setup(db, orderentry.DefaultConfig())
}

func figure1(w io.Writer) error {
	app, err := figureApp(core.Semantic, core.Hooks{})
	if err != nil {
		return err
	}
	fmt.Fprintln(w, "Figure 1 — object schema of the order-entry example")
	fmt.Fprintln(w)
	fmt.Fprintln(w, "DB")
	fmt.Fprintln(w, "  Items: Set<Item>           (primary key ItemNo)")
	fmt.Fprintln(w, "  Item:  [ItemNo, Price, QOH, Orders: Set<Order>]   — encapsulated")
	fmt.Fprintln(w, "  Order: [OrderNo, CustomerNo, Quantity, Status]    — encapsulated")
	fmt.Fprintln(w)
	fmt.Fprintln(w, "Instantiated object graph (item 1):")
	item, err := app.Item(1)
	if err != nil {
		return err
	}
	fmt.Fprint(w, app.DB.Store().DumpSubgraph(item))
	return nil
}

func figure4(w io.Writer) error {
	fmt.Fprintln(w, "Figure 4 — concurrent execution of two open nested transactions")
	fmt.Fprintln(w, "T1 ships orders o1@i1 and o2@i2; T2 pays the same orders, concurrently.")
	fmt.Fprintln(w)
	app, err := figureApp(core.Semantic, core.Hooks{})
	if err != nil {
		return err
	}
	nos1, _ := app.OrderNosOf(1)
	nos2, _ := app.OrderNosOf(2)
	r1 := orderentry.OrderRef{ItemNo: 1, OrderNo: nos1[0]}
	r2 := orderentry.OrderRef{ItemNo: 2, OrderNo: nos2[0]}

	var wg sync.WaitGroup
	var err1, err2 error
	wg.Add(2)
	go func() { defer wg.Done(); err1 = app.T1(r1, r2) }()
	go func() { defer wg.Done(); err2 = app.T2(r1, r2) }()
	wg.Wait()
	if err1 != nil || err2 != nil {
		return fmt.Errorf("T1: %v / T2: %v", err1, err2)
	}
	st := app.DB.Engine().Stats()
	fmt.Fprintf(w, "semantic protocol: both committed; top-level waits = %d (ShipOrder/PayOrder\n", st.RootWaits)
	fmt.Fprintf(w, "and ChangeStatus/ChangeStatus commute), case-1 grants = %d, case-2 waits = %d\n", st.Case1Grants, st.Case2Waits)
	fmt.Fprintln(w)
	fmt.Fprintln(w, "Recorded invocation forest:")
	fmt.Fprint(w, app.DB.Engine().Forest())

	// Verify semantic serializability by exhaustive serial replay.
	progs := []orderentry.Program{
		func(a *orderentry.App) (string, error) { return "", a.T1(r1, r2) },
		func(a *orderentry.App) (string, error) { return "", a.T2(r1, r2) },
	}
	state, err := app.ConcurrentState()
	if err != nil {
		return err
	}
	res, err := serial.Check(orderentry.NewReplayFactory(orderentry.DefaultConfig(), progs),
		[]serial.Observation{{Name: "T1"}, {Name: "T2"}}, state)
	if err != nil {
		return err
	}
	fmt.Fprintf(w, "\nserial-equivalence check: serializable=%t witness order=%v (tried %d)\n",
		res.Serializable, res.Order, res.Tried)

	// The paper's §3 reduction (tree reducibility) as a second,
	// independent certificate, plus the leaf-level conflict graph for
	// contrast with conventional theory.
	tr := serial.TreeReducible(app.DB.Engine().Forest(), app.DB.Engine().Table())
	fmt.Fprintf(w, "tree-reducibility (BBG89 reduction): reducible=%t witness=%v\n", tr.Reducible, tr.Order)
	cg := serial.ConflictGraph(app.DB.Engine().Forest())
	fmt.Fprintf(w, "leaf-level R/W conflict graph: edges=%d acyclic=%t\n", cg.Edges, cg.Serializable)
	return nil
}

func figure5(w io.Writer) error {
	fmt.Fprintln(w, "Figure 5 — the bypass anomaly (why retained locks are needed)")
	fmt.Fprintln(w, "T1 ships o1@i1 then o2@i2. In the middle, T3 directly invokes TestStatus on")
	fmt.Fprintln(w, "both Order objects, bypassing the Item encapsulation.")
	fmt.Fprintln(w)

	// Under the §3 protocol (no retained locks) the anomaly occurs.
	app, err := figureApp(core.OpenNoRetain, core.Hooks{})
	if err != nil {
		return err
	}
	nos1, _ := app.OrderNosOf(1)
	nos2, _ := app.OrderNosOf(2)
	r1 := orderentry.OrderRef{ItemNo: 1, OrderNo: nos1[0]}
	r2 := orderentry.OrderRef{ItemNo: 2, OrderNo: nos2[0]}
	item1, _ := app.Item(1)
	item2, _ := app.Item(2)

	tx1 := app.DB.Begin()
	if _, err := tx1.Call(item1, orderentry.MShipOrder, val.OfInt(r1.OrderNo)); err != nil {
		return err
	}
	s1, s2, err := app.T3(r1, r2)
	if err != nil {
		return err
	}
	if _, err := tx1.Call(item2, orderentry.MShipOrder, val.OfInt(r2.OrderNo)); err != nil {
		return err
	}
	if err := tx1.Commit(); err != nil {
		return err
	}
	fmt.Fprintf(w, "open-noretain (§3 protocol): T3 observed (shipped(o1)=%t, shipped(o2)=%t)\n", s1, s2)
	fmt.Fprintln(w, "  → no serial execution produces (true,false); semantic serializability is lost.")

	progs := []orderentry.Program{
		func(a *orderentry.App) (string, error) { return "", a.T1(r1, r2) },
		func(a *orderentry.App) (string, error) {
			x, y, err := a.T3(r1, r2)
			return fmt.Sprintf("%t,%t", x, y), err
		},
	}
	state, err := app.ConcurrentState()
	if err != nil {
		return err
	}
	res, err := serial.Check(orderentry.NewReplayFactory(orderentry.DefaultConfig(), progs),
		[]serial.Observation{{Name: "T1"}, {Name: "T3", Obs: fmt.Sprintf("%t,%t", s1, s2)}}, state)
	if err != nil {
		return err
	}
	fmt.Fprintf(w, "  checker: serializable=%t (tried %d orders)\n\n", res.Serializable, res.Tried)

	// Under the full protocol T3 blocks until T1's commit.
	app2, err := figureApp(core.Semantic, core.Hooks{})
	if err != nil {
		return err
	}
	item1b, _ := app2.Item(1)
	order1b, _ := app2.Order(1, nos1[0])
	tx1b := app2.DB.Begin()
	if _, err := tx1b.Call(item1b, orderentry.MShipOrder, val.OfInt(nos1[0])); err != nil {
		return err
	}
	waits := app2.DB.Engine().ProbeConflicts(app2.DB.Begin().Root(),
		compat.Inv(order1b, orderentry.MTestStatus, val.OfStr(string(orderentry.EventShipped))))
	fmt.Fprintf(w, "semantic protocol: T3's TestStatus(o1,shipped) would wait for %v\n", waits)
	fmt.Fprintln(w, "  → the retained ChangeStatus(o1,shipped) lock has no commutative ancestor")
	fmt.Fprintln(w, "    pair with T3's chain, so T3 waits for T1's top-level commit (worst case).")
	return tx1b.Commit()
}

func figure6(w io.Writer) error {
	fmt.Fprintln(w, "Figure 6 — case 1: conflicting actions with a commutative, committed ancestor")
	fmt.Fprintln(w, "T1 finished ShipOrder(i1,o1) (still running). T4 directly checks payment of o1.")
	fmt.Fprintln(w)
	app, err := figureApp(core.Semantic, core.Hooks{})
	if err != nil {
		return err
	}
	nos1, _ := app.OrderNosOf(1)
	nos2, _ := app.OrderNosOf(2)
	r1 := orderentry.OrderRef{ItemNo: 1, OrderNo: nos1[0]}
	r2 := orderentry.OrderRef{ItemNo: 2, OrderNo: nos2[0]}
	item1, _ := app.Item(1)

	tx1 := app.DB.Begin()
	if _, err := tx1.Call(item1, orderentry.MShipOrder, val.OfInt(r1.OrderNo)); err != nil {
		return err
	}
	before := app.DB.Engine().Stats()
	p1, p2, err := app.T4(r1, r2)
	if err != nil {
		return err
	}
	after := app.DB.Engine().Stats()
	fmt.Fprintf(w, "T4 ran to completion while T1 was active: paid(o1)=%t paid(o2)=%t\n", p1, p2)
	fmt.Fprintf(w, "blocks during T4: %d; case-1 grants: %d\n", after.Blocks-before.Blocks, after.Case1Grants-before.Case1Grants)
	fmt.Fprintln(w, "  → T4's Get(o1.Status) formally conflicts with T1's retained Add(o1.Status),")
	fmt.Fprintln(w, "    but (ChangeStatus(o1,shipped), TestStatus(o1,paid)) commute and the")
	fmt.Fprintln(w, "    ChangeStatus subtransaction is committed — the conflict is ignored.")
	return tx1.Commit()
}

func figure7(w io.Writer) error {
	fmt.Fprintln(w, "Figure 7 — case 2: commutative but not yet committed ancestor")
	fmt.Fprintln(w, "T1's ShipOrder(i1,o1) is held open mid-execution; T5 runs TotalPayment(i1).")
	fmt.Fprintln(w)
	blockCh := make(chan []*core.Tx, 8)
	app, err := figureApp(core.Semantic, core.Hooks{OnBlock: func(t *core.Tx, waits []*core.Tx) {
		select {
		case blockCh <- waits:
		default:
		}
	}})
	if err != nil {
		return err
	}
	nos1, _ := app.OrderNosOf(1)
	item1, _ := app.Item(1)

	atMid := make(chan struct{})
	release := make(chan struct{})
	app.HookShipMid = func(item oid.OID, orderNo int64) {
		if orderNo == nos1[0] {
			close(atMid)
			<-release
		}
	}
	tx1 := app.DB.Begin()
	shipDone := make(chan error, 1)
	go func() {
		_, err := tx1.Call(item1, orderentry.MShipOrder, val.OfInt(nos1[0]))
		shipDone <- err
	}()
	<-atMid
	fmt.Fprintln(w, "T1 is inside ShipOrder(i1,o1): ChangeStatus(o1,shipped) committed, QOH update pending.")

	tx5 := app.DB.Begin()
	t5done := make(chan error, 1)
	var total val.V
	go func() {
		var err error
		total, err = tx5.Call(item1, orderentry.MTotalPayment)
		t5done <- err
	}()
	select {
	case waits := <-blockCh:
		fmt.Fprintf(w, "T5 blocked on: %v\n", waits)
		fmt.Fprintln(w, "  → exactly the ShipOrder(i1,o1) subtransaction (commutative ancestor pair")
		fmt.Fprintln(w, "    ShipOrder/TotalPayment on i1), NOT T1's top-level commit.")
	case <-time.After(2 * time.Second):
		return fmt.Errorf("figure 7: T5 never blocked")
	}
	close(release)
	if err := <-shipDone; err != nil {
		return err
	}
	if err := <-t5done; err != nil {
		return err
	}
	fmt.Fprintf(w, "ShipOrder committed → T5 resumed and finished (TotalPayment=%d) while T1 is still active.\n", total.Int())
	if err := tx5.Commit(); err != nil {
		return err
	}
	st := app.DB.Engine().Stats()
	fmt.Fprintf(w, "case-2 waits recorded: %d\n", st.Case2Waits)
	return tx1.Commit()
}
