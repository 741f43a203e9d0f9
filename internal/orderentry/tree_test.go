package orderentry

import (
	"fmt"
	"strings"
	"testing"

	"semcc/internal/compat"
	"semcc/internal/core"
	"semcc/internal/history"
	"semcc/internal/val"
)

// shape renders a node's invocation tree as nested method names,
// eliding object ids, e.g. "Tx(Ship(Select Change(Add) Get Get Put))".
func shape(n *history.Node) string {
	name := n.Inv.Method
	switch name {
	case MChangeStatus:
		name = "Change"
	case MUnchangeStatus:
		name = "Unchange"
	case MShipOrder:
		name = "Ship"
	case MUnshipOrder:
		name = "Unship"
	case MPayOrder:
		name = "Pay"
	case MTotalPayment:
		name = "Total"
	case MTestStatus:
		name = "Test"
	case compat.OpRoot:
		name = "Tx"
	}
	if len(n.Children) == 0 {
		return name
	}
	parts := make([]string, 0, len(n.Children))
	for _, c := range n.Children {
		parts = append(parts, shape(c))
	}
	return fmt.Sprintf("%s(%s)", name, strings.Join(parts, " "))
}

// TestFigure4TreeShape pins the invocation trees the method bodies
// produce to the paper's Fig. 4, plus the Select and Get(Quantity)
// actions the paper elides "for brevity" (§2.2):
//
//	paper:   ShipOrder → ChangeStatus(Get Put), Get(QOH), Put(QOH)
//	here:    ShipOrder → Select, ChangeStatus(Get Put), Get(Qty), Get(QOH), Put(QOH)
//	paper:   PayOrder  → ChangeStatus(Get Put)
//	here:    PayOrder  → Select, ChangeStatus(Get Put)
func TestFigure4TreeShape(t *testing.T) {
	app := newApp(t, core.Semantic, DefaultConfig())
	r1 := OrderRef{ItemNo: 1, OrderNo: mustNos(t, app, 1)[0]}
	r2 := OrderRef{ItemNo: 2, OrderNo: mustNos(t, app, 2)[0]}
	if err := app.T1(r1, r2); err != nil {
		t.Fatal(err)
	}
	if err := app.T2(r1, r2); err != nil {
		t.Fatal(err)
	}
	forest := app.DB.Engine().Forest()
	if len(forest.Roots) != 2 {
		t.Fatalf("roots = %d", len(forest.Roots))
	}
	wantT1 := "Tx(Ship(Select Change(Add) Get Get Put) Ship(Select Change(Add) Get Get Put))"
	wantT2 := "Tx(Pay(Select Change(Add)) Pay(Select Change(Add)))"
	if got := shape(forest.Roots[0]); got != wantT1 {
		t.Errorf("T1 tree:\n got %s\nwant %s", got, wantT1)
	}
	if got := shape(forest.Roots[1]); got != wantT2 {
		t.Errorf("T2 tree:\n got %s\nwant %s", got, wantT2)
	}
}

// TestFigure7TreeShape pins TotalPayment's tree: Scan, Get(Price),
// then per order a direct Get of the status atom (footnote 4 bypass),
// plus Get(Quantity) for paid orders.
func TestFigure7TreeShape(t *testing.T) {
	app := newApp(t, core.Semantic, DefaultConfig())
	nos := mustNos(t, app, 1)
	// Pay the first order so the quantity read appears.
	if err := app.T2(OrderRef{1, nos[0]}, OrderRef{2, mustNos(t, app, 2)[0]}); err != nil {
		t.Fatal(err)
	}
	if _, err := app.T5(1); err != nil {
		t.Fatal(err)
	}
	forest := app.DB.Engine().Forest()
	tree := forest.Roots[len(forest.Roots)-1]
	want := "Tx(Total(Scan Get Get Get Get))" // Scan, Price, o1.Status, o1.Qty, o2.Status
	if got := shape(tree); got != want {
		t.Errorf("T5 tree:\n got %s\nwant %s", got, want)
	}
}

// TestAbortTreeShape pins the compensation subtree produced by
// aborting a transaction with one committed ShipOrder.
func TestAbortTreeShape(t *testing.T) {
	app := newApp(t, core.Semantic, DefaultConfig())
	nos := mustNos(t, app, 1)
	item, _ := app.Item(1)
	tx := app.DB.Begin()
	if _, err := tx.Call(item, MShipOrder, val.OfInt(nos[0])); err != nil {
		t.Fatal(err)
	}
	if err := tx.Abort(); err != nil {
		t.Fatal(err)
	}
	forest := app.DB.Engine().Forest()
	tree := forest.Roots[len(forest.Roots)-1]
	want := "Tx(Ship(Select Change(Add) Get Get Put) Unship(Select Unchange(Add) Get Get Put))"
	if got := shape(tree); got != want {
		t.Errorf("abort tree:\n got %s\nwant %s", got, want)
	}
	if tree.Committed {
		t.Error("aborted root recorded as committed")
	}
}
