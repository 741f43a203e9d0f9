// Cross-matrix compatibility contract tests. The in-package tests pin
// individual rules; this file (an external test package, because the
// application matrices live above internal/compat) runs one contract
// over every registered matrix of the repository — the generic
// operations, the order-entry Item and Order types, and the adts
// Queue/Counter/Account types — so no matrix can drift from the
// properties the lock manager assumes. It is the compatibility-layer
// mirror of internal/core's journal_contract_test.go.
package compat_test

import (
	"testing"

	"semcc/adts"
	"semcc/internal/compat"
	"semcc/internal/core"
	"semcc/internal/history"
	"semcc/internal/oid"
	"semcc/internal/oodb"
	"semcc/internal/orderentry"
	"semcc/internal/val"
)

// matrices enumerates every compatibility matrix the repository
// registers.
func matrices() []struct {
	name string
	m    *compat.Matrix
} {
	return []struct {
		name string
		m    *compat.Matrix
	}{
		{"generic", compat.GenericMatrix()},
		{"item", orderentry.ItemMatrix()},
		{"order", orderentry.OrderMatrix()},
		{"queue", adts.QueueMatrix()},
		{"counter", adts.CounterMatrix()},
		{"account", adts.AccountMatrix()},
	}
}

// probePairs builds invocation pairs that exercise both branches of
// parameter-dependent rules: equal arguments and differing arguments.
func probePairs(a, b string) [][2]compat.Invocation {
	args := func(vs ...int64) []val.V {
		out := make([]val.V, len(vs))
		for i, v := range vs {
			out[i] = val.OfInt(v)
		}
		return out
	}
	return [][2]compat.Invocation{
		{{Method: a, Args: args(1, 1)}, {Method: b, Args: args(1, 1)}},
		{{Method: a, Args: args(1, 1)}, {Method: b, Args: args(2, 2)}},
		{{Method: a, Args: args(7)}, {Method: b, Args: args(7)}},
		{{Method: a, Args: args(7)}, {Method: b, Args: args(8)}},
	}
}

// TestMatrixContractSymmetry: commutativity of two invocations is an
// unordered property, so every registered rule must answer the same
// for (a,b) and (b,a) — on equal and on differing arguments.
func TestMatrixContractSymmetry(t *testing.T) {
	for _, entry := range matrices() {
		t.Run(entry.name, func(t *testing.T) {
			methods := entry.m.Methods()
			for _, a := range methods {
				for _, b := range methods {
					for _, pair := range probePairs(a, b) {
						x, y := pair[0], pair[1]
						if got, mirror := entry.m.Compatible(x, y), entry.m.Compatible(y, x); got != mirror {
							t.Fatalf("%s: Compatible(%s, %s)=%t but Compatible(%s, %s)=%t",
								entry.name, x, y, got, y, x, mirror)
						}
					}
				}
			}
		})
	}
}

// TestMatrixContractDistinctKeySetOps pins the parameter-dependent set
// admissions of the generic matrix the paper's §2.2 calls out:
// insertions under distinct keys commute, and an insertion commutes
// with a selection of a different key — while equal keys conflict
// (the selection would observe the insertion).
func TestMatrixContractDistinctKeySetOps(t *testing.T) {
	g := compat.GenericMatrix()
	inv := func(op string, key int64) compat.Invocation {
		return compat.Invocation{Method: op, Args: []val.V{val.OfInt(key)}}
	}
	cases := []struct {
		a, b compat.Invocation
		want bool
	}{
		{inv(compat.OpInsert, 1), inv(compat.OpInsert, 2), true},
		{inv(compat.OpInsert, 1), inv(compat.OpInsert, 1), false},
		{inv(compat.OpInsert, 1), inv(compat.OpSelect, 2), true},
		{inv(compat.OpInsert, 1), inv(compat.OpSelect, 1), false},
		{inv(compat.OpInsert, 1), inv(compat.OpRemove, 2), true},
		{inv(compat.OpInsert, 1), inv(compat.OpRemove, 1), false},
		// Scan is a whole-set observation: no key distinction helps.
		{inv(compat.OpInsert, 1), compat.Invocation{Method: compat.OpScan}, false},
	}
	for _, c := range cases {
		if got := g.Compatible(c.a, c.b); got != c.want {
			t.Fatalf("generic: Compatible(%s, %s) = %t, want %t", c.a, c.b, got, c.want)
		}
	}
}

// TestMatrixContractCommutingLeaves holds every method that its
// matrix lets run next to itself to leaf accesses that commute too:
// its subtree must never Get an atom and later Put the same atom. Two
// concurrent invocations of such a method would both hold the Get,
// both queue the Put, and deadlock on the upgrade, although the matrix
// promised they commute (Malta & Martinez: a pair declared commuting
// must have leaf accesses that commute). Each method runs once, in its
// own committed root, with history recording on; the runs are ordered
// so every compensation has something to undo.
func TestMatrixContractCommutingLeaves(t *testing.T) {
	db := oodb.Open(oodb.Options{Protocol: core.Semantic, Record: true})
	app, err := orderentry.Setup(db, orderentry.Config{
		Items: 1, OrdersPerItem: 2, InitialQOH: 10, Price: 10, OrderQuantity: 1,
	})
	if err != nil {
		t.Fatal(err)
	}
	if err := adts.RegisterTypes(db); err != nil {
		t.Fatal(err)
	}
	item, err := app.Item(1)
	if err != nil {
		t.Fatal(err)
	}
	nos, err := app.OrderNosOf(1)
	if err != nil {
		t.Fatal(err)
	}
	order, err := app.Order(1, nos[0])
	if err != nil {
		t.Fatal(err)
	}
	queue, err := adts.NewQueue(db)
	if err != nil {
		t.Fatal(err)
	}
	counter, err := adts.NewCounter(db, 5)
	if err != nil {
		t.Fatal(err)
	}
	account, err := adts.NewAccount(db, 5)
	if err != nil {
		t.Fatal(err)
	}
	i64, paid := val.OfInt, val.OfStr("paid")
	runs := []struct {
		m    *compat.Matrix
		recv oid.OID
		name string
		args []val.V
	}{
		{orderentry.ItemMatrix(), item, orderentry.MNewOrder, []val.V{i64(7), i64(1)}},
		{orderentry.ItemMatrix(), item, orderentry.MPayOrder, []val.V{i64(nos[0])}},
		{orderentry.ItemMatrix(), item, orderentry.MUnpayOrder, []val.V{i64(nos[0])}},
		{orderentry.ItemMatrix(), item, orderentry.MTotalPayment, nil},
		{orderentry.ItemMatrix(), item, orderentry.MRemoveOrder, []val.V{i64(nos[1])}},
		{orderentry.OrderMatrix(), order, orderentry.MChangeStatus, []val.V{paid}},
		{orderentry.OrderMatrix(), order, orderentry.MTestStatus, []val.V{paid}},
		{orderentry.OrderMatrix(), order, orderentry.MUnchangeStatus, []val.V{paid}},
		{adts.QueueMatrix(), queue, adts.QEnqueue, []val.V{i64(3)}},
		{adts.QueueMatrix(), queue, adts.QUnenqueue, []val.V{i64(0)}},
		{adts.QueueMatrix(), queue, adts.QSize, nil},
		{adts.CounterMatrix(), counter, adts.CInc, []val.V{i64(2)}},
		{adts.CounterMatrix(), counter, adts.CDec, []val.V{i64(1)}},
		{adts.CounterMatrix(), counter, adts.CValue, nil},
		{adts.AccountMatrix(), account, adts.ADeposit, []val.V{i64(2)}},
		{adts.AccountMatrix(), account, adts.AUndeposit, []val.V{i64(2)}},
		{adts.AccountMatrix(), account, adts.ABalance, nil},
	}

	// Every self-compatible method of the application matrices must be
	// among the runs, so a new one cannot slip past the check.
	covered := map[string]bool{}
	for _, r := range runs {
		covered[r.m.TypeName()+"."+r.name] = true
	}
	for _, entry := range matrices()[1:] {
		for _, method := range entry.m.Methods() {
			selfCompatible := false
			for _, pair := range probePairs(method, method) {
				selfCompatible = selfCompatible || entry.m.Compatible(pair[0], pair[1])
			}
			if selfCompatible && !covered[entry.m.TypeName()+"."+method] {
				t.Errorf("%s.%s is compatible with itself but has no footprint run", entry.m.TypeName(), method)
			}
		}
	}

	for i, r := range runs {
		tx := db.Begin()
		if _, err := tx.Call(r.recv, r.name, r.args...); err != nil {
			t.Fatalf("%s.%s: %v", r.m.TypeName(), r.name, err)
		}
		if err := tx.Commit(); err != nil {
			t.Fatal(err)
		}
		roots := db.Engine().Forest().Roots
		if len(roots) != i+1 || len(roots[i].Children) != 1 {
			t.Fatalf("%s.%s: recorded %d roots, want %d with one call each", r.m.TypeName(), r.name, len(roots), i+1)
		}
		read := map[oid.OID]bool{}
		var walk func(n *history.Node)
		walk = func(n *history.Node) {
			switch n.Inv.Method {
			case compat.OpGet:
				read[n.Inv.Object] = true
			case compat.OpPut:
				if read[n.Inv.Object] {
					t.Errorf("%s.%s is compatible with itself but its leaves Get %s and then Put it",
						r.m.TypeName(), r.name, n.Inv.Object)
				}
			}
			for _, c := range n.Children {
				walk(c)
			}
		}
		walk(roots[i].Children[0])
	}
}
