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

// probePairs builds invocation pairs of m's methods a and b that
// exercise both branches of parameter-dependent rules: equal arguments
// and differing arguments.
func probePairs(m *compat.Matrix, a, b string) [][2]compat.Invocation {
	ia, _ := m.ID(a)
	ib, _ := m.ID(b)
	args := func(vs ...int64) []val.V {
		out := make([]val.V, len(vs))
		for i, v := range vs {
			out[i] = val.OfInt(v)
		}
		return out
	}
	return [][2]compat.Invocation{
		{{Method: ia, Args: args(1, 1)}, {Method: ib, Args: args(1, 1)}},
		{{Method: ia, Args: args(1, 1)}, {Method: ib, Args: args(2, 2)}},
		{{Method: ia, Args: args(7)}, {Method: ib, Args: args(7)}},
		{{Method: ia, Args: args(7)}, {Method: ib, Args: args(8)}},
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
					for _, pair := range probePairs(entry.m, a, b) {
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
	inv := func(op compat.Method, key int64) compat.Invocation {
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

// compatibleOnProbes reports whether m lets a run next to b for some
// probe arguments.
func compatibleOnProbes(m *compat.Matrix, a, b string) bool {
	for _, pair := range probePairs(m, a, b) {
		if m.Compatible(pair[0], pair[1]) {
			return true
		}
	}
	return false
}

// TestMatrixContractCommutingLeaves holds every pair of methods that
// their matrix lets run side by side — a method and itself, or two
// different methods — to leaf accesses that commute too: the two
// subtrees must not both Get one atom and later Put it. Two concurrent
// roots invoking them would both hold the Get, both queue the Put, and
// deadlock on the upgrade, although the matrix promised the methods
// commute (Malta & Martinez: a pair declared commuting must have leaf
// accesses that commute). Each method runs once, in its own committed
// root, with history recording on, on one receiver per matrix; the
// runs are ordered so every compensation has something to undo.
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
		{orderentry.ItemMatrix(), item, orderentry.MShipOrder, []val.V{i64(nos[0])}},
		{orderentry.ItemMatrix(), item, orderentry.MUnshipOrder, []val.V{i64(nos[0])}},
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
		{adts.AccountMatrix(), account, adts.AWithdraw, []val.V{i64(1)}},
		{adts.AccountMatrix(), account, adts.ABalance, nil},
	}

	// Every method of the application matrices that is compatible with
	// itself or with another method must be among the runs, so a new
	// one cannot slip past the check.
	covered := map[string]bool{}
	for _, r := range runs {
		covered[r.m.TypeName()+"."+r.name] = true
	}
	for _, entry := range matrices()[1:] {
		for _, a := range entry.m.Methods() {
			for _, b := range entry.m.Methods() {
				if compatibleOnProbes(entry.m, a, b) && !covered[entry.m.TypeName()+"."+a] {
					t.Errorf("%s.%s is compatible with %s but has no footprint run", entry.m.TypeName(), a, b)
					break
				}
			}
		}
	}

	// upgrades[i] holds the atoms run i Gets and later Puts.
	upgrades := make([]map[oid.OID]bool, len(runs))
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
		read, up := map[oid.OID]bool{}, map[oid.OID]bool{}
		var walk func(n *history.Node)
		walk = func(n *history.Node) {
			switch n.Inv.Method {
			case compat.OpGet:
				read[n.Inv.Object] = true
			case compat.OpPut:
				if read[n.Inv.Object] {
					up[n.Inv.Object] = true
				}
			}
			for _, c := range n.Children {
				walk(c)
			}
		}
		walk(roots[i].Children[0])
		upgrades[i] = up
	}

	for i, a := range runs {
		for j := i; j < len(runs); j++ {
			b := runs[j]
			if b.m.TypeName() != a.m.TypeName() || !compatibleOnProbes(a.m, a.name, b.name) {
				continue
			}
			for atom := range upgrades[i] {
				if upgrades[j][atom] {
					t.Errorf("%s.%s and %s.%s are compatible but both Get %s and then Put it",
						a.m.TypeName(), a.name, b.m.TypeName(), b.name, atom)
				}
			}
		}
	}
}

// arity is the real argument count of every method of matrices(), by
// type and method name.
var arity = map[string]int{
	"generic.Get": 0, "generic.Put": 1, "generic.Add": 1, "generic.Select": 1,
	"generic.Insert": 2, "generic.Remove": 1, "generic.Scan": 0,

	"Item.NewOrder": 2, "Item.ShipOrder": 1, "Item.PayOrder": 1, "Item.TotalPayment": 0,
	"Item.RemoveOrder": 1, "Item.UnshipOrder": 1, "Item.UnpayOrder": 1,
	"Item.DebitStock": 1, "Item.CreditStock": 1, "Item.UncreditStock": 1,
	"Order.ChangeStatus": 1, "Order.TestStatus": 1, "Order.UnchangeStatus": 1,

	"Queue.Enqueue": 1, "Queue.Dequeue": 0, "Queue.Size": 0, "Queue.Unenqueue": 1,
	"Counter.Inc": 1, "Counter.Dec": 1, "Counter.Value": 0,
	"Account.Deposit": 1, "Account.Withdraw": 1, "Account.Balance": 0, "Account.Undeposit": 1,
}

// TestDenseMatrixMatchesDeclaredRules is the differential test of the
// dense matrix, over the generic matrix and every type the repository
// registers (the figures register orderentry's Item and Order). For
// every ordered pair of methods, a method with itself included,
// Compatible — which finds its rule by the invocations' ids — must
// answer what the rule declared for the pair by name (Matrix.Rule)
// answers, and a pair never declared must conflict; and it must answer
// the same with the two invocations swapped. The probes are Entry's
// argument vectors and vectors of each method's real arity, on equal
// and on differing arguments.
func TestDenseMatrixMatchesDeclaredRules(t *testing.T) {
	vec := func(n int, v val.V) []val.V {
		out := make([]val.V, n)
		for i := range out {
			out[i] = v
		}
		return out
	}
	obj := oid.OID{K: oid.Tuple, N: 9}
	undeclared := 0
	for _, entry := range matrices() {
		m := entry.m
		for _, a := range m.Methods() {
			for _, b := range m.Methods() {
				na, okA := arity[m.TypeName()+"."+a]
				nb, okB := arity[m.TypeName()+"."+b]
				if !okA || !okB {
					t.Fatalf("%s.%s/%s: no arity on record", m.TypeName(), a, b)
				}
				ia, _ := m.ID(a)
				ib, _ := m.ID(b)
				rule := m.Rule(a, b)
				if rule == nil {
					undeclared++
					if m.Entry(a, b) != "conflict" {
						t.Errorf("%s: undeclared %s/%s renders %s", m.TypeName(), a, b, m.Entry(a, b))
					}
				}
				probes := [][2][]val.V{
					{vec(2, val.OfStr("α")), vec(2, val.OfStr("α"))},
					{vec(2, val.OfStr("α")), vec(2, val.OfStr("β"))},
					{vec(na, val.OfInt(1)), vec(nb, val.OfInt(1))},
					{vec(na, val.OfInt(1)), vec(nb, val.OfInt(2))},
				}
				for _, p := range probes {
					x := compat.Invocation{Object: obj, Method: ia, Args: p[0]}
					y := compat.Invocation{Object: obj, Method: ib, Args: p[1]}
					want := rule != nil && rule(x, y)
					if got := m.Compatible(x, y); got != want {
						t.Errorf("%s: Compatible(%s, %s) = %t, declared rule says %t", m.TypeName(), x.Format(a), y.Format(b), got, want)
					}
					if m.Compatible(y, x) != m.Compatible(x, y) {
						t.Errorf("%s: Compatible is not symmetric on %s, %s", m.TypeName(), x.Format(a), y.Format(b))
					}
				}
			}
		}
	}
	if undeclared == 0 {
		t.Error("no undeclared pair: the default-conflict check checked nothing")
	}
}
