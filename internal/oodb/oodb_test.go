package oodb

import (
	"errors"
	"strings"
	"testing"
	"time"

	"semcc/internal/clock"
	"semcc/internal/compat"
	"semcc/internal/core"
	"semcc/internal/obs"
	"semcc/internal/oid"
	"semcc/internal/val"
)

// registerPair installs a tiny type "Reg" with commuting Add and a
// conflicting Read, implemented over one atom, for engine-level tests.
func registerPair(t testing.TB, db *DB) (regType *Type) {
	t.Helper()
	m := compat.NewMatrix("Reg", "AddN", "Read", "SubN")
	m.Set("AddN", "AddN", compat.Always)
	m.Set("SubN", "AddN", compat.Always)
	m.Set("SubN", "SubN", compat.Always)
	m.Set("Read", "Read", compat.Always)
	addBody := func(sign int64) MethodFunc {
		return func(ctx *Ctx, recv oid.OID, args []val.V) (val.V, error) {
			nAtom, err := ctx.Component(recv, "N")
			if err != nil {
				return val.NullV, err
			}
			cur, err := ctx.Get(nAtom)
			if err != nil {
				return val.NullV, err
			}
			return val.NullV, ctx.Put(nAtom, val.OfInt(cur.Int()+sign*args[0].Int()))
		}
	}
	typ, err := NewType("Reg", m,
		&Method{Name: "AddN", Body: addBody(1), Inverse: func(inv compat.Invocation, _ val.V) *compat.Invocation {
			sub, _ := m.ID("SubN")
			c := compat.Inv(inv.Object, sub, inv.Args[0])
			return &c
		}},
		&Method{Name: "SubN", Body: addBody(-1)},
		&Method{Name: "Read", ReadOnly: true, Body: func(ctx *Ctx, recv oid.OID, args []val.V) (val.V, error) {
			nAtom, err := ctx.Component(recv, "N")
			if err != nil {
				return val.NullV, err
			}
			return ctx.Get(nAtom)
		}},
	)
	if err != nil {
		t.Fatal(err)
	}
	if err := db.RegisterType(typ); err != nil {
		t.Fatal(err)
	}
	return typ
}

func newReg(t testing.TB, db *DB, initial int64) oid.OID {
	t.Helper()
	store := db.Store()
	n, err := store.NewAtomic(val.OfInt(initial))
	if err != nil {
		t.Fatal(err)
	}
	r, err := store.NewTuple([]string{"N"}, map[string]oid.OID{"N": n})
	if err != nil {
		t.Fatal(err)
	}
	if err := db.BindInstance(r, "Reg"); err != nil {
		t.Fatal(err)
	}
	return r
}

func TestTypeValidation(t *testing.T) {
	m := compat.NewMatrix("T", "A")
	if _, err := NewType("T", m, &Method{Name: "B", Body: func(*Ctx, oid.OID, []val.V) (val.V, error) { return val.NullV, nil }}); err == nil {
		t.Error("method outside matrix must be rejected")
	}
	if _, err := NewType("T", m, &Method{Name: "A"}); err == nil {
		t.Error("method without body must be rejected")
	}
	body := func(*Ctx, oid.OID, []val.V) (val.V, error) { return val.NullV, nil }
	if _, err := NewType("T", m, &Method{Name: "A", Body: body}, &Method{Name: "A", Body: body}); err == nil {
		t.Error("duplicate method must be rejected")
	}
	db := Open(Options{})
	typ, err := NewType("T", m, &Method{Name: "A", Body: body})
	if err != nil {
		t.Fatal(err)
	}
	if err := db.RegisterType(typ); err != nil {
		t.Fatal(err)
	}
	if err := db.RegisterType(typ); err == nil {
		t.Error("duplicate type registration must fail")
	}
	if err := db.BindInstance(oid.OID{K: oid.Tuple, N: 1}, "NoSuch"); err == nil {
		t.Error("binding to unknown type must fail")
	}
}

func TestMethodCallAndAbortCompensation(t *testing.T) {
	db := Open(Options{})
	registerPair(t, db)
	r := newReg(t, db, 100)

	tx := db.Begin()
	if _, err := tx.Call(r, "AddN", val.OfInt(5)); err != nil {
		t.Fatal(err)
	}
	if _, err := tx.Call(r, "AddN", val.OfInt(7)); err != nil {
		t.Fatal(err)
	}
	if err := tx.Abort(); err != nil {
		t.Fatal(err)
	}
	nAtom, _ := db.Component(r, "N")
	v, _ := db.ReadAtom(nAtom)
	if v.Int() != 100 {
		t.Fatalf("after abort N = %d, want 100", v.Int())
	}
	if st := db.Engine().Stats(); st.Compensations != 2 {
		t.Errorf("compensations = %d, want 2", st.Compensations)
	}
}

func TestBypassAndMethodsCoexist(t *testing.T) {
	db := Open(Options{})
	registerPair(t, db)
	r := newReg(t, db, 10)
	nAtom, _ := db.Component(r, "N")

	tx := db.Begin()
	if _, err := tx.Call(r, "AddN", val.OfInt(1)); err != nil {
		t.Fatal(err)
	}
	// Direct bypass read inside the same transaction.
	v, err := tx.Get(nAtom)
	if err != nil {
		t.Fatal(err)
	}
	if v.Int() != 11 {
		t.Errorf("bypass read = %d, want 11", v.Int())
	}
	if err := tx.Commit(); err != nil {
		t.Fatal(err)
	}
}

func TestMethodVsGenericOpConflicts(t *testing.T) {
	// A method lock and a raw generic op on the same object never
	// commute (no commutativity knowledge).
	db := Open(Options{})
	registerPair(t, db)
	r := newReg(t, db, 0)

	tx1 := db.Begin()
	if _, err := tx1.Call(r, "AddN", val.OfInt(1)); err != nil {
		t.Fatal(err)
	}
	tx2 := db.Begin()
	// Raw Put on the ENCAPSULATED object's own OID (not its atom):
	// conflicts with the retained Add method lock.
	waits := db.Engine().ProbeConflicts(tx2.Root(), compat.Inv(r, compat.OpPut, val.OfInt(9)))
	if len(waits) != 1 {
		t.Fatalf("method vs generic waits = %v, want [tx1]", waits)
	}
	_ = tx2.Abort()
	_ = tx1.Commit()
}

func TestErrNoSuchMethodAndBadArgs(t *testing.T) {
	db := Open(Options{})
	registerPair(t, db)
	r := newReg(t, db, 0)
	tx := db.Begin()
	if _, err := tx.Call(r, "Bogus"); err == nil || !strings.Contains(err.Error(), "no method") {
		t.Errorf("err = %v", err)
	}
	// Unregistered object.
	other, _ := db.Store().NewAtomic(val.OfInt(1))
	if _, err := tx.Call(other, "AddN", val.OfInt(1)); err == nil {
		t.Error("method call on atom must fail")
	}
	if err := tx.Abort(); err != nil {
		t.Fatal(err)
	}
}

func TestGenericOpArgValidation(t *testing.T) {
	db := Open(Options{})
	a, _ := db.Store().NewAtomic(val.OfInt(1))
	set, _ := db.Store().NewSet()
	tx := db.Begin()
	if _, err := tx.db.invoke(tx.node, compat.Inv(a, compat.OpPut)); err == nil {
		t.Error("Put without value must fail")
	}
	if _, err := tx.db.invoke(tx.node, compat.Inv(set, compat.OpSelect)); err == nil {
		t.Error("Select without key must fail")
	}
	if _, err := tx.db.invoke(tx.node, compat.Inv(set, compat.OpInsert, val.OfInt(1))); err == nil {
		t.Error("Insert without member must fail")
	}
	if err := tx.Remove(set, val.OfInt(7)); !errors.Is(err, ErrNoSuchKey) {
		t.Errorf("Remove absent key err = %v", err)
	}
	if _, err := tx.db.invoke(tx.node, compat.Inv(set, compat.OpScan)); err == nil {
		t.Error("Scan through invoke must fail (dedicated path)")
	}
	_ = tx.Abort()
}

func TestInsertRemoveRoundTripWithAbort(t *testing.T) {
	db := Open(Options{})
	set, _ := db.Store().NewSet()
	m, _ := db.Store().NewAtomic(val.OfInt(42))

	tx := db.Begin()
	if err := tx.Insert(set, val.OfInt(1), m); err != nil {
		t.Fatal(err)
	}
	if err := tx.Commit(); err != nil {
		t.Fatal(err)
	}

	// Remove then abort: the inverse Insert restores the member.
	tx = db.Begin()
	if err := tx.Remove(set, val.OfInt(1)); err != nil {
		t.Fatal(err)
	}
	if err := tx.Abort(); err != nil {
		t.Fatal(err)
	}
	got, ok, err := db.Store().SetSelect(set, val.OfInt(1))
	if err != nil || !ok || got != m {
		t.Fatalf("member not restored: %v %t %v", got, ok, err)
	}

	// Insert then abort: the inverse Remove takes it back out.
	m2, _ := db.Store().NewAtomic(val.OfInt(43))
	tx = db.Begin()
	if err := tx.Insert(set, val.OfInt(2), m2); err != nil {
		t.Fatal(err)
	}
	if err := tx.Abort(); err != nil {
		t.Fatal(err)
	}
	if _, ok, _ := db.Store().SetSelect(set, val.OfInt(2)); ok {
		t.Fatal("aborted insert still visible")
	}
}

func TestPutAbortRestoresBeforeImage(t *testing.T) {
	db := Open(Options{})
	a, _ := db.Store().NewAtomic(val.OfStr("before"))
	tx := db.Begin()
	if err := tx.Put(a, val.OfStr("after")); err != nil {
		t.Fatal(err)
	}
	if err := tx.Abort(); err != nil {
		t.Fatal(err)
	}
	v, _ := db.ReadAtom(a)
	if v.Str() != "before" {
		t.Fatalf("after abort = %v", v)
	}
}

func TestScanAndSelectTx(t *testing.T) {
	db := Open(Options{})
	set, _ := db.Store().NewSet()
	for i := int64(1); i <= 3; i++ {
		m, _ := db.Store().NewAtomic(val.OfInt(i * 10))
		_ = db.Store().SetInsert(set, val.OfInt(i), m)
	}
	tx := db.Begin()
	entries, err := tx.Scan(set)
	if err != nil || len(entries) != 3 {
		t.Fatalf("scan = %v, %v", entries, err)
	}
	m, ok, err := tx.Select(set, val.OfInt(2))
	if err != nil || !ok || m != entries[1].Member {
		t.Fatalf("select = %v %t %v", m, ok, err)
	}
	if _, ok, _ := tx.Select(set, val.OfInt(9)); ok {
		t.Error("absent key selected")
	}
	if err := tx.Commit(); err != nil {
		t.Fatal(err)
	}
}

func TestNamedBindings(t *testing.T) {
	db := Open(Options{})
	set, _ := db.Store().NewSet()
	db.Bind("Root", set)
	got, ok := db.Lookup("Root")
	if !ok || got != set {
		t.Fatalf("lookup = %v %t", got, ok)
	}
	if _, ok := db.Lookup("None"); ok {
		t.Error("unknown name resolved")
	}
	if names := db.Names(); len(names) != 1 || names[0] != "Root" {
		t.Errorf("names = %v", names)
	}
}

func TestComponentPath(t *testing.T) {
	db := Open(Options{})
	a, _ := db.Store().NewAtomic(val.OfInt(1))
	inner, _ := db.Store().NewTuple([]string{"X"}, map[string]oid.OID{"X": a})
	outer, _ := db.Store().NewTuple([]string{"In"}, map[string]oid.OID{"In": inner})
	got, err := db.ComponentPath(outer, "In", "X")
	if err != nil || got != a {
		t.Fatalf("path = %v, %v", got, err)
	}
	if _, err := db.ComponentPath(outer, "Bad"); err == nil {
		t.Error("bad path must fail")
	}
}

func TestTransactionStateErrors(t *testing.T) {
	db := Open(Options{})
	tx := db.Begin()
	if err := tx.Commit(); err != nil {
		t.Fatal(err)
	}
	if err := tx.Commit(); err == nil {
		t.Error("double commit must fail")
	}
	if err := tx.Abort(); err == nil {
		t.Error("abort after commit must fail")
	}
	a, _ := db.Store().NewAtomic(val.OfInt(1))
	if _, err := tx.Get(a); err == nil {
		t.Error("operation on finished transaction must fail")
	}
}

func TestMustTypePanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Error("MustType must panic on invalid type")
		}
	}()
	MustType("X", compat.NewMatrix("X"), &Method{Name: "Gone"})
}

func TestProtocolOption(t *testing.T) {
	for _, k := range core.Protocols() {
		db := Open(Options{Protocol: k})
		if db.Protocol() != k {
			t.Errorf("protocol = %v, want %v", db.Protocol(), k)
		}
	}
}

func TestTypeOfAndByName(t *testing.T) {
	db := Open(Options{})
	registerPair(t, db)
	r := newReg(t, db, 0)
	typ, ok := db.TypeOf(r)
	if !ok || typ.Name != "Reg" {
		t.Fatalf("TypeOf = %v %t", typ, ok)
	}
	if _, ok := db.TypeByName("Reg"); !ok {
		t.Error("TypeByName failed")
	}
	if _, ok := db.TypeOf(oid.OID{K: oid.Tuple, N: 12345}); ok {
		t.Error("unknown instance has a type")
	}
}

// TestBindingLivesInTheStore: an instance's type is recorded with the
// object in the store, so binding an object the store does not hold
// fails, a foreign OID (another node's residue class) has no type, and
// a reopened database sharing the store still resolves instances.
func TestBindingLivesInTheStore(t *testing.T) {
	db := Open(Options{OIDStride: 2, OIDOffset: 1})
	registerPair(t, db)
	r := newReg(t, db, 0)
	foreign := oid.OID{K: r.K, N: r.N + 1} // the other node's residue
	for _, id := range []oid.OID{foreign, {K: oid.Tuple, N: r.N + 1000}, oid.Nil, {K: oid.Atomic, N: r.N}} {
		if err := db.BindInstance(id, "Reg"); err == nil {
			t.Errorf("BindInstance(%s) succeeded on an object the store does not hold", id)
		}
		if typ, ok := db.TypeOf(id); ok {
			t.Errorf("TypeOf(%s) = %s, want none", id, typ.Name)
		}
	}
	if err := db.BindInstance(r, "NoSuchType"); err == nil {
		t.Error("BindInstance to an unknown type succeeded")
	}
	db2 := Reopen(db, Options{OIDStride: 2, OIDOffset: 1})
	if typ, ok := db2.TypeOf(r); !ok || typ.Name != "Reg" {
		t.Fatalf("after Reopen TypeOf = %v %t", typ, ok)
	}
	tx := db2.Begin()
	if _, err := tx.Call(r, "AddN", val.OfInt(3)); err != nil {
		t.Fatal(err)
	}
	if err := tx.Commit(); err != nil {
		t.Fatal(err)
	}
}

func TestCommutingMethodsRunConcurrently(t *testing.T) {
	db := Open(Options{})
	registerPair(t, db)
	r := newReg(t, db, 0)

	// Two transactions interleave commuting Adds without blocking,
	// sequenced deterministically from one goroutine.
	tx1, tx2 := db.Begin(), db.Begin()
	for i := 0; i < 3; i++ {
		if _, err := tx1.Call(r, "AddN", val.OfInt(1)); err != nil {
			t.Fatal(err)
		}
		if _, err := tx2.Call(r, "AddN", val.OfInt(10)); err != nil {
			t.Fatal(err)
		}
	}
	if err := tx1.Commit(); err != nil {
		t.Fatal(err)
	}
	if err := tx2.Commit(); err != nil {
		t.Fatal(err)
	}
	nAtom, _ := db.Component(r, "N")
	v, _ := db.ReadAtom(nAtom)
	if v.Int() != 33 {
		t.Fatalf("N = %d, want 33", v.Int())
	}
	if st := db.Engine().Stats(); st.RootWaits != 0 {
		t.Errorf("top-level waits = %d, want 0", st.RootWaits)
	}
}

// TestStoreTimeOnInjectedClock: a span's store time is read from
// Options.Clock, like every other timing the engine charges. A fake
// clock moves only when it is read, so on it a traced Get's and Scan's
// store time is exactly 0; on the wall clock it is the operation's real
// duration.
func TestStoreTimeOnInjectedClock(t *testing.T) {
	o := obs.New(obs.Config{})
	o.SetEnabled(true)
	db := Open(Options{Obs: o, Clock: clock.NewFake(time.Unix(0, 0), time.Microsecond)})
	a, err := db.Store().NewAtomic(val.OfInt(7))
	if err != nil {
		t.Fatal(err)
	}
	set, err := db.Store().NewSet()
	if err != nil {
		t.Fatal(err)
	}
	tx := db.Begin()
	if _, err := tx.Get(a); err != nil {
		t.Fatal(err)
	}
	if _, err := tx.Scan(set); err != nil {
		t.Fatal(err)
	}
	if err := tx.Commit(); err != nil {
		t.Fatal(err)
	}
	recent := o.Spans.Snapshot(0).Recent
	if len(recent) != 1 || len(recent[0].Children) != 2 {
		t.Fatalf("want one root span with two children, got %d roots", len(recent))
	}
	for _, sp := range recent[0].Children {
		if sp.StoreOps != 1 || sp.StoreNanos != 0 {
			t.Errorf("span %q: %d store ops in %d ns, want 1 op in 0 ns on a clock nobody read in between",
				sp.Label, sp.StoreOps, sp.StoreNanos)
		}
	}
}
