package oodb

import (
	"errors"
	"fmt"

	"semcc/internal/compat"
	"semcc/internal/core"
	"semcc/internal/objstore"
	"semcc/internal/oid"
	"semcc/internal/val"
)

// ErrNoSuchKey is returned by Remove/method code selecting a missing
// set member.
var ErrNoSuchKey = errors.New("oodb: no such key")

// actions are the operations a transaction node invokes as its child
// actions: methods, by name, and the generic operations. Tx has them
// for its root, Ctx for a method's subtransaction.
type actions struct {
	db   *DB
	node *core.Tx
}

// Tx is a top-level transaction. A Tx must be used from a single
// goroutine; different Txs run fully concurrently.
//
// Method invocations (Call) build the open nested transaction tree;
// Get/Put/Select/Insert/Remove/Scan are the *bypass* operations of the
// paper's §4 — top-level actions on implementation objects that skip
// the encapsulated interface.
type Tx struct{ actions }

// Begin starts a top-level transaction.
func (db *DB) Begin() *Tx {
	return &Tx{actions{db: db, node: db.engine.BeginRoot()}}
}

// Root exposes the underlying transaction node (for probes and
// figure tests).
func (tx *Tx) Root() *core.Tx { return tx.node }

// Call invokes a method on an object as a child action: a top-level
// action of a Tx; in a method body, a method implemented in terms of
// other encapsulated objects (paper §1.1 objective 2).
func (a *actions) Call(obj oid.OID, method string, args ...val.V) (val.V, error) {
	return a.db.call(a.node, obj, method, args)
}

// Get reads an atomic object (from a Tx, directly: bypass).
func (a *actions) Get(obj oid.OID) (val.V, error) {
	return a.db.invoke(a.node, compat.Inv(obj, compat.OpGet))
}

// Put writes an atomic object.
func (a *actions) Put(obj oid.OID, v val.V) error {
	_, err := a.db.invoke(a.node, compat.Inv(obj, compat.OpPut, v))
	return err
}

// Add atomically adds delta to an atomic integer object and returns
// the new value. A blind update: two Adds commute, so methods whose
// matrix declares them commuting (counter increments, status events)
// do not also conflict at their leaves, as a Get followed by a Put
// would. It conflicts with Get and Put.
func (a *actions) Add(obj oid.OID, delta int64) (val.V, error) {
	return a.db.invoke(a.node, compat.Inv(obj, compat.OpAdd, val.OfInt(delta)))
}

// Select looks up a set member by key.
func (a *actions) Select(set oid.OID, key val.V) (oid.OID, bool, error) {
	r, err := a.db.invoke(a.node, compat.Inv(set, compat.OpSelect, key))
	if err != nil {
		return oid.Nil, false, err
	}
	if r.IsNull() {
		return oid.Nil, false, nil
	}
	return r.Ref(), true, nil
}

// Insert adds a member to a set.
func (a *actions) Insert(set oid.OID, key val.V, member oid.OID) error {
	_, err := a.db.invoke(a.node, compat.Inv(set, compat.OpInsert, key, val.OfRef(member)))
	return err
}

// Remove deletes a member from a set.
func (a *actions) Remove(set oid.OID, key val.V) error {
	_, err := a.db.invoke(a.node, compat.Inv(set, compat.OpRemove, key))
	return err
}

// Scan enumerates a set.
func (a *actions) Scan(set oid.OID) ([]objstore.SetEntry, error) {
	return a.db.scan(a.node, set)
}

// Component navigates tuple structure (pure addressing, no lock:
// structure is immutable).
func (a *actions) Component(tuple oid.OID, name string) (oid.OID, error) {
	return a.db.Component(tuple, name)
}

// Exec runs an arbitrary invocation (method or generic operation) as
// a top-level action — used by the DML layer and by restart recovery,
// which replays compensating invocations from the log.
func (tx *Tx) Exec(inv compat.Invocation) (val.V, error) {
	return tx.db.invoke(tx.node, inv)
}

// Commit commits the transaction and releases all its locks. The locks
// go as soon as the commit record is submitted to the journal; Commit
// itself returns only once that record is durable (sync and group
// journals). Until it has returned, every value the transaction's
// calls returned is tentative: it may rest on a predecessor whose own
// outcome is not durable yet, and a crash then takes both.
func (tx *Tx) Commit() error { return tx.db.engine.CommitRoot(tx.node) }

// Abort rolls the transaction back, compensating committed top-level
// actions in reverse order. Like Commit it releases at submission and
// returns when the abort record is durable.
func (tx *Tx) Abort() error { return tx.db.engine.AbortRoot(tx.node) }

// Ctx is the execution context of a running method body: all database
// access from inside a method goes through it, creating child actions
// of the method's subtransaction.
type Ctx struct{ actions }

// DB returns the database.
func (c *Ctx) DB() *DB { return c.db }

// Node returns the subtransaction this context belongs to.
func (c *Ctx) Node() *core.Tx { return c.node }

// NewAtomic creates a fresh atomic object. Creation takes no lock:
// the object is unreachable until linked into locked structure (set
// insert); if the transaction aborts, the orphan is simply garbage.
func (c *Ctx) NewAtomic(initial val.V) (oid.OID, error) {
	return c.db.store.NewAtomic(initial)
}

// NewTuple creates a fresh tuple object.
func (c *Ctx) NewTuple(names []string, comps map[string]oid.OID) (oid.OID, error) {
	return c.db.store.NewTuple(names, comps)
}

// NewSet creates a fresh set object.
func (c *Ctx) NewSet() (oid.OID, error) {
	return c.db.store.NewSet()
}

// BindInstance declares obj an instance of an encapsulated type.
func (c *Ctx) BindInstance(obj oid.OID, typeName string) error {
	return c.db.BindInstance(obj, typeName)
}

// call invokes the method called name — a generic operation's or one
// of obj's type — on obj as a child of parent: the edge where a
// method's name becomes its id.
func (db *DB) call(parent *core.Tx, obj oid.OID, name string, args []val.V) (val.V, error) {
	id, ok := generic.ID(name)
	if t, typed := db.reg.typeOf(obj); !ok && typed {
		id, ok = t.Matrix.ID(name)
	}
	if !ok {
		return val.NullV, fmt.Errorf("oodb: object %s has no method %q", obj, name)
	}
	return db.invoke(parent, compat.Inv(obj, id, args...))
}

// invoke executes one invocation as a child of parent: it creates the
// subtransaction (acquiring the protocol's lock, possibly blocking),
// runs the operation, and completes or aborts the subtransaction —
// the paper's exec-transaction driven by real method bodies.
func (db *DB) invoke(parent *core.Tx, inv compat.Invocation) (val.V, error) {
	node, err := db.engine.BeginChild(parent, inv)
	if err != nil {
		return val.NullV, err
	}
	result, err := db.run(node, inv)
	if err != nil {
		if aerr := db.engine.AbortChild(node); aerr != nil {
			err = fmt.Errorf("%w (abort: %v)", err, aerr)
		}
		return val.NullV, err
	}
	inverse := db.inverseFor(inv, result)
	if cerr := db.engine.CompleteChild(node, inverse); cerr != nil {
		return result, cerr
	}
	return result, nil
}

// run dispatches an invocation to a generic operation or a registered
// method body. Generic operations touch the object store directly;
// when the node carries a span their time on the DB's clock is charged
// to it as storage time (method bodies are not bracketed — their cost
// shows up as the child actions they spawn).
func (db *DB) run(node *core.Tx, inv compat.Invocation) (val.V, error) {
	if compat.IsGenericOp(inv.Method) {
		if sp := node.Span(); sp != nil {
			start := db.clk.Now()
			v, err := db.runGeneric(inv)
			sp.AddStore(uint64(db.clk.Since(start)), 1)
			return v, err
		}
		return db.runGeneric(inv)
	}
	m, ok := db.reg.methodOf(inv.Object, inv.Method)
	if !ok {
		return val.NullV, fmt.Errorf("oodb: object %s has no method %s", inv.Object, inv.Method)
	}
	return m.Body(&Ctx{actions{db: db, node: node}}, inv.Object, inv.Args)
}

// runGeneric executes one of the paper's generic operations against
// the object store.
func (db *DB) runGeneric(inv compat.Invocation) (val.V, error) {
	switch inv.Method {
	case compat.OpGet:
		return db.store.ReadAtomic(inv.Object)
	case compat.OpPut:
		if len(inv.Args) != 1 {
			return val.NullV, fmt.Errorf("oodb: Put wants 1 argument, got %d", len(inv.Args))
		}
		before, err := db.store.ReadAtomic(inv.Object)
		if err != nil {
			return val.NullV, err
		}
		if err := db.store.WriteAtomic(inv.Object, inv.Args[0]); err != nil {
			return val.NullV, err
		}
		// The before-image is the operation's internal result; the
		// inverse Put restores it on compensation.
		return before, nil
	case compat.OpAdd:
		if len(inv.Args) != 1 {
			return val.NullV, fmt.Errorf("oodb: Add wants 1 argument, got %d", len(inv.Args))
		}
		// Blind read-modify-write under the store's shard write lock; no
		// before-image is read into the transaction (the inverse is the
		// negated delta; a method that needs a bound checks it itself).
		return db.store.AddAtomic(inv.Object, inv.Args[0].Int())
	case compat.OpSelect:
		if len(inv.Args) != 1 {
			return val.NullV, fmt.Errorf("oodb: Select wants 1 argument, got %d", len(inv.Args))
		}
		m, ok, err := db.store.SetSelect(inv.Object, inv.Args[0])
		if err != nil {
			return val.NullV, err
		}
		if !ok {
			return val.NullV, nil
		}
		return val.OfRef(m), nil
	case compat.OpInsert:
		if len(inv.Args) != 2 {
			return val.NullV, fmt.Errorf("oodb: Insert wants 2 arguments, got %d", len(inv.Args))
		}
		return val.NullV, db.store.SetInsert(inv.Object, inv.Args[0], inv.Args[1].Ref())
	case compat.OpRemove:
		if len(inv.Args) != 1 {
			return val.NullV, fmt.Errorf("oodb: Remove wants 1 argument, got %d", len(inv.Args))
		}
		m, ok, err := db.store.SetSelect(inv.Object, inv.Args[0])
		if err != nil {
			return val.NullV, err
		}
		if !ok {
			return val.NullV, fmt.Errorf("%w: %s in %s", ErrNoSuchKey, inv.Args[0], inv.Object)
		}
		if err := db.store.SetRemove(inv.Object, inv.Args[0]); err != nil {
			return val.NullV, err
		}
		// The removed member is the result; the inverse Insert
		// restores it.
		return val.OfRef(m), nil
	case compat.OpScan:
		return val.NullV, fmt.Errorf("oodb: Scan must go through Tx.Scan/Ctx.Scan")
	default:
		return val.NullV, fmt.Errorf("oodb: %s is not a generic operation", inv.Method)
	}
}

// scan runs the Scan generic operation (separate because its result is
// a member list, not a single value).
func (db *DB) scan(parent *core.Tx, set oid.OID) ([]objstore.SetEntry, error) {
	node, err := db.engine.BeginChild(parent, compat.Inv(set, compat.OpScan))
	if err != nil {
		return nil, err
	}
	var entries []objstore.SetEntry
	if sp := node.Span(); sp != nil {
		start := db.clk.Now()
		entries, err = db.store.SetScan(set)
		sp.AddStore(uint64(db.clk.Since(start)), 1)
	} else {
		entries, err = db.store.SetScan(set)
	}
	if err != nil {
		if aerr := db.engine.AbortChild(node); aerr != nil {
			err = fmt.Errorf("%w (abort: %v)", err, aerr)
		}
		return nil, err
	}
	if cerr := db.engine.CompleteChild(node, nil); cerr != nil {
		return entries, cerr
	}
	return entries, nil
}

// inverseFor derives the compensating invocation for a committed
// action: registered inverse for methods, structural inverse for
// generic writes, nil for reads (compensate via children — a no-op
// for true reads).
func (db *DB) inverseFor(inv compat.Invocation, result val.V) *compat.Invocation {
	switch inv.Method {
	case compat.OpGet, compat.OpSelect, compat.OpScan:
		return nil
	case compat.OpPut:
		c := compat.Inv(inv.Object, compat.OpPut, result)
		return &c
	case compat.OpAdd:
		c := compat.Inv(inv.Object, compat.OpAdd, val.OfInt(-inv.Args[0].Int()))
		return &c
	case compat.OpInsert:
		c := compat.Inv(inv.Object, compat.OpRemove, inv.Args[0])
		return &c
	case compat.OpRemove:
		c := compat.Inv(inv.Object, compat.OpInsert, inv.Args[0], result)
		return &c
	default:
		if m, ok := db.reg.methodOf(inv.Object, inv.Method); ok {
			if m.ReadOnly || m.Inverse == nil {
				return nil
			}
			return m.Inverse(inv, result)
		}
		return nil
	}
}
