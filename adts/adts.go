// Package adts provides ready-made encapsulated types built on the
// semcc OODB engine: a FIFO Queue (the paper's introductory example of
// commuting Enqueues), an unbounded Counter, and a bank Account whose
// deposits commute with withdrawals. Each type ships its commutativity matrix and compensating
// inverses, and each is implemented in terms of the generic set/atomic
// objects — so methods invoke further operations, exercising the open
// nested machinery exactly like the order-entry application.
package adts

import (
	"errors"
	"fmt"

	"semcc/internal/compat"
	"semcc/internal/oid"
	"semcc/internal/oodb"
	"semcc/internal/val"
)

// Queue method names.
const (
	QEnqueue   = "Enqueue"
	QUnenqueue = "Unenqueue" // inverse of Enqueue
	QDequeue   = "Dequeue"
	QSize      = "Size"
)

// Counter method names.
const (
	CInc   = "Inc"
	CDec   = "Dec"
	CValue = "Value"
)

// Account method names.
const (
	ADeposit   = "Deposit"
	AUndeposit = "Undeposit" // inverse of Deposit
	AWithdraw  = "Withdraw"
	ABalance   = "Balance"
)

// ErrEmptyQueue is returned by Dequeue on an empty queue.
var ErrEmptyQueue = errors.New("adts: queue is empty")

// ErrInsufficientFunds is returned by Withdraw when the balance is too
// low — the floor that makes Withdraw non-self-commuting.
var ErrInsufficientFunds = errors.New("adts: insufficient funds")

// QueueMatrix is the compatibility matrix of type Queue. The paper's
// motivating observation (§1.1): enqueueing by two concurrent
// transactions is not a conflict, because the insertion order is
// unobservable through the queue's interface until a dequeuer orders
// them — and Dequeue conflicts with everything.
func QueueMatrix() *compat.Matrix {
	m := compat.NewMatrix("Queue", QEnqueue, QDequeue, QSize, QUnenqueue)
	m.Set(QEnqueue, QEnqueue, compat.Always)
	m.Set(QUnenqueue, QEnqueue, compat.Always)
	m.Set(QUnenqueue, QUnenqueue, compat.Always)
	// Dequeue, Size: conflict with everything (matrix default) except
	// Size/Size.
	m.Set(QSize, QSize, compat.Always)
	return m
}

// CounterMatrix is the compatibility matrix of type Counter: an
// unbounded counter's increments and decrements all commute; only
// reading the value conflicts with updates.
func CounterMatrix() *compat.Matrix {
	m := compat.NewMatrix("Counter", CInc, CDec, CValue)
	m.Set(CInc, CInc, compat.Always)
	m.Set(CInc, CDec, compat.Always)
	m.Set(CDec, CDec, compat.Always)
	m.Set(CValue, CValue, compat.Always)
	return m
}

// AccountMatrix is the matrix of type Account: deposits commute with
// everything that updates, withdrawals do not commute with each other
// (either could hit the insufficient-funds floor, depending on the
// balance the matrix cannot see), and Balance conflicts with both
// update kinds.
func AccountMatrix() *compat.Matrix {
	m := compat.NewMatrix("Account", ADeposit, AWithdraw, ABalance, AUndeposit)
	m.Set(ADeposit, ADeposit, compat.Always)
	m.Set(ADeposit, AWithdraw, compat.Always)
	m.Set(AUndeposit, ADeposit, compat.Always)
	m.Set(AUndeposit, AWithdraw, compat.Always)
	m.Set(AUndeposit, AUndeposit, compat.Always)
	m.Set(ABalance, ABalance, compat.Always)
	return m
}

// RegisterTypes installs Queue, Counter, and Account on db.
func RegisterTypes(db *oodb.DB) error {
	qm, cm, am := QueueMatrix(), CounterMatrix(), AccountMatrix()
	queue, err := oodb.NewType("Queue", qm, queueMethods(qm)...)
	if err != nil {
		return err
	}
	counter, err := oodb.NewType("Counter", cm, counterMethods(cm)...)
	if err != nil {
		return err
	}
	account, err := oodb.NewType("Account", am, accountMethods(am)...)
	if err != nil {
		return err
	}
	for _, t := range []*oodb.Type{queue, counter, account} {
		if err := db.RegisterType(t); err != nil {
			return err
		}
	}
	return nil
}

// NewQueue creates a Queue instance: a tuple of Head and Tail ticket
// counters plus an Items set keyed by ticket number.
func NewQueue(db *oodb.DB) (oid.OID, error) {
	store := db.Store()
	head, err := store.NewAtomic(val.OfInt(0))
	if err != nil {
		return oid.Nil, err
	}
	tail, err := store.NewAtomic(val.OfInt(0))
	if err != nil {
		return oid.Nil, err
	}
	items, err := store.NewSet()
	if err != nil {
		return oid.Nil, err
	}
	q, err := store.NewTuple([]string{"Head", "Tail", "Items"},
		map[string]oid.OID{"Head": head, "Tail": tail, "Items": items})
	if err != nil {
		return oid.Nil, err
	}
	return q, db.BindInstance(q, "Queue")
}

// NewCounter creates a Counter instance.
func NewCounter(db *oodb.DB, initial int64) (oid.OID, error) {
	store := db.Store()
	v, err := store.NewAtomic(val.OfInt(initial))
	if err != nil {
		return oid.Nil, err
	}
	c, err := store.NewTuple([]string{"N"}, map[string]oid.OID{"N": v})
	if err != nil {
		return oid.Nil, err
	}
	return c, db.BindInstance(c, "Counter")
}

// NewAccount creates an Account instance with the given opening
// balance.
func NewAccount(db *oodb.DB, opening int64) (oid.OID, error) {
	store := db.Store()
	v, err := store.NewAtomic(val.OfInt(opening))
	if err != nil {
		return oid.Nil, err
	}
	a, err := store.NewTuple([]string{"Balance"}, map[string]oid.OID{"Balance": v})
	if err != nil {
		return oid.Nil, err
	}
	return a, db.BindInstance(a, "Account")
}

func queueMethods(m *compat.Matrix) []*oodb.Method {
	unenqueue, _ := m.ID(QUnenqueue)
	return []*oodb.Method{
		{
			// Enqueue(v) returns the ticket under which v was stored.
			Name: QEnqueue,
			Body: func(ctx *oodb.Ctx, recv oid.OID, args []val.V) (val.V, error) {
				if len(args) != 1 {
					return val.NullV, fmt.Errorf("adts: Enqueue wants (value)")
				}
				tailAtom, err := ctx.Component(recv, "Tail")
				if err != nil {
					return val.NullV, err
				}
				// One commuting Add draws the ticket: a Get-then-Put pair
				// would have two concurrent Enqueues both hold R and both
				// request W — an upgrade deadlock between methods the
				// matrix declares commuting.
				next, err := ctx.Add(tailAtom, 1)
				if err != nil {
					return val.NullV, err
				}
				ticket := val.OfInt(next.Int() - 1)
				cell, err := ctx.NewAtomic(args[0])
				if err != nil {
					return val.NullV, err
				}
				items, err := ctx.Component(recv, "Items")
				if err != nil {
					return val.NullV, err
				}
				if err := ctx.Insert(items, ticket, cell); err != nil {
					return val.NullV, err
				}
				return ticket, nil
			},
			Inverse: func(inv compat.Invocation, result val.V) *compat.Invocation {
				c := compat.Inv(inv.Object, unenqueue, result)
				return &c
			},
		},
		{
			// Unenqueue(ticket): compensation for Enqueue — removes the
			// cell; the Tail counter keeps its gap (dequeuers skip
			// holes), so it commutes with concurrent Enqueues.
			Name: QUnenqueue,
			Body: func(ctx *oodb.Ctx, recv oid.OID, args []val.V) (val.V, error) {
				items, err := ctx.Component(recv, "Items")
				if err != nil {
					return val.NullV, err
				}
				return val.NullV, ctx.Remove(items, args[0])
			},
		},
		{
			// Dequeue returns the oldest value. It conflicts with every
			// other queue method, so its implementation may touch both
			// counters freely.
			Name: QDequeue,
			Body: func(ctx *oodb.Ctx, recv oid.OID, args []val.V) (val.V, error) {
				headAtom, err := ctx.Component(recv, "Head")
				if err != nil {
					return val.NullV, err
				}
				tailAtom, err := ctx.Component(recv, "Tail")
				if err != nil {
					return val.NullV, err
				}
				items, err := ctx.Component(recv, "Items")
				if err != nil {
					return val.NullV, err
				}
				head, err := ctx.Get(headAtom)
				if err != nil {
					return val.NullV, err
				}
				tail, err := ctx.Get(tailAtom)
				if err != nil {
					return val.NullV, err
				}
				for h := head.Int(); h < tail.Int(); h++ {
					cell, ok, err := ctx.Select(items, val.OfInt(h))
					if err != nil {
						return val.NullV, err
					}
					if !ok {
						continue // hole left by a compensated Enqueue
					}
					v, err := ctx.Get(cell)
					if err != nil {
						return val.NullV, err
					}
					if err := ctx.Remove(items, val.OfInt(h)); err != nil {
						return val.NullV, err
					}
					if err := ctx.Put(headAtom, val.OfInt(h+1)); err != nil {
						return val.NullV, err
					}
					return v, nil
				}
				return val.NullV, ErrEmptyQueue
			},
			// No method-level inverse: Dequeue conflicts with every
			// queue method, so no concurrent transaction can have
			// touched the queue between Dequeue and its compensation —
			// the engine's child-level fallback (re-Insert the cell,
			// restore the Head counter from before-images) is exact.
		},
		{
			// Size returns the number of queued values.
			Name:     QSize,
			ReadOnly: true,
			Body: func(ctx *oodb.Ctx, recv oid.OID, args []val.V) (val.V, error) {
				items, err := ctx.Component(recv, "Items")
				if err != nil {
					return val.NullV, err
				}
				entries, err := ctx.Scan(items)
				if err != nil {
					return val.NullV, err
				}
				return val.OfInt(int64(len(entries))), nil
			},
		},
	}
}

func counterMethods(m *compat.Matrix) []*oodb.Method {
	inc, _ := m.ID(CInc)
	dec, _ := m.ID(CDec)
	addBody := func(sign int64) oodb.MethodFunc {
		return func(ctx *oodb.Ctx, recv oid.OID, args []val.V) (val.V, error) {
			if len(args) != 1 {
				return val.NullV, fmt.Errorf("adts: counter update wants (n)")
			}
			nAtom, err := ctx.Component(recv, "N")
			if err != nil {
				return val.NullV, err
			}
			// A single commuting Add, not Get-then-Put: Inc/Dec are
			// declared commuting, so their leaf accesses must commute
			// too (two R holders both upgrading to W deadlock).
			_, err = ctx.Add(nAtom, sign*args[0].Int())
			return val.NullV, err
		}
	}
	return []*oodb.Method{
		{
			Name: CInc,
			Body: addBody(+1),
			Inverse: func(inv compat.Invocation, result val.V) *compat.Invocation {
				c := compat.Inv(inv.Object, dec, inv.Args[0])
				return &c
			},
		},
		{
			Name: CDec,
			Body: addBody(-1),
			Inverse: func(inv compat.Invocation, result val.V) *compat.Invocation {
				c := compat.Inv(inv.Object, inc, inv.Args[0])
				return &c
			},
		},
		{
			Name:     CValue,
			ReadOnly: true,
			Body: func(ctx *oodb.Ctx, recv oid.OID, args []val.V) (val.V, error) {
				nAtom, err := ctx.Component(recv, "N")
				if err != nil {
					return val.NullV, err
				}
				return ctx.Get(nAtom)
			},
		},
	}
}

func accountMethods(m *compat.Matrix) []*oodb.Method {
	deposit, _ := m.ID(ADeposit)
	undeposit, _ := m.ID(AUndeposit)
	balanceOf := func(ctx *oodb.Ctx, recv oid.OID) (oid.OID, val.V, error) {
		bAtom, err := ctx.Component(recv, "Balance")
		if err != nil {
			return oid.Nil, val.NullV, err
		}
		b, err := ctx.Get(bAtom)
		return bAtom, b, err
	}
	// addBalance is the blind commuting leaf of Deposit/Undeposit: one
	// Add, no observing Get, so concurrent commuting methods never
	// upgrade-deadlock on the balance atom.
	addBalance := func(ctx *oodb.Ctx, recv oid.OID, delta int64) (val.V, error) {
		bAtom, err := ctx.Component(recv, "Balance")
		if err != nil {
			return val.NullV, err
		}
		_, err = ctx.Add(bAtom, delta)
		return val.NullV, err
	}
	return []*oodb.Method{
		{
			Name: ADeposit,
			Body: func(ctx *oodb.Ctx, recv oid.OID, args []val.V) (val.V, error) {
				if len(args) != 1 || args[0].Int() < 0 {
					return val.NullV, fmt.Errorf("adts: Deposit wants (amount ≥ 0)")
				}
				return addBalance(ctx, recv, args[0].Int())
			},
			Inverse: func(inv compat.Invocation, result val.V) *compat.Invocation {
				c := compat.Inv(inv.Object, undeposit, inv.Args[0])
				return &c
			},
		},
		{
			// Undeposit removes funds without the floor check:
			// compensation must not fail, and the funds it removes are
			// exactly the funds its forward Deposit added.
			Name: AUndeposit,
			Body: func(ctx *oodb.Ctx, recv oid.OID, args []val.V) (val.V, error) {
				return addBalance(ctx, recv, -args[0].Int())
			},
		},
		{
			Name: AWithdraw,
			Body: func(ctx *oodb.Ctx, recv oid.OID, args []val.V) (val.V, error) {
				if len(args) != 1 || args[0].Int() < 0 {
					return val.NullV, fmt.Errorf("adts: Withdraw wants (amount ≥ 0)")
				}
				bAtom, b, err := balanceOf(ctx, recv)
				if err != nil {
					return val.NullV, err
				}
				if b.Int() < args[0].Int() {
					return val.NullV, fmt.Errorf("%w: balance %d < %d", ErrInsufficientFunds, b.Int(), args[0].Int())
				}
				return val.NullV, ctx.Put(bAtom, val.OfInt(b.Int()-args[0].Int()))
			},
			Inverse: func(inv compat.Invocation, result val.V) *compat.Invocation {
				c := compat.Inv(inv.Object, deposit, inv.Args[0])
				return &c
			},
		},
		{
			Name:     ABalance,
			ReadOnly: true,
			Body: func(ctx *oodb.Ctx, recv oid.OID, args []val.V) (val.V, error) {
				_, b, err := balanceOf(ctx, recv)
				return b, err
			},
		},
	}
}
