package orderentry

import (
	"errors"
	"fmt"

	"semcc/internal/core"
	"semcc/internal/oid"
	"semcc/internal/val"
)

// The five transaction types of paper §2.3. Each function runs one
// complete top-level transaction (begin … commit), aborting on error.
// The two-order transactions operate on two different items ordered by
// one customer, exactly as the paper states.

// OrderRef names one order: (ItemNo, OrderNo).
type OrderRef struct {
	ItemNo  int64
	OrderNo int64
}

// T1 ships two orders for two different items (invoke ShipOrder on the
// items).
func (a *App) T1(o1, o2 OrderRef) error {
	return a.run(func(tx Session) error {
		for _, o := range []OrderRef{o1, o2} {
			item, err := a.Item(o.ItemNo)
			if err != nil {
				return err
			}
			if _, err := tx.Call(item, MShipOrder, val.OfInt(o.OrderNo)); err != nil {
				return err
			}
		}
		return nil
	})
}

// T2 records a customer's payment of two orders for two different
// items (invoke PayOrder on the items).
func (a *App) T2(o1, o2 OrderRef) error {
	return a.run(func(tx Session) error {
		for _, o := range []OrderRef{o1, o2} {
			item, err := a.Item(o.ItemNo)
			if err != nil {
				return err
			}
			if _, err := tx.Call(item, MPayOrder, val.OfInt(o.OrderNo)); err != nil {
				return err
			}
		}
		return nil
	})
}

// T3 checks the shipment of two orders for two different items —
// invoking TestStatus directly on the Order objects, which bypasses
// the Item encapsulation (paper Fig. 5).
func (a *App) T3(o1, o2 OrderRef) (bool, bool, error) {
	var r1, r2 bool
	err := a.run(func(tx Session) error {
		var err error
		if r1, err = a.testStatus(tx, o1, EventShipped); err != nil {
			return err
		}
		r2, err = a.testStatus(tx, o2, EventShipped)
		return err
	})
	return r1, r2, err
}

// T4 checks the payment of two orders for two different items
// (invoke TestStatus on the orders; paper Fig. 6).
func (a *App) T4(o1, o2 OrderRef) (bool, bool, error) {
	var r1, r2 bool
	err := a.run(func(tx Session) error {
		var err error
		if r1, err = a.testStatus(tx, o1, EventPaid); err != nil {
			return err
		}
		r2, err = a.testStatus(tx, o2, EventPaid)
		return err
	})
	return r1, r2, err
}

// T5 computes the total payment for an item (invoke TotalPayment on
// the item; paper Fig. 7).
func (a *App) T5(itemNo int64) (int64, error) {
	var total int64
	err := a.run(func(tx Session) error {
		item, err := a.Item(itemNo)
		if err != nil {
			return err
		}
		v, err := tx.Call(item, MTotalPayment)
		if err != nil {
			return err
		}
		total = v.Int()
		return nil
	})
	return total, err
}

// NewOrderTx enters one new order (used by workloads that exercise
// NewOrder's phantom conflicts). Returns the new OrderNo.
func (a *App) NewOrderTx(itemNo, customerNo, quantity int64) (int64, error) {
	var orderNo int64
	err := a.run(func(tx Session) error {
		item, err := a.Item(itemNo)
		if err != nil {
			return err
		}
		v, err := tx.Call(item, MNewOrder, val.OfInt(customerNo), val.OfInt(quantity))
		if err != nil {
			return err
		}
		orderNo = v.Int()
		return nil
	})
	return orderNo, err
}

// DebitTx runs one top-level transaction debiting amount units of
// stock from an item — the hot-counter workload's conflict unit:
// concurrent debits of one item serialise on the DebitStock method
// conflict.
func (a *App) DebitTx(itemNo, amount int64) error {
	return a.run(func(tx Session) error {
		item, err := a.Item(itemNo)
		if err != nil {
			return err
		}
		_, err = tx.Call(item, MDebitStock, val.OfInt(amount))
		return err
	})
}

// CreditTx runs one top-level transaction restocking an item.
func (a *App) CreditTx(itemNo, amount int64) error {
	return a.run(func(tx Session) error {
		item, err := a.Item(itemNo)
		if err != nil {
			return err
		}
		_, err = tx.Call(item, MCreditStock, val.OfInt(amount))
		return err
	})
}

// BypassAudit is a purely "conventional" transaction: it reads the
// status atoms of the given orders directly with generic Gets (no
// method invocations at all), the coexistence case of paper §1.1.
func (a *App) BypassAudit(refs ...OrderRef) ([]val.V, error) {
	out := make([]val.V, 0, len(refs))
	err := a.run(func(tx Session) error {
		out = out[:0]
		for _, r := range refs {
			order, err := a.Order(r.ItemNo, r.OrderNo)
			if err != nil {
				return err
			}
			statusAtom, err := a.StatusAtom(order)
			if err != nil {
				return err
			}
			v, err := tx.Get(statusAtom)
			if err != nil {
				return err
			}
			out = append(out, v)
		}
		return nil
	})
	return out, err
}

// testStatus invokes TestStatus on an order inside tx.
func (a *App) testStatus(tx Session, ref OrderRef, ev val.Event) (bool, error) {
	order, err := a.Order(ref.ItemNo, ref.OrderNo)
	if err != nil {
		return false, err
	}
	v, err := tx.Call(order, MTestStatus, evArg(ev))
	if err != nil {
		return false, err
	}
	return v.Bool(), nil
}

// run executes body in a fresh transaction on the App's topology
// (single engine or coordinator), committing on success and aborting
// on failure. The returned error preserves ErrDeadlock so callers can
// retry.
func (a *App) run(body func(tx Session) error) error {
	tx, err := a.Begin()
	if err != nil {
		return err
	}
	if err := body(tx); err != nil {
		if aerr := tx.Abort(); aerr != nil {
			return fmt.Errorf("%w (abort: %v)", err, aerr)
		}
		return err
	}
	return tx.Commit()
}

// RunWithRetry executes op, retrying up to attempts times when it
// fails with a deadlock. It returns the number of aborts and the final
// error (nil on success).
func RunWithRetry(attempts int, op func() error) (aborts int, err error) {
	for i := 0; i < attempts; i++ {
		err = op()
		if err == nil {
			return aborts, nil
		}
		if !errors.Is(err, core.ErrDeadlock) {
			return aborts, err
		}
		aborts++
	}
	return aborts, err
}

// ItemOIDOf panics-free variant used in hot paths; kept tiny so the
// workload generator can pre-resolve item OIDs once.
func (a *App) ItemOIDOf(itemNo int64) oid.OID {
	item, err := a.Item(itemNo)
	if err != nil {
		panic(err)
	}
	return item
}
