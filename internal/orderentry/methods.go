package orderentry

import (
	"fmt"

	"semcc/internal/compat"
	"semcc/internal/oid"
	"semcc/internal/oodb"
	"semcc/internal/val"
)

// itemMethods builds the method set of type Item (paper §2.2). The
// bodies produce exactly the invocation subtrees shown in the paper's
// figures (plus the Select and Get(Quantity) actions the paper omits
// "for brevity", §2.2).
func (a *App) itemMethods(m *compat.Matrix) []*oodb.Method {
	removeOrder, _ := m.ID(MRemoveOrder)
	unship, _ := m.ID(MUnshipOrder)
	unpay, _ := m.ID(MUnpayOrder)
	credit, _ := m.ID(MCreditStock)
	uncredit, _ := m.ID(MUncreditStock)
	return []*oodb.Method{
		{
			// NewOrder(i, CustomerNo, Quantity) returns OrderNo:
			// enters a new order into the Orders of item i with
			// status "new" (no event has occurred).
			Name: MNewOrder,
			Body: func(ctx *oodb.Ctx, recv oid.OID, args []val.V) (val.V, error) {
				if len(args) != 2 {
					return val.NullV, fmt.Errorf("orderentry: NewOrder wants (CustomerNo, Quantity)")
				}
				// Order numbers come from a commutative allocator
				// (unique, order-insensitive), per the paper's
				// Enqueue/NewOrder commutativity argument.
				orderNo := a.orderSeq.Add(1)
				order, err := a.newOrderObject(ctx, orderNo, args[0].Int(), args[1].Int())
				if err != nil {
					return val.NullV, err
				}
				orders, err := ctx.Component(recv, CompOrders)
				if err != nil {
					return val.NullV, err
				}
				if err := ctx.Insert(orders, val.OfInt(orderNo), order); err != nil {
					return val.NullV, err
				}
				return val.OfInt(orderNo), nil
			},
			Inverse: func(inv compat.Invocation, result val.V) *compat.Invocation {
				return invOn(inv.Object, removeOrder, result)
			},
		},
		{
			// RemoveOrder(i, OrderNo): compensation for NewOrder.
			Name: MRemoveOrder,
			Body: func(ctx *oodb.Ctx, recv oid.OID, args []val.V) (val.V, error) {
				if len(args) != 1 {
					return val.NullV, fmt.Errorf("orderentry: RemoveOrder wants (OrderNo)")
				}
				orders, err := ctx.Component(recv, CompOrders)
				if err != nil {
					return val.NullV, err
				}
				return val.NullV, ctx.Remove(orders, args[0])
			},
			// No method-level inverse: compensating a RemoveOrder
			// falls back to its children (the set Remove's inverse
			// Insert restores the member).
		},
		{
			// ShipOrder(i, OrderNo): records shipment and updates
			// quantity-on-hand (paper Fig. 4's subtree: ChangeStatus,
			// then Get/Put of QOH).
			Name: MShipOrder,
			Body: func(ctx *oodb.Ctx, recv oid.OID, args []val.V) (val.V, error) {
				if len(args) != 1 {
					return val.NullV, fmt.Errorf("orderentry: ShipOrder wants (OrderNo)")
				}
				order, err := a.selectOrder(ctx, recv, args[0])
				if err != nil {
					return val.NullV, err
				}
				if _, err := ctx.Call(order, MChangeStatus, evArg(EventShipped)); err != nil {
					return val.NullV, err
				}
				if a.HookShipMid != nil {
					a.HookShipMid(recv, args[0].Int())
				}
				qtyAtom, err := ctx.Component(order, CompQuantity)
				if err != nil {
					return val.NullV, err
				}
				qty, err := ctx.Get(qtyAtom)
				if err != nil {
					return val.NullV, err
				}
				qohAtom, err := ctx.Component(recv, CompQOH)
				if err != nil {
					return val.NullV, err
				}
				qoh, err := ctx.Get(qohAtom)
				if err != nil {
					return val.NullV, err
				}
				if qoh.Int() < qty.Int() {
					// Abort path: the committed ChangeStatus child is
					// compensated by the engine.
					return val.NullV, fmt.Errorf("%w: item %s has %d, order %d needs %d",
						ErrInsufficientStock, recv, qoh.Int(), args[0].Int(), qty.Int())
				}
				return val.NullV, ctx.Put(qohAtom, val.OfInt(qoh.Int()-qty.Int()))
			},
			Inverse: func(inv compat.Invocation, result val.V) *compat.Invocation {
				return invOn(inv.Object, unship, inv.Args[0])
			},
		},
		{
			// UnshipOrder(i, OrderNo): compensation for ShipOrder —
			// removes the shipped event and restores QOH.
			Name: MUnshipOrder,
			Body: func(ctx *oodb.Ctx, recv oid.OID, args []val.V) (val.V, error) {
				if len(args) != 1 {
					return val.NullV, fmt.Errorf("orderentry: UnshipOrder wants (OrderNo)")
				}
				order, err := a.selectOrder(ctx, recv, args[0])
				if err != nil {
					return val.NullV, err
				}
				if _, err := ctx.Call(order, MUnchangeStatus, evArg(EventShipped)); err != nil {
					return val.NullV, err
				}
				qtyAtom, err := ctx.Component(order, CompQuantity)
				if err != nil {
					return val.NullV, err
				}
				qty, err := ctx.Get(qtyAtom)
				if err != nil {
					return val.NullV, err
				}
				qohAtom, err := ctx.Component(recv, CompQOH)
				if err != nil {
					return val.NullV, err
				}
				qoh, err := ctx.Get(qohAtom)
				if err != nil {
					return val.NullV, err
				}
				return val.NullV, ctx.Put(qohAtom, val.OfInt(qoh.Int()+qty.Int()))
			},
			// Compensation of a compensation falls back to children.
		},
		{
			// PayOrder(i, OrderNo): records payment.
			Name: MPayOrder,
			Body: func(ctx *oodb.Ctx, recv oid.OID, args []val.V) (val.V, error) {
				if len(args) != 1 {
					return val.NullV, fmt.Errorf("orderentry: PayOrder wants (OrderNo)")
				}
				order, err := a.selectOrder(ctx, recv, args[0])
				if err != nil {
					return val.NullV, err
				}
				_, err = ctx.Call(order, MChangeStatus, evArg(EventPaid))
				return val.NullV, err
			},
			Inverse: func(inv compat.Invocation, result val.V) *compat.Invocation {
				return invOn(inv.Object, unpay, inv.Args[0])
			},
		},
		{
			// UnpayOrder(i, OrderNo): compensation for PayOrder.
			Name: MUnpayOrder,
			Body: func(ctx *oodb.Ctx, recv oid.OID, args []val.V) (val.V, error) {
				if len(args) != 1 {
					return val.NullV, fmt.Errorf("orderentry: UnpayOrder wants (OrderNo)")
				}
				order, err := a.selectOrder(ctx, recv, args[0])
				if err != nil {
					return val.NullV, err
				}
				_, err = ctx.Call(order, MUnchangeStatus, evArg(EventPaid))
				return val.NullV, err
			},
		},
		{
			// DebitStock(i, Amount): decrements quantity-on-hand by
			// Amount, failing when stock would go below zero. It reads,
			// checks the floor, and writes; the DebitStock/DebitStock
			// method conflict serialises the read against the write.
			Name: MDebitStock,
			Body: func(ctx *oodb.Ctx, recv oid.OID, args []val.V) (val.V, error) {
				amt, qohAtom, err := stockArgs(ctx, recv, args, MDebitStock)
				if err != nil {
					return val.NullV, err
				}
				qoh, err := ctx.Get(qohAtom)
				if err != nil {
					return val.NullV, err
				}
				if qoh.Int() < amt {
					return val.NullV, fmt.Errorf("%w: item %s has %d, debit wants %d",
						ErrInsufficientStock, recv, qoh.Int(), amt)
				}
				return val.NullV, ctx.Put(qohAtom, val.OfInt(qoh.Int()-amt))
			},
			Inverse: func(inv compat.Invocation, result val.V) *compat.Invocation {
				return invOn(inv.Object, credit, inv.Args[0])
			},
		},
		{
			// CreditStock(i, Amount): increments quantity-on-hand by
			// Amount (restock).
			Name: MCreditStock,
			Body: func(ctx *oodb.Ctx, recv oid.OID, args []val.V) (val.V, error) {
				amt, qohAtom, err := stockArgs(ctx, recv, args, MCreditStock)
				if err != nil {
					return val.NullV, err
				}
				qoh, err := ctx.Get(qohAtom)
				if err != nil {
					return val.NullV, err
				}
				return val.NullV, ctx.Put(qohAtom, val.OfInt(qoh.Int()+amt))
			},
			Inverse: func(inv compat.Invocation, result val.V) *compat.Invocation {
				return invOn(inv.Object, uncredit, inv.Args[0])
			},
		},
		{
			// UncreditStock(i, Amount): compensation for CreditStock — a
			// subtract with no floor check. Safe because it only ever
			// reverts this transaction's own credit.
			Name: MUncreditStock,
			Body: func(ctx *oodb.Ctx, recv oid.OID, args []val.V) (val.V, error) {
				amt, qohAtom, err := stockArgs(ctx, recv, args, MUncreditStock)
				if err != nil {
					return val.NullV, err
				}
				qoh, err := ctx.Get(qohAtom)
				if err != nil {
					return val.NullV, err
				}
				return val.NullV, ctx.Put(qohAtom, val.OfInt(qoh.Int()-amt))
			},
			// Compensation of a compensation falls back to children.
		},
		{
			// TotalPayment(i) returns Money: the total value
			// (Price×Quantity) of the item's paid orders. The body
			// reads order status *directly* — bypassing the Order
			// encapsulation — exactly as the paper's footnote 4
			// stipulates for Fig. 7.
			Name:     MTotalPayment,
			ReadOnly: true,
			Body: func(ctx *oodb.Ctx, recv oid.OID, args []val.V) (val.V, error) {
				orders, err := ctx.Component(recv, CompOrders)
				if err != nil {
					return val.NullV, err
				}
				entries, err := ctx.Scan(orders)
				if err != nil {
					return val.NullV, err
				}
				priceAtom, err := ctx.Component(recv, CompPrice)
				if err != nil {
					return val.NullV, err
				}
				price, err := ctx.Get(priceAtom)
				if err != nil {
					return val.NullV, err
				}
				var total int64
				for _, e := range entries {
					statusAtom, err := ctx.Component(e.Member, CompStatus)
					if err != nil {
						return val.NullV, err
					}
					status, err := ctx.Get(statusAtom) // bypass (footnote 4)
					if err != nil {
						return val.NullV, err
					}
					if statusCount(status, EventPaid) == 0 {
						continue
					}
					qtyAtom, err := ctx.Component(e.Member, CompQuantity)
					if err != nil {
						return val.NullV, err
					}
					qty, err := ctx.Get(qtyAtom)
					if err != nil {
						return val.NullV, err
					}
					total += price.Int() * qty.Int()
				}
				return val.OfInt(total), nil
			},
		},
	}
}

// orderMethods builds the method set of type Order (paper §2.2).
func (a *App) orderMethods(m *compat.Matrix) []*oodb.Method {
	unchange, _ := m.ID(MUnchangeStatus)
	return []*oodb.Method{
		{
			// ChangeStatus(o, event): records that an event occurred.
			// The status counts the occurrences of each event, packed
			// into one integer (statusUnit); it remembers neither
			// ordering nor who recorded an occurrence, which is why
			// ChangeStatus self-commutes and why its inverse
			// (UnchangeStatus: remove one occurrence) commutes with
			// exactly the same operations — the property compensation
			// requires (DESIGN.md §3.3). The body is one Add.
			Name: MChangeStatus,
			Body: func(ctx *oodb.Ctx, recv oid.OID, args []val.V) (val.V, error) {
				return addStatus(ctx, recv, args, MChangeStatus, 1)
			},
			Inverse: func(inv compat.Invocation, result val.V) *compat.Invocation {
				// Compensate at the ChangeStatus level: remove one
				// occurrence. A physical before-image would be wrong
				// here — a commuting ChangeStatus of another
				// transaction may have recorded a different event in
				// between (DESIGN.md §3.3).
				return invOn(inv.Object, unchange, inv.Args[0])
			},
		},
		{
			// UnchangeStatus(o, event): compensation for ChangeStatus —
			// removes one occurrence of the event.
			Name: MUnchangeStatus,
			Body: func(ctx *oodb.Ctx, recv oid.OID, args []val.V) (val.V, error) {
				return addStatus(ctx, recv, args, MUnchangeStatus, -1)
			},
		},
		{
			// TestStatus(o, event) returns whether the event has
			// occurred.
			Name:     MTestStatus,
			ReadOnly: true,
			Body: func(ctx *oodb.Ctx, recv oid.OID, args []val.V) (val.V, error) {
				if len(args) != 1 {
					return val.NullV, fmt.Errorf("orderentry: TestStatus wants (event)")
				}
				statusAtom, err := ctx.Component(recv, CompStatus)
				if err != nil {
					return val.NullV, err
				}
				status, err := ctx.Get(statusAtom)
				if err != nil {
					return val.NullV, err
				}
				return val.OfBool(statusCount(status, argEv(args[0])) > 0), nil
			},
		},
	}
}

// addStatus adds sign occurrences of the event in args to recv's
// status atom: the whole body of ChangeStatus (+1) and UnchangeStatus
// (−1).
func addStatus(ctx *oodb.Ctx, recv oid.OID, args []val.V, method string, sign int64) (val.V, error) {
	if len(args) != 1 {
		return val.NullV, fmt.Errorf("orderentry: %s wants (event)", method)
	}
	ev := argEv(args[0])
	unit, err := statusUnit(ev)
	if err != nil {
		return val.NullV, err
	}
	statusAtom, err := ctx.Component(recv, CompStatus)
	if err != nil {
		return val.NullV, err
	}
	now, err := ctx.Add(statusAtom, sign*unit)
	if err != nil {
		return val.NullV, err
	}
	if sign < 0 && statusCount(val.OfInt(now.Int()+unit), ev) == 0 {
		// There was no occurrence to remove, and the subtraction
		// borrowed from the other event's count. A compensation never
		// gets here (it removes the occurrence its forward call added);
		// a direct call fails, and its abort takes the Add back.
		return val.NullV, fmt.Errorf("orderentry: %s(%s) on order %s: no occurrence to remove", method, ev, recv)
	}
	return val.NullV, nil
}

// stockArgs validates a stock-counter method's (Amount) argument and
// resolves the receiver's QOH atom.
func stockArgs(ctx *oodb.Ctx, recv oid.OID, args []val.V, method string) (int64, oid.OID, error) {
	if len(args) != 1 || args[0].Int() <= 0 {
		return 0, oid.Nil, fmt.Errorf("orderentry: %s wants (Amount > 0)", method)
	}
	qohAtom, err := ctx.Component(recv, CompQOH)
	if err != nil {
		return 0, oid.Nil, err
	}
	return args[0].Int(), qohAtom, nil
}

// newOrderObject creates the Order tuple for NewOrder (transactional
// creation path: the objects are unreachable until the set Insert).
func (a *App) newOrderObject(ctx *oodb.Ctx, orderNo, customerNo, quantity int64) (oid.OID, error) {
	noAtom, err := ctx.NewAtomic(val.OfInt(orderNo))
	if err != nil {
		return oid.Nil, err
	}
	custAtom, err := ctx.NewAtomic(val.OfInt(customerNo))
	if err != nil {
		return oid.Nil, err
	}
	qtyAtom, err := ctx.NewAtomic(val.OfInt(quantity))
	if err != nil {
		return oid.Nil, err
	}
	statusAtom, err := ctx.NewAtomic(val.OfInt(0))
	if err != nil {
		return oid.Nil, err
	}
	order, err := ctx.NewTuple(
		[]string{CompOrderNo, CompCustomer, CompQuantity, CompStatus},
		map[string]oid.OID{CompOrderNo: noAtom, CompCustomer: custAtom, CompQuantity: qtyAtom, CompStatus: statusAtom},
	)
	if err != nil {
		return oid.Nil, err
	}
	if err := ctx.BindInstance(order, "Order"); err != nil {
		return oid.Nil, err
	}
	return order, nil
}

// selectOrder resolves an OrderNo within a method body (a locked
// Select child action, the one the paper's figures elide).
func (a *App) selectOrder(ctx *oodb.Ctx, item oid.OID, orderNo val.V) (oid.OID, error) {
	orders, err := ctx.Component(item, CompOrders)
	if err != nil {
		return oid.Nil, err
	}
	order, ok, err := ctx.Select(orders, orderNo)
	if err != nil {
		return oid.Nil, err
	}
	if !ok {
		return oid.Nil, fmt.Errorf("%w: order %s on item %s", ErrNoSuchOrder, orderNo, item)
	}
	return order, nil
}
