package orderentry

import (
	"fmt"
	"sort"

	"semcc/internal/oid"
	"semcc/internal/val"
)

// ItemState is a non-transactional snapshot of one item, used by
// invariant checks after concurrent runs have quiesced.
type ItemState struct {
	ItemNo int64
	Price  int64
	QOH    int64
	Orders []OrderState
}

// OrderState snapshots one order.
type OrderState struct {
	OrderNo  int64
	Customer int64
	Quantity int64
	Shipped  bool
	Paid     bool
}

// readComp navigates tuple.name and reads the atomic value there.
func (a *App) readComp(tuple oid.OID, name string) (val.V, error) {
	atom, err := a.DB.Component(tuple, name)
	if err != nil {
		return val.NullV, err
	}
	return a.DB.Store().ReadAtomic(atom)
}

// Snapshot reads the whole database state directly from the store.
// Only call it when no transactions are running. A multi-node front
// merges its peers' snapshots into the order a single-node snapshot
// would produce (SetScan's canonical key order), so snapshots stay
// comparable across topologies — the chaos oracle relies on that.
func (a *App) Snapshot() ([]ItemState, error) {
	if len(a.Peers) > 0 {
		var out []ItemState
		for _, p := range a.Peers {
			states, err := p.Snapshot()
			if err != nil {
				return nil, err
			}
			out = append(out, states...)
		}
		sort.Slice(out, func(i, j int) bool {
			return val.OfInt(out[i].ItemNo).String() < val.OfInt(out[j].ItemNo).String()
		})
		return out, nil
	}
	store := a.DB.Store()
	items, err := store.SetScan(a.Items)
	if err != nil {
		return nil, err
	}
	out := make([]ItemState, 0, len(items))
	for _, ie := range items {
		var is ItemState
		is.ItemNo = ie.Key.Int()
		price, err := a.readComp(ie.Member, CompPrice)
		if err != nil {
			return nil, err
		}
		is.Price = price.Int()
		qoh, err := a.readComp(ie.Member, CompQOH)
		if err != nil {
			return nil, err
		}
		is.QOH = qoh.Int()
		ordersSet, err := a.DB.Component(ie.Member, CompOrders)
		if err != nil {
			return nil, err
		}
		orders, err := store.SetScan(ordersSet)
		if err != nil {
			return nil, err
		}
		for _, oe := range orders {
			var os OrderState
			os.OrderNo = oe.Key.Int()
			no, err := a.readComp(oe.Member, CompOrderNo)
			if err != nil {
				return nil, err
			}
			if no.Int() != os.OrderNo {
				return nil, fmt.Errorf("orderentry: order key %d has OrderNo atom %d", os.OrderNo, no.Int())
			}
			cust, err := a.readComp(oe.Member, CompCustomer)
			if err != nil {
				return nil, err
			}
			os.Customer = cust.Int()
			qty, err := a.readComp(oe.Member, CompQuantity)
			if err != nil {
				return nil, err
			}
			os.Quantity = qty.Int()
			status, err := a.readComp(oe.Member, CompStatus)
			if err != nil {
				return nil, err
			}
			if status.T != val.Int || status.Int() < 0 {
				return nil, fmt.Errorf("orderentry: order %d has status %s, want packed event counts", os.OrderNo, status)
			}
			os.Shipped = statusCount(status, EventShipped) > 0
			os.Paid = statusCount(status, EventPaid) > 0
			is.Orders = append(is.Orders, os)
		}
		out = append(out, is)
	}
	return out, nil
}

// CheckConservation verifies the physical invariants every
// semantically serializable execution of the order-entry workload must
// preserve, given the population's initial quantity-on-hand:
//
//  1. QOH conservation: for every item,
//     initialQOH − Σ quantity(shipped orders) = QOH.
//  2. Status sanity: every status is a non-negative packed count of
//     shipped and paid occurrences (checked during Snapshot).
//  3. Key consistency: every order's OrderNo atom equals its set key
//     (checked during Snapshot).
//
// It returns a descriptive error for the first violation.
func CheckConservation(states []ItemState, initialQOH int64) error {
	return CheckConservationNet(states, initialQOH, nil)
}

// CheckConservationNet is CheckConservation for runs that also execute
// direct stock-counter transactions (DebitTx/CreditTx): netStock maps
// ItemNo to the net committed stock delta (credits − debits) the run
// applied outside shipping, so the expected QOH becomes
// initialQOH − Σ shipped + netStock.
func CheckConservationNet(states []ItemState, initialQOH int64, netStock map[int64]int64) error {
	for _, is := range states {
		var shippedQty int64
		for _, os := range is.Orders {
			if os.Shipped {
				shippedQty += os.Quantity
			}
		}
		if got, want := is.QOH, initialQOH-shippedQty+netStock[is.ItemNo]; got != want {
			return fmt.Errorf("orderentry: item %d QOH=%d, want %d (initial %d − shipped %d + net stock %d)",
				is.ItemNo, got, want, initialQOH, shippedQty, netStock[is.ItemNo])
		}
	}
	return nil
}

// TotalPaid computes, from a snapshot, the expected TotalPayment value
// for an item (Price × Σ quantity of paid orders).
func TotalPaid(states []ItemState, itemNo int64) (int64, bool) {
	for _, is := range states {
		if is.ItemNo != itemNo {
			continue
		}
		var total int64
		for _, os := range is.Orders {
			if os.Paid {
				total += is.Price * os.Quantity
			}
		}
		return total, true
	}
	return 0, false
}
