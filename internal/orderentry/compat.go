// Package orderentry implements the paper's running example (§2): a
// simplified order-entry application in the style of TPC-C, with
// encapsulated object types Item and Order, their commutativity-based
// compatibility matrices (Figs. 2 and 3), the five transaction types
// T1–T5 (§2.3), database population, and invariant checks used by the
// stress tests.
package orderentry

import "semcc/internal/compat"

// Event names an event recorded in an order's status (paper §2.2: the
// status of an order is the set of events that have occurred; "new" is
// none, then "shipped", "paid", or "shipped&paid"). It travels as the
// Str argument of ChangeStatus, UnchangeStatus and TestStatus.
type Event string

// The events of an order's status.
const (
	EventShipped Event = "shipped"
	EventPaid    Event = "paid"
)

// Method names of the encapsulated types. The Un* methods are the
// compensating inverses required by open nested transactions (paper
// §3: "committed subtransactions need to be compensated by means of
// appropriate inverse operations"); they participate in the same
// matrices.
const (
	MNewOrder     = "NewOrder"
	MRemoveOrder  = "RemoveOrder" // inverse of NewOrder
	MShipOrder    = "ShipOrder"
	MUnshipOrder  = "UnshipOrder" // inverse of ShipOrder
	MPayOrder     = "PayOrder"
	MUnpayOrder   = "UnpayOrder" // inverse of PayOrder
	MTotalPayment = "TotalPayment"

	MChangeStatus   = "ChangeStatus"
	MUnchangeStatus = "UnchangeStatus" // inverse of ChangeStatus
	MTestStatus     = "TestStatus"

	// Stock-counter methods: direct quantity-on-hand updates used by
	// the hot-counter and inventory workloads. Statically every pair
	// conflicts (decrements with a floor do not commute
	// state-independently, the ShipOrder/ShipOrder argument).
	MDebitStock    = "DebitStock"
	MCreditStock   = "CreditStock"
	MUncreditStock = "UncreditStock" // inverse of CreditStock
)

// ItemMatrix returns the compatibility matrix for object type Item
// (paper Fig. 2; reconstruction documented in DESIGN.md §3.4):
//
//	              NewOrder  ShipOrder  PayOrder  TotalPayment
//	NewOrder        ok       conflict   conflict   conflict
//	ShipOrder     conflict   conflict     ok         ok
//	PayOrder      conflict     ok         ok       conflict
//	TotalPayment  conflict     ok       conflict     ok
//
// Justifications:
//   - NewOrder/NewOrder ok — the paper's Enqueue argument: insertion
//     order of distinct new orders is unobservable.
//   - NewOrder vs ShipOrder/PayOrder conflict — both select by
//     OrderNo and fail on absent orders, so ordering against an
//     insertion is observable.
//   - NewOrder vs TotalPayment conflict — the scan observes insertion
//     (phantom).
//   - ShipOrder/ShipOrder conflict — quantity-on-hand decrements with
//     an insufficient-stock floor: two decrements do not commute
//     state-independently.
//   - ShipOrder/PayOrder ok — explicit in the paper ("the ordering of
//     shipment and payment is irrelevant").
//   - ShipOrder/TotalPayment ok — required by the paper's Fig. 7
//     (their commutative ancestor pair); sound because TotalPayment
//     observes only the paid flag and quantity of orders.
//   - PayOrder/PayOrder ok — each adds one occurrence to the order's
//     packed paid count (one Add) and returns nothing.
//   - PayOrder/TotalPayment conflict — the total observes payments.
//
// Inverse methods take their forward method's profile; additionally
// PayOrder/UnpayOrder commute only on distinct orders
// (parameter-dependent rule on the OrderNo argument).
func ItemMatrix() *compat.Matrix {
	m := compat.NewMatrix("Item",
		MNewOrder, MShipOrder, MPayOrder, MTotalPayment,
		MRemoveOrder, MUnshipOrder, MUnpayOrder,
		MDebitStock, MCreditStock, MUncreditStock)

	m.Set(MNewOrder, MNewOrder, compat.Always)
	m.Set(MShipOrder, MPayOrder, compat.Always)
	m.Set(MShipOrder, MTotalPayment, compat.Always)
	m.Set(MPayOrder, MPayOrder, compat.Always)
	m.Set(MTotalPayment, MTotalPayment, compat.Always)
	// All remaining pairs among the four paper methods conflict by
	// the matrix default.

	// Compensation methods. Each inverse must commute with at least
	// everything its forward method commutes with (the compensation
	// safety property checked by TestInverseProfileProperty).
	//
	// RemoveOrder only ever removes an order its own transaction
	// created; two RemoveOrders, or a RemoveOrder next to a fresh
	// NewOrder, therefore always address distinct orders.
	m.Set(MRemoveOrder, MNewOrder, compat.Always)
	m.Set(MRemoveOrder, MRemoveOrder, compat.Always)
	// UnshipOrder behaves like ShipOrder (QOH and shipped status).
	m.Set(MUnshipOrder, MPayOrder, compat.Always)
	m.Set(MUnshipOrder, MUnpayOrder, compat.Always)
	m.Set(MUnshipOrder, MTotalPayment, compat.Always)
	m.Set(MShipOrder, MUnpayOrder, compat.Always)
	// The status keeps packed occurrence counts, so adding and removing
	// one occurrence of payment commute unconditionally (DESIGN.md
	// §3.3).
	m.Set(MPayOrder, MUnpayOrder, compat.Always)
	m.Set(MUnpayOrder, MUnpayOrder, compat.Always)

	// Stock-counter methods conflict with every method touching QOH —
	// including each other — by the matrix default.
	return m
}

// OrderMatrix returns the compatibility matrix for object type Order
// (paper Fig. 3, exact):
//
//	                     ChangeStatus(e)       TestStatus(e')
//	ChangeStatus(e')          ok             conflict iff e = e'
//	TestStatus(e)       conflict iff e = e'         ok
//
// ChangeStatus commutes with itself because its semantics is to add
// one to an event's packed occurrence count — the counts remember
// neither arrival order nor origin. UnchangeStatus (subtract one;
// compensation only) has exactly ChangeStatus's conflict profile:
// adding to and subtracting from the counts commute for any events,
// and both conflict with TestStatus of the same event. Matching the
// forward profile guarantees a compensation never conflicts with a
// lock that was grantable next to the forward operation (DESIGN.md
// §3.3).
func OrderMatrix() *compat.Matrix {
	m := compat.NewMatrix("Order", MChangeStatus, MTestStatus, MUnchangeStatus)
	m.Set(MChangeStatus, MChangeStatus, compat.Always)
	m.Set(MChangeStatus, MTestStatus, compat.ArgsDiffer(0))
	m.Set(MTestStatus, MTestStatus, compat.Always)
	m.Set(MUnchangeStatus, MUnchangeStatus, compat.Always)
	m.Set(MUnchangeStatus, MChangeStatus, compat.Always)
	m.Set(MUnchangeStatus, MTestStatus, compat.ArgsDiffer(0))
	return m
}
