package orderentry

import (
	"errors"
	"fmt"
	"sync/atomic"

	"semcc/internal/compat"
	"semcc/internal/objstore"
	"semcc/internal/oid"
	"semcc/internal/oodb"
	"semcc/internal/val"
)

// Session is the transactional surface the application code runs on:
// the operations shared by the single-engine *oodb.Tx and the
// multi-node coordinator transaction (internal/dist.Tx). Application
// transactions written against Session run unchanged on either
// topology.
type Session interface {
	Call(obj oid.OID, method string, args ...val.V) (val.V, error)
	Get(obj oid.OID) (val.V, error)
	Put(obj oid.OID, v val.V) error
	Scan(set oid.OID) ([]objstore.SetEntry, error)
	Commit() error
	Abort() error
}

// Tuple component names.
const (
	CompItemNo   = "ItemNo"
	CompPrice    = "Price"
	CompQOH      = "QOH" // quantity-on-hand
	CompOrders   = "Orders"
	CompOrderNo  = "OrderNo"
	CompCustomer = "CustomerNo"
	CompQuantity = "Quantity"
	CompStatus   = "Status"
)

// ErrInsufficientStock is returned by ShipOrder when quantity-on-hand
// would go negative — the floor that makes ShipOrder non-commuting
// with itself.
var ErrInsufficientStock = errors.New("orderentry: insufficient stock")

// ErrNoSuchOrder is returned when an OrderNo does not exist for the
// item.
var ErrNoSuchOrder = errors.New("orderentry: no such order")

// Config controls database population.
type Config struct {
	// Items is the number of Item objects (ItemNo 1..Items).
	Items int
	// OrdersPerItem is the number of pre-created orders per item.
	OrdersPerItem int
	// InitialQOH is each item's starting quantity-on-hand.
	InitialQOH int64
	// Price is each item's price (integer money units).
	Price int64
	// OrderQuantity is each pre-created order's quantity.
	OrderQuantity int64
}

// DefaultConfig is a small population suitable for tests.
func DefaultConfig() Config {
	return Config{Items: 4, OrdersPerItem: 2, InitialQOH: 1000, Price: 10, OrderQuantity: 1}
}

// App is the order-entry application bound to a database: the schema
// (paper Fig. 1), the method implementations, and helpers to address
// items, orders, and their atomic components.
type App struct {
	DB *oodb.DB
	// Items is the OID of the database's Items set.
	Items oid.OID

	// Peers, when set, makes this App the front of a multi-node
	// deployment: Peers[i] is the App bound to node i's database
	// (including this one, at its node index), item ItemNo lives on
	// node (ItemNo−1) mod len(Peers), and object ownership follows
	// the cluster's OID rule. Navigation helpers route through it.
	// Empty Peers is the single-node layout.
	Peers []*App
	// BeginFn, when set, starts transactions (the multi-node front
	// installs the coordinator's Begin here). Nil means DB.Begin,
	// which cannot fail; a coordinator begin fails when a node is
	// down.
	BeginFn func() (Session, error)

	orderSeq atomic.Int64

	// HookShipMid, when set, is called inside ShipOrder's body after
	// the ChangeStatus child has committed and before the
	// quantity-on-hand update. The figure replayer uses it to hold a
	// ShipOrder subtransaction open at exactly the point of the
	// paper's Fig. 7.
	HookShipMid func(item oid.OID, orderNo int64)
}

// Setup registers the Item and Order types on db, creates the Items
// set and cfg.Items items with cfg.OrdersPerItem orders each, and
// binds the set under the name "Items".
func Setup(db *oodb.DB, cfg Config) (*App, error) {
	return SetupNode(db, cfg, 0, 1)
}

// SetupNode populates node `node` of an `nodes`-wide deployment: the
// same schema everywhere, but only the items this node owns —
// ItemNo ≡ node+1 (mod nodes) — with their orders. Pre-created order
// numbers follow the closed formula (ItemNo−1)·OrdersPerItem + k + 1,
// which for nodes == 1 reproduces Setup's sequential numbering
// exactly; the fresh-order allocator starts past every pre-created
// number on all nodes, so NewOrder stays unique per item without
// cross-node coordination. SetupNode(db, cfg, 0, 1) IS Setup.
func SetupNode(db *oodb.DB, cfg Config, node, nodes int) (*App, error) {
	if nodes < 1 || node < 0 || node >= nodes {
		return nil, fmt.Errorf("orderentry: invalid node %d of %d", node, nodes)
	}
	a := &App{DB: db}
	itemType, err := oodb.NewType("Item", ItemMatrix(), a.itemMethods()...)
	if err != nil {
		return nil, err
	}
	orderType, err := oodb.NewType("Order", OrderMatrix(), a.orderMethods()...)
	if err != nil {
		return nil, err
	}
	if err := db.RegisterType(itemType); err != nil {
		return nil, err
	}
	if err := db.RegisterType(orderType); err != nil {
		return nil, err
	}

	store := db.Store()
	items, err := store.NewSet()
	if err != nil {
		return nil, err
	}
	a.Items = items
	db.Bind("Items", items)

	for n := 1; n <= cfg.Items; n++ {
		if (n-1)%nodes != node {
			continue
		}
		item, err := a.createItem(int64(n), cfg.Price, cfg.InitialQOH)
		if err != nil {
			return nil, err
		}
		if err := store.SetInsert(items, val.OfInt(int64(n)), item); err != nil {
			return nil, err
		}
		for k := 0; k < cfg.OrdersPerItem; k++ {
			orderNo := int64((n-1)*cfg.OrdersPerItem + k + 1)
			order, err := a.createOrder(orderNo, 100+orderNo, cfg.OrderQuantity)
			if err != nil {
				return nil, err
			}
			orders, err := store.TupleGet(item, CompOrders)
			if err != nil {
				return nil, err
			}
			if err := store.SetInsert(orders, val.OfInt(orderNo), order); err != nil {
				return nil, err
			}
		}
	}
	a.orderSeq.Store(int64(cfg.Items * cfg.OrdersPerItem))
	return a, nil
}

// NewClusterApp builds the multi-node front: peers[i] must be the App
// SetupNode produced for node i, and begin the coordinator's session
// constructor (internal/dist wires its Cluster.Begin here). The front
// shares node 0's DB and Items for compatibility with code that never
// leaves one node, but every navigation helper routes by ownership.
func NewClusterApp(peers []*App, begin func() (Session, error)) *App {
	front := &App{DB: peers[0].DB, Items: peers[0].Items, Peers: peers, BeginFn: begin}
	front.orderSeq.Store(peers[0].orderSeq.Load())
	return front
}

// Begin starts an application transaction on whatever topology the
// App fronts.
func (a *App) Begin() (Session, error) {
	if a.BeginFn != nil {
		return a.BeginFn()
	}
	return a.DB.Begin(), nil
}

// peerOf returns the App owning an ItemNo.
func (a *App) peerOf(itemNo int64) *App {
	if len(a.Peers) == 0 {
		return a
	}
	return a.Peers[(itemNo-1)%int64(len(a.Peers))]
}

// dbOf returns the database owning an object (the cluster's OID rule;
// single-node deployments own everything).
func (a *App) dbOf(obj oid.OID) *oodb.DB {
	if len(a.Peers) == 0 {
		return a.DB
	}
	return a.Peers[(obj.N-1)%uint64(len(a.Peers))].DB
}

// Component navigates a tuple to a component's OID on whichever node
// owns the tuple (pure addressing, no lock).
func (a *App) Component(tuple oid.OID, name string) (oid.OID, error) {
	return a.dbOf(tuple).Component(tuple, name)
}

// createItem builds an Item tuple (non-transactional population path).
func (a *App) createItem(itemNo, price, qoh int64) (oid.OID, error) {
	store := a.DB.Store()
	noAtom, err := store.NewAtomic(val.OfInt(itemNo))
	if err != nil {
		return oid.Nil, err
	}
	priceAtom, err := store.NewAtomic(val.OfInt(price))
	if err != nil {
		return oid.Nil, err
	}
	qohAtom, err := store.NewAtomic(val.OfInt(qoh))
	if err != nil {
		return oid.Nil, err
	}
	orders, err := store.NewSet()
	if err != nil {
		return oid.Nil, err
	}
	item, err := store.NewTuple(
		[]string{CompItemNo, CompPrice, CompQOH, CompOrders},
		map[string]oid.OID{CompItemNo: noAtom, CompPrice: priceAtom, CompQOH: qohAtom, CompOrders: orders},
	)
	if err != nil {
		return oid.Nil, err
	}
	if err := a.DB.BindInstance(item, "Item"); err != nil {
		return oid.Nil, err
	}
	return item, nil
}

// createOrder builds an Order tuple with status "new" (empty event
// set) — non-transactional population path.
func (a *App) createOrder(orderNo, customerNo, quantity int64) (oid.OID, error) {
	store := a.DB.Store()
	noAtom, err := store.NewAtomic(val.OfInt(orderNo))
	if err != nil {
		return oid.Nil, err
	}
	custAtom, err := store.NewAtomic(val.OfInt(customerNo))
	if err != nil {
		return oid.Nil, err
	}
	qtyAtom, err := store.NewAtomic(val.OfInt(quantity))
	if err != nil {
		return oid.Nil, err
	}
	statusAtom, err := store.NewAtomic(val.OfInt(0))
	if err != nil {
		return oid.Nil, err
	}
	order, err := store.NewTuple(
		[]string{CompOrderNo, CompCustomer, CompQuantity, CompStatus},
		map[string]oid.OID{CompOrderNo: noAtom, CompCustomer: custAtom, CompQuantity: qtyAtom, CompStatus: statusAtom},
	)
	if err != nil {
		return oid.Nil, err
	}
	if err := a.DB.BindInstance(order, "Order"); err != nil {
		return oid.Nil, err
	}
	return order, nil
}

// Item resolves an ItemNo to the item's OID (non-transactional helper
// for tests and workload setup; routed to the owning node).
func (a *App) Item(itemNo int64) (oid.OID, error) {
	p := a.peerOf(itemNo)
	m, ok, err := p.DB.Store().SetSelect(p.Items, val.OfInt(itemNo))
	if err != nil {
		return oid.Nil, err
	}
	if !ok {
		return oid.Nil, fmt.Errorf("orderentry: no item %d", itemNo)
	}
	return m, nil
}

// Order resolves (itemNo, orderNo) to the order's OID
// (non-transactional helper; an item's orders live on its node).
func (a *App) Order(itemNo, orderNo int64) (oid.OID, error) {
	p := a.peerOf(itemNo)
	item, err := p.Item(itemNo)
	if err != nil {
		return oid.Nil, err
	}
	orders, err := p.DB.Component(item, CompOrders)
	if err != nil {
		return oid.Nil, err
	}
	m, ok, err := p.DB.Store().SetSelect(orders, val.OfInt(orderNo))
	if err != nil {
		return oid.Nil, err
	}
	if !ok {
		return oid.Nil, fmt.Errorf("orderentry: no order %d for item %d", orderNo, itemNo)
	}
	return m, nil
}

// OrderNosOf returns the OrderNos of an item's pre-created orders
// (sorted; non-transactional helper).
func (a *App) OrderNosOf(itemNo int64) ([]int64, error) {
	p := a.peerOf(itemNo)
	item, err := p.Item(itemNo)
	if err != nil {
		return nil, err
	}
	orders, err := p.DB.Component(item, CompOrders)
	if err != nil {
		return nil, err
	}
	entries, err := p.DB.Store().SetScan(orders)
	if err != nil {
		return nil, err
	}
	out := make([]int64, 0, len(entries))
	for _, e := range entries {
		out = append(out, e.Key.Int())
	}
	return out, nil
}

// StatusAtom returns the OID of an order's Status atomic object —
// the implementation object that bypassing transactions read directly
// (paper Figs. 5–7).
func (a *App) StatusAtom(order oid.OID) (oid.OID, error) {
	return a.dbOf(order).Component(order, CompStatus)
}

// QOHAtom returns the OID of an item's quantity-on-hand atom.
func (a *App) QOHAtom(item oid.OID) (oid.OID, error) {
	return a.dbOf(item).Component(item, CompQOH)
}

// NextOrderNo exposes the order-number allocator (used by tests).
func (a *App) NextOrderNo() int64 { return a.orderSeq.Add(1) }

// evArg converts an event constant to a method argument.
func evArg(e val.Event) val.V { return val.OfStr(string(e)) }

// argEv converts a method argument back to an event.
func argEv(v val.V) val.Event { return val.Event(v.Str()) }

// An order's status atom packs one occurrence counter per event into
// one integer: paid counts in the low 32 bits, shipped in the high 32.
// Recording or removing an occurrence is then one blind Add, and two
// Adds commute — so status changes the Order matrix declares commuting
// also commute at their leaves, where a Get followed by a Put would
// deadlock two of them on the upgrade.
const (
	paidUnit    int64 = 1
	shippedUnit int64 = 1 << 32
)

// statusUnit returns the amount one occurrence of e adds to a status
// atom.
func statusUnit(e val.Event) (int64, error) {
	switch e {
	case EventPaid:
		return paidUnit, nil
	case EventShipped:
		return shippedUnit, nil
	}
	return 0, fmt.Errorf("orderentry: unknown status event %q", e)
}

// statusCount returns how many occurrences of e a status atom's value
// records (0 for an event the status does not track).
func statusCount(status val.V, e val.Event) int64 {
	switch e {
	case EventPaid:
		return status.Int() & (shippedUnit - 1)
	case EventShipped:
		return status.Int() / shippedUnit
	}
	return 0
}

// invOn builds an invocation on obj (helper for inverse functions).
func invOn(obj oid.OID, method string, args ...val.V) *compat.Invocation {
	c := compat.Inv(obj, method, args...)
	return &c
}

// Attach binds a helper App to an already-populated database — after
// oodb.Reopen, for instance. The method bodies registered at Setup
// time stay valid (they close over the original App's order-number
// allocator, which survives in process memory); Attach only rebinds
// the navigation helpers. The allocator is advanced past every
// existing OrderNo so fresh numbers stay unique.
func Attach(db *oodb.DB) (*App, error) {
	items, ok := db.Lookup("Items")
	if !ok {
		return nil, fmt.Errorf("orderentry: database has no Items binding")
	}
	a := &App{DB: db, Items: items}
	entries, err := db.Store().SetScan(items)
	if err != nil {
		return nil, err
	}
	var maxNo int64
	for _, ie := range entries {
		orders, err := db.Component(ie.Member, CompOrders)
		if err != nil {
			return nil, err
		}
		os, err := db.Store().SetScan(orders)
		if err != nil {
			return nil, err
		}
		for _, oe := range os {
			if oe.Key.Int() > maxNo {
				maxNo = oe.Key.Int()
			}
		}
	}
	a.orderSeq.Store(maxNo)
	return a, nil
}
