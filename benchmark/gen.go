package main

import (
	"errors"
	"math"
	"math/rand"
	"sort"

	"semcc/internal/orderentry"
)

// call is one generated input: a transaction kind with every argument
// fixed before the engine sees it.
type call struct {
	kind kind
	// a, b are the two orders of T1–T4; a.ItemNo is the item of T5,
	// NewOrder, Debit and Credit.
	a, b orderentry.OrderRef
	// n is NewOrder's customer number or the Debit/Credit amount.
	n int64
}

// zipfTable is a precomputed Zipf CDF over ranks 0..n-1 with exponent s.
type zipfTable []float64

func newZipfTable(n int, s float64) zipfTable {
	cdf := make(zipfTable, n)
	sum := 0.0
	for i := range cdf {
		sum += 1 / math.Pow(float64(i+1), s)
		cdf[i] = sum
	}
	for i := range cdf {
		cdf[i] /= sum
	}
	return cdf
}

// rank maps a uniform x in [0,1) to a rank.
func (z zipfTable) rank(x float64) int {
	i := sort.SearchFloat64s(z, x)
	if i == len(z) {
		i--
	}
	return i
}

// generator produces one client's input stream. The stream is a pure
// function of (seed, client, spec, population): it draws only from its
// own RNG and its own share of the ship pool, never from engine state
// or timing, so two runs with one seed offer each client the same
// calls in the same order.
type generator struct {
	rng *rand.Rand
	// deck holds one entry per unit of mix weight; kinds are dealt from
	// it and it is reshuffled when it runs out, so every 100 calls of a
	// client hold the mix exactly and runs with different seeds do the
	// same work up to its order.
	deck   []kind
	dealt  int
	zipf   zipfTable
	items  int
	orders int
	// Of every item's pre-created orders, this client owns those with
	// index ≡ client (mod clients), so no client depends on another's
	// progress. It ships each of them at most once (conservation stays
	// checkable) and pays each at most once (an order's status is a
	// multiset that grows with every payment; paying one order again and
	// again makes every later root on it dearer than the first).
	client, clients int
	ship, pay       orderPool
}

// orderPool hands out each order of the client's share once.
type orderPool struct {
	used []int32 // per item, how many of its orders are handed out
	left int     // orders of the share not yet handed out
}

// errPool ends a run whose T1s or T2s have used up the pre-created
// orders: the run is too long for the population, and going on would
// change the mix.
var errPool = errors.New("order pool exhausted: population too small for this many roots")

func newGenerator(sp spec, items, orders int, seed int64, client int) *generator {
	g := &generator{
		rng:    rand.New(rand.NewSource(seed*1_000_003 + int64(client)*7919 + 1)),
		items:  items,
		orders: orders,
		client: client, clients: sp.clients,
	}
	share := 0
	for k := client; k < orders; k += sp.clients {
		share += items
	}
	g.ship = orderPool{used: make([]int32, items), left: share}
	g.pay = orderPool{used: make([]int32, items), left: share}
	for k, w := range sp.mix {
		for i := 0; i < w; i++ {
			g.deck = append(g.deck, kind(k))
		}
	}
	if sp.zipfS > 1 {
		g.zipf = newZipfTable(items, sp.zipfS)
	}
	return g
}

// orderNo is the closed formula orderentry.SetupNode numbers
// pre-created orders by.
func (g *generator) orderNo(item int64, k int) int64 {
	return (item-1)*int64(g.orders) + int64(k) + 1
}

func (g *generator) item() int64 {
	if g.zipf != nil {
		return int64(g.zipf.rank(g.rng.Float64()) + 1)
	}
	return int64(g.rng.Intn(g.items) + 1)
}

// anyOrder picks one of an item's pre-created orders.
func (g *generator) anyOrder(item int64) orderentry.OrderRef {
	return orderentry.OrderRef{ItemNo: item, OrderNo: g.orderNo(item, g.rng.Intn(g.orders))}
}

// uniformItem picks an item for a kind that consumes orders (T1, T2):
// skew would drain the hot items' few orders at once and then drift.
func (g *generator) uniformItem() int64 { return int64(g.rng.Intn(g.items) + 1) }

// take hands out an order of this client's share that p has not handed
// out yet, re-picking the item when the share of the picked one is used
// up (a pool miss is the generator's business, not a retry). avoid is an
// item the result must differ from (0 for none).
func (g *generator) take(p *orderPool, avoid int64) orderentry.OrderRef {
	for {
		item := g.uniformItem()
		if item == avoid {
			continue
		}
		k := g.client + int(p.used[item-1])*g.clients
		if k >= g.orders {
			continue
		}
		p.used[item-1]++
		p.left--
		return orderentry.OrderRef{ItemNo: item, OrderNo: g.orderNo(item, k)}
	}
}

// two takes orders of two different items ("two different items ordered
// by one customer", paper §2.3). While more is left than one item can
// hold, two different items still have an order each.
func (g *generator) two(p *orderPool) (a, b orderentry.OrderRef, err error) {
	if p.left <= g.orders {
		return a, b, errPool
	}
	a = g.take(p, 0)
	return a, g.take(p, a.ItemNo), nil
}

// twoAny picks any order of each of two different items, by the
// workload's skew.
func (g *generator) twoAny() (a, b orderentry.OrderRef) {
	i1 := g.item()
	i2 := g.item()
	for i2 == i1 {
		i2 = g.item()
	}
	return g.anyOrder(i1), g.anyOrder(i2)
}

func (g *generator) next() (call, error) {
	if g.dealt%len(g.deck) == 0 {
		g.rng.Shuffle(len(g.deck), func(i, j int) { g.deck[i], g.deck[j] = g.deck[j], g.deck[i] })
	}
	c := call{kind: g.deck[g.dealt%len(g.deck)]}
	g.dealt++
	var err error
	switch c.kind {
	case kT1:
		c.a, c.b, err = g.two(&g.ship)
	case kT2:
		c.a, c.b, err = g.two(&g.pay)
	case kT3, kT4:
		c.a, c.b = g.twoAny()
	case kT5:
		c.a.ItemNo = g.item()
	case kNewOrder:
		c.a.ItemNo = g.item()
		c.n = g.rng.Int63n(1000)
	case kDebit, kCredit:
		c.a.ItemNo = g.item()
		c.n = g.rng.Int63n(3) + 1
	}
	return c, err
}

// do runs one call as one top-level transaction.
func (c call) do(app *orderentry.App) error {
	var err error
	switch c.kind {
	case kT1:
		err = app.T1(c.a, c.b)
	case kT2:
		err = app.T2(c.a, c.b)
	case kT3:
		_, _, err = app.T3(c.a, c.b)
	case kT4:
		_, _, err = app.T4(c.a, c.b)
	case kT5:
		_, err = app.T5(c.a.ItemNo)
	case kNewOrder:
		_, err = app.NewOrderTx(c.a.ItemNo, c.n, 1)
	case kDebit:
		err = app.DebitTx(c.a.ItemNo, c.n)
	case kCredit:
		err = app.CreditTx(c.a.ItemNo, c.n)
	}
	return err
}
