// Seeded action generation and the shared action applier.
//
// The same applyAction body runs twice: once live, inside the
// deterministic driver against the engine under test, and once during
// the oracle's serial replay (wrapped into an orderentry.Program by
// programOf). Sharing the applier is what makes the comparison
// meaningful — a divergence is necessarily the engine's, never a
// transcription mismatch between two copies of the workload.

package chaos

import (
	"errors"
	"fmt"
	"math/rand"
	"sort"
	"strings"

	"semcc/internal/oid"
	"semcc/internal/orderentry"
	"semcc/internal/val"
)

// actionKind enumerates the randomized actions. The mix deliberately
// spans all three access styles of the paper: semantic method
// invocations (ship/pay/test/total), encapsulation-bypassing generic
// reads and writes (audit/getqoh/putcust), and set scans.
type actionKind int

const (
	actShip actionKind = iota
	actPay
	actTestShipped
	actTestPaid
	actTotal
	actAudit
	actGetQOH
	actPutCust
	actScanOrders
	// actDebit/actCredit are direct stock-counter updates
	// (DebitStock/CreditStock); they conflict with everything touching
	// quantity-on-hand.
	actDebit
	actCredit
)

// action is one generated step of a transaction plan.
type action struct {
	kind  actionKind
	item  int64 // ItemNo (all kinds)
	order int64 // OrderNo (ship/pay/test/audit/putcust)
	v     int64 // putcust value / debit-credit amount
}

func (ac action) String() string {
	switch ac.kind {
	case actShip:
		return fmt.Sprintf("ship(%d,%d)", ac.item, ac.order)
	case actPay:
		return fmt.Sprintf("pay(%d,%d)", ac.item, ac.order)
	case actTestShipped:
		return fmt.Sprintf("tsh(%d,%d)", ac.item, ac.order)
	case actTestPaid:
		return fmt.Sprintf("tpd(%d,%d)", ac.item, ac.order)
	case actTotal:
		return fmt.Sprintf("total(%d)", ac.item)
	case actAudit:
		return fmt.Sprintf("audit(%d,%d)", ac.item, ac.order)
	case actGetQOH:
		return fmt.Sprintf("qoh(%d)", ac.item)
	case actPutCust:
		return fmt.Sprintf("cust(%d,%d):=%d", ac.item, ac.order, ac.v)
	case actScanOrders:
		return fmt.Sprintf("scan(%d)", ac.item)
	case actDebit:
		return fmt.Sprintf("debit(%d,%d)", ac.item, ac.v)
	case actCredit:
		return fmt.Sprintf("credit(%d,%d)", ac.item, ac.v)
	}
	return "?"
}

// applyAction executes one action inside tx and returns its
// observation fragment. Expected application outcomes — insufficient
// stock — are folded into the fragment (they are observations, and the
// serial replay must reproduce them); everything else is an error.
func applyAction(a *orderentry.App, tx orderentry.Session, ac action) (string, error) {
	switch ac.kind {
	case actShip, actPay:
		item, err := a.Item(ac.item)
		if err != nil {
			return "", err
		}
		m := orderentry.MShipOrder
		if ac.kind == actPay {
			m = orderentry.MPayOrder
		}
		_, err = tx.Call(item, m, val.OfInt(ac.order))
		return stockFrag(a, tx, item, ac, err)
	case actDebit, actCredit:
		item, err := a.Item(ac.item)
		if err != nil {
			return "", err
		}
		m := orderentry.MDebitStock
		if ac.kind == actCredit {
			m = orderentry.MCreditStock
		}
		_, err = tx.Call(item, m, val.OfInt(ac.v))
		return stockFrag(a, tx, item, ac, err)
	case actTestShipped, actTestPaid:
		order, err := a.Order(ac.item, ac.order)
		if err != nil {
			return "", err
		}
		ev := orderentry.EventShipped
		if ac.kind == actTestPaid {
			ev = orderentry.EventPaid
		}
		v, err := tx.Call(order, orderentry.MTestStatus, val.OfStr(string(ev)))
		if err != nil {
			return "", err
		}
		return fmt.Sprintf("%s=%t", ac, v.Bool()), nil
	case actTotal:
		item, err := a.Item(ac.item)
		if err != nil {
			return "", err
		}
		v, err := tx.Call(item, orderentry.MTotalPayment)
		if err != nil {
			return "", err
		}
		return fmt.Sprintf("%s=%d", ac, v.Int()), nil
	case actAudit:
		// Bypass read: generic Get on the order's status atom, no
		// method invocation at all (paper §1.1 coexistence).
		order, err := a.Order(ac.item, ac.order)
		if err != nil {
			return "", err
		}
		atom, err := a.StatusAtom(order)
		if err != nil {
			return "", err
		}
		v, err := tx.Get(atom)
		if err != nil {
			return "", err
		}
		return fmt.Sprintf("%s=%s", ac, v), nil
	case actGetQOH:
		item, err := a.Item(ac.item)
		if err != nil {
			return "", err
		}
		atom, err := a.QOHAtom(item)
		if err != nil {
			return "", err
		}
		v, err := tx.Get(atom)
		if err != nil {
			return "", err
		}
		return fmt.Sprintf("%s=%d", ac, v.Int()), nil
	case actPutCust:
		// Bypass write: generic Put on the order's customer atom. Its
		// structural inverse (Put of the old value) exercises the
		// generic-operation compensation path during recovery.
		order, err := a.Order(ac.item, ac.order)
		if err != nil {
			return "", err
		}
		atom, err := a.Component(order, orderentry.CompCustomer)
		if err != nil {
			return "", err
		}
		if err := tx.Put(atom, val.OfInt(ac.v)); err != nil {
			return "", err
		}
		return ac.String(), nil
	case actScanOrders:
		item, err := a.Item(ac.item)
		if err != nil {
			return "", err
		}
		set, err := a.Component(item, orderentry.CompOrders)
		if err != nil {
			return "", err
		}
		entries, err := tx.Scan(set)
		if err != nil {
			return "", err
		}
		keys := make([]int64, len(entries))
		for i, e := range entries {
			keys[i] = e.Key.Int()
		}
		sort.Slice(keys, func(i, j int) bool { return keys[i] < keys[j] })
		return fmt.Sprintf("%s=%d%v", ac, len(entries), keys), nil
	}
	return "", fmt.Errorf("chaos: unknown action kind %d", ac.kind)
}

// outcomeFrag folds expected application errors into the observation,
// which the serial replay reproduces.
func outcomeFrag(base, ok string, err error) (string, error) {
	switch {
	case err == nil:
		return base + "=" + ok, nil
	case errors.Is(err, orderentry.ErrInsufficientStock):
		return base + "=stock", nil
	case errors.Is(err, orderentry.ErrNoSuchOrder):
		return base + "=noorder", nil
	default:
		return "", err
	}
}

// stockFrag folds a stock-touching action's outcome and, on a floor
// failure, pins the observation. A failed ship/debit is an observation
// of quantity-on-hand made by a subtransaction that aborts — and an
// aborted subtransaction leaves no lock footprint, so without a pin a
// later CreditStock could commit before this root and the commit-order
// replay would see the higher stock and flip the observation to =ok.
// The pin is a retained read lock on the QOH atom: every subsequent
// stock update then waits for this root, which puts the failure into
// the serialization order the oracle replays. (Before CreditStock
// existed no committed operation ever increased stock, so =stock was
// stable under reordering and no pin was needed.)
func stockFrag(a *orderentry.App, tx orderentry.Session, item oid.OID, ac action, err error) (string, error) {
	frag, ferr := outcomeFrag(ac.String(), "ok", err)
	if ferr != nil || !strings.HasSuffix(frag, "=stock") {
		return frag, ferr
	}
	atom, err := a.QOHAtom(item)
	if err != nil {
		return "", err
	}
	if _, err := tx.Get(atom); err != nil {
		return "", err
	}
	return frag, nil
}

// programOf wraps an executed action prefix into a serial replay
// program: one complete transaction applying the same actions through
// the same applier.
func programOf(acs []action) orderentry.Program {
	return func(a *orderentry.App) (string, error) {
		tx, err := a.Begin()
		if err != nil {
			return "", err
		}
		frags := make([]string, 0, len(acs))
		for _, ac := range acs {
			frag, err := applyAction(a, tx, ac)
			if err != nil {
				_ = tx.Abort()
				return "", err
			}
			frags = append(frags, frag)
		}
		if err := tx.Commit(); err != nil {
			return "", err
		}
		return strings.Join(frags, ";"), nil
	}
}

// gen produces seeded transaction plans. The ship dispenser hands out
// each pre-created order at most once across the whole run: ShipOrder
// has no already-shipped guard (it is the paper's unguarded
// quantity-on-hand decrement), so re-shipping an order would decrement
// QOH twice while the conservation invariant counts it once.
type gen struct {
	rng       *rand.Rand
	cfg       orderentry.Config
	unshipped [][]int64 // per item (0-based), OrderNos not yet dispensed
}

func newGen(rng *rand.Rand, cfg orderentry.Config) *gen {
	g := &gen{rng: rng, cfg: cfg}
	g.unshipped = make([][]int64, cfg.Items)
	for i := 0; i < cfg.Items; i++ {
		pool := make([]int64, cfg.OrdersPerItem)
		for k := 0; k < cfg.OrdersPerItem; k++ {
			pool[k] = int64(i*cfg.OrdersPerItem + k + 1)
		}
		g.unshipped[i] = pool
	}
	return g
}

// anyOrder picks any pre-created order of item (1-based ItemNo).
func (g *gen) anyOrder(item int64) int64 {
	k := g.rng.Intn(g.cfg.OrdersPerItem)
	return (item-1)*int64(g.cfg.OrdersPerItem) + int64(k) + 1
}

// takeShip dispenses an unshipped order of item, or 0 when the item's
// pool is dry.
func (g *gen) takeShip(item int64) int64 {
	pool := g.unshipped[item-1]
	if len(pool) == 0 {
		return 0
	}
	k := g.rng.Intn(len(pool))
	o := pool[k]
	pool[k] = pool[len(pool)-1]
	g.unshipped[item-1] = pool[:len(pool)-1]
	return o
}

// plan generates one root's action list plus its intended outcome
// (wantAbort: voluntarily abort instead of committing, exercising the
// live compensation path against the oracle).
func (g *gen) plan() (acs []action, wantAbort bool) {
	n := 1 + g.rng.Intn(5)
	for i := 0; i < n; i++ {
		item := int64(g.rng.Intn(g.cfg.Items)) + 1
		// Weighted kind choice; ship falls back to pay on a dry pool.
		var kind actionKind
		switch w := g.rng.Intn(20); {
		case w < 3:
			kind = actShip
		case w < 6:
			kind = actPay
		case w < 8:
			kind = actTestShipped
		case w < 10:
			kind = actTestPaid
		case w < 11:
			kind = actTotal
		case w < 12:
			kind = actAudit
		case w < 13:
			kind = actGetQOH
		case w < 14:
			kind = actPutCust
		case w < 15:
			kind = actScanOrders
		case w < 18:
			kind = actDebit
		default:
			kind = actCredit
		}
		ac := action{kind: kind, item: item}
		switch kind {
		case actShip:
			if o := g.takeShip(item); o != 0 {
				ac.order = o
			} else {
				ac.kind = actPay
				ac.order = g.anyOrder(item)
			}
		case actPay, actTestShipped, actTestPaid, actAudit:
			ac.order = g.anyOrder(item)
		case actPutCust:
			ac.order = g.anyOrder(item)
			ac.v = int64(g.rng.Intn(900)) + 100
		case actDebit, actCredit:
			ac.v = int64(g.rng.Intn(3)) + 1
		}
		acs = append(acs, ac)
	}
	return acs, g.rng.Intn(5) == 0
}
