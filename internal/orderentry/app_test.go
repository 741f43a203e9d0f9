package orderentry

import (
	"errors"
	"testing"

	"semcc/internal/core"
	"semcc/internal/oodb"
	"semcc/internal/val"
)

func newApp(t *testing.T, kind core.ProtocolKind, cfg Config) *App {
	t.Helper()
	db := oodb.Open(oodb.Options{Protocol: kind, Record: true})
	app, err := Setup(db, cfg)
	if err != nil {
		t.Fatalf("Setup: %v", err)
	}
	return app
}

func TestPopulation(t *testing.T) {
	app := newApp(t, core.Semantic, DefaultConfig())
	states, err := app.Snapshot()
	if err != nil {
		t.Fatalf("Snapshot: %v", err)
	}
	if len(states) != 4 {
		t.Fatalf("items = %d, want 4", len(states))
	}
	for _, is := range states {
		if len(is.Orders) != 2 {
			t.Errorf("item %d has %d orders, want 2", is.ItemNo, len(is.Orders))
		}
		if is.QOH != 1000 {
			t.Errorf("item %d QOH = %d, want 1000", is.ItemNo, is.QOH)
		}
		for _, os := range is.Orders {
			if os.Shipped || os.Paid {
				t.Errorf("order %d not in status new: %+v", os.OrderNo, os)
			}
		}
	}
}

func TestSequentialLifecycle(t *testing.T) {
	for _, kind := range core.Protocols() {
		t.Run(kind.String(), func(t *testing.T) {
			app := newApp(t, kind, DefaultConfig())
			nos1, err := app.OrderNosOf(1)
			if err != nil {
				t.Fatal(err)
			}
			nos2, err := app.OrderNosOf(2)
			if err != nil {
				t.Fatal(err)
			}
			o1 := OrderRef{ItemNo: 1, OrderNo: nos1[0]}
			o2 := OrderRef{ItemNo: 2, OrderNo: nos2[0]}

			if err := app.T1(o1, o2); err != nil {
				t.Fatalf("T1: %v", err)
			}
			if err := app.T2(o1, o2); err != nil {
				t.Fatalf("T2: %v", err)
			}
			s1, s2, err := app.T3(o1, o2)
			if err != nil {
				t.Fatalf("T3: %v", err)
			}
			if !s1 || !s2 {
				t.Errorf("T3 = (%t,%t), want (true,true)", s1, s2)
			}
			p1, p2, err := app.T4(o1, o2)
			if err != nil {
				t.Fatalf("T4: %v", err)
			}
			if !p1 || !p2 {
				t.Errorf("T4 = (%t,%t), want (true,true)", p1, p2)
			}
			total, err := app.T5(1)
			if err != nil {
				t.Fatalf("T5: %v", err)
			}
			if total != 10 { // price 10 × quantity 1, one paid order
				t.Errorf("T5 total = %d, want 10", total)
			}

			states, err := app.Snapshot()
			if err != nil {
				t.Fatal(err)
			}
			if err := CheckConservation(states, 1000); err != nil {
				t.Error(err)
			}
		})
	}
}

func TestNewOrderAndTotal(t *testing.T) {
	app := newApp(t, core.Semantic, DefaultConfig())
	no, err := app.NewOrderTx(3, 42, 5)
	if err != nil {
		t.Fatalf("NewOrderTx: %v", err)
	}
	if no == 0 {
		t.Fatal("NewOrderTx returned OrderNo 0")
	}
	ref := OrderRef{ItemNo: 3, OrderNo: no}
	other := OrderRef{ItemNo: 4, OrderNo: mustNos(t, app, 4)[0]}
	if err := app.T2(ref, other); err != nil {
		t.Fatalf("T2: %v", err)
	}
	total, err := app.T5(3)
	if err != nil {
		t.Fatalf("T5: %v", err)
	}
	if total != 50 { // price 10 × quantity 5
		t.Errorf("total = %d, want 50", total)
	}
}

func TestInsufficientStockAbortsAndCompensates(t *testing.T) {
	cfg := DefaultConfig()
	cfg.InitialQOH = 0 // every ship fails at the QOH check
	app := newApp(t, core.Semantic, cfg)
	nos, err := app.OrderNosOf(1)
	if err != nil {
		t.Fatal(err)
	}
	ref := OrderRef{ItemNo: 1, OrderNo: nos[0]}
	other := OrderRef{ItemNo: 2, OrderNo: mustNos(t, app, 2)[0]}
	err = app.T1(ref, other)
	if !errors.Is(err, ErrInsufficientStock) {
		t.Fatalf("T1 err = %v, want ErrInsufficientStock", err)
	}
	// The ChangeStatus(shipped) that committed inside the failed
	// ShipOrder must have been compensated: the order is back to not
	// shipped.
	shipped, _, err := app.T3(ref, other)
	if err != nil {
		t.Fatalf("T3: %v", err)
	}
	if shipped {
		t.Error("order still marked shipped after aborted ShipOrder")
	}
	if got := app.DB.Engine().Stats().Compensations; got == 0 {
		t.Error("expected compensations > 0")
	}
}

func TestAbortedRootCompensatesCommittedActions(t *testing.T) {
	app := newApp(t, core.Semantic, DefaultConfig())
	nos, _ := app.OrderNosOf(1)
	ref := OrderRef{ItemNo: 1, OrderNo: nos[0]}
	item, _ := app.Item(1)

	tx := app.DB.Begin()
	if _, err := tx.Call(item, MShipOrder, val.OfInt(ref.OrderNo)); err != nil {
		t.Fatalf("ShipOrder: %v", err)
	}
	if err := tx.Abort(); err != nil {
		t.Fatalf("Abort: %v", err)
	}

	states, err := app.Snapshot()
	if err != nil {
		t.Fatal(err)
	}
	if err := CheckConservation(states, 1000); err != nil {
		t.Error(err)
	}
	for _, is := range states {
		if is.ItemNo != 1 {
			continue
		}
		if is.QOH != 1000 {
			t.Errorf("QOH = %d after abort, want 1000", is.QOH)
		}
		for _, os := range is.Orders {
			if os.OrderNo == ref.OrderNo && os.Shipped {
				t.Error("order still shipped after root abort")
			}
		}
	}
}

func mustNos(t *testing.T, app *App, itemNo int64) []int64 {
	t.Helper()
	nos, err := app.OrderNosOf(itemNo)
	if err != nil {
		t.Fatal(err)
	}
	return nos
}

// TestUnchangeStatusWithoutOccurrence: the status atom packs both
// events' counts into one integer, so removing an occurrence that is
// not there would borrow from the other event's count. A direct
// UnchangeStatus of an absent event must fail and leave the status as
// it was.
func TestUnchangeStatusWithoutOccurrence(t *testing.T) {
	app := newApp(t, core.Semantic, DefaultConfig())
	order, err := app.Order(1, mustNos(t, app, 1)[0])
	if err != nil {
		t.Fatal(err)
	}
	status, err := app.StatusAtom(order)
	if err != nil {
		t.Fatal(err)
	}
	for _, step := range []struct {
		method string
		ev     val.Event
		fails  bool
		want   int64
	}{
		{MChangeStatus, EventShipped, false, shippedUnit},
		{MUnchangeStatus, EventPaid, true, shippedUnit},
		{MUnchangeStatus, EventShipped, false, 0},
		{MUnchangeStatus, EventShipped, true, 0},
	} {
		tx := app.DB.Begin()
		_, err := tx.Call(order, step.method, evArg(step.ev))
		if (err != nil) != step.fails {
			t.Fatalf("%s(%s): err = %v, want failure %t", step.method, step.ev, err, step.fails)
		}
		if err := tx.Commit(); err != nil {
			t.Fatal(err)
		}
		if v, err := app.DB.Store().ReadAtomic(status); err != nil || v.Int() != step.want {
			t.Fatalf("after %s(%s): status = %s (%v), want %d", step.method, step.ev, v, err, step.want)
		}
	}
}
