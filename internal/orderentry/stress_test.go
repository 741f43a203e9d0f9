package orderentry

import (
	"fmt"
	"math/rand"
	"sync"
	"testing"

	"semcc/internal/compat"
	"semcc/internal/core"
	"semcc/internal/oid"
	"semcc/internal/serial"
	"semcc/internal/val"
)

// TestRandomizedSerialEquivalence runs small batches of randomly
// chosen transactions concurrently under the semantic protocol and
// verifies each batch against the exhaustive serial-replay checker —
// the strongest correctness test in the repository: it validates the
// whole protocol end-to-end against the paper's definition of
// semantic serializability, with no shared logic between checker and
// engine.
func TestRandomizedSerialEquivalence(t *testing.T) {
	const (
		batches = 25
		txPer   = 4 // 4! = 24 serial orders per batch
	)
	cfg := Config{Items: 3, OrdersPerItem: 3, InitialQOH: 5, Price: 10, OrderQuantity: 1}
	for batch := 0; batch < batches; batch++ {
		rng := rand.New(rand.NewSource(int64(batch) * 977))
		app := newApp(t, core.Semantic, cfg)

		// Build the program set. Programs must be deterministic given
		// database state; ship targets are fixed per program so serial
		// replays ship the same orders.
		progs := make([]Program, txPer)
		for i := range progs {
			progs[i] = randomProgram(rng, i)
		}

		obs := make([]serial.Observation, txPer)
		var wg sync.WaitGroup
		for i := range progs {
			wg.Add(1)
			go func(i int) {
				defer wg.Done()
				// Retry deadlock victims: retried transactions are
				// re-executed from scratch, which is fine — their
				// effects were compensated.
				for {
					s, err := progs[i](app)
					if err == nil {
						obs[i] = serial.Observation{Name: fmt.Sprintf("T%d", i), Obs: s}
						return
					}
					if !isDeadlock(err) {
						t.Errorf("program %d: %v", i, err)
						obs[i] = serial.Observation{Name: fmt.Sprintf("T%d", i), Obs: "ERR"}
						return
					}
				}
			}(i)
		}
		wg.Wait()
		if t.Failed() {
			return
		}

		state, err := app.ConcurrentState()
		if err != nil {
			t.Fatal(err)
		}
		res, err := serial.Check(NewReplayFactory(cfg, progs), obs, state)
		if err != nil {
			t.Fatal(err)
		}
		if !res.Serializable {
			t.Fatalf("batch %d not semantically serializable (tried %d orders):\n%v\nforest:\n%s",
				batch, res.Tried, res.Mismatches, app.DB.Engine().Forest())
		}
	}
}

func isDeadlock(err error) bool {
	for e := err; e != nil; {
		if e == core.ErrDeadlock {
			return true
		}
		u, ok := e.(interface{ Unwrap() error })
		if !ok {
			return false
		}
		e = u.Unwrap()
	}
	return false
}

// randomProgram picks a deterministic transaction program. Item and
// order choices are fixed at build time so every serial replay runs
// the identical program.
func randomProgram(rng *rand.Rand, idx int) Program {
	i1 := int64(rng.Intn(3) + 1)
	i2 := int64(rng.Intn(3) + 1)
	for i2 == i1 {
		i2 = int64(rng.Intn(3) + 1)
	}
	// Pre-created OrderNos are deterministic: items 1..3 get orders
	// 1..3, 4..6, 7..9.
	orderOf := func(item int64, k int) int64 { return (item-1)*3 + int64(k) + 1 }
	o1 := OrderRef{ItemNo: i1, OrderNo: orderOf(i1, rng.Intn(3))}
	o2 := OrderRef{ItemNo: i2, OrderNo: orderOf(i2, rng.Intn(3))}

	switch rng.Intn(6) {
	case 0:
		return func(a *App) (string, error) {
			err := a.T1(o1, o2)
			if err != nil && isInsufficient(err) {
				// Deterministic business failure: same in any serial
				// order with the same prior state? No — stock depends
				// on order. Record the outcome as the observation.
				return "T1:insufficient", nil
			}
			return "T1:ok", err
		}
	case 1:
		return func(a *App) (string, error) { return "", a.T2(o1, o2) }
	case 2:
		return func(a *App) (string, error) {
			x, y, err := a.T3(o1, o2)
			return fmt.Sprintf("T3:%t,%t", x, y), err
		}
	case 3:
		return func(a *App) (string, error) {
			x, y, err := a.T4(o1, o2)
			return fmt.Sprintf("T4:%t,%t", x, y), err
		}
	case 4:
		return func(a *App) (string, error) {
			total, err := a.T5(i1)
			return fmt.Sprintf("T5:%d", total), err
		}
	default:
		return func(a *App) (string, error) {
			vs, err := a.BypassAudit(o1, o2)
			if err != nil {
				return "", err
			}
			return fmt.Sprintf("B:%s,%s", vs[0], vs[1]), nil
		}
	}
}

func isInsufficient(err error) bool {
	for e := err; e != nil; {
		if e == ErrInsufficientStock {
			return true
		}
		u, ok := e.(interface{ Unwrap() error })
		if !ok {
			return false
		}
		e = u.Unwrap()
	}
	return false
}

// TestInverseProfileProperty verifies the compensation-safety property
// DESIGN.md §3.3 relies on: every method's inverse conflicts with at
// most what the forward method conflicts with. (Whatever was granted
// concurrently next to the forward operation therefore also commutes
// with the compensation.)
func TestInverseProfileProperty(t *testing.T) {
	o := val.OfInt(1) // shared OrderNo argument
	type pair struct{ forward, inverse string }
	itemPairs := []pair{
		{MNewOrder, MRemoveOrder},
		{MShipOrder, MUnshipOrder},
		{MPayOrder, MUnpayOrder},
	}
	m := ItemMatrix()
	others := m.Methods()
	objID := testOID()
	for _, p := range itemPairs {
		for _, x := range others {
			fwd := m.Compatible(compat.Inv(objID, mid(p.forward), o), compat.Inv(objID, mid(x), o))
			inv := m.Compatible(compat.Inv(objID, mid(p.inverse), o), compat.Inv(objID, mid(x), o))
			if fwd && !inv {
				t.Errorf("Item: %s commutes with %s but inverse %s does not", p.forward, x, p.inverse)
			}
		}
	}
	om := OrderMatrix()
	ev := evArg(EventShipped)
	for _, x := range om.Methods() {
		for _, xev := range []val.V{evArg(EventShipped), evArg(EventPaid)} {
			fwd := om.Compatible(compat.Inv(objID, mid(MChangeStatus), ev), compat.Inv(objID, mid(x), xev))
			inv := om.Compatible(compat.Inv(objID, mid(MUnchangeStatus), ev), compat.Inv(objID, mid(x), xev))
			if fwd && !inv {
				t.Errorf("Order: ChangeStatus(%s) commutes with %s(%s) but UnchangeStatus does not", ev, x, xev)
			}
		}
	}
}

func testOID() oid.OID { return oid.OID{K: oid.Tuple, N: 4242} }

// TestConcurrentStressAllProtocols hammers each correct protocol with
// a highly contended workload and validates the physical invariants.
func TestConcurrentStressAllProtocols(t *testing.T) {
	if testing.Short() {
		t.Skip("stress test skipped in -short mode")
	}
	for _, kind := range []core.ProtocolKind{core.Semantic, core.ClosedNested, core.TwoPLObject, core.TwoPLPage} {
		kind := kind
		t.Run(kind.String(), func(t *testing.T) {
			cfg := Config{Items: 3, OrdersPerItem: 120, InitialQOH: 10000, Price: 10, OrderQuantity: 1}
			app := newApp(t, kind, cfg)
			var mu sync.Mutex
			var wg sync.WaitGroup
			var shipIdx [3]int64
			for c := 0; c < 8; c++ {
				wg.Add(1)
				go func(c int) {
					defer wg.Done()
					rng := rand.New(rand.NewSource(int64(c)))
					for i := 0; i < 30; i++ {
						i1 := int64(rng.Intn(3) + 1)
						i2 := i1%3 + 1
						op := rng.Intn(4)
						var err error
						for attempt := 0; attempt < 60; attempt++ {
							switch op {
							case 0:
								mu.Lock()
								k1, k2 := shipIdx[i1-1], shipIdx[i2-1]
								shipIdx[i1-1]++
								shipIdx[i2-1]++
								mu.Unlock()
								if k1 >= 120 || k2 >= 120 {
									err = nil
									break
								}
								err = a1Ship(app, i1, k1, i2, k2)
							case 1:
								err = app.T2(
									OrderRef{ItemNo: i1, OrderNo: (i1-1)*120 + int64(rng.Intn(120)) + 1},
									OrderRef{ItemNo: i2, OrderNo: (i2-1)*120 + int64(rng.Intn(120)) + 1})
							case 2:
								_, _, err = app.T4(
									OrderRef{ItemNo: i1, OrderNo: (i1-1)*120 + int64(rng.Intn(120)) + 1},
									OrderRef{ItemNo: i2, OrderNo: (i2-1)*120 + int64(rng.Intn(120)) + 1})
							default:
								_, err = app.T5(i1)
							}
							if err == nil || !isDeadlock(err) {
								break
							}
						}
						if err != nil && !isDeadlock(err) {
							t.Errorf("client %d: %v", c, err)
							return
						}
					}
				}(c)
			}
			wg.Wait()
			if t.Failed() {
				return
			}
			states, err := app.Snapshot()
			if err != nil {
				t.Fatal(err)
			}
			if err := CheckConservation(states, 10000); err != nil {
				t.Fatal(err)
			}
		})
	}
}

func a1Ship(app *App, i1, k1, i2, k2 int64) error {
	return app.T1(OrderRef{ItemNo: i1, OrderNo: (i1-1)*120 + k1 + 1},
		OrderRef{ItemNo: i2, OrderNo: (i2-1)*120 + k2 + 1})
}

// mid is the id of the named Item or Order method (the two types
// declare no name in common).
func mid(name string) compat.Method {
	if id, ok := ItemMatrix().ID(name); ok {
		return id
	}
	id, ok := OrderMatrix().ID(name)
	if !ok {
		panic("orderentry: no method " + name)
	}
	return id
}
