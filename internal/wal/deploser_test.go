package wal

import (
	"fmt"
	"reflect"
	"sync"
	"testing"
	"time"

	"semcc/internal/compat"
	"semcc/internal/core"
	"semcc/internal/oid"
	"semcc/internal/oodb"
	"semcc/internal/serial"
	"semcc/internal/val"
)

// The dependent-loser sweeps. The engine releases a root's locks when
// its outcome record is submitted and acknowledges it when the record
// is durable (core.CommitRoot), so between the two a root T2 can take
// over a lock of a pre-committed root T1 and build on T1's effects.
// These tests build that history on a real store through the engine,
// with the committers held parked by a gate the test owns, cut the
// durable image wherever a crash could cut it, and check what recovery
// makes of every cut.

// Acct is the test's encapsulated type: a tuple with one integer atom
// "Bal". Take and Give are logical inverses of each other implemented
// as Get-then-Put leaves (so an unfinished one holds a physical
// before-image); SetTo is a blind overwrite with no registered inverse
// (its undo is the leaf's before-image, spliced up); Read observes.
// Only Give/Give and Read/Read commute.
const (
	mTake  = "Take"
	mGive  = "Give"
	mSetTo = "SetTo"
	mRead  = "Read"
)

func acctType() *oodb.Type {
	m := compat.NewMatrix("Acct", mTake, mGive, mSetTo, mRead)
	m.Set(mGive, mGive, compat.Always)
	m.Set(mRead, mRead, compat.Always)
	add := func(sign int64) oodb.MethodFunc {
		return func(ctx *oodb.Ctx, recv oid.OID, args []val.V) (val.V, error) {
			bal, err := ctx.Component(recv, "Bal")
			if err != nil {
				return val.NullV, err
			}
			v, err := ctx.Get(bal)
			if err != nil {
				return val.NullV, err
			}
			nv := val.OfInt(v.Int() + sign*args[0].Int())
			return nv, ctx.Put(bal, nv)
		}
	}
	inverse := func(method string) oodb.InverseFunc {
		id, _ := m.ID(method)
		return func(inv compat.Invocation, _ val.V) *compat.Invocation {
			c := compat.Inv(inv.Object, id, inv.Args[0])
			return &c
		}
	}
	return oodb.MustType("Acct", m,
		&oodb.Method{Name: mTake, Body: add(-1), Inverse: inverse(mGive)},
		&oodb.Method{Name: mGive, Body: add(+1), Inverse: inverse(mTake)},
		&oodb.Method{Name: mSetTo, Body: func(ctx *oodb.Ctx, recv oid.OID, args []val.V) (val.V, error) {
			bal, err := ctx.Component(recv, "Bal")
			if err != nil {
				return val.NullV, err
			}
			return val.NullV, ctx.Put(bal, args[0])
		}},
		&oodb.Method{Name: mRead, ReadOnly: true, Body: func(ctx *oodb.Ctx, recv oid.OID, _ []val.V) (val.V, error) {
			bal, err := ctx.Component(recv, "Bal")
			if err != nil {
				return val.NullV, err
			}
			return ctx.Get(bal)
		}},
	)
}

// depWorld is one populated database: accounts X and Y, 10 each.
type depWorld struct {
	db   *oodb.DB
	x, y oid.OID
}

const depOpening = 10

func newDepWorld(t testing.TB, j core.Journal) *depWorld {
	t.Helper()
	db := oodb.Open(oodb.Options{Protocol: core.Semantic, Journal: j})
	if err := db.RegisterType(acctType()); err != nil {
		t.Fatal(err)
	}
	w := &depWorld{db: db}
	for _, o := range []*oid.OID{&w.x, &w.y} {
		bal, err := db.Store().NewAtomic(val.OfInt(depOpening))
		if err != nil {
			t.Fatal(err)
		}
		a, err := db.Store().NewTuple([]string{"Bal"}, map[string]oid.OID{"Bal": bal})
		if err != nil {
			t.Fatal(err)
		}
		if err := db.BindInstance(a, "Acct"); err != nil {
			t.Fatal(err)
		}
		*o = a
	}
	return w
}

// state renders the two balances as stored, outside any transaction.
func (w *depWorld) state(db *oodb.DB) (x, y int64, s string) {
	read := func(a oid.OID) int64 {
		bal, err := db.Component(a, "Bal")
		if err != nil {
			panic(err)
		}
		v, err := db.ReadAtom(bal)
		if err != nil {
			panic(err)
		}
		return v.Int()
	}
	x, y = read(w.x), read(w.y)
	return x, y, fmt.Sprintf("x=%d y=%d", x, y)
}

// The two transaction programs. T1 moves 5 from X to Y through the
// methods with logical inverses (x: 10→5, compensation Give(5)). T2
// moves 3 the same way by overwriting what it read (x: 5→2 when it
// runs on T1's result, undone by the before-image Put(5)). Each
// returns its observation for the serial-replay check.
func progT1(tx *oodb.Tx, w *depWorld) (string, error) {
	nx, err := tx.Call(w.x, mTake, val.OfInt(5))
	if err != nil {
		return "", err
	}
	ny, err := tx.Call(w.y, mGive, val.OfInt(5))
	if err != nil {
		return "", err
	}
	return fmt.Sprintf("x->%d y->%d", nx.Int(), ny.Int()), nil
}

func progT2(tx *oodb.Tx, w *depWorld) (string, error) {
	vx, err := tx.Call(w.x, mRead)
	if err != nil {
		return "", err
	}
	if _, err := tx.Call(w.x, mSetTo, val.OfInt(vx.Int()-3)); err != nil {
		return "", err
	}
	vy, err := tx.Call(w.y, mRead)
	if err != nil {
		return "", err
	}
	if _, err := tx.Call(w.y, mSetTo, val.OfInt(vy.Int()+3)); err != nil {
		return "", err
	}
	return fmt.Sprintf("x=%d y=%d", vx.Int(), vy.Int()), nil
}

var depProgs = []func(*oodb.Tx, *depWorld) (string, error){progT1, progT2}

// depEnv replays the programs serially on a fresh world (serial.Env).
type depEnv struct{ w *depWorld }

func (e depEnv) RunTx(i int) (string, error) {
	tx := e.w.db.Begin()
	obs, err := depProgs[i](tx, e.w)
	if err != nil {
		return "", err
	}
	return obs, tx.Commit()
}

func (e depEnv) FinalState() (string, error) {
	_, _, s := e.w.state(e.w.db)
	return s, nil
}

// cutJournal is the journal of the sweeps. Records go to a real
// group-mode Log, which frames them into the durable image; an outcome
// record's ack is held by the test's gate, so a committer parks — its
// locks released, its record submitted — for as long as the test
// likes. With limit > 0 it is also a crashJournal: the limit-th record
// IS appended and nothing after the Append call runs — the appending
// goroutine panics with errCrash and every other goroutine of the run
// is told through crashed to stop.
type cutJournal struct {
	g     Journal
	limit int

	mu      sync.Mutex
	n       int
	crashed chan struct{}
	gate    chan struct{}
}

func newCutJournal(maxBatch, limit int) *cutJournal {
	return &cutJournal{
		// MaxDelay is effectively infinite, as in runGroupScenario: a
		// batch closes when it fills or at a root outcome, nowhere else.
		g:       New(Config{Mode: ModeGroup, MaxBatch: maxBatch, MaxDelay: time.Hour}),
		limit:   limit,
		crashed: make(chan struct{}),
		gate:    make(chan struct{}),
	}
}

// count counts one record; like crashJournal's, a limit among the
// schema records crashes at the first record after them.
func (j *cutJournal) count(schema bool) {
	j.mu.Lock()
	j.n++
	if schema && j.n == j.limit {
		j.limit++
	}
	hit := j.limit > 0 && j.n == j.limit
	j.mu.Unlock()
	if hit {
		close(j.crashed)
		panic(errCrash)
	}
}

func (j *cutJournal) Append(r core.JournalRecord) {
	j.g.Append(r)
	j.count(r.Kind == core.JSchema)
}

// AppendAck waits for the group writer's own flush before it returns,
// which pins the batch boundary at the outcome record whatever the
// driver does next; the ack it hands the engine is the gate.
func (j *cutJournal) AppendAck(r core.JournalRecord) core.Ack {
	j.g.AppendAck(r).Wait()
	j.count(false)
	return core.Ack{C: j.gate}
}

// depRun is one execution of a shape: a world, its journal, and the
// roots by program index.
type depRun struct {
	w   *depWorld
	j   *cutJournal
	ids [2]uint64 // root id of T1, T2 (0: never began)
	obs [2]string
}

// begin starts program i's root.
func (r *depRun) begin(i int) *oodb.Tx {
	tx := r.w.db.Begin()
	r.ids[i] = tx.Root().ID()
	return tx
}

// work runs program i's body on tx.
func (r *depRun) work(i int, tx *oodb.Tx) {
	obs, err := depProgs[i](tx, r.w)
	if err != nil {
		panic(err)
	}
	r.obs[i] = obs
}

// precommit starts tx's Commit on a goroutine of its own and returns
// once the outcome is observable: the record submitted, the locks
// released, the committer parked on the gate.
func (r *depRun) precommit(tx *oodb.Tx) {
	go func() {
		defer func() {
			if p := recover(); p != nil && p != errCrash {
				panic(p)
			}
		}()
		_ = tx.Commit()
	}()
	select {
	case <-tx.Root().Done():
	case <-r.j.crashed:
		// The crash landed on the commit record itself.
		panic(errCrash)
	}
}

// depShape drives one history. The driver is the only goroutine that
// journals work, and it moves on only after a committer has released,
// so the record sequence is the same on every run.
type depShape struct {
	name string
	run  func(r *depRun)
}

var depShapes = []depShape{
	{
		// T2 takes over from the pre-committed T1 and is still active at
		// the end; cuts inside its SetTo calls leave an incomplete
		// subtransaction holding a before-image.
		name: "t2-active",
		run: func(r *depRun) {
			t1 := r.begin(0)
			r.work(0, t1)
			r.precommit(t1)
			t2 := r.begin(1)
			r.work(1, t2)
		},
	},
	{
		// T2 pre-commits too: two outcomes in flight, the second built
		// on the first.
		name: "t2-precommitted",
		run: func(r *depRun) {
			t1 := r.begin(0)
			r.work(0, t1)
			r.precommit(t1)
			t2 := r.begin(1)
			r.work(1, t2)
			r.precommit(t2)
		},
	},
	{
		// T2 began first and has the smaller root id, yet depends on T1.
		name: "t2-older",
		run: func(r *depRun) {
			t2 := r.begin(1)
			t1 := r.begin(0)
			r.work(0, t1)
			r.precommit(t1)
			r.work(1, t2)
		},
	},
	{
		// No early release at all: T1's Give(X) has subcommitted, T1 is
		// still active, and T2's commuting Give(X) is admitted over
		// T1's retained leaf locks by Fig. 9 case 1. Cut inside T2's
		// Give and T2 holds the before-image of a value T1 produced —
		// the loser order decides the outcome, at a cut the live engine
		// really produces. Neither root ever commits.
		name: "case1-unfinished",
		run: func(r *depRun) {
			t1 := r.begin(0)
			if _, err := t1.Call(r.w.y, mTake, val.OfInt(5)); err != nil {
				panic(err)
			}
			if _, err := t1.Call(r.w.x, mGive, val.OfInt(5)); err != nil {
				panic(err)
			}
			t2 := r.begin(1)
			if _, err := t2.Call(r.w.x, mGive, val.OfInt(3)); err != nil {
				panic(err)
			}
		},
	},
}

// runDep executes shape against a journal that crashes at the limit-th
// record (0: never) and returns the run. The journal's gate is opened
// by the returned release func, which lets the parked committers go.
func runDep(t *testing.T, shape depShape, maxBatch, limit int) (r *depRun, release func()) {
	t.Helper()
	j := newCutJournal(maxBatch, limit)
	r = &depRun{w: newDepWorld(t, j), j: j}
	func() {
		defer func() {
			if p := recover(); p != nil && p != errCrash {
				panic(p)
			}
		}()
		shape.run(r)
	}()
	if limit > 0 {
		select {
		case <-j.crashed:
		default:
			t.Fatalf("%s: crash point %d never reached", shape.name, limit)
		}
	}
	return r, func() { close(j.gate); j.g.Close() }
}

// eachDurableCut calls fn for every prefix of img a crash can leave
// that matters: each complete batch boundary, and one torn write in the
// middle of each frame (which must decode to the boundary before it) —
// the sweep of TestRecoveryAtEveryBatchBoundary.
func eachDurableCut(t *testing.T, img []byte, batches []BatchInfo, fn func(label string, img []byte, cut int)) {
	t.Helper()
	prevEnd, prevOff := 0, 0
	for _, b := range batches {
		if b.EndOff-prevOff > 1 {
			mid := prevOff + (b.EndOff-prevOff)/2
			fn(fmt.Sprintf("torn at byte %d (boundary %d)", mid, prevEnd), img[:mid], prevEnd)
		}
		fn(fmt.Sprintf("boundary %d", b.End), img[:b.EndOff], b.End)
		prevEnd, prevOff = b.End, b.EndOff
	}
}

// TestRecoveryDependentLosersAtEveryCrashCut sweeps every shape: the
// durable image of a full run is cut at every batch boundary and torn
// tail, the store is rebuilt as of the same record boundary (a rerun
// that crashes there — the consistent cut of the other crash sweeps),
// and recovery from the cut must give
//
//	(a) T2 a winner only if T1 is one — a dependent never survives a
//	    crash without its predecessor, because its outcome lies behind
//	    the predecessor's in a log durable in prefixes;
//	(b) a store equal to the serial replay of the winners in commit
//	    order, observations included (serial.ReplayOrder);
//	(c) conservation: the two balances still sum to what they opened
//	    with.
func TestRecoveryDependentLosersAtEveryCrashCut(t *testing.T) {
	batchSizes := []int{1, 2, 3, 5}
	if testing.Short() {
		batchSizes = []int{1, 3}
	}
	for _, shape := range depShapes {
		for _, maxBatch := range batchSizes {
			full, release := runDep(t, shape, maxBatch, 0)
			release()
			recs := full.j.g.Records()
			img := full.j.g.DurableBytes()
			_, batches, err := UnmarshalDurable(img)
			if err != nil {
				t.Fatalf("%s/%d: %v", shape.name, maxBatch, err)
			}
			var ends []int
			for _, b := range batches {
				ends = append(ends, b.End)
			}
			if want := expectedBoundaries(recs, maxBatch); !reflect.DeepEqual(ends, want) {
				t.Fatalf("%s/%d: batch boundaries %v, want %v", shape.name, maxBatch, ends, want)
			}

			eachDurableCut(t, img, batches, func(label string, img []byte, cut int) {
				label = fmt.Sprintf("%s, maxBatch %d, %s/%d", shape.name, maxBatch, label, len(recs))
				recovered, _, err := UnmarshalDurable(img)
				if err != nil {
					t.Fatalf("%s: decode: %v", label, err)
				}
				if recovered.Len() != cut {
					t.Fatalf("%s: decoded %d records, want %d", label, recovered.Len(), cut)
				}
				// The store as of record boundary cut. Boundary 0 reruns
				// to the first record, a JBeginRoot with no store effect.
				limit := cut
				if cut == 0 {
					limit = 1
				} else if cut == len(recs) {
					limit = 0
				}
				r, release := runDep(t, shape, maxBatch, limit)
				defer release()
				db2 := oodb.Reopen(r.w.db, oodb.Options{Protocol: core.Semantic})
				a, err := Recover(db2, recovered)
				if err != nil {
					t.Fatalf("%s: recover: %v", label, err)
				}

				won := map[uint64]bool{}
				for _, id := range a.Committed {
					won[id] = true
				}
				t1won, t2won := won[r.ids[0]], r.ids[1] != 0 && won[r.ids[1]]
				if t2won && !t1won {
					t.Errorf("%s: T2 is a winner without T1 (committed %v)", label, a.Committed)
				}
				// T2's conflicting work follows T1's outcome in every shape,
				// so T1, T2 is the commit order whenever both won.
				var order []int
				if t1won {
					order = append(order, 0)
				}
				if t2won {
					order = append(order, 1)
				}
				x, y, got := r.w.state(db2)
				obs := []serial.Observation{{Name: "T1", Obs: r.obs[0]}, {Name: "T2", Obs: r.obs[1]}}
				fresh := func() (serial.Env, error) { return depEnv{newDepWorld(t, nil)}, nil }
				ok, why, err := serial.ReplayOrder(fresh, obs, got, order)
				if err != nil {
					t.Fatalf("%s: serial replay: %v", label, err)
				}
				if !ok {
					t.Errorf("%s: recovered store %q is not the serial replay of winners %v: %s", label, got, order, why)
				}
				if x+y != 2*depOpening {
					t.Errorf("%s: conservation violated: %s", label, got)
				}
			})
		}
	}
}

// TestRecoveryDependentLoserOrderPinned pins the loser order itself on
// the x: 10→5→2 example. T1 takes 5 from X (10→5, compensation
// Give(5)) and pre-commits; T2 overwrites X with 2 (before-image
// Put(5)) and is active at the crash. The journal handed to recovery
// has lost T1's outcome record but kept T2's work — a state no prefix
// cut of the real log reaches (the sweep above shows T1 wins whenever
// T2's work is durable), constructed here so that both roots are
// losers with T2 built on T1. Undoing T1 first would leave X at 5
// (Give: 2→7, then T2's Put(5)); undoing in descending journal
// position restores 10 — with either root holding the smaller id.
func TestRecoveryDependentLoserOrderPinned(t *testing.T) {
	for _, name := range []string{"t2-active", "t2-older"} {
		var shape depShape
		for _, s := range depShapes {
			if s.name == name {
				shape = s
			}
		}
		t.Run(name, func(t *testing.T) {
			r, release := runDep(t, shape, 64, 0)
			defer release()
			if x, _, s := r.w.state(r.w.db); x != 2 {
				t.Fatalf("history did not reach x=2: %s", s)
			}
			lost := NewLog()
			for _, rec := range r.j.g.Records() {
				if rec.Kind == core.JRootCommit && rec.Node == r.ids[0] {
					continue
				}
				lost.Append(rec)
			}
			a, err := Analyze(lost)
			if err != nil {
				t.Fatal(err)
			}
			if len(a.Losers) != 2 {
				t.Fatalf("losers = %+v, want T1 and T2", a.Losers)
			}
			if a.Losers[0].Root != r.ids[1] || a.Losers[1].Root != r.ids[0] {
				t.Errorf("losers = %+v, want T2 (root %d) before T1 (root %d)", a.Losers, r.ids[1], r.ids[0])
			}
			db2 := oodb.Reopen(r.w.db, oodb.Options{Protocol: core.Semantic})
			if _, err := Recover(db2, lost); err != nil {
				t.Fatal(err)
			}
			if x, y, s := r.w.state(db2); x != depOpening || y != depOpening {
				t.Fatalf("recovered %s, want x=%d y=%d", s, depOpening, depOpening)
			}
		})
	}
}
