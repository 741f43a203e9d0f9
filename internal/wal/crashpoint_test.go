package wal

import (
	"errors"
	"reflect"
	"sort"
	"testing"

	"semcc/internal/core"
	"semcc/internal/oodb"
	"semcc/internal/orderentry"
	"semcc/internal/val"
)

// errCrash is the sentinel a crashJournal panics with.
var errCrash = errors.New("wal: injected crash")

// crashJournal records appends like a real log and simulates a crash
// by panicking once the limit-th record is durable: the record IS in
// the log, and the instruction after the Append call never runs —
// exactly the window the engine's write-ahead ordering must make
// recoverable. limit 0 never crashes. The schema records the database
// writes while it is set up are no crash point: a limit among them
// crashes at the first record after them.
type crashJournal struct {
	limit int
	recs  []core.JournalRecord
}

func (j *crashJournal) Append(r core.JournalRecord) {
	j.recs = append(j.recs, r)
	if r.Kind == core.JSchema && len(j.recs) == j.limit {
		j.limit++
	}
	if j.limit > 0 && len(j.recs) == j.limit {
		panic(errCrash)
	}
}

// crashScenario is the workload swept by the crash-point test: a
// committing winner followed by a multi-level abort. T0 ships order
// 1@1 and commits. T1 ships 2@2, pays the order T0 shipped, then
// aborts — its rollback runs compensating subtransactions
// (UnpayOrder, UnshipOrder) that journal begin/subcommit/compensated
// records of their own, so cut points land inside every phase of a
// nested abort.
func crashScenario(db *oodb.DB, app *orderentry.App) error {
	nos1, err := app.OrderNosOf(1)
	if err != nil {
		return err
	}
	nos2, err := app.OrderNosOf(2)
	if err != nil {
		return err
	}
	item1, err := app.Item(1)
	if err != nil {
		return err
	}
	item2, err := app.Item(2)
	if err != nil {
		return err
	}

	tx0 := db.Begin()
	if _, err := tx0.Call(item1, orderentry.MShipOrder, val.OfInt(nos1[0])); err != nil {
		return err
	}
	if err := tx0.Commit(); err != nil {
		return err
	}

	tx1 := db.Begin()
	if _, err := tx1.Call(item2, orderentry.MShipOrder, val.OfInt(nos2[0])); err != nil {
		return err
	}
	if _, err := tx1.Call(item1, orderentry.MPayOrder, val.OfInt(nos1[0])); err != nil {
		return err
	}
	return tx1.Abort()
}

// refStates computes the two reference snapshots the crash sweeps
// compare against: the store right after Setup (nothing survived) and
// the store after T0's commit (the only durable winner the scenario
// can leave). Setup is deterministic, so logical snapshots are
// comparable across instances.
func refStates(t *testing.T, cfg orderentry.Config) (initial, winner []orderentry.ItemState) {
	t.Helper()
	{
		db := oodb.Open(oodb.Options{Protocol: core.Semantic})
		app, err := orderentry.Setup(db, cfg)
		if err != nil {
			t.Fatal(err)
		}
		initial = snapshotOf(t, app)
	}
	{
		db := oodb.Open(oodb.Options{Protocol: core.Semantic})
		app, err := orderentry.Setup(db, cfg)
		if err != nil {
			t.Fatal(err)
		}
		nos1, _ := app.OrderNosOf(1)
		item1, _ := app.Item(1)
		tx := db.Begin()
		if _, err := tx.Call(item1, orderentry.MShipOrder, val.OfInt(nos1[0])); err != nil {
			t.Fatal(err)
		}
		if err := tx.Commit(); err != nil {
			t.Fatal(err)
		}
		winner = snapshotOf(t, app)
	}
	return initial, winner
}

// dryRun journals the whole scenario without crashing and returns the
// record sequence plus the 1-based position of T0's JRootCommit
// record — the serial-prefix watershed of the sweeps.
func dryRun(t *testing.T, cfg orderentry.Config) ([]core.JournalRecord, int) {
	t.Helper()
	dry := &crashJournal{}
	db := oodb.Open(oodb.Options{Protocol: core.Semantic, Journal: dry})
	app, err := orderentry.Setup(db, cfg)
	if err != nil {
		t.Fatal(err)
	}
	if err := crashScenario(db, app); err != nil {
		t.Fatal(err)
	}
	rootCommitIdx := 0
	for i, r := range dry.recs {
		if r.Kind == core.JRootCommit {
			rootCommitIdx = i + 1
			break
		}
	}
	if len(dry.recs) < 10 || rootCommitIdx == 0 {
		t.Fatalf("scenario journals %d records, root commit at %d — too small to sweep", len(dry.recs), rootCommitIdx)
	}
	return dry.recs, rootCommitIdx
}

// crashAt reruns the scenario against a journal that panics once the
// cut-th record is appended (cut == total runs to completion) and
// returns the surviving database — the store image the crash model
// pairs with a journal truncated at that record boundary — plus the
// records the journal held at the crash.
func crashAt(t *testing.T, cfg orderentry.Config, cut, total int) (*oodb.DB, []core.JournalRecord) {
	t.Helper()
	j := &crashJournal{limit: cut}
	if cut >= total {
		j.limit = 0
	}
	if cut == 0 {
		// Boundary 0: nothing of the scenario is durable. The first
		// record (tx0's JBeginRoot) has no store effect, so the store
		// image right after it equals the post-Setup store.
		j.limit = 1
	}
	db := oodb.Open(oodb.Options{Protocol: core.Semantic, Journal: j})
	app, err := orderentry.Setup(db, cfg)
	if err != nil {
		t.Fatal(err)
	}
	crashed := false
	func() {
		defer func() {
			switch r := recover(); {
			case r == nil:
			case r == errCrash:
				crashed = true
			default:
				panic(r)
			}
		}()
		if err := crashScenario(db, app); err != nil {
			t.Fatalf("cut %d: scenario failed before crash point: %v", cut, err)
		}
	}()
	if !crashed && cut != 0 && cut < total {
		t.Fatalf("cut %d: crash point never reached", cut)
	}
	return db, j.recs
}

// TestRecoveryAtEveryRecordBoundary truncates the journal at every
// record boundary of the crash scenario and asserts that recovery
// restores a serial-prefix-equivalent state: everything up to the last
// durable top-level commit survives, everything after it is undone.
// The sweep exercises recovery completeness at every durable prefix:
// partial winner work is fully undone, mid-abort compensation resumes
// without double-applying (the compensation-child accounting window),
// and quantity conservation holds throughout. The write-ahead ordering
// itself is pinned separately by TestJournalWriteAheadOfStateTransitions
// in internal/core — its payoff is under concurrency, where a waiter
// woken before the waker's outcome record was durable could journal
// effects the log then attributes to the wrong prefix.
func TestRecoveryAtEveryRecordBoundary(t *testing.T) {
	cfg := orderentry.DefaultConfig()
	refInitial, refWinner := refStates(t, cfg)
	dryRecs, rootCommitIdx := dryRun(t, cfg)
	total := len(dryRecs)

	// Under -short, stride over the sweep but always keep both sides
	// of the watershed and the final record.
	stride := 1
	if testing.Short() {
		stride = 3
	}
	cutSet := map[int]bool{rootCommitIdx - 1: true, rootCommitIdx: true, total: true}
	for k := 1; k <= total; k += stride {
		cutSet[k] = true
	}
	cuts := make([]int, 0, len(cutSet))
	for k := range cutSet {
		if k >= 1 {
			cuts = append(cuts, k)
		}
	}
	sort.Ints(cuts)
	for _, cut := range cuts {
		db, crashRecs := crashAt(t, cfg, cut, total)

		// Restart: the journal prefix crosses the crash in serialised
		// form, the store survives as-is.
		l := NewLog()
		for _, r := range crashRecs {
			l.Append(r)
		}
		recovered, err := Unmarshal(l.Marshal())
		if err != nil {
			t.Fatalf("cut %d: unmarshal: %v", cut, err)
		}
		db2 := oodb.Reopen(db, oodb.Options{Protocol: core.Semantic})
		if _, err := Recover(db2, recovered); err != nil {
			t.Fatalf("cut %d: recover: %v", cut, err)
		}
		app2, err := orderentry.Attach(db2)
		if err != nil {
			t.Fatalf("cut %d: attach: %v", cut, err)
		}
		states := snapshotOf(t, app2)
		if err := orderentry.CheckConservation(states, int64(cfg.InitialQOH)); err != nil {
			t.Errorf("cut %d/%d: conservation violated after recovery: %v", cut, total, err)
		}
		want, name := refInitial, "initial"
		if cut >= rootCommitIdx {
			want, name = refWinner, "winner"
		}
		if !reflect.DeepEqual(states, want) {
			t.Errorf("cut %d/%d: recovered state diverges from the %s reference:\n got %+v\nwant %+v",
				cut, total, name, states, want)
		}
	}
}
