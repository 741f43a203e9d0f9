package wal

import (
	"encoding/binary"
	"reflect"
	"testing"

	"semcc/internal/compat"
	"semcc/internal/core"
	"semcc/internal/oid"
	"semcc/internal/oodb"
	"semcc/internal/orderentry"
	"semcc/internal/val"
)

// crashRig builds a journaled order-entry database.
func crashRig(t *testing.T) (*oodb.DB, *orderentry.App, *Log) {
	t.Helper()
	log := NewLog()
	db := oodb.Open(oodb.Options{Protocol: core.Semantic, Journal: log})
	app, err := orderentry.Setup(db, orderentry.DefaultConfig())
	if err != nil {
		t.Fatal(err)
	}
	return db, app, log
}

// crash simulates a restart: the store survives, everything volatile
// is discarded, and recovery runs against the journal.
func crash(t *testing.T, db *oodb.DB, log *Log) (*oodb.DB, *Analysis) {
	t.Helper()
	// Durability simulation: the journal crosses the crash through
	// its serialised form.
	recovered, err := Unmarshal(log.Marshal())
	if err != nil {
		t.Fatal(err)
	}
	db2 := oodb.Reopen(db, oodb.Options{Protocol: core.Semantic})
	a, err := Recover(db2, recovered)
	if err != nil {
		t.Fatal(err)
	}
	return db2, a
}

func snapshotOf(t *testing.T, app *orderentry.App) []orderentry.ItemState {
	t.Helper()
	states, err := app.Snapshot()
	if err != nil {
		t.Fatal(err)
	}
	return states
}

func TestRecoveryUndoesInFlightTransaction(t *testing.T) {
	db, app, log := crashRig(t)
	nos1, _ := app.OrderNosOf(1)
	nos2, _ := app.OrderNosOf(2)
	item1, _ := app.Item(1)
	item2, _ := app.Item(2)

	// T1 commits: ships order 1@1.
	tx1 := db.Begin()
	if _, err := tx1.Call(item1, orderentry.MShipOrder, val.OfInt(nos1[0])); err != nil {
		t.Fatal(err)
	}
	if err := tx1.Commit(); err != nil {
		t.Fatal(err)
	}

	// T2 in flight at crash: shipped 2@2 and paid 1@1, never commits.
	tx2 := db.Begin()
	if _, err := tx2.Call(item2, orderentry.MShipOrder, val.OfInt(nos2[0])); err != nil {
		t.Fatal(err)
	}
	if _, err := tx2.Call(item1, orderentry.MPayOrder, val.OfInt(nos1[0])); err != nil {
		t.Fatal(err)
	}
	// -- crash --
	db2, analysis := crash(t, db, log)
	if len(analysis.Committed) != 1 {
		t.Fatalf("winners = %v, want 1", analysis.Committed)
	}
	if len(analysis.Losers) != 1 {
		t.Fatalf("losers = %v, want 1", analysis.Losers)
	}
	if got := len(analysis.Losers[0].Pending); got != 2 {
		t.Fatalf("pending compensations = %d, want 2 (UnshipOrder, UnpayOrder)", got)
	}

	// Post-recovery state: T1's ship survived; T2's work is gone.
	app2, err := orderentry.Attach(db2)
	if err != nil {
		t.Fatal(err)
	}
	states := snapshotOf(t, app2)
	if err := orderentry.CheckConservation(states, 1000); err != nil {
		t.Fatal(err)
	}
	for _, is := range states {
		for _, os := range is.Orders {
			switch {
			case is.ItemNo == 1 && os.OrderNo == nos1[0]:
				if !os.Shipped || os.Paid {
					t.Errorf("order 1@1 = %+v, want shipped-only", os)
				}
			default:
				if os.Shipped || os.Paid {
					t.Errorf("order %d@%d = %+v, want untouched", os.OrderNo, is.ItemNo, os)
				}
			}
		}
		if is.ItemNo == 1 && is.QOH != 999 {
			t.Errorf("item 1 QOH = %d, want 999", is.QOH)
		}
		if is.ItemNo == 2 && is.QOH != 1000 {
			t.Errorf("item 2 QOH = %d, want 1000 (T2 undone)", is.QOH)
		}
	}
}

func TestRecoveryCompletesPartialAbort(t *testing.T) {
	// A transaction was mid-abort at crash time: one compensation had
	// already run. Recovery must apply only the remaining ones.
	db, app, log := crashRig(t)
	nos1, _ := app.OrderNosOf(1)
	nos2, _ := app.OrderNosOf(2)
	item1, _ := app.Item(1)
	item2, _ := app.Item(2)

	tx := db.Begin()
	if _, err := tx.Call(item1, orderentry.MShipOrder, val.OfInt(nos1[0])); err != nil {
		t.Fatal(err)
	}
	if _, err := tx.Call(item2, orderentry.MShipOrder, val.OfInt(nos2[0])); err != nil {
		t.Fatal(err)
	}
	// Start the abort for real (both compensations run), then edit the
	// journal to look like the crash hit after the FIRST compensation:
	// drop everything from the second compensation's Begin onwards.
	if err := tx.Abort(); err != nil {
		t.Fatal(err)
	}
	recs := log.Records()
	cut := -1
	compensated := 0
	for i, r := range recs {
		if r.Kind == core.JCompensated {
			compensated++
			if compensated == 1 {
				cut = i + 1
				break
			}
		}
	}
	if cut < 0 {
		t.Fatal("no compensation records in journal")
	}
	truncated := NewLog()
	for _, r := range recs[:cut] {
		truncated.Append(r)
	}

	// The "disk" state corresponding to that cut: re-build it by
	// replaying the same scenario on a twin database and crashing
	// after the first compensation. Simpler: recover the truncated log
	// against the CURRENT store — the second compensation has already
	// run here, so applying it again would double-undo. This is
	// exactly what JCompensated prevents: verify the analysis only
	// contains the *second* pending compensation and skip execution.
	a, err := Analyze(truncated)
	if err != nil {
		t.Fatal(err)
	}
	if len(a.Losers) != 1 {
		t.Fatalf("losers = %+v", a.Losers)
	}
	if got := len(a.Losers[0].Pending); got != 1 {
		t.Fatalf("pending after partial abort = %d, want 1", got)
	}
	// The pending compensation is the first ShipOrder's inverse
	// (undo runs in reverse order: second ship was compensated first).
	if m := orderentry.ItemMatrix().Name(a.Losers[0].Pending[0].Method); m != orderentry.MUnshipOrder {
		t.Errorf("pending = %s, want UnshipOrder", m)
	}
}

func TestRecoveryIdempotentStateAfterCheckpoint(t *testing.T) {
	db, app, log := crashRig(t)
	nos1, _ := app.OrderNosOf(1)
	item1, _ := app.Item(1)
	tx := db.Begin()
	if _, err := tx.Call(item1, orderentry.MShipOrder, val.OfInt(nos1[0])); err != nil {
		t.Fatal(err)
	}
	// crash with tx in flight
	db2, _ := crash(t, db, log)
	log.Reset() // checkpoint

	// A second crash+recovery with the truncated log is a no-op.
	db3 := oodb.Reopen(db2, oodb.Options{})
	a, err := Recover(db3, log)
	if err != nil {
		t.Fatal(err)
	}
	if len(a.Losers) != 0 || len(a.Committed) != 0 {
		t.Fatalf("post-checkpoint analysis not empty: %+v", a)
	}
	app3, err := orderentry.Attach(db3)
	if err != nil {
		t.Fatal(err)
	}
	states := snapshotOf(t, app3)
	if err := orderentry.CheckConservation(states, 1000); err != nil {
		t.Fatal(err)
	}
}

func TestLogMarshalRoundTrip(t *testing.T) {
	db, app, log := crashRig(t)
	nos1, _ := app.OrderNosOf(1)
	item1, _ := app.Item(1)
	tx := db.Begin()
	if _, err := tx.Call(item1, orderentry.MShipOrder, val.OfInt(nos1[0])); err != nil {
		t.Fatal(err)
	}
	if err := tx.Commit(); err != nil {
		t.Fatal(err)
	}
	tx = db.Begin()
	if _, err := tx.Call(item1, orderentry.MPayOrder, val.OfInt(nos1[0])); err != nil {
		t.Fatal(err)
	}
	if err := tx.Abort(); err != nil {
		t.Fatal(err)
	}

	got, err := Unmarshal(log.Marshal())
	if err != nil {
		t.Fatal(err)
	}
	a, b := log.Records(), got.Records()
	if len(a) != len(b) {
		t.Fatalf("record counts differ: %d vs %d", len(a), len(b))
	}
	for i := range a {
		if a[i].Kind != b[i].Kind || a[i].Node != b[i].Node || a[i].Parent != b[i].Parent || a[i].Splice != b[i].Splice {
			t.Fatalf("record %d differs: %+v vs %+v", i, a[i], b[i])
		}
		if (a[i].Inv == nil) != (b[i].Inv == nil) {
			t.Fatalf("record %d inverse presence differs", i)
		}
		if a[i].Inv != nil && a[i].Inv.String() != b[i].Inv.String() {
			t.Fatalf("record %d inverse differs: %s vs %s", i, a[i].Inv, b[i].Inv)
		}
	}
}

func TestUnmarshalErrors(t *testing.T) {
	for _, b := range [][]byte{nil, {0x01}, {0x02, 0x00}, {0x01, 0x00, 0x00}} {
		if _, err := Unmarshal(b); err == nil {
			t.Errorf("Unmarshal(%v) succeeded", b)
		}
	}
}

// TestAnalyzeLoserOrderDeterministic pins both halves of the order
// recovery compensates in. Within a loser: equal-depth sibling nodes
// used to be ordered by Go's random map iteration, so two Analyze runs
// over the same log could emit their (non-commuting) inverses in
// different orders; the begin-sequence tie-break must put the youngest
// sibling's undo first, every time. Across losers: descending journal
// position of each tree's last record — the root that wrote last is
// undone first, whatever its id (see sortLosers).
func TestAnalyzeLoserOrderDeterministic(t *testing.T) {
	invA := compat.Inv(oid.OID{K: oid.Tuple, N: 100}, mUndoA, val.OfInt(1))
	invB := compat.Inv(oid.OID{K: oid.Tuple, N: 200}, mUndoB, val.OfInt(2))
	invC := compat.Inv(oid.OID{K: oid.Tuple, N: 300}, mUndoC, val.OfInt(3))

	// Root 1 with two in-flight children at depth 1: node 2 (older,
	// holds inverse A via its committed child 4) and node 3 (younger,
	// holds inverse B via its committed child 5). The crash leaves
	// 1, 2 and 3 Active. Root 6 began before root 1's last record and
	// wrote after it; root 9 began last and wrote nothing else.
	l := NewLog()
	l.Append(core.JournalRecord{Kind: core.JBeginRoot, Node: 1})
	l.Append(core.JournalRecord{Kind: core.JBegin, Node: 2, Parent: 1})
	l.Append(core.JournalRecord{Kind: core.JBegin, Node: 4, Parent: 2})
	l.Append(core.JournalRecord{Kind: core.JSubCommit, Node: 4, Inv: &invA})
	l.Append(core.JournalRecord{Kind: core.JBeginRoot, Node: 6})
	l.Append(core.JournalRecord{Kind: core.JBegin, Node: 3, Parent: 1})
	l.Append(core.JournalRecord{Kind: core.JBegin, Node: 5, Parent: 3})
	l.Append(core.JournalRecord{Kind: core.JSubCommit, Node: 5, Inv: &invB}) // root 1's last record: 7
	l.Append(core.JournalRecord{Kind: core.JBeginRoot, Node: 9})             // root 9's last record: 8
	l.Append(core.JournalRecord{Kind: core.JBegin, Node: 7, Parent: 6})
	l.Append(core.JournalRecord{Kind: core.JSubCommit, Node: 7, Inv: &invC}) // root 6's last record: 10

	// UndoB first: node 3 began after node 2, and the engine unwinds
	// the youngest work first. Repeat to flush out map-order luck.
	for i := 0; i < 25; i++ {
		a, err := Analyze(l)
		if err != nil {
			t.Fatal(err)
		}
		var order, last []int
		for _, lo := range a.Losers {
			order, last = append(order, int(lo.Root)), append(last, lo.Last)
		}
		if !reflect.DeepEqual(order, []int{6, 9, 1}) || !reflect.DeepEqual(last, []int{10, 8, 7}) {
			t.Fatalf("run %d: losers %v at positions %v, want [6 9 1] at [10 8 7]", i, order, last)
		}
		pend := a.Losers[2].Pending
		if len(pend) != 2 || pend[0].Method != mUndoB || pend[1].Method != mUndoA {
			t.Fatalf("run %d: pending = %v, want [UndoB UndoA]", i, pend)
		}
	}
}

// TestUnmarshalCorruptLengths feeds Unmarshal length fields that are
// valid varints but lie about the input: each must fail cleanly
// instead of panicking or allocating unbounded memory.
func TestUnmarshalCorruptLengths(t *testing.T) {
	// Helper: the fixed prefix of a single record carrying an
	// invocation, up to (not including) the method id.
	invPrefix := func() []byte {
		b := binary.AppendUvarint(nil, 1)    // record count
		b = append(b, byte(core.JSubCommit)) // kind
		b = binary.AppendUvarint(b, 7)       // node
		b = binary.AppendUvarint(b, 1)       // parent
		b = append(b, 0)                     // splice
		b = append(b, 1)                     // has invocation
		b = append(b, byte(oid.Tuple))       // object kind
		b = binary.AppendUvarint(b, 9)       // object number
		return b
	}

	cases := map[string][]byte{
		"huge record count":       binary.AppendUvarint(nil, 1<<40),
		"invalid kind":            append(binary.AppendUvarint(nil, 1), 200),
		"method id past one byte": binary.AppendUvarint(invPrefix(), 256),
		"huge argument count": binary.AppendUvarint(
			binary.AppendUvarint(invPrefix(), 8), 1<<40),
		"huge argument length": binary.AppendUvarint(binary.AppendUvarint(
			binary.AppendUvarint(invPrefix(), 8), 1), 1<<40),
	}
	for name, b := range cases {
		if _, err := Unmarshal(b); err == nil {
			t.Errorf("%s: Unmarshal(%v) succeeded", name, b)
		}
	}
}

// TestResetRefillsInPlace pins the epoch behaviour of the journal, with
// and without a writer: a Reset leaves an empty journal that keeps the
// memory its buffers grew to — regrowing them every epoch cost several
// times the journal's own bytes, an amount that moved with the growth
// step the epoch's length fell into — and nothing of the old epoch shows
// in the next one.
func TestResetRefillsInPlace(t *testing.T) {
	const n = 2000
	for _, mode := range []Mode{ModeSync, ModeGroup} {
		t.Run(mode.String(), func(t *testing.T) {
			j := New(Config{Mode: mode})
			defer j.Close()
			epoch := func(first uint64) []core.JournalRecord {
				for i := first; i < first+n; i++ {
					j.Append(core.JournalRecord{Kind: core.JBegin, Node: i, Parent: i / 2})
				}
				j.Sync()
				log, _, err := UnmarshalDurable(j.DurableBytes())
				if err != nil {
					t.Fatal(err)
				}
				if got := log.Records(); !reflect.DeepEqual(got, j.Records()) || len(got) != n || got[0].Node != first {
					t.Fatalf("epoch from %d: image holds %d records, journal %d", first, len(got), j.Len())
				}
				return log.Records()
			}
			epoch(1)
			j.Reset()
			if j.Len() != 0 || len(j.DurableBytes()) != 0 || j.Stats() != (JournalStats{}) {
				t.Fatalf("after Reset: %d records, %d image bytes, %+v", j.Len(), len(j.DurableBytes()), j.Stats())
			}
			l := j.(*Log)
			recs, image := cap(l.recs), cap(l.durable)
			if recs < n || image < n {
				t.Fatalf("Reset dropped the buffers: room for %d records and %d image bytes left", recs, image)
			}
			epoch(n + 1)
		})
	}
}
