package wal

import (
	"bytes"
	"fmt"
	"reflect"
	"testing"
	"time"

	"semcc/internal/core"
	"semcc/internal/oodb"
	"semcc/internal/orderentry"
)

// runGroupScenario drives the crash scenario on a database journaled
// by a writer-mode Log with the given batch size, then closes the log (the
// clean-shutdown flush) and returns it. MaxDelay is effectively
// infinite so the timer never perturbs batch boundaries: in this
// single-goroutine run a flush happens exactly when a batch fills or a
// root outcome demands durability, which makes the boundaries
// deterministic.
func runGroupScenario(t *testing.T, cfg orderentry.Config, maxBatch int, mode Mode) Journal {
	t.Helper()
	g := New(Config{Mode: mode, MaxBatch: maxBatch, MaxDelay: time.Hour})
	db := oodb.Open(oodb.Options{Protocol: core.Semantic, Journal: g})
	app, err := orderentry.Setup(db, cfg)
	if err != nil {
		t.Fatal(err)
	}
	if err := crashScenario(db, app); err != nil {
		t.Fatal(err)
	}
	g.Close()
	return g
}

// expectedBoundaries derives the deterministic batch boundaries of a
// single-goroutine run from the record sequence: a batch closes when
// it reaches maxBatch records or at a root outcome (the urgent
// commit-ack submissions), and Close flushes any partial tail.
func expectedBoundaries(recs []core.JournalRecord, maxBatch int) []int {
	roots := make(map[uint64]bool)
	for _, r := range recs {
		if r.Kind == core.JBeginRoot {
			roots[r.Node] = true
		}
	}
	var ends []int
	count := 0
	for i, r := range recs {
		count++
		urgent := r.Kind == core.JRootCommit || (r.Kind == core.JNodeAborted && roots[r.Node])
		if urgent || count == maxBatch {
			ends = append(ends, i+1)
			count = 0
		}
	}
	if count > 0 {
		ends = append(ends, len(recs))
	}
	return ends
}

// TestBatchBoundariesDeterministic pins the framing the crash
// sweep below relies on: the group log journals the same record
// sequence as the sync baseline, flushes exactly at the predicted
// boundaries, and its flat serialisation is byte-identical to a sync
// log holding the same records.
func TestBatchBoundariesDeterministic(t *testing.T) {
	cfg := orderentry.DefaultConfig()
	dryRecs, _ := dryRun(t, cfg)
	for _, maxBatch := range []int{1, 3, 8} {
		g := runGroupScenario(t, cfg, maxBatch, ModeGroup)
		gl, batches, err := UnmarshalDurable(g.DurableBytes())
		if err != nil {
			t.Fatalf("maxBatch %d: %v", maxBatch, err)
		}
		// The codec is injective, so byte-identical flat serialisation
		// means an identical record sequence. (In-memory and decoded
		// records are not DeepEqual-comparable — value representations
		// normalise through the codec.)
		sync := NewLog()
		for _, r := range dryRecs {
			sync.Append(r)
		}
		if gl.Len() != len(dryRecs) || !bytes.Equal(gl.Marshal(), sync.Marshal()) {
			t.Fatalf("maxBatch %d: group journal (%d records) diverges from the sync baseline (%d records)",
				maxBatch, gl.Len(), len(dryRecs))
		}
		want := expectedBoundaries(dryRecs, maxBatch)
		got := make([]int, len(batches))
		for i, b := range batches {
			got[i] = b.End
		}
		if !reflect.DeepEqual(got, want) {
			t.Fatalf("maxBatch %d: batch boundaries %v, want %v", maxBatch, got, want)
		}
	}
}

// TestRecoveryAtEveryBatchBoundary is the group-commit analogue of
// TestRecoveryAtEveryRecordBoundary: the crash model exposes a
// batch-aligned consistent cut — the durable image's complete frames
// plus the store at that same record boundary — and recovery from it
// must land on the serial-prefix reference. Torn writes are swept too:
// every byte-level truncation of the image must decode to the last
// complete frame, and recovery from a mid-frame tear equals recovery
// from the boundary before it.
func TestRecoveryAtEveryBatchBoundary(t *testing.T) {
	cfg := orderentry.DefaultConfig()
	refInitial, refWinner := refStates(t, cfg)
	dryRecs, rootCommitIdx := dryRun(t, cfg)
	total := len(dryRecs)

	// recoverAndCheck rebuilds the store at record boundary cut,
	// recovers from the given journal prefix image, and compares
	// against the serial-prefix reference.
	recoverAndCheck := func(label string, img []byte, cut int) {
		t.Helper()
		recovered, _, err := UnmarshalDurable(img)
		if err != nil {
			t.Fatalf("%s: decode: %v", label, err)
		}
		if recovered.Len() != cut {
			t.Fatalf("%s: decoded %d records, want %d", label, recovered.Len(), cut)
		}
		db, _ := crashAt(t, cfg, cut, total)
		db2 := oodb.Reopen(db, oodb.Options{Protocol: core.Semantic})
		if _, err := Recover(db2, recovered); err != nil {
			t.Fatalf("%s: recover: %v", label, err)
		}
		app2, err := orderentry.Attach(db2)
		if err != nil {
			t.Fatalf("%s: attach: %v", label, err)
		}
		states := snapshotOf(t, app2)
		if err := orderentry.CheckConservation(states, int64(cfg.InitialQOH)); err != nil {
			t.Errorf("%s: conservation violated after recovery: %v", label, err)
		}
		want, name := refInitial, "initial"
		if cut >= rootCommitIdx {
			want, name = refWinner, "winner"
		}
		if !reflect.DeepEqual(states, want) {
			t.Errorf("%s: recovered state diverges from the %s reference:\n got %+v\nwant %+v",
				label, name, states, want)
		}
	}

	batchSizes := []int{2, 3, 5, 8}
	if testing.Short() {
		batchSizes = []int{3, 8}
	}
	for _, maxBatch := range batchSizes {
		g := runGroupScenario(t, cfg, maxBatch, ModeGroup)
		img := g.DurableBytes()
		_, batches, err := UnmarshalDurable(img)
		if err != nil {
			t.Fatalf("maxBatch %d: %v", maxBatch, err)
		}
		if got := batches[len(batches)-1].End; got != total {
			t.Fatalf("maxBatch %d: close flushed %d records, want %d", maxBatch, got, total)
		}

		// Every byte-level truncation decodes to the last complete
		// frame — never an error, never half a batch.
		durableAt := func(x int) (int, int) { // bytes x -> (records, frame end offset)
			end, off := 0, 0
			for _, b := range batches {
				if b.EndOff <= x {
					end, off = b.End, b.EndOff
				}
			}
			return end, off
		}
		for x := 0; x <= len(img); x++ {
			l, torn, err := UnmarshalDurable(img[:x])
			if err != nil {
				t.Fatalf("maxBatch %d: truncation at byte %d: %v", maxBatch, x, err)
			}
			wantEnd, _ := durableAt(x)
			gotEnd := 0
			if len(torn) > 0 {
				gotEnd = torn[len(torn)-1].End
			}
			if gotEnd != wantEnd || l.Len() != wantEnd {
				t.Fatalf("maxBatch %d: truncation at byte %d decodes %d records, want %d",
					maxBatch, x, l.Len(), wantEnd)
			}
		}

		// Full recovery at every complete batch boundary...
		prevOff := 0
		for _, b := range batches {
			recoverAndCheck(
				fmt.Sprintf("maxBatch %d, boundary %d/%d", maxBatch, b.End, total),
				img[:b.EndOff], b.End)
			// ...and from one mid-frame torn write per frame, which
			// recovers the boundary before it.
			if b.EndOff-prevOff > 1 {
				mid := prevOff + (b.EndOff-prevOff)/2
				cut, _ := durableAt(mid)
				recoverAndCheck(
					fmt.Sprintf("maxBatch %d, torn at byte %d (boundary %d)", maxBatch, mid, cut),
					img[:mid], cut)
			}
			prevOff = b.EndOff
		}
	}
}
