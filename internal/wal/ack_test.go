package wal

import (
	"fmt"
	"sync"
	"testing"
	"time"

	"semcc/internal/core"
	"semcc/internal/oid"
	"semcc/internal/oodb"
	"semcc/internal/val"
)

// durableOutcome reports whether the durable image holds a JRootCommit
// for root id.
func durableOutcome(t *testing.T, j Journal, id uint64) bool {
	t.Helper()
	l, _, err := UnmarshalDurable(j.DurableBytes())
	if err != nil {
		t.Fatalf("decode durable image: %v", err)
	}
	return hasRootCommit(l, id)
}

// hasRootCommit reports whether l holds a JRootCommit for root id.
func hasRootCommit(l *Log, id uint64) bool {
	for _, r := range l.RecordsFrom(0) {
		if r.Kind == core.JRootCommit && r.Node == id {
			return true
		}
	}
	return false
}

// TestCommitAckDurability is the commit-ACK contract under real
// concurrency (run it with -race): N goroutines commit top-level
// transactions on disjoint objects, and in the sync and group modes
// each one must find its own JRootCommit record in the durable image
// the moment Commit returns — the write-ahead guarantee the engine's
// ack parking provides. Small batch and delay knobs keep the group
// writer flushing under contention rather than degenerating to
// per-commit flushes.
func TestCommitAckDurability(t *testing.T) {
	for _, mode := range []Mode{ModeSync, ModeGroup} {
		t.Run(mode.String(), func(t *testing.T) {
			j := New(Config{Mode: mode, MaxBatch: 8, MaxDelay: 100 * time.Microsecond})
			defer j.Close()
			db := oodb.Open(oodb.Options{Protocol: core.Semantic, Journal: j})

			const goroutines, commits = 8, 6
			objs := make([]oid.OID, goroutines)
			for i := range objs {
				a, err := db.Store().NewAtomic(val.OfInt(0))
				if err != nil {
					t.Fatal(err)
				}
				objs[i] = a
			}

			errs := make(chan error, goroutines*commits)
			var wg sync.WaitGroup
			for i := 0; i < goroutines; i++ {
				wg.Add(1)
				go func(i int) {
					defer wg.Done()
					for c := 0; c < commits; c++ {
						tx := db.Begin()
						id := tx.Root().ID()
						if err := tx.Put(objs[i], val.OfInt(int64(c))); err != nil {
							errs <- fmt.Errorf("goroutine %d commit %d: put: %w", i, c, err)
							return
						}
						if err := tx.Commit(); err != nil {
							errs <- fmt.Errorf("goroutine %d commit %d: %w", i, c, err)
							return
						}
						if !durableOutcome(t, j, id) {
							errs <- fmt.Errorf("goroutine %d commit %d: root %d acked but not durable", i, c, id)
							return
						}
					}
				}(i)
			}
			wg.Wait()
			close(errs)
			for err := range errs {
				t.Error(err)
			}
		})
	}
}

// TestAsyncAckBeforeFlush pins the async mode's weaker contract from
// both sides, deterministically: with a batch that can never fill and
// a delay that can never elapse, Commit returns with the outcome
// acknowledged but NOT in the durable image (the crash window async
// mode accepts by design), the record's position in the journal order
// is nevertheless fixed, and a Sync barrier makes everything durable.
func TestAsyncAckBeforeFlush(t *testing.T) {
	g := New(Config{Mode: ModeAsync, MaxBatch: 1 << 12, MaxDelay: time.Hour})
	defer g.Close()
	db := oodb.Open(oodb.Options{Protocol: core.Semantic, Journal: g})

	const n = 8
	ids := make([]uint64, n)
	for i := 0; i < n; i++ {
		a, err := db.Store().NewAtomic(val.OfInt(0))
		if err != nil {
			t.Fatal(err)
		}
		tx := db.Begin()
		ids[i] = tx.Root().ID()
		if err := tx.Put(a, val.OfInt(1)); err != nil {
			t.Fatal(err)
		}
		if err := tx.Commit(); err != nil {
			t.Fatal(err)
		}
		if durableOutcome(t, g, ids[i]) {
			t.Fatalf("commit %d: outcome durable before any flush trigger — async mode flushed early", i)
		}
	}
	if got := g.Stats(); got.Durable != 0 || got.Records == 0 {
		t.Fatalf("stats = %+v, want submitted records and an empty durable image", got)
	}

	g.Sync()
	for i, id := range ids {
		if !durableOutcome(t, g, id) {
			t.Fatalf("commit %d (root %d): outcome missing after Sync", i, id)
		}
	}
	if got := g.Stats(); got.Durable != got.Records {
		t.Fatalf("stats after Sync = %+v, want fully durable", got)
	}
}

// TestDurablePrefixOrdersLockSuccessors is the other half of the
// commit-ACK contract (run it with -race): the engine hands a root's
// locks on when its outcome is *submitted*, so under contention a
// successor runs while its predecessor's record is still on its way to
// the device. What keeps that safe is the journal's prefix property.
// Eight committers overwrite one hot atom through a group log whose
// flushes park; every durable image sampled while they run must decode
// to a history in which each root's conflicting work is preceded by
// the outcome of every root that held the lock before it — hence every
// committed root's lock predecessors are committed too — and each
// Commit must still find its own outcome durable on return. Nothing
// here can deadlock (one lock per root).
func TestDurablePrefixOrdersLockSuccessors(t *testing.T) {
	j := New(Config{Mode: ModeGroup, MaxBatch: 8, MaxDelay: 100 * time.Microsecond,
		FlushDelay: 200 * time.Microsecond, DeviceSleep: true})
	defer j.Close()
	db := oodb.Open(oodb.Options{Protocol: core.Semantic, Journal: j})
	hot, err := db.Store().NewAtomic(val.OfInt(0))
	if err != nil {
		t.Fatal(err)
	}

	// checkImage decodes one durable image and walks it in journal
	// order: holders lists the roots in the order they were granted the
	// hot atom's lock (a root journals its Put only once granted). A Put
	// is found by its subcommit, whose inverse names the hot atom, and
	// attributed to its root through the node's JBegin. It returns how
	// many roots the image holds committed, each of which must have put.
	checkImage := func(img []byte) (int, error) {
		l, _, err := UnmarshalDurable(img)
		if err != nil {
			return 0, fmt.Errorf("decode durable image: %w", err)
		}
		committed := make(map[uint64]bool)
		parent := make(map[uint64]uint64)
		put := make(map[uint64]bool)
		var holders []uint64
		for i, r := range l.RecordsFrom(0) {
			switch {
			case r.Kind == core.JRootCommit:
				committed[r.Node] = true
			case r.Kind == core.JBegin:
				parent[r.Node] = r.Parent
			case r.Kind == core.JSubCommit && r.Inv != nil && r.Inv.Object == hot:
				root, ok := parent[r.Node]
				if !ok {
					return 0, fmt.Errorf("record %d: subcommit of %d without its begin", i, r.Node)
				}
				for _, p := range holders {
					if !committed[p] {
						return 0, fmt.Errorf("record %d: root %d works on the hot atom before root %d's outcome is in the journal", i, root, p)
					}
				}
				holders = append(holders, root)
				put[root] = true
			}
		}
		for k, h := range holders {
			if !committed[h] {
				continue
			}
			for _, p := range holders[:k] {
				if !committed[p] {
					return 0, fmt.Errorf("root %d is committed in the image, its lock predecessor %d is not", h, p)
				}
			}
		}
		for c := range committed {
			if !put[c] {
				return 0, fmt.Errorf("root %d is committed in the image and no Put of the hot atom was found for it", c)
			}
		}
		return len(committed), nil
	}

	const goroutines, commits = 8, 6
	errs := make(chan error, goroutines+1) // one per committer, one for the sampler
	var wg sync.WaitGroup
	for i := 0; i < goroutines; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			for c := 0; c < commits; c++ {
				tx := db.Begin()
				id := tx.Root().ID()
				if err := tx.Put(hot, val.OfInt(int64(i*commits+c))); err != nil {
					errs <- fmt.Errorf("goroutine %d commit %d: put: %w", i, c, err)
					return
				}
				if err := tx.Commit(); err != nil {
					errs <- fmt.Errorf("goroutine %d commit %d: %w", i, c, err)
					return
				}
				// Its own outcome is in the image it returned behind, and
				// that image too orders every successor behind its holder.
				img := j.DurableBytes()
				if l, _, err := UnmarshalDurable(img); err != nil || !hasRootCommit(l, id) {
					errs <- fmt.Errorf("goroutine %d commit %d: root %d acked but not durable (decode: %v)", i, c, id, err)
					return
				}
				if _, err := checkImage(img); err != nil {
					errs <- fmt.Errorf("goroutine %d commit %d: %w", i, c, err)
					return
				}
			}
		}(i)
	}
	running := make(chan struct{})
	go func() { wg.Wait(); close(running) }()
	samples, last := 0, 0
	for sampling := true; sampling; {
		select {
		case <-running:
			sampling = false
		default:
		}
		// The last sample is taken after every committer has returned.
		n, err := checkImage(j.DurableBytes())
		if err != nil {
			errs <- fmt.Errorf("sample %d: %w", samples, err)
			sampling = false
		}
		samples, last = samples+1, n
	}
	<-running
	close(errs)
	for err := range errs {
		t.Error(err)
	}
	if last != goroutines*commits {
		t.Errorf("the last image holds %d committed roots with their Puts, want %d", last, goroutines*commits)
	}
	s := db.Engine().Stats()
	if s.Deadlocks != 0 || s.RootsCommitted != goroutines*commits {
		t.Errorf("stats: %d deadlocks, %d roots committed; want 0 and %d", s.Deadlocks, s.RootsCommitted, goroutines*commits)
	}
	if samples < 2 {
		t.Errorf("only %d durable image(s) sampled", samples)
	}
}
