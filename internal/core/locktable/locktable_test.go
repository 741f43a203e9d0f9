package locktable

import (
	"runtime"
	"slices"
	"sync"
	"testing"

	"semcc/internal/oid"
)

var gen = oid.NewGenerator()

// tables returns the one implementation at both layouts worth
// pinning: a single shard (every head behind one global mutex) and the
// GOMAXPROCS-derived default.
func tables() map[string]*Table[int] {
	return map[string]*Table[int]{
		"global":  New[int](1),
		"striped": New[int](0),
	}
}

func TestWithCreatesAndEvicts(t *testing.T) {
	for name, tbl := range tables() {
		t.Run(name, func(t *testing.T) {
			o := gen.New(oid.Atomic)
			tbl.With(o, func(h *Head[int]) {
				if h.Obj != o {
					t.Fatalf("head obj = %s, want %s", h.Obj, o)
				}
				h.Granted = append(h.Granted, 1)
			})
			// Head survives while non-empty: the same head comes back.
			var live int
			tbl.Range(func(h *Head[int]) { live++ })
			if live != 1 {
				t.Fatalf("live heads = %d, want 1", live)
			}
			tbl.With(o, func(h *Head[int]) {
				if len(h.Granted) != 1 || h.Granted[0] != 1 {
					t.Fatalf("granted = %v, want [1]", h.Granted)
				}
				h.RemoveGranted(1)
			})
			// Now empty: evicted.
			live = 0
			tbl.Range(func(h *Head[int]) { live++ })
			if live != 0 {
				t.Fatalf("live heads after eviction = %d, want 0", live)
			}
		})
	}
}

func TestRemoveHelpers(t *testing.T) {
	h := &Head[int]{}
	h.Granted = []int{1, 2, 3}
	h.Queue = []int{4, 5}
	if !h.RemoveGranted(2) || len(h.Granted) != 2 {
		t.Fatalf("granted = %v", h.Granted)
	}
	if h.RemoveGranted(99) {
		t.Fatal("removed absent granted entry")
	}
	if !h.RemoveQueued(4) || len(h.Queue) != 1 || h.Queue[0] != 5 {
		t.Fatalf("queue = %v", h.Queue)
	}
	if h.RemoveQueued(4) {
		t.Fatal("removed absent queued entry")
	}
	if h.Empty() {
		t.Fatal("head with entries reports empty")
	}
}

func TestShardAssignmentStable(t *testing.T) {
	tbl := New[int](64)
	if len(tbl.shards) != 64 {
		t.Fatalf("shards = %d, want 64", len(tbl.shards))
	}
	o := gen.New(oid.Tuple)
	a, b := tbl.ShardOf(o), tbl.ShardOf(o)
	if a != b {
		t.Fatalf("shard assignment not stable: %d vs %d", a, b)
	}
	if a < 0 || a >= 64 {
		t.Fatalf("shard %d out of range", a)
	}
}

func TestShardCountDefaultsAndRounding(t *testing.T) {
	if got := len(New[int](0).shards); got < runtime.GOMAXPROCS(0)*8 {
		t.Errorf("default shards = %d, want >= GOMAXPROCS*8", got)
	}
	if got := len(New[int](5).shards); got != 8 {
		t.Errorf("shards(5) = %d, want 8 (next power of two)", got)
	}
	if got := len(New[int](1).shards); got != 1 {
		t.Errorf("shards(1) = %d, want 1", got)
	}
}

// TestParallelDisjointObjects drives both layouts from many goroutines
// on disjoint objects; run with -race.
func TestParallelDisjointObjects(t *testing.T) {
	for name, tbl := range tables() {
		t.Run(name, func(t *testing.T) {
			const workers, iters = 8, 200
			objs := make([]oid.OID, workers)
			for i := range objs {
				objs[i] = gen.New(oid.Atomic)
			}
			var wg sync.WaitGroup
			for w := 0; w < workers; w++ {
				wg.Add(1)
				go func(w int) {
					defer wg.Done()
					for i := 0; i < iters; i++ {
						tbl.With(objs[w], func(h *Head[int]) {
							h.Granted = append(h.Granted, i)
						})
						tbl.With(objs[w], func(h *Head[int]) {
							h.RemoveGranted(i)
						})
					}
				}(w)
			}
			wg.Wait()
			var live int
			tbl.Range(func(h *Head[int]) { live++ })
			if live != 0 {
				t.Fatalf("live heads = %d, want 0", live)
			}
		})
	}
}

// BenchmarkTableWith is the lock table's per-layer micro-benchmark: one
// op grants a lock on one head and releases it, two With calls as the
// lock manager makes them, so the head is taken from the shard's free
// list on the grant and evicted back to it on the release. Run with
// -cpu 1 (make bench-store).
func BenchmarkTableWith(b *testing.B) {
	tbl := New[int](0)
	o := gen.New(oid.Atomic)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		tbl.With(o, func(h *Head[int]) { h.Granted = append(h.Granted, 1) })
		tbl.With(o, func(h *Head[int]) { h.RemoveGranted(1) })
	}
}

// TestRemovedLockUnreachable: a removed lock leaves no pointer behind
// in its head's backing arrays, up to their capacity — neither right
// after the removal nor once the emptied head has been evicted and
// recycled for another object. A live (or recycled) head would
// otherwise pin a finished transaction tree.
func TestRemovedLockUnreachable(t *testing.T) {
	tbl := New[*int](1)
	a, b, c := new(int), new(int), new(int)
	// stale reports a lock that is in a backing array past len, or in
	// the other list than it was added to.
	stale := func(h *Head[*int], granted, queued []*int) *int {
		for _, l := range h.Granted[len(h.Granted):cap(h.Granted)] {
			if l != nil {
				return l
			}
		}
		for _, l := range h.Queue[len(h.Queue):cap(h.Queue)] {
			if l != nil {
				return l
			}
		}
		if !slices.Equal(h.Granted, granted) || !slices.Equal(h.Queue, queued) {
			t.Fatalf("granted %v queue %v, want %v %v", h.Granted, h.Queue, granted, queued)
		}
		return nil
	}
	o := gen.New(oid.Atomic)
	tbl.With(o, func(h *Head[*int]) {
		h.Granted = append(h.Granted, a, b, c)
		h.Queue = append(h.Queue, a, b, c)
		h.RemoveGranted(a)
		h.RemoveQueued(b)
		if l := stale(h, []*int{b, c}, []*int{a, c}); l != nil {
			t.Fatalf("head still holds removed lock %p after removal", l)
		}
		h.RemoveGranted(c)
		h.RemoveGranted(b)
		h.RemoveQueued(a)
		h.RemoveQueued(c)
	})
	other := gen.New(oid.Atomic)
	tbl.With(other, func(h *Head[*int]) {
		if cap(h.Granted) == 0 || cap(h.Queue) == 0 {
			t.Fatal("evicted head was not recycled with its arrays")
		}
		if h.Obj != other {
			t.Fatalf("recycled head is %s's, want %s's", h.Obj, other)
		}
		if l := stale(h, []*int{}, []*int{}); l != nil {
			t.Fatalf("recycled head still holds removed lock %p", l)
		}
	})
}

// TestTableWithAllocs: once the shard has a recycled head, granting
// and releasing a lock on an object with no head allocates nothing.
func TestTableWithAllocs(t *testing.T) {
	tbl := New[int](0)
	o := gen.New(oid.Atomic)
	cycle := func() {
		tbl.With(o, func(h *Head[int]) { h.Granted = append(h.Granted, 1) })
		tbl.With(o, func(h *Head[int]) { h.RemoveGranted(1) })
	}
	cycle()
	if n := testing.AllocsPerRun(1000, cycle); n != 0 {
		t.Fatalf("grant/release cycle allocates %v times, want 0", n)
	}
}

// TestFreeListCapped: a shard keeps at most maxFree evicted heads.
func TestFreeListCapped(t *testing.T) {
	tbl := New[int](1)
	objs := make([]oid.OID, 2*maxFree)
	for i := range objs {
		objs[i] = gen.New(oid.Atomic)
		tbl.With(objs[i], func(h *Head[int]) { h.Granted = append(h.Granted, i) })
	}
	for i, o := range objs {
		tbl.With(o, func(h *Head[int]) { h.RemoveGranted(i) })
	}
	if n := len(tbl.shards[0].free); n != maxFree {
		t.Fatalf("free heads = %d, want %d", n, maxFree)
	}
}
