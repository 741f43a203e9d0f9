package locktable

import (
	"runtime"
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
