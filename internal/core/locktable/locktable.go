// Package locktable provides the lock-head table backing the engine's
// lock manager: a per-object Head (granted locks plus a FCFS wait
// queue) and the Table that serialises access to heads.
//
// The table hashes objects over N independently locked shards (N is
// GOMAXPROCS×8, rounded up to a power of two), so lock traffic on
// non-conflicting objects never contends.
//
// The paper's protocol (Figs. 8 and 9) only ever inspects one object's
// lock list per request, which is exactly the invariant that makes
// striping safe: a single object's protocol state — its granted list,
// its FCFS queue — always lives in a single shard, so the per-object
// semantics do not depend on the shard count (a one-shard table is the
// global-mutex layout the package's tests pin alongside the default).
//
// The lock entry type L is owned by the caller (the engine's lock
// manager); it must be comparable so entries can be removed by
// identity.
package locktable

import (
	"runtime"
	"slices"
	"sync"

	"semcc/internal/oid"
)

// Head is the per-object lock list: granted locks plus a FCFS queue of
// waiting requests (paper §4.2 requires FCFS grant order). A Head is
// only ever accessed under its table's With/Range, which hold the
// shard mutex for the duration of the callback.
type Head[L comparable] struct {
	Obj     oid.OID
	Granted []L
	Queue   []L
}

// RemoveGranted removes l from the granted list, reporting whether it
// was present.
func (h *Head[L]) RemoveGranted(l L) bool {
	for i, g := range h.Granted {
		if g == l {
			// slices.Delete zeroes the vacated tail element, so the
			// backing array keeps no pointer to a removed lock.
			h.Granted = slices.Delete(h.Granted, i, i+1)
			return true
		}
	}
	return false
}

// RemoveQueued removes l from the wait queue, reporting whether it was
// present.
func (h *Head[L]) RemoveQueued(l L) bool {
	for i, q := range h.Queue {
		if q == l {
			h.Queue = slices.Delete(h.Queue, i, i+1)
			return true
		}
	}
	return false
}

// Empty reports whether the head holds no locks at all. Empty heads
// are evicted from their table after each With, so the table's memory
// stays proportional to the set of currently locked objects (plus each
// shard's few recycled heads).
func (h *Head[L]) Empty() bool { return len(h.Granted) == 0 && len(h.Queue) == 0 }

// Table maps objects to their lock heads and serialises access to
// them, one mutex per shard.
type Table[L comparable] struct {
	shards []shard[L]
	mask   uint64
}

// New returns a table with n independently locked shards, rounded up
// to a power of two; n <= 0 selects GOMAXPROCS×8. The engine always
// passes 0: the count is a parameter only so tests can pin the
// one-shard layout.
func New[L comparable](n int) *Table[L] {
	if n <= 0 {
		n = runtime.GOMAXPROCS(0) * 8
	}
	n = ceilPow2(n)
	t := &Table[L]{shards: make([]shard[L], n), mask: uint64(n - 1)}
	for i := range t.shards {
		t.shards[i].heads = make(map[oid.OID]*Head[L])
	}
	return t
}

// maxFree caps each shard's free list of evicted heads: a few spare
// heads, with their arrays, absorb nearly every create-and-evict cycle,
// and the cap bounds what an idle shard keeps.
const maxFree = 32

type shard[L comparable] struct {
	mu    sync.Mutex
	heads map[oid.OID]*Head[L]
	free  []*Head[L] // evicted heads, emptied, arrays kept for reuse
	// pad the shard out to its own cache line so shard mutexes do not
	// false-share.
	_ [24]byte
}

// With runs f with exclusive access to obj's head, creating the head
// if absent and evicting it afterwards if f left it empty. f must not
// call back into the table (the shard mutex is held), and must not keep
// h, or its Granted or Queue slices, past its return: an evicted head
// is recycled for another object.
func (t *Table[L]) With(obj oid.OID, f func(h *Head[L])) {
	sh := &t.shards[hash(obj)&t.mask]
	sh.mu.Lock()
	defer sh.mu.Unlock()
	h, ok := sh.heads[obj]
	if !ok {
		if n := len(sh.free); n > 0 {
			h, sh.free = sh.free[n-1], sh.free[:n-1]
			h.Obj = obj
		} else {
			h = &Head[L]{Obj: obj}
		}
		sh.heads[obj] = h
	}
	f(h)
	if h.Empty() {
		delete(sh.heads, obj)
		if len(sh.free) < maxFree {
			clear(h.Granted[:cap(h.Granted)])
			clear(h.Queue[:cap(h.Queue)])
			h.Granted, h.Queue = h.Granted[:0], h.Queue[:0]
			sh.free = append(sh.free, h)
		}
	}
}

// Range visits every live head, one shard at a time, for diagnostics.
// Heads in different shards are not a consistent cut.
func (t *Table[L]) Range(f func(h *Head[L])) {
	for i := range t.shards {
		sh := &t.shards[i]
		sh.mu.Lock()
		for _, h := range sh.heads {
			f(h)
		}
		sh.mu.Unlock()
	}
}

// ShardOf returns the index of the shard owning obj.
func (t *Table[L]) ShardOf(obj oid.OID) int { return int(hash(obj) & t.mask) }

// hash mixes an OID with the splitmix64 finaliser. OID sequence
// numbers are dense small integers, so the mix matters: without it
// consecutive objects would pile into neighbouring shards and share
// cache lines.
func hash(o oid.OID) uint64 {
	x := o.N ^ uint64(o.K)<<56 ^ 0x9E3779B97F4A7C15
	x ^= x >> 30
	x *= 0xBF58476D1CE4E5B9
	x ^= x >> 27
	x *= 0x94D049BB133111EB
	x ^= x >> 31
	return x
}

func ceilPow2(n int) int {
	p := 1
	for p < n {
		p <<= 1
	}
	return p
}
