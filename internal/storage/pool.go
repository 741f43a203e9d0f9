package storage

import (
	"fmt"
	"runtime"
	"strconv"
	"sync"
	"sync/atomic"
	"time"

	"semcc/internal/obs"
)

// Pool is the buffer pool: it caches disk pages in pinned frames split
// over independently locked partitions. A page's partition is a pure
// function of its id, so pinning, unpinning, and evicting distinct
// pages on different partitions never contends — the buffer-pool
// analogue of the striped lock table (DESIGN.md §3.9). Safe for
// concurrent use.
//
// Each partition runs clock (second-chance) replacement over its own
// frames; hit/miss/evict counters live in the partitions (so hot-path
// updates stay on the partition's cache lines) and Stats sums them
// without taking a partition mutex.
type Pool struct {
	disk  Disk
	parts []poolPartition
	mask  uint32
	om    *poolObs

	// parks counts NewPage page ids parked for reuse because the
	// partition was full of pins.
	parks atomic.Uint64

	// freeIDs holds page ids that were allocated by NewPage but whose
	// frame acquisition failed (partition full of pins); they are
	// reused by the next NewPage instead of leaking.
	freeMu  sync.Mutex
	freeIDs []uint32
}

// poolObs carries the pool's gated observability extras.
type poolObs struct {
	o       *obs.Obs
	faultNs *obs.Hist
}

func (m *poolObs) on() bool { return m != nil && m.o.On() }

// pframe is one clock-replacement slot.
type pframe struct {
	page  Page
	id    uint32
	pins  int
	ref   bool // second-chance bit
	dirty bool
	valid bool
}

type poolPartition struct {
	mu     sync.Mutex
	frames []pframe
	byPage map[uint32]int // page id -> frame index
	hand   int            // clock hand

	hits   atomic.Uint64
	misses atomic.Uint64
	evicts atomic.Uint64

	// pad the partition header out so partition mutexes do not
	// false-share (frames dominate the footprint anyway).
	_ [32]byte
}

// NewPool returns a pool of the given total capacity (in frames) over
// disk. partitions <= 0 selects GOMAXPROCS×4; the count is rounded up
// to a power of two and capacity is split evenly, with every partition
// getting at least one frame. The object store always passes 0: the
// count is a parameter only so tests can pin the one-partition layout,
// where capacity is exact.
func NewPool(disk Disk, capacity, partitions int) *Pool {
	if capacity < 1 {
		capacity = 1
	}
	if partitions <= 0 {
		partitions = runtime.GOMAXPROCS(0) * 4
	}
	partitions = ceilPow2(partitions)
	pp := &Pool{
		disk:  disk,
		parts: make([]poolPartition, partitions),
		mask:  uint32(partitions - 1),
	}
	base, rem := capacity/partitions, capacity%partitions
	for i := range pp.parts {
		n := base
		if i < rem {
			n++
		}
		if n < 1 {
			n = 1
		}
		pp.parts[i].frames = make([]pframe, n)
		pp.parts[i].byPage = make(map[uint32]int, n)
	}
	return pp
}

// partOf returns the partition owning page id. Page ids are dense
// sequential integers, so the low bits alone spread consecutive pages
// evenly over partitions.
func (pp *Pool) partOf(id uint32) *poolPartition {
	return &pp.parts[id&pp.mask]
}

// Partitions returns the number of independently locked partitions.
func (pp *Pool) Partitions() int { return len(pp.parts) }

// Stats reports pool-wide hit/miss/eviction counters (summed over the
// partitions).
func (pp *Pool) Stats() (hits, misses, evicts uint64) {
	for i := range pp.parts {
		p := &pp.parts[i]
		hits += p.hits.Load()
		misses += p.misses.Load()
		evicts += p.evicts.Load()
	}
	return hits, misses, evicts
}

// Parks returns the number of NewPage page ids parked for reuse
// because the target partition was full of pins.
func (pp *Pool) Parks() uint64 { return pp.parks.Load() }

// AttachObs registers the pool's metrics with o: pool-wide and
// per-partition hit/miss/eviction counters plus the pin-park counter
// become func-backed registry metrics (always live), and page faults
// gain a latency histogram gated on o being enabled. Call before the
// pool is shared between goroutines; nil-safe.
func (pp *Pool) AttachObs(o *obs.Obs) {
	if o == nil {
		return
	}
	pp.om = &poolObs{o: o, faultNs: o.Registry.Hist("semcc_pool_fault_ns", "Buffer-pool miss disk-read latency, nanoseconds.")}
	r := o.Registry
	r.CounterFunc("semcc_pool_hits_total", "Buffer-pool fetches served from a resident frame.", func() uint64 { h, _, _ := pp.Stats(); return h })
	r.CounterFunc("semcc_pool_misses_total", "Buffer-pool fetches that read from disk.", func() uint64 { _, m, _ := pp.Stats(); return m })
	r.CounterFunc("semcc_pool_evictions_total", "Frames evicted to make room.", func() uint64 { _, _, e := pp.Stats(); return e })
	r.CounterFunc("semcc_pool_pin_parks_total", "NewPage ids parked because the partition was full of pins.", pp.parks.Load)
	for i := range pp.parts {
		p := &pp.parts[i]
		lbl := obs.L("partition", strconv.Itoa(i))
		r.CounterFunc("semcc_pool_partition_hits_total", "Per-partition buffer-pool hits.", p.hits.Load, lbl)
		r.CounterFunc("semcc_pool_partition_misses_total", "Per-partition buffer-pool misses.", p.misses.Load, lbl)
		r.CounterFunc("semcc_pool_partition_evictions_total", "Per-partition frame evictions.", p.evicts.Load, lbl)
	}
}

// NewPage allocates a fresh, formatted page, pins it, and returns it.
// If no frame can be secured in the page's partition the id is parked
// for reuse by a later NewPage, so allocation failures never leak
// pages.
func (pp *Pool) NewPage() (*Page, error) {
	id, err := pp.takeID()
	if err != nil {
		return nil, err
	}
	p := pp.partOf(id)
	p.mu.Lock()
	idx, err := p.victimLocked(pp)
	if err != nil {
		p.mu.Unlock()
		pp.parks.Add(1)
		pp.parkID(id)
		return nil, err
	}
	f := &p.frames[idx]
	f.page.initPage(id)
	f.id = id
	f.pins = 1
	f.ref = true
	f.dirty = true
	f.valid = true
	p.byPage[id] = idx
	p.mu.Unlock()
	return &f.page, nil
}

// takeID returns a page id for NewPage, preferring a parked id over a
// fresh disk allocation.
func (pp *Pool) takeID() (uint32, error) {
	pp.freeMu.Lock()
	if n := len(pp.freeIDs); n > 0 {
		id := pp.freeIDs[n-1]
		pp.freeIDs = pp.freeIDs[:n-1]
		pp.freeMu.Unlock()
		return id, nil
	}
	pp.freeMu.Unlock()
	return pp.disk.Allocate()
}

// parkID remembers an allocated-but-unused page id for reuse.
func (pp *Pool) parkID(id uint32) {
	pp.freeMu.Lock()
	pp.freeIDs = append(pp.freeIDs, id)
	pp.freeMu.Unlock()
}

// Fetch pins page id and returns it, reading from disk on a miss.
func (pp *Pool) Fetch(id uint32) (*Page, error) {
	p := pp.partOf(id)
	p.mu.Lock()
	defer p.mu.Unlock()
	if idx, ok := p.byPage[id]; ok {
		p.hits.Add(1)
		f := &p.frames[idx]
		f.pins++
		f.ref = true
		return &f.page, nil
	}
	p.misses.Add(1)
	idx, err := p.victimLocked(pp)
	if err != nil {
		return nil, err
	}
	f := &p.frames[idx]
	if m := pp.om; m.on() {
		start := time.Now()
		err = pp.disk.ReadPage(id, &f.page.buf)
		m.faultNs.Observe(uint64(time.Since(start)))
	} else {
		err = pp.disk.ReadPage(id, &f.page.buf)
	}
	if err != nil {
		f.valid = false
		return nil, err
	}
	f.id = id
	f.pins = 1
	f.ref = true
	f.dirty = false
	f.valid = true
	p.byPage[id] = idx
	return &f.page, nil
}

// Unpin releases one pin on page id, marking it dirty if the caller
// modified it.
func (pp *Pool) Unpin(id uint32, dirty bool) error {
	p := pp.partOf(id)
	p.mu.Lock()
	defer p.mu.Unlock()
	idx, ok := p.byPage[id]
	if !ok {
		return fmt.Errorf("storage: unpin of non-resident page %d", id)
	}
	f := &p.frames[idx]
	if f.pins <= 0 {
		return fmt.Errorf("storage: unpin of unpinned page %d", id)
	}
	f.pins--
	if dirty {
		f.dirty = true
	}
	return nil
}

// FlushAll writes every dirty resident page to disk, one partition at
// a time (not a consistent cut across partitions; callers needing one
// must quiesce writers first).
func (pp *Pool) FlushAll() error {
	for i := range pp.parts {
		p := &pp.parts[i]
		p.mu.Lock()
		for j := range p.frames {
			f := &p.frames[j]
			if f.valid && f.dirty {
				if err := pp.disk.WritePage(f.id, &f.page.buf); err != nil {
					p.mu.Unlock()
					return err
				}
				f.dirty = false
			}
		}
		p.mu.Unlock()
	}
	return nil
}

// victimLocked returns the index of a free or evictable frame using
// clock replacement: a full sweep grants second chances (clearing ref
// bits), a second sweep takes the first unpinned frame.
func (p *poolPartition) victimLocked(pp *Pool) (int, error) {
	for i := range p.frames {
		if !p.frames[i].valid {
			return i, nil
		}
	}
	n := len(p.frames)
	for turn := 0; turn < 2*n; turn++ {
		idx := p.hand
		p.hand = (p.hand + 1) % n
		f := &p.frames[idx]
		if f.pins > 0 {
			continue
		}
		if f.ref {
			f.ref = false
			continue
		}
		if f.dirty {
			if err := pp.disk.WritePage(f.id, &f.page.buf); err != nil {
				return 0, err
			}
		}
		delete(p.byPage, f.id)
		f.valid = false
		f.dirty = false
		p.evicts.Add(1)
		return idx, nil
	}
	return 0, fmt.Errorf("storage: buffer pool partition exhausted (all %d frames pinned)", n)
}

// ceilPow2 rounds n up to the next power of two.
func ceilPow2(n int) int {
	p := 1
	for p < n {
		p <<= 1
	}
	return p
}
