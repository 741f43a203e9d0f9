package storage

import (
	"fmt"
	"math/rand"
	"runtime"
	"sync"
	"testing"
)

func maxInt(a, b int) int {
	if a > b {
		return a
	}
	return b
}

// poolLayouts names the partition counts the pool is pinned at: one
// partition (every frame behind one global mutex, capacity exact) and
// a partitioned layout — the given count, or the GOMAXPROCS-derived
// default when partitions is 0.
func poolLayouts(partitions int) []poolLayout {
	return []poolLayout{{"global", 1}, {"partitioned", partitions}}
}

type poolLayout struct {
	name       string
	partitions int
}

// forPoolLayouts runs f against a fresh pool of the given capacity at
// one partition and at the default partition count.
func forPoolLayouts(t *testing.T, capacity int, f func(t *testing.T, pool *Pool)) {
	for _, layout := range poolLayouts(0) {
		t.Run(layout.name, func(t *testing.T) {
			f(t, NewPool(NewMemDisk(), capacity, layout.partitions))
		})
	}
}

// TestPoolConcurrentPinUnpin drives concurrent Fetch/Unpin over a
// working set several times larger than the pool, at both pool
// layouts: every page must read back its own content across
// evictions, and the counters must record the pressure.
func TestPoolConcurrentPinUnpin(t *testing.T) {
	// Frames-per-partition must be ≥ workers (each worker holds at
	// most one pin), or a fetch could find its whole partition pinned.
	for _, layout := range poolLayouts(4) {
		t.Run(layout.name, func(t *testing.T) {
			pool := NewPool(NewMemDisk(), 32, layout.partitions)
			const nPages, workers, opsPer = 64, 8, 300
			ids := make([]uint32, nPages)
			for i := range ids {
				p, err := pool.NewPage()
				if err != nil {
					t.Fatal(err)
				}
				ids[i] = p.ID()
				if _, err := p.Insert([]byte(fmt.Sprintf("page-%d", p.ID()))); err != nil {
					t.Fatal(err)
				}
				if err := pool.Unpin(p.ID(), true); err != nil {
					t.Fatal(err)
				}
			}
			var wg sync.WaitGroup
			errs := make(chan error, workers)
			for w := 0; w < workers; w++ {
				wg.Add(1)
				go func(w int) {
					defer wg.Done()
					rng := rand.New(rand.NewSource(int64(w) * 104729))
					for i := 0; i < opsPer; i++ {
						id := ids[rng.Intn(nPages)]
						p, err := pool.Fetch(id)
						if err != nil {
							errs <- err
							return
						}
						got, err := p.Read(0)
						if err != nil {
							errs <- fmt.Errorf("page %d: %w", id, err)
							return
						}
						if want := fmt.Sprintf("page-%d", id); string(got) != want {
							errs <- fmt.Errorf("page %d read %q, want %q", id, got, want)
							return
						}
						if err := pool.Unpin(id, false); err != nil {
							errs <- err
							return
						}
					}
				}(w)
			}
			wg.Wait()
			close(errs)
			for err := range errs {
				t.Fatal(err)
			}
			_, misses, evicts := pool.Stats()
			if misses == 0 || evicts == 0 {
				t.Fatalf("expected misses and evictions with a small pool (misses=%d evicts=%d)", misses, evicts)
			}
		})
	}
}

// TestPoolNewPageNoLeakOnExhaustion checks the NewPage fix: when every
// frame is pinned, failed NewPage calls must not leak disk pages — the
// pool parks the id it drew and reuses it. Two frames, as one
// partition of two and as two partitions of one.
func TestPoolNewPageNoLeakOnExhaustion(t *testing.T) {
	for _, layout := range poolLayouts(2) {
		t.Run(layout.name, func(t *testing.T) {
			disk := NewMemDisk()
			pool := NewPool(disk, 2, layout.partitions)
			p1, err := pool.NewPage()
			if err != nil {
				t.Fatal(err)
			}
			if _, err := pool.NewPage(); err != nil {
				t.Fatal(err)
			}
			base := disk.NumPages()
			for i := 0; i < 5; i++ {
				if _, err := pool.NewPage(); err == nil {
					t.Fatal("NewPage with all frames pinned must fail")
				}
			}
			if grown := disk.NumPages() - base; grown > 1 {
				t.Fatalf("5 failed NewPage calls leaked %d pages", grown)
			}
			if err := pool.Unpin(p1.ID(), false); err != nil {
				t.Fatal(err)
			}
			after := disk.NumPages()
			if _, err := pool.NewPage(); err != nil {
				t.Fatalf("NewPage after unpin: %v", err)
			}
			if disk.NumPages() > after && after > base {
				t.Fatalf("NewPage allocated a fresh page instead of reusing the parked id (pages %d -> %d)", after, disk.NumPages())
			}
		})
	}
}

// TestPartitionedPoolFlushAll checks dirty pages survive FlushAll +
// eviction + re-fetch across partitions.
func TestPartitionedPoolFlushAll(t *testing.T) {
	disk := NewMemDisk()
	pool := NewPool(disk, 4, 2)
	var ids []uint32
	for i := 0; i < 12; i++ {
		p, err := pool.NewPage()
		if err != nil {
			t.Fatal(err)
		}
		if _, err := p.Insert([]byte(fmt.Sprintf("page-%d", p.ID()))); err != nil {
			t.Fatal(err)
		}
		ids = append(ids, p.ID())
		if err := pool.Unpin(p.ID(), true); err != nil {
			t.Fatal(err)
		}
	}
	if err := pool.FlushAll(); err != nil {
		t.Fatal(err)
	}
	for _, id := range ids {
		var buf [PageSize]byte
		if err := disk.ReadPage(id, &buf); err != nil {
			t.Fatal(err)
		}
		p, err := pool.Fetch(id)
		if err != nil {
			t.Fatal(err)
		}
		got, err := p.Read(0)
		if err != nil {
			t.Fatal(err)
		}
		if want := fmt.Sprintf("page-%d", id); string(got) != want {
			t.Fatalf("page %d = %q, want %q", id, got, want)
		}
		if err := pool.Unpin(id, false); err != nil {
			t.Fatal(err)
		}
	}
}

// BenchmarkPoolFetchParallel — parallel fetch/unpin of resident pages,
// partitioned vs one partition: the hot-path cost partitioning exists
// to shrink. The working set fits in the pool, so this measures latch
// contention, not eviction.
func BenchmarkPoolFetchParallel(b *testing.B) {
	for _, layout := range poolLayouts(0) {
		b.Run(layout.name, func(b *testing.B) {
			pool := NewPool(NewMemDisk(), 256, layout.partitions)
			const nPages = 128
			ids := make([]uint32, nPages)
			for i := range ids {
				p, err := pool.NewPage()
				if err != nil {
					b.Fatal(err)
				}
				ids[i] = p.ID()
				if err := pool.Unpin(p.ID(), true); err != nil {
					b.Fatal(err)
				}
			}
			b.ResetTimer()
			b.RunParallel(func(pb *testing.PB) {
				i := 0
				for pb.Next() {
					id := ids[(i*31)%nPages]
					p, err := pool.Fetch(id)
					if err != nil {
						b.Error(err)
						return
					}
					_ = p
					if err := pool.Unpin(id, false); err != nil {
						b.Error(err)
						return
					}
					i++
				}
			})
		})
	}
}

// BenchmarkPoolEvictParallel — parallel fetch/unpin with a working set
// 4× the pool, so most fetches must evict: measures the clock
// replacement path under contention.
func BenchmarkPoolEvictParallel(b *testing.B) {
	for _, layout := range poolLayouts(4) {
		b.Run(layout.name, func(b *testing.B) {
			// Frames-per-partition must cover the worker count (one
			// transient pin each), or a fetch could find its whole
			// partition pinned.
			capacity := 4 * maxInt(8, runtime.GOMAXPROCS(0))
			pool := NewPool(NewMemDisk(), capacity, layout.partitions)
			nPages := 4 * capacity
			ids := make([]uint32, nPages)
			for i := range ids {
				p, err := pool.NewPage()
				if err != nil {
					b.Fatal(err)
				}
				ids[i] = p.ID()
				if err := pool.Unpin(p.ID(), true); err != nil {
					b.Fatal(err)
				}
			}
			b.ResetTimer()
			b.RunParallel(func(pb *testing.PB) {
				rng := rand.New(rand.NewSource(1))
				for pb.Next() {
					id := ids[rng.Intn(nPages)]
					p, err := pool.Fetch(id)
					if err != nil {
						b.Error(err)
						return
					}
					_ = p
					if err := pool.Unpin(id, false); err != nil {
						b.Error(err)
						return
					}
				}
			})
		})
	}
}
