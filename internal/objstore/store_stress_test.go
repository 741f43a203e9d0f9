package objstore

import (
	"fmt"
	"math/rand"
	"sync"
	"sync/atomic"
	"testing"

	"semcc/internal/oid"
	"semcc/internal/val"
)

// storeConfigs are the layouts the concurrency tests and benchmarks
// cover: the GOMAXPROCS-derived default shard count and one shard
// (every directory behind one global lock).
var storeConfigs = []struct {
	name string
	cfg  Config
}{
	{"sharded", Config{}},
	{"global", Config{Shards: 1}},
}

// TestStoreConcurrentStress hammers one store with parallel mixed
// operations — atomic read/write, tuple navigation, set
// insert/remove/select — plus concurrent SetScan and object creation,
// at both store layouts, then races creators against readers of the
// objects just created. Run under -race it checks the shard latching
// across directory growth; the final sums check that no update was
// lost.
func TestStoreConcurrentStress(t *testing.T) {
	for _, sc := range storeConfigs {
		t.Run(sc.name, func(t *testing.T) {
			s := NewStore(sc.cfg)
			const nAtoms, nSets, workers, opsPer = 64, 8, 8, 400

			atoms := make([]oid.OID, nAtoms)
			for i := range atoms {
				a, err := s.NewAtomic(val.OfInt(0))
				if err != nil {
					t.Fatal(err)
				}
				atoms[i] = a
			}
			sets := make([]oid.OID, nSets)
			for i := range sets {
				st, err := s.NewSet()
				if err != nil {
					t.Fatal(err)
				}
				sets[i] = st
			}
			tuple, err := s.NewTuple([]string{"a", "b"}, map[string]oid.OID{"a": atoms[0], "b": atoms[1]})
			if err != nil {
				t.Fatal(err)
			}

			var inserted atomic.Int64
			var wg sync.WaitGroup
			errs := make(chan error, workers)
			for w := 0; w < workers; w++ {
				wg.Add(1)
				go func(w int) {
					defer wg.Done()
					rng := rand.New(rand.NewSource(int64(w) * 7919))
					for i := 0; i < opsPer; i++ {
						switch rng.Intn(7) {
						case 0: // atomic write: each atom owned by one worker, so writes never race
							a := atoms[(rng.Intn(nAtoms/workers))*workers+w]
							if err := s.WriteAtomic(a, val.OfInt(int64(i))); err != nil {
								errs <- err
								return
							}
						case 1: // atomic read
							if _, err := s.ReadAtomic(atoms[rng.Intn(nAtoms)]); err != nil {
								errs <- err
								return
							}
						case 2: // tuple navigation
							if _, err := s.TupleGet(tuple, "a"); err != nil {
								errs <- err
								return
							}
						case 3: // set insert with a worker-unique key
							key := val.OfInt(int64(w*opsPer + i))
							if err := s.SetInsert(sets[rng.Intn(nSets)], key, atoms[rng.Intn(nAtoms)]); err != nil {
								errs <- err
								return
							}
							inserted.Add(1)
						case 4: // set select
							if _, _, err := s.SetSelect(sets[rng.Intn(nSets)], val.OfInt(int64(rng.Intn(opsPer)))); err != nil {
								errs <- err
								return
							}
						case 5: // concurrent scan
							if _, err := s.SetScan(sets[rng.Intn(nSets)]); err != nil {
								errs <- err
								return
							}
						case 6: // object creation races shard directories
							if _, err := s.NewAtomic(val.OfInt(int64(i))); err != nil {
								errs <- err
								return
							}
						}
					}
				}(w)
			}
			wg.Wait()
			close(errs)
			for err := range errs {
				t.Fatal(err)
			}

			total := 0
			for _, st := range sets {
				n, err := s.SetLen(st)
				if err != nil {
					t.Fatal(err)
				}
				total += n
				entries, err := s.SetScan(st)
				if err != nil {
					t.Fatal(err)
				}
				if len(entries) != n {
					t.Fatalf("scan of %s returned %d entries, SetLen says %d", st, len(entries), n)
				}
				for i := 1; i < len(entries); i++ {
					if keyString(entries[i-1].Key) >= keyString(entries[i].Key) {
						t.Fatalf("scan of %s not sorted at %d", st, i)
					}
				}
			}
			if int64(total) != inserted.Load() {
				t.Fatalf("lost set inserts: %d stored, %d inserted", total, inserted.Load())
			}

			// Creators and readers race across directory growth: every
			// new object is looked up by another goroutine at once,
			// while more creations keep growing the directory it sits
			// in (on the one-shard layout every creation grows the same
			// one).
			const creators, perCreator = 2, 1500
			fresh := make(chan oid.OID, 64)
			var cwg, rwg sync.WaitGroup
			cerrs := make(chan error, creators+workers)
			for c := 0; c < creators; c++ {
				cwg.Add(1)
				go func() {
					defer cwg.Done()
					for i := 0; i < perCreator; i++ {
						var id oid.OID
						var err error
						switch i % 3 {
						case 0:
							id, err = s.NewAtomic(val.OfInt(int64(i)))
						case 1:
							id, err = s.NewTuple([]string{"a"}, map[string]oid.OID{"a": atoms[i%nAtoms]})
						default:
							id, err = s.NewSet()
						}
						if err != nil {
							cerrs <- err
							return
						}
						fresh <- id
					}
				}()
			}
			for r := 0; r < workers; r++ {
				rwg.Add(1)
				go func() {
					defer rwg.Done()
					for id := range fresh {
						var err error
						switch id.K {
						case oid.Atomic:
							_, err = s.ReadAtomic(id)
						case oid.Tuple:
							_, err = s.TupleGet(id, "a")
						case oid.Set:
							_, err = s.SetLen(id)
						}
						if err == nil && s.Kind(id) != id.K {
							err = fmt.Errorf("Kind(%s) = %s", id, s.Kind(id))
						}
						if err != nil {
							cerrs <- err
							return
						}
					}
				}()
			}
			cwg.Wait()
			close(fresh)
			rwg.Wait()
			close(cerrs)
			for err := range cerrs {
				t.Fatal(err)
			}
		})
	}
}

// TestStoreShardOwnership checks the allocation invariant the sharded
// layout relies on: an OID's shard is derivable from the OID alone, so
// every object is found in (exactly) the shard that allocated it.
func TestStoreShardOwnership(t *testing.T) {
	s := NewStore(Config{Shards: 4})
	if got := len(s.shards); got != 4 {
		t.Fatalf("shards = %d, want 4", got)
	}
	for i := 0; i < 64; i++ {
		var id oid.OID
		var err error
		switch i % 3 {
		case 0:
			id, err = s.NewAtomic(val.OfInt(int64(i)))
		case 1:
			id, err = s.NewSet()
		default:
			a, aerr := s.NewAtomic(val.OfInt(0))
			if aerr != nil {
				t.Fatal(aerr)
			}
			id, err = s.NewTuple([]string{"c"}, map[string]oid.OID{"c": a})
		}
		if err != nil {
			t.Fatal(err)
		}
		if k := s.Kind(id); k != id.K {
			t.Fatalf("Kind(%s) = %s after creation", id, k)
		}
	}
}

// benchStore builds a store pre-populated for the parallel benchmarks.
func benchStore(b *testing.B, cfg Config, nAtoms, setMembers int) (*Store, []oid.OID, oid.OID) {
	b.Helper()
	s := NewStore(cfg)
	atoms := make([]oid.OID, nAtoms)
	for i := range atoms {
		a, err := s.NewAtomic(val.OfInt(int64(i)))
		if err != nil {
			b.Fatal(err)
		}
		atoms[i] = a
	}
	set, err := s.NewSet()
	if err != nil {
		b.Fatal(err)
	}
	for i := 0; i < setMembers; i++ {
		if err := s.SetInsert(set, val.OfInt(int64(i)), atoms[i%nAtoms]); err != nil {
			b.Fatal(err)
		}
	}
	return s, atoms, set
}

// BenchmarkStoreParallelRead — parallel ReadAtomic over disjoint
// objects, sharded vs global. The sharded store should scale with
// GOMAXPROCS; one shard serialises on a single directory lock.
func BenchmarkStoreParallelRead(b *testing.B) {
	for _, sc := range storeConfigs {
		b.Run(sc.name, func(b *testing.B) {
			s, atoms, _ := benchStore(b, sc.cfg, 1024, 0)
			var next atomic.Int64
			b.ResetTimer()
			b.RunParallel(func(pb *testing.PB) {
				i := int(next.Add(1)-1) * 31
				for pb.Next() {
					if _, err := s.ReadAtomic(atoms[i%len(atoms)]); err != nil {
						b.Error(err)
						return
					}
					i++
				}
			})
		})
	}
}

// BenchmarkStoreParallelWrite — parallel WriteAtomic over disjoint
// objects (each goroutine owns a stride, so no two writers touch the
// same atom).
func BenchmarkStoreParallelWrite(b *testing.B) {
	for _, sc := range storeConfigs {
		b.Run(sc.name, func(b *testing.B) {
			s, atoms, _ := benchStore(b, sc.cfg, 1024, 0)
			var next atomic.Int64
			b.ResetTimer()
			b.RunParallel(func(pb *testing.PB) {
				worker := int(next.Add(1) - 1)
				i := 0
				for pb.Next() {
					a := atoms[(worker*127+i*31)%len(atoms)]
					if err := s.WriteAtomic(a, val.OfInt(int64(i))); err != nil {
						b.Error(err)
						return
					}
					i++
				}
			})
		})
	}
}

// BenchmarkStoreParallelScan — parallel SetScan of many small sets
// (scans snapshot one shard and sort outside the lock) mixed with
// point reads.
func BenchmarkStoreParallelScan(b *testing.B) {
	for _, sc := range storeConfigs {
		b.Run(sc.name, func(b *testing.B) {
			s := NewStore(sc.cfg)
			const nSets, members = 64, 32
			sets := make([]oid.OID, nSets)
			for i := range sets {
				st, err := s.NewSet()
				if err != nil {
					b.Fatal(err)
				}
				sets[i] = st
				for j := 0; j < members; j++ {
					a, err := s.NewAtomic(val.OfInt(int64(j)))
					if err != nil {
						b.Fatal(err)
					}
					if err := s.SetInsert(st, val.OfInt(int64(j)), a); err != nil {
						b.Fatal(err)
					}
				}
			}
			var next atomic.Int64
			b.ResetTimer()
			b.RunParallel(func(pb *testing.PB) {
				i := int(next.Add(1)-1) * 17
				for pb.Next() {
					if _, err := s.SetScan(sets[i%nSets]); err != nil {
						b.Error(err)
						return
					}
					i++
				}
			})
		})
	}
}

// BenchmarkStoreParallelMixed — the order-entry-shaped physical mix:
// mostly point reads, some writes, an occasional scan.
func BenchmarkStoreParallelMixed(b *testing.B) {
	for _, sc := range storeConfigs {
		b.Run(sc.name, func(b *testing.B) {
			s, atoms, set := benchStore(b, sc.cfg, 512, 64)
			var next atomic.Int64
			b.ResetTimer()
			b.RunParallel(func(pb *testing.PB) {
				worker := int(next.Add(1) - 1)
				i := 0
				for pb.Next() {
					switch i % 10 {
					case 0:
						if _, err := s.SetScan(set); err != nil {
							b.Error(err)
							return
						}
					case 1, 2:
						a := atoms[(worker*127+i*31)%len(atoms)]
						if err := s.WriteAtomic(a, val.OfInt(int64(i))); err != nil {
							b.Error(err)
							return
						}
					default:
						if _, err := s.ReadAtomic(atoms[(worker*31+i)%len(atoms)]); err != nil {
							b.Error(err)
							return
						}
					}
					i++
				}
			})
		})
	}
}
