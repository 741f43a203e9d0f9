package objstore

import (
	"sync"
	"testing"

	"semcc/internal/oid"
	"semcc/internal/val"
)

// The lookup benchmark's population: more than 2^20 objects in the
// default layout — atoms, four-component tuples over them, and sets of
// lookupMembers members each — with a buffer pool holding every page,
// so an op is the directory lookup plus the work the call itself does.
const (
	lookupAtoms   = 1 << 20
	lookupTuples  = 1 << 16
	lookupSets    = 1 << 10
	lookupMembers = 64
)

var (
	lookupOnce  sync.Once
	lookupStore *Store
	lookupObjs  struct{ atoms, tuples, sets []oid.OID }
)

func lookupPopulation(b *testing.B) {
	lookupOnce.Do(func() {
		s := NewStore(Config{PoolFrames: 1 << 14})
		names := []string{"No", "Customer", "Quantity", "Status"}
		o := &lookupObjs
		for i := 0; i < lookupAtoms; i++ {
			a, err := s.NewAtomic(val.OfInt(int64(i)))
			if err != nil {
				panic(err)
			}
			o.atoms = append(o.atoms, a)
		}
		comps := make(map[string]oid.OID, len(names))
		for i := 0; i < lookupTuples; i++ {
			for j, n := range names {
				comps[n] = o.atoms[(4*i+j)%lookupAtoms]
			}
			tu, err := s.NewTuple(names, comps)
			if err != nil {
				panic(err)
			}
			o.tuples = append(o.tuples, tu)
		}
		for i := 0; i < lookupSets; i++ {
			st, err := s.NewSet()
			if err != nil {
				panic(err)
			}
			for k := 0; k < lookupMembers; k++ {
				if err := s.SetInsert(st, val.OfInt(int64(k)), o.atoms[(i*lookupMembers+k)%lookupAtoms]); err != nil {
					panic(err)
				}
			}
			o.sets = append(o.sets, st)
		}
		lookupStore = s
	})
	if lookupStore == nil {
		b.Fatal("lookup population failed")
	}
}

// BenchmarkStoreLookup is the object store's single-threaded per-layer
// micro-benchmark: one op resolves one object through the directory
// and does the call's own work — ReadAtomic (record read and decode),
// TupleGet (the Status component of a four-component tuple), SetSelect
// (a key of a 64-member set). Objects are visited in a fixed scattered
// order, so the directory is not read sequentially. Run with -cpu 1
// (make bench-store).
func BenchmarkStoreLookup(b *testing.B) {
	lookupPopulation(b)
	s, o := lookupStore, &lookupObjs
	// scatter visits i*step mod n: step is odd, so it covers all of n
	// (a power of two) before repeating.
	const step = 0x9E3779B1
	b.Run("ReadAtomic", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			if _, err := s.ReadAtomic(o.atoms[(i*step)&(lookupAtoms-1)]); err != nil {
				b.Fatal(err)
			}
		}
	})
	b.Run("TupleGet", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			if _, err := s.TupleGet(o.tuples[(i*step)&(lookupTuples-1)], "Status"); err != nil {
				b.Fatal(err)
			}
		}
	})
	keys := make([]val.V, lookupMembers)
	for k := range keys {
		keys[k] = val.OfInt(int64(k))
	}
	b.Run("SetSelect", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			j := (i * step) & (lookupSets*lookupMembers - 1)
			if _, ok, err := s.SetSelect(o.sets[j/lookupMembers], keys[j%lookupMembers]); err != nil || !ok {
				b.Fatalf("SetSelect: %v, %v", ok, err)
			}
		}
	})
}
