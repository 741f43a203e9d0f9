package objstore

import (
	"runtime"
	"strings"
	"testing"

	"semcc/internal/oid"
	"semcc/internal/val"
)

func TestAtomicLifecycle(t *testing.T) {
	s := New(0)
	a, err := s.NewAtomic(val.OfInt(7))
	if err != nil {
		t.Fatal(err)
	}
	v, err := s.ReadAtomic(a)
	if err != nil || v.Int() != 7 {
		t.Fatalf("read = %v, %v", v, err)
	}
	if err := s.WriteAtomic(a, val.OfStr("hello")); err != nil {
		t.Fatal(err)
	}
	v, _ = s.ReadAtomic(a)
	if v.Str() != "hello" {
		t.Fatalf("after write: %v", v)
	}
	if s.Kind(a) != oid.Atomic {
		t.Error("kind wrong")
	}
	if _, err := s.ReadAtomic(oid.OID{K: oid.Atomic, N: 999}); err == nil {
		t.Error("read of unknown atom must fail")
	}
	if err := s.WriteAtomic(oid.OID{K: oid.Atomic, N: 999}, val.OfInt(1)); err == nil {
		t.Error("write of unknown atom must fail")
	}
}

func TestPageOfStableAcrossGrowth(t *testing.T) {
	s := New(0)
	a, _ := s.NewAtomic(val.OfStr(""))
	pg0, err := s.PageOf(a)
	if err != nil {
		t.Fatal(err)
	}
	// Grow the value dramatically (forces record relocation).
	big := strings.Repeat("some-rather-long-string", 140)
	if err := s.WriteAtomic(a, val.OfStr(big)); err != nil {
		t.Fatal(err)
	}
	pg1, err := s.PageOf(a)
	if err != nil {
		t.Fatal(err)
	}
	if pg0 != pg1 {
		t.Fatalf("page mapping changed %s -> %s; must be stable", pg0, pg1)
	}
	v, err := s.ReadAtomic(a)
	if err != nil || v.Str() != big {
		t.Fatalf("read-back after relocation: %d bytes, %v", len(v.Str()), err)
	}
}

func TestTupleLifecycle(t *testing.T) {
	s := New(0)
	a, _ := s.NewAtomic(val.OfInt(1))
	b, _ := s.NewAtomic(val.OfInt(2))
	tu, err := s.NewTuple([]string{"X", "Y"}, map[string]oid.OID{"X": a, "Y": b})
	if err != nil {
		t.Fatal(err)
	}
	got, err := s.TupleGet(tu, "Y")
	if err != nil || got != b {
		t.Fatalf("TupleGet = %v, %v", got, err)
	}
	names, _ := s.TupleComponents(tu)
	if strings.Join(names, ",") != "X,Y" {
		t.Errorf("components = %v", names)
	}
	if _, err := s.TupleGet(tu, "Z"); err == nil {
		t.Error("unknown component must fail")
	}
	if _, err := s.NewTuple([]string{"X"}, map[string]oid.OID{}); err == nil {
		t.Error("mismatched names/components must fail")
	}
	if _, err := s.NewTuple([]string{"X", "Y"}, map[string]oid.OID{"X": a, "Q": b}); err == nil {
		t.Error("missing named component must fail")
	}
}

func TestSetLifecycle(t *testing.T) {
	s := New(0)
	set, _ := s.NewSet()
	m1, _ := s.NewAtomic(val.OfInt(10))
	m2, _ := s.NewAtomic(val.OfInt(20))
	if err := s.SetInsert(set, val.OfInt(1), m1); err != nil {
		t.Fatal(err)
	}
	if err := s.SetInsert(set, val.OfInt(2), m2); err != nil {
		t.Fatal(err)
	}
	if err := s.SetInsert(set, val.OfInt(1), m2); err == nil {
		t.Error("duplicate key must fail")
	}
	got, ok, err := s.SetSelect(set, val.OfInt(2))
	if err != nil || !ok || got != m2 {
		t.Fatalf("Select = %v %t %v", got, ok, err)
	}
	_, ok, _ = s.SetSelect(set, val.OfInt(3))
	if ok {
		t.Error("Select of absent key returned ok")
	}
	entries, _ := s.SetScan(set)
	if len(entries) != 2 || entries[0].Key.Int() != 1 {
		t.Errorf("Scan = %v", entries)
	}
	n, _ := s.SetLen(set)
	if n != 2 {
		t.Errorf("Len = %d", n)
	}
	if err := s.SetRemove(set, val.OfInt(1)); err != nil {
		t.Fatal(err)
	}
	if err := s.SetRemove(set, val.OfInt(1)); err == nil {
		t.Error("removing absent key must fail")
	}
	// Errors on unknown sets.
	bogus := oid.OID{K: oid.Set, N: 9999}
	if err := s.SetInsert(bogus, val.OfInt(1), m1); err == nil {
		t.Error("insert into unknown set must fail")
	}
	if _, err := s.SetScan(bogus); err == nil {
		t.Error("scan of unknown set must fail")
	}
}

func TestDumpSubgraph(t *testing.T) {
	s := New(0)
	a, _ := s.NewAtomic(val.OfInt(5))
	set, _ := s.NewSet()
	_ = s.SetInsert(set, val.OfInt(1), a)
	tu, _ := s.NewTuple([]string{"N", "S"}, map[string]oid.OID{"N": a, "S": set})
	dump := s.DumpSubgraph(tu)
	for _, want := range []string{"tuple", ".N:", ".S:", "=5", "(shared)"} {
		if !strings.Contains(dump, want) {
			t.Errorf("dump missing %q:\n%s", want, dump)
		}
	}
}

// TestTupleSchemaShared: tuples of one type share one name list per
// shard, however many there are, and tuples of different types on one
// shard keep their own components apart.
func TestTupleSchemaShared(t *testing.T) {
	s := NewStore(Config{Shards: 1})
	a, _ := s.NewAtomic(val.OfInt(1))
	b, _ := s.NewAtomic(val.OfInt(2))
	var xy, yx []oid.OID
	for i := 0; i < 50; i++ {
		p, err := s.NewTuple([]string{"X", "Y"}, map[string]oid.OID{"X": a, "Y": b})
		if err != nil {
			t.Fatal(err)
		}
		q, err := s.NewTuple([]string{"Y", "X", "Z"}, map[string]oid.OID{"X": b, "Y": a, "Z": p})
		if err != nil {
			t.Fatal(err)
		}
		xy, yx = append(xy, p), append(yx, q)
	}
	if n := len(s.shards[0].schemas); n != 2 {
		t.Errorf("%d schemas interned for two tuple types, want 2", n)
	}
	for i := range xy {
		if got, err := s.TupleGet(xy[i], "Y"); err != nil || got != b {
			t.Fatalf("xy[%d].Y = %v, %v; want %v", i, got, err, b)
		}
		if got, err := s.TupleGet(yx[i], "Y"); err != nil || got != a {
			t.Fatalf("yx[%d].Y = %v, %v; want %v", i, got, err, a)
		}
		if got, err := s.TupleGet(yx[i], "Z"); err != nil || got != xy[i] {
			t.Fatalf("yx[%d].Z = %v, %v; want %v", i, got, err, xy[i])
		}
		if _, err := s.TupleGet(xy[i], "Z"); err == nil {
			t.Fatalf("xy[%d] has no Z, TupleGet found one", i)
		}
		if names, _ := s.TupleComponents(yx[i]); strings.Join(names, ",") != "Y,X,Z" {
			t.Fatalf("yx[%d] components = %v", i, names)
		}
	}
}

// TestTupleDirectoryFootprint: navigation allocates nothing, and a
// tuple costs its component vector and one 16-byte, pointer-free slot
// of the dense directory — no map of its own, no hash-map bucket.
// Measured: 81 bytes per four-component tuple (64 of them the
// components, the rest its slot plus the directory's and the arena's
// spare capacity); 109 when the directory was an OID-keyed map, 475
// with a map per instance.
func TestTupleDirectoryFootprint(t *testing.T) {
	const (
		tuples = 10_000
		bound  = 100 // bytes of live heap per tuple
	)
	s := New(0)
	names := []string{"No", "Customer", "Quantity", "Status"}
	comps := make(map[string]oid.OID, len(names))
	for _, n := range names {
		a, err := s.NewAtomic(val.OfInt(0))
		if err != nil {
			t.Fatal(err)
		}
		comps[n] = a
	}
	ids := make([]oid.OID, 0, tuples)
	var before, after runtime.MemStats
	runtime.GC()
	runtime.ReadMemStats(&before)
	for i := 0; i < tuples; i++ {
		id, err := s.NewTuple(names, comps)
		if err != nil {
			t.Fatal(err)
		}
		ids = append(ids, id)
	}
	runtime.GC()
	runtime.ReadMemStats(&after)
	per := (int64(after.HeapAlloc) - int64(before.HeapAlloc)) / tuples
	t.Logf("%d bytes of live heap per four-component tuple", per)
	if per > bound {
		t.Errorf("%d bytes of live heap per tuple, bound %d", per, bound)
	}

	i := 0
	if n := testing.AllocsPerRun(1000, func() {
		if c, err := s.TupleGet(ids[i%tuples], "Status"); err != nil || c != comps["Status"] {
			t.Fatalf("TupleGet = %v, %v", c, err)
		}
		i++
	}); n != 0 {
		t.Errorf("TupleGet: %v allocs, want 0", n)
	}
}

// TestDirectoryMisses: every lookup misses, with its own error or
// Invalid/0 and without panicking, exactly where an OID-keyed map
// would: Nil, N ≤ offset, another store's residue class, a position
// not yet allocated, an allocated slot whose insert never finished, a
// live N under the wrong Kind, and Kind Invalid. Over the default
// layout and a strided one (the second node of a two-node cluster).
func TestDirectoryMisses(t *testing.T) {
	for _, sc := range []struct {
		name string
		cfg  Config
	}{
		{"default", Config{}},
		{"strided", Config{OIDStride: 2, OIDOffset: 1}},
	} {
		t.Run(sc.name, func(t *testing.T) {
			s := NewStore(sc.cfg)
			atom, err := s.NewAtomic(val.OfInt(1))
			if err != nil {
				t.Fatal(err)
			}
			tuple, err := s.NewTuple([]string{"c"}, map[string]oid.OID{"c": atom})
			if err != nil {
				t.Fatal(err)
			}
			set, err := s.NewSet()
			if err != nil {
				t.Fatal(err)
			}
			// An allocation whose insert never finished, followed by
			// enough creations that its shard's directory extends past it.
			_, unfinished, _ := s.alloc(oid.Atomic)
			var last oid.OID
			for i := 0; i <= len(s.shards); i++ {
				if last, err = s.NewAtomic(val.OfInt(0)); err != nil {
					t.Fatal(err)
				}
			}
			live := map[oid.Kind]oid.OID{oid.Atomic: atom, oid.Tuple: tuple, oid.Set: set}
			calls := []struct {
				name string
				k    oid.Kind // the kind the call addresses
				miss func(id oid.OID) bool
			}{
				{"ReadAtomic", oid.Atomic, func(id oid.OID) bool { _, err := s.ReadAtomic(id); return err != nil }},
				{"WriteAtomic", oid.Atomic, func(id oid.OID) bool { return s.WriteAtomic(id, val.OfInt(2)) != nil }},
				{"AddAtomic", oid.Atomic, func(id oid.OID) bool { _, err := s.AddAtomic(id, 1); return err != nil }},
				{"PageOf", oid.Atomic, func(id oid.OID) bool { _, err := s.PageOf(id); return err != nil }},
				{"TupleGet", oid.Tuple, func(id oid.OID) bool { _, err := s.TupleGet(id, "c"); return err != nil }},
				{"TupleComponents", oid.Tuple, func(id oid.OID) bool { _, err := s.TupleComponents(id); return err != nil }},
				{"SetSelect", oid.Set, func(id oid.OID) bool { _, _, err := s.SetSelect(id, val.OfInt(1)); return err != nil }},
				{"SetInsert", oid.Set, func(id oid.OID) bool { return s.SetInsert(id, val.OfStr(id.String()), atom) != nil }},
				{"SetScan", oid.Set, func(id oid.OID) bool { _, err := s.SetScan(id); return err != nil }},
				{"SetLen", oid.Set, func(id oid.OID) bool { _, err := s.SetLen(id); return err != nil }},
				{"Kind", oid.Atomic, func(id oid.OID) bool { return s.Kind(id) == oid.Invalid }},
				{"Tag", oid.Atomic, func(id oid.OID) bool { return s.Tag(id) == 0 }},
			}
			if err := s.SetTag(atom, 7); err != nil {
				t.Fatal(err)
			}
			stride := s.stride
			for _, c := range calls {
				own := live[c.k]
				other := live[oid.Atomic]
				if c.k == oid.Atomic {
					other = tuple
				}
				misses := map[string]oid.OID{
					"nil":           oid.Nil,
					"N<=offset":     {K: c.k, N: s.offset},
					"unallocated":   {K: c.k, N: last.N + stride},
					"unfinished":    {K: c.k, N: unfinished.N},
					"wrong kind":    {K: c.k, N: other.N},
					"live as other": {K: other.K, N: own.N},
					"kind invalid":  {K: oid.Invalid, N: own.N},
				}
				if stride > 1 {
					misses["other residue"] = oid.OID{K: c.k, N: own.N + 1}
				}
				if c.miss(own) {
					t.Errorf("%s(%s): live object misses", c.name, own)
				}
				for what, id := range misses {
					if !c.miss(id) {
						t.Errorf("%s(%s) [%s]: found, want a miss", c.name, id, what)
					}
				}
			}
			if err := s.SetTag(oid.OID{K: oid.Atomic, N: last.N + stride}, 1); err == nil {
				t.Error("SetTag on an unallocated OID succeeded")
			}
		})
	}
}
