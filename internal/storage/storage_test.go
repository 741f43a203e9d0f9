package storage

import (
	"bytes"
	"fmt"
	"math/rand"
	"testing"
)

func TestPageInsertReadUpdateDelete(t *testing.T) {
	var p Page
	p.initPage(7)
	if p.ID() != 7 {
		t.Fatalf("ID = %d, want 7", p.ID())
	}
	s1, err := p.Insert([]byte("hello"))
	if err != nil {
		t.Fatal(err)
	}
	s2, err := p.Insert([]byte("world!"))
	if err != nil {
		t.Fatal(err)
	}
	got, err := p.Read(s1)
	if err != nil || string(got) != "hello" {
		t.Fatalf("Read(s1) = %q, %v", got, err)
	}
	if err := p.Update(s1, []byte("he")); err != nil {
		t.Fatal(err)
	}
	got, _ = p.Read(s1)
	if string(got) != "he" {
		t.Fatalf("after shrink Read = %q", got)
	}
	if err := p.Update(s1, []byte("a much longer record than before")); err != nil {
		t.Fatal(err)
	}
	got, _ = p.Read(s1)
	if string(got) != "a much longer record than before" {
		t.Fatalf("after grow Read = %q", got)
	}
	got, _ = p.Read(s2)
	if string(got) != "world!" {
		t.Fatalf("neighbour clobbered: %q", got)
	}
	if err := p.Delete(s2); err != nil {
		t.Fatal(err)
	}
	if _, err := p.Read(s2); err == nil {
		t.Fatal("read of deleted slot succeeded")
	}
	// Tombstone reuse.
	s3, err := p.Insert([]byte("reuse"))
	if err != nil {
		t.Fatal(err)
	}
	if s3 != s2 {
		t.Fatalf("tombstone not reused: slot %d, want %d", s3, s2)
	}
}

func TestPageFillToCapacity(t *testing.T) {
	var p Page
	p.initPage(1)
	n := 0
	for {
		_, err := p.Insert(bytes.Repeat([]byte{byte(n)}, 16))
		if err != nil {
			break
		}
		n++
	}
	if n == 0 {
		t.Fatal("no record fit on an empty page")
	}
	// All inserted records must read back intact.
	for i := 0; i < n; i++ {
		got, err := p.Read(i)
		if err != nil {
			t.Fatalf("Read(%d): %v", i, err)
		}
		want := bytes.Repeat([]byte{byte(i)}, 16)
		if !bytes.Equal(got, want) {
			t.Fatalf("Read(%d) = %v, want %v", i, got, want)
		}
	}
}

// TestPageRandomOps drives a single page with random grow/shrink
// updates, deletes, and re-inserts, mirroring every operation against
// a map, and verifies the page never corrupts.
func TestPageRandomOps(t *testing.T) {
	rng := rand.New(rand.NewSource(42))
	var p Page
	p.initPage(1)
	model := map[int][]byte{}
	mkRec := func() []byte {
		n := 1 + rng.Intn(60)
		b := make([]byte, n)
		rng.Read(b)
		// Avoid the forwarding marker in the first byte: record-store
		// semantics, not page semantics, but keeps the test honest.
		b[0] &= 0x7F
		return b
	}
	for step := 0; step < 20000; step++ {
		switch op := rng.Intn(10); {
		case op < 4: // insert
			rec := mkRec()
			slot, err := p.Insert(rec)
			if err != nil {
				continue // page full is fine
			}
			if old, exists := model[slot]; exists {
				t.Fatalf("step %d: insert reused live slot %d (holding %v)", step, slot, old)
			}
			model[slot] = rec
		case op < 8: // update
			for slot := range model {
				rec := mkRec()
				if err := p.Update(slot, rec); err != nil {
					if err == ErrPageFull {
						break
					}
					t.Fatalf("step %d: update: %v", step, err)
				}
				model[slot] = rec
				break
			}
		default: // delete
			for slot := range model {
				if err := p.Delete(slot); err != nil {
					t.Fatalf("step %d: delete: %v", step, err)
				}
				delete(model, slot)
				break
			}
		}
		// Verify every live record.
		for slot, want := range model {
			got, err := p.Read(slot)
			if err != nil {
				t.Fatalf("step %d: read slot %d: %v", step, slot, err)
			}
			if !bytes.Equal(got, want) {
				t.Fatalf("step %d: slot %d = %x, want %x", step, slot, got, want)
			}
		}
	}
}

// TestRecordStoreForwarding verifies RID stability across relocations.
func TestRecordStoreForwarding(t *testing.T) { forPoolLayouts(t, 64, testRecordStoreForwarding) }

func testRecordStoreForwarding(t *testing.T, pool *Pool) {
	rs := NewRecordStore(pool)

	// Fill a page with small records.
	var rids []RID
	for i := 0; i < 100; i++ {
		rid, err := rs.Insert([]byte{byte(i), byte(i)})
		if err != nil {
			t.Fatal(err)
		}
		rids = append(rids, rid)
	}
	home := rids[0]
	// Grow record 0 until it must relocate (repeatedly).
	for size := 4; size <= 2048; size *= 2 {
		rec := bytes.Repeat([]byte{0x42}, size)
		nrid, err := rs.Update(home, rec)
		if err != nil {
			t.Fatalf("update size %d: %v", size, err)
		}
		if nrid != home {
			t.Fatalf("RID changed: %v -> %v (must be stable)", home, nrid)
		}
		got, err := rs.Read(home)
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(got, rec) {
			t.Fatalf("read-back mismatch at size %d", size)
		}
	}
	// Neighbours survive.
	for i := 1; i < 100; i++ {
		got, err := rs.Read(rids[i])
		if err != nil {
			t.Fatalf("neighbour %d: %v", i, err)
		}
		if !bytes.Equal(got, []byte{byte(i), byte(i)}) {
			t.Fatalf("neighbour %d clobbered: %x", i, got)
		}
	}
	// Delete through the forward chain.
	if err := rs.Delete(home); err != nil {
		t.Fatal(err)
	}
	if _, err := rs.Read(home); err == nil {
		t.Fatal("read of deleted record succeeded")
	}
}

// TestRecordStoreRandom stresses the record store against a model.
func TestRecordStoreRandom(t *testing.T) { forPoolLayouts(t, 256, testRecordStoreRandom) }

func testRecordStoreRandom(t *testing.T, pool *Pool) {
	rng := rand.New(rand.NewSource(7))
	rs := NewRecordStore(pool)
	model := map[RID][]byte{}
	mkRec := func() []byte {
		n := 1 + rng.Intn(200)
		b := make([]byte, n)
		rng.Read(b)
		b[0] &= 0x7F
		return b
	}
	var order []RID
	for step := 0; step < 30000; step++ {
		switch op := rng.Intn(10); {
		case op < 4:
			rec := mkRec()
			rid, err := rs.Insert(rec)
			if err != nil {
				t.Fatalf("step %d: insert: %v", step, err)
			}
			if _, dup := model[rid]; dup {
				t.Fatalf("step %d: duplicate RID %v", step, rid)
			}
			model[rid] = rec
			order = append(order, rid)
		case op < 8 && len(order) > 0:
			rid := order[rng.Intn(len(order))]
			if _, live := model[rid]; !live {
				continue
			}
			rec := mkRec()
			nrid, err := rs.Update(rid, rec)
			if err != nil {
				t.Fatalf("step %d: update: %v", step, err)
			}
			if nrid != rid {
				t.Fatalf("step %d: RID not stable", step)
			}
			model[rid] = rec
		case len(order) > 0:
			rid := order[rng.Intn(len(order))]
			if _, live := model[rid]; !live {
				continue
			}
			if err := rs.Delete(rid); err != nil {
				t.Fatalf("step %d: delete: %v", step, err)
			}
			delete(model, rid)
		}
		if step%997 == 0 {
			for rid, want := range model {
				got, err := rs.Read(rid)
				if err != nil {
					t.Fatalf("step %d: read %v: %v", step, rid, err)
				}
				if !bytes.Equal(got, want) {
					t.Fatalf("step %d: %v mismatch", step, rid)
				}
			}
		}
	}
}

// TestBufferPoolEviction and TestBufferPoolPinExhaustion run at one
// partition, where "capacity N" means exactly N frames.
func TestBufferPoolEviction(t *testing.T) {
	pool := NewPool(NewMemDisk(), 4, 1)
	var ids []uint32
	for i := 0; i < 16; i++ {
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
	// All pages must read back across evictions.
	for _, id := range ids {
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
	_, misses, evicts := pool.Stats()
	if misses == 0 || evicts == 0 {
		t.Fatalf("expected misses and evictions with a small pool (misses=%d evicts=%d)", misses, evicts)
	}
}

func TestBufferPoolPinExhaustion(t *testing.T) {
	pool := NewPool(NewMemDisk(), 2, 1)
	p1, err := pool.NewPage()
	if err != nil {
		t.Fatal(err)
	}
	p2, err := pool.NewPage()
	if err != nil {
		t.Fatal(err)
	}
	if _, err := pool.NewPage(); err == nil {
		t.Fatal("third pinned page in a 2-frame pool must fail")
	}
	if err := pool.Unpin(p1.ID(), false); err != nil {
		t.Fatal(err)
	}
	if _, err := pool.NewPage(); err != nil {
		t.Fatalf("after unpin, NewPage must succeed: %v", err)
	}
	_ = p2
}
