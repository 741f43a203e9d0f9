package storage

import (
	"bytes"
	"math/rand"
	"testing"
)

// Mimic the workload: thousands of tiny records, some growing
// repeatedly by a few bytes at a time, with occasional deletes.
func TestRecordStoreTinyRecords(t *testing.T) { forPoolLayouts(t, 1024, testRecordStoreTinyRecords) }

func testRecordStoreTinyRecords(t *testing.T, pool *Pool) {
	rng := rand.New(rand.NewSource(3))
	rs := NewRecordStore(pool)
	model := map[RID][]byte{}
	var rids []RID
	for i := 0; i < 3500; i++ {
		n := 2 + rng.Intn(12)
		b := make([]byte, n)
		rng.Read(b)
		b[0] &= 0x3F
		rid, err := rs.Insert(b)
		if err != nil {
			t.Fatal(err)
		}
		model[rid] = b
		rids = append(rids, rid)
	}
	for step := 0; step < 60000; step++ {
		rid := rids[rng.Intn(len(rids))]
		cur, live := model[rid]
		if !live {
			continue
		}
		switch rng.Intn(10) {
		case 0:
			if err := rs.Delete(rid); err != nil {
				t.Fatalf("step %d delete: %v", step, err)
			}
			delete(model, rid)
		default:
			// grow or shrink slightly
			n := len(cur) + rng.Intn(9) - 3
			if n < 1 {
				n = 1
			}
			if n > 300 {
				n = 300
			}
			b := make([]byte, n)
			rng.Read(b)
			b[0] &= 0x3F
			if _, err := rs.Update(rid, b); err != nil {
				t.Fatalf("step %d update: %v", step, err)
			}
			model[rid] = b
		}
		if step%477 == 0 {
			for rid, want := range model {
				got, err := rs.Read(rid)
				if err != nil {
					t.Fatalf("step %d read %v: %v", step, rid, err)
				}
				if !bytes.Equal(got, want) {
					t.Fatalf("step %d %v mismatch", step, rid)
				}
			}
		}
	}
}
