package storage

import (
	"bytes"
	"testing"
)

// fullPage returns a page filled with recLen-byte records (record i is
// recLen copies of byte(i)) until the next one no longer fits.
func fullPage(recLen int) (*Page, int) {
	p := new(Page)
	p.initPage(1)
	n := 0
	for {
		if _, err := p.Insert(bytes.Repeat([]byte{byte(n)}, recLen)); err != nil {
			return p, n
		}
		n++
	}
}

func (p *Page) gap() int { return PageSize - p.SlotCount()*slotEntrySize - p.freePtr() }

func checkRecord(t *testing.T, p *Page, slot int, want []byte) {
	t.Helper()
	got, err := p.Read(slot)
	if err != nil {
		t.Fatalf("Read(%d): %v", slot, err)
	}
	if !bytes.Equal(got, want) {
		t.Fatalf("slot %d = %x, want %x", slot, got, want)
	}
}

// TestPageCompactOutOfOrderRecords pins why compaction cannot slide
// records down in slot order: after in-page re-inserts the record of a
// low slot sits above the records of higher slots, and the slide of
// the low slot would land on bytes a higher slot has not left yet.
func TestPageCompactOutOfOrderRecords(t *testing.T) {
	p, n := fullPage(32)
	// Free room by shrinking the last two records, then grow slots 0
	// and 1 so they are re-inserted above everything else, in reverse
	// slot order.
	for _, s := range []int{n - 1, n - 2} {
		if err := p.Update(s, []byte{0xEE}); err != nil {
			t.Fatal(err)
		}
	}
	want := make(map[int][]byte)
	for i := 2; i < n-2; i++ {
		want[i] = bytes.Repeat([]byte{byte(i)}, 32)
	}
	want[n-1], want[n-2] = []byte{0xEE}, []byte{0xEE}
	for _, s := range []int{1, 0} {
		want[s] = bytes.Repeat([]byte{0xA0 + byte(s)}, 40)
		if err := p.Update(s, want[s]); err != nil {
			t.Fatalf("grow slot %d: %v", s, err)
		}
	}
	off0, _ := p.slotAt(0)
	off1, _ := p.slotAt(1)
	off2, _ := p.slotAt(2)
	if !(off2 < off1 && off1 < off0) {
		t.Fatalf("offsets of slots 0,1,2 = %d,%d,%d: set-up did not put them out of slot order", off0, off1, off2)
	}
	p.compact(-1)
	for s, w := range want {
		checkRecord(t, p, s, w)
	}
	if live := p.liveBytes(-1); p.freePtr() != headerSize+live {
		t.Errorf("free pointer %d after compaction, want %d (header + %d live bytes)", p.freePtr(), headerSize+live, live)
	}
}

// TestPageUpdateGrowUsesOldCopy: a record that outgrows the gap still
// fits on its page when the gap plus its own old copy hold it, and a
// record that cannot fit leaves the page exactly as it was.
func TestPageUpdateGrowUsesOldCopy(t *testing.T) {
	p, n := fullPage(100)
	if p.gap() >= 101 || p.gap()+100 < 101 {
		t.Fatalf("gap %d: set-up needs gap < 101 <= gap + 100", p.gap())
	}
	grown := bytes.Repeat([]byte{0xAB}, 101)
	if err := p.Update(3, grown); err != nil {
		t.Fatalf("grow by one byte: %v", err)
	}
	for i := 0; i < n; i++ {
		if i == 3 {
			checkRecord(t, p, i, grown)
		} else {
			checkRecord(t, p, i, bytes.Repeat([]byte{byte(i)}, 100))
		}
	}

	before := *p
	if err := p.Update(3, make([]byte, 101+p.gap()+1)); err != ErrPageFull {
		t.Fatalf("oversized grow: err = %v, want ErrPageFull", err)
	}
	if *p != before {
		t.Error("a refused Update changed the page")
	}
}

func testRecordStoreGrow(t *testing.T, pool *Pool) {
	rs := NewRecordStore(pool)
	var rids []RID
	for len(rids) == 0 || rids[len(rids)-1].Page == rids[0].Page {
		rid, err := rs.Insert(bytes.Repeat([]byte{byte(len(rids))}, 100))
		if err != nil {
			t.Fatal(err)
		}
		rids = append(rids, rid)
	}
	rid := rids[1]

	// One byte more than the page's gap can take, but not more than
	// the gap and the old copy together: stays home.
	grown := bytes.Repeat([]byte{0xAB}, 101)
	got, err := rs.Update(rid, grown)
	if err != nil || got != rid {
		t.Fatalf("Update = %v, %v; want %v", got, err, rid)
	}
	if len(rs.fwd) != 0 {
		t.Errorf("growing by one byte relocated the record: fwd = %v", rs.fwd)
	}

	// A record its page truly cannot hold relocates and keeps its RID.
	huge := bytes.Repeat([]byte{0xCD}, 400)
	got, err = rs.Update(rid, huge)
	if err != nil || got != rid {
		t.Fatalf("Update = %v, %v; want %v", got, err, rid)
	}
	if phys, ok := rs.fwd[rid]; !ok || phys.Page == rid.Page {
		t.Errorf("fwd[%v] = %v, %v; want a forwarding to another page", rid, phys, ok)
	}
	if b, err := rs.Read(rid); err != nil || !bytes.Equal(b, huge) {
		t.Errorf("Read after relocation = %x, %v", b, err)
	}
	for i, r := range rids {
		if r == rid {
			continue
		}
		if b, err := rs.Read(r); err != nil || !bytes.Equal(b, bytes.Repeat([]byte{byte(i)}, 100)) {
			t.Errorf("neighbour %v = %x, %v", r, b, err)
		}
	}
}

func TestRecordStoreGrowStaysOnPage(t *testing.T) { forPoolLayouts(t, 16, testRecordStoreGrow) }

// TestPageInsertSkipsTombstoneScan: a page that never had a Delete
// takes the next slot without looking at the directory. The planted
// offset-0 entry is what a scan would find and reuse.
func TestPageInsertSkipsTombstoneScan(t *testing.T) {
	p := new(Page)
	p.initPage(1)
	for i := 0; i < 500; i++ {
		if _, err := p.Insert([]byte{byte(i)}); err != nil {
			t.Fatal(err)
		}
	}
	p.setSlot(3, 0, 0) // not through Delete: the flag stays clear
	if slot, err := p.Insert([]byte{1}); err != nil || slot != 500 {
		t.Fatalf("Insert = slot %d, %v; want 500 (no directory scan)", slot, err)
	}
	// After a real Delete the scan is back and finds the lowest one.
	if err := p.Delete(7); err != nil {
		t.Fatal(err)
	}
	if p.SlotCount() != 501 {
		t.Fatalf("SlotCount = %d after Delete, want 501 (flag bit must not leak into the count)", p.SlotCount())
	}
	if slot, err := p.Insert([]byte{1}); err != nil || slot != 3 {
		t.Fatalf("Insert after Delete = slot %d, %v; want 3", slot, err)
	}
}

// growShrinkPage is a full page on which every grow of slot 0 to big
// has to compact and every shrink back to small is in place.
func growShrinkPage(tb testing.TB) (p *Page, small, big []byte) {
	p, n := fullPage(32)
	if err := p.Update(n-1, []byte{0}); err != nil {
		tb.Fatal(err)
	}
	small, big = bytes.Repeat([]byte{1}, 32), bytes.Repeat([]byte{2}, 48)
	room := PageSize - p.SlotCount()*slotEntrySize - headerSize - p.liveBytes(0)
	if room < len(big) || room-len(big) >= len(big) {
		tb.Fatalf("room for slot 0 is %d: want one %d-byte record and no second", room, len(big))
	}
	return p, small, big
}

// TestPageAllocs: nothing in the page layer allocates.
func TestPageAllocs(t *testing.T) {
	p, small, big := growShrinkPage(t)
	if n := testing.AllocsPerRun(100, func() { p.compact(-1) }); n != 0 {
		t.Errorf("compact: %v allocs, want 0", n)
	}
	// The compaction above left room for one big record; use it up so
	// every measured grow starts from a gap that is too small.
	if err := p.Update(0, big); err != nil {
		t.Fatal(err)
	}
	if err := p.Update(0, small); err != nil {
		t.Fatal(err)
	}
	compacted := 0
	n := testing.AllocsPerRun(100, func() {
		if p.gap() < len(big) {
			compacted++
		}
		if err := p.Update(0, big); err != nil { // grow: compacts
			t.Fatal(err)
		}
		if err := p.Update(0, small); err != nil { // shrink: in place
			t.Fatal(err)
		}
	})
	if n != 0 {
		t.Errorf("Update grow+shrink: %v allocs, want 0", n)
	}
	if compacted != 101 {
		t.Errorf("%d of 101 grows compacted; the guard must cover the compacting path", compacted)
	}

	q := new(Page)
	q.initPage(2)
	rec := []byte{1, 2, 3, 4}
	if n := testing.AllocsPerRun(400, func() {
		if _, err := q.Insert(rec); err != nil {
			t.Fatal(err)
		}
	}); n != 0 {
		t.Errorf("Insert: %v allocs, want 0", n)
	}
}

// BenchmarkPageInsert fills pages with 4-byte records (511 slots per
// page), the set-up path of every workload.
func BenchmarkPageInsert(b *testing.B) {
	p := new(Page)
	p.initPage(1)
	rec := []byte{1, 2, 3, 4}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := p.Insert(rec); err != nil {
			p.initPage(1)
		}
	}
}

// BenchmarkPageUpdateGrowFull is one grow on a full page (compacting
// around the old copy) and the shrink back, the status-Put path of the
// order-entry workloads.
func BenchmarkPageUpdateGrowFull(b *testing.B) {
	p, small, big := growShrinkPage(b)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if err := p.Update(0, big); err != nil {
			b.Fatal(err)
		}
		if err := p.Update(0, small); err != nil {
			b.Fatal(err)
		}
	}
}
