// Package storage implements the conventional storage manager
// underneath the object store: slotted pages, a partitioned buffer
// pool with clock replacement, and a record store that maps variable-length storage
// atoms to (page, slot) addresses.
//
// The paper's motivation (§1.1) is that state-of-the-art OODBs run
// concurrency control on exactly this layer — pages or storage atoms —
// and that doing so serialises semantically compatible method
// executions. This package exists so the page-level and record-level
// locking baselines (DESIGN.md P4/P5) operate on a real storage
// mapping rather than a simulated one.
package storage

import (
	"encoding/binary"
	"fmt"
)

// PageSize is the fixed size of a storage page in bytes.
const PageSize = 4096

// Page layout:
//
//	offset 0:  uint32 page id
//	offset 4:  uint16 slot count; the top bit is the had-delete flag
//	offset 6:  uint16 free-space pointer (offset of first free byte)
//	offset 8:  record data grows upward from here
//	...        slot directory grows downward from PageSize
//
// Each slot directory entry is 4 bytes: uint16 offset, uint16 length.
// A slot with offset 0 is a tombstone (page data never starts at 0).
// The had-delete flag is set by the first Delete and never cleared: a
// page that never had one has no tombstone, so Insert need not look
// for one. A page holds at most (PageSize-headerSize)/slotEntrySize =
// 1022 slots, which leaves the count field's top bit free.
const (
	headerSize    = 8
	slotEntrySize = 4
	hadDeleteFlag = 0x8000
)

// Page is a slotted page. The zero value is not usable; pages are
// produced by the buffer pool.
type Page struct {
	buf [PageSize]byte
}

// ID returns the page id stored in the header.
func (p *Page) ID() uint32 { return binary.BigEndian.Uint32(p.buf[0:4]) }

func (p *Page) setID(id uint32) { binary.BigEndian.PutUint32(p.buf[0:4], id) }

// SlotCount returns the number of slot directory entries (including
// tombstones).
func (p *Page) SlotCount() int {
	return int(binary.BigEndian.Uint16(p.buf[4:6]) &^ hadDeleteFlag)
}

// setSlotCount stores n and keeps the had-delete flag.
func (p *Page) setSlotCount(n int) {
	flag := binary.BigEndian.Uint16(p.buf[4:6]) & hadDeleteFlag
	binary.BigEndian.PutUint16(p.buf[4:6], uint16(n)|flag)
}

func (p *Page) hadDelete() bool { return binary.BigEndian.Uint16(p.buf[4:6])&hadDeleteFlag != 0 }

func (p *Page) setHadDelete() {
	binary.BigEndian.PutUint16(p.buf[4:6], binary.BigEndian.Uint16(p.buf[4:6])|hadDeleteFlag)
}

func (p *Page) freePtr() int { return int(binary.BigEndian.Uint16(p.buf[6:8])) }

func (p *Page) setFreePtr(n int) { binary.BigEndian.PutUint16(p.buf[6:8], uint16(n)) }

func (p *Page) slotAt(i int) (off, length int) {
	base := PageSize - (i+1)*slotEntrySize
	off = int(binary.BigEndian.Uint16(p.buf[base : base+2]))
	length = int(binary.BigEndian.Uint16(p.buf[base+2 : base+4]))
	return off, length
}

func (p *Page) setSlot(i, off, length int) {
	base := PageSize - (i+1)*slotEntrySize
	binary.BigEndian.PutUint16(p.buf[base:base+2], uint16(off))
	binary.BigEndian.PutUint16(p.buf[base+2:base+4], uint16(length))
}

// initPage formats the page as empty with the given id.
func (p *Page) initPage(id uint32) {
	for i := range p.buf {
		p.buf[i] = 0
	}
	p.setID(id)
	p.setSlotCount(0)
	p.setFreePtr(headerSize)
}

// FreeSpace returns the number of bytes available for a new record,
// accounting for the slot directory entry it would need.
func (p *Page) FreeSpace() int {
	dirTop := PageSize - p.SlotCount()*slotEntrySize
	free := dirTop - p.freePtr() - slotEntrySize
	if free < 0 {
		return 0
	}
	return free
}

// Insert stores rec in the page and returns its slot number. It fails
// if the page lacks space.
func (p *Page) Insert(rec []byte) (int, error) {
	if len(rec) > p.FreeSpace() {
		return 0, fmt.Errorf("storage: page %d full (need %d, have %d)", p.ID(), len(rec), p.FreeSpace())
	}
	// Reuse a tombstone slot if one exists (its storage is not
	// reclaimed until compaction, but the directory entry is). Only a
	// page that has had a Delete can hold one.
	slot := -1
	if p.hadDelete() {
		for i := 0; i < p.SlotCount(); i++ {
			if off, _ := p.slotAt(i); off == 0 {
				slot = i
				break
			}
		}
	}
	if slot == -1 {
		slot = p.SlotCount()
		p.setSlotCount(slot + 1)
	}
	off := p.freePtr()
	copy(p.buf[off:], rec)
	p.setFreePtr(off + len(rec))
	p.setSlot(slot, off, len(rec))
	return slot, nil
}

// Read returns the record stored in the given slot. The returned slice
// aliases the page buffer; callers must copy if they hold it across
// page writes.
func (p *Page) Read(slot int) ([]byte, error) {
	if slot < 0 || slot >= p.SlotCount() {
		return nil, fmt.Errorf("storage: page %d has no slot %d", p.ID(), slot)
	}
	off, length := p.slotAt(slot)
	if off == 0 {
		return nil, fmt.Errorf("storage: page %d slot %d is deleted", p.ID(), slot)
	}
	return p.buf[off : off+length], nil
}

// Update overwrites the record in the given slot. If the new record
// does not fit in place it is re-inserted within the same page when
// the page can hold it once the old copy is dropped; otherwise
// ErrPageFull is returned, the page is unchanged, and the caller must
// relocate the record.
func (p *Page) Update(slot int, rec []byte) error {
	if slot < 0 || slot >= p.SlotCount() {
		return fmt.Errorf("storage: page %d has no slot %d", p.ID(), slot)
	}
	off, length := p.slotAt(slot)
	if off == 0 {
		return fmt.Errorf("storage: page %d slot %d is deleted", p.ID(), slot)
	}
	if len(rec) <= length {
		copy(p.buf[off:], rec)
		p.setSlot(slot, off, len(rec))
		return nil
	}
	// Need fresh space within the page. No new slot entry is needed,
	// so the whole gap between the free pointer and the directory is
	// available. (FreeSpace() cannot be used here: it reserves a slot
	// entry and clamps at zero, which hides near-full pages.)
	dirTop := PageSize - p.SlotCount()*slotEntrySize
	if len(rec) > dirTop-p.freePtr() {
		// The old copy is dead the moment the new one is written, so
		// what decides is the live bytes of the other slots.
		if len(rec) > dirTop-headerSize-p.liveBytes(slot) {
			return ErrPageFull
		}
		p.compact(slot)
	}
	newOff := p.freePtr()
	copy(p.buf[newOff:], rec)
	p.setFreePtr(newOff + len(rec))
	p.setSlot(slot, newOff, len(rec))
	return nil
}

// Delete tombstones the given slot.
func (p *Page) Delete(slot int) error {
	if slot < 0 || slot >= p.SlotCount() {
		return fmt.Errorf("storage: page %d has no slot %d", p.ID(), slot)
	}
	off, _ := p.slotAt(slot)
	if off == 0 {
		return fmt.Errorf("storage: page %d slot %d already deleted", p.ID(), slot)
	}
	p.setSlot(slot, 0, 0)
	p.setHadDelete()
	return nil
}

// liveBytes sums the record bytes of every live slot but skip.
func (p *Page) liveBytes(skip int) int {
	n := 0
	for i := 0; i < p.SlotCount(); i++ {
		if off, length := p.slotAt(i); off != 0 && i != skip {
			n += length
		}
	}
	return n
}

// compact rewrites live records contiguously, in slot order, to
// reclaim space freed by deletes, in-place shrinks and in-page
// re-inserts. Slot numbers are preserved. The record in slot drop
// (-1: none) is not carried over: its slot entry is left dangling for
// the caller, Update, to repoint at the new copy.
//
// Records do not sit in slot order, or in any order: an Update that
// re-inserts within the page puts a low slot's record above every
// other. Sliding each record down to the free pointer in slot order
// would therefore overwrite records not yet moved, so the live records
// are gathered in a scratch page first. The scratch page lives on the
// stack; compaction allocates nothing.
func (p *Page) compact(drop int) {
	var scratch [PageSize]byte
	end := headerSize
	for i := 0; i < p.SlotCount(); i++ {
		off, length := p.slotAt(i)
		if off == 0 || i == drop {
			continue
		}
		copy(scratch[end:], p.buf[off:off+length])
		p.setSlot(i, end, length)
		end += length
	}
	copy(p.buf[headerSize:end], scratch[headerSize:end])
	p.setFreePtr(end)
}

// ErrPageFull reports that a record no longer fits in its page.
var ErrPageFull = fmt.Errorf("storage: page full")
