package storage

import (
	"fmt"
	"sync"
)

// Disk is the backing store for pages. Implementations must be safe
// for concurrent use by callers operating on distinct pages; the
// buffer pool guarantees a page is resident in at most one frame, so
// it never issues concurrent operations on the same page.
type Disk interface {
	// ReadPage fills buf with the contents of page id.
	ReadPage(id uint32, buf *[PageSize]byte) error
	// WritePage persists buf as the contents of page id.
	WritePage(id uint32, buf *[PageSize]byte) error
	// Allocate reserves a fresh page id.
	Allocate() (uint32, error)
	// NumPages returns the number of allocated pages.
	NumPages() uint32
}

// MemDisk is an in-memory Disk. It is the default backing store; the
// paper's protocol is storage-layout agnostic, so an in-memory "disk"
// preserves all concurrency-control-relevant behaviour (DESIGN.md
// §3.5) while keeping experiments deterministic.
//
// Reads and writes of distinct pages proceed in parallel: the RWMutex
// only serialises page transfers against Allocate growing the page
// directory. Per-page exclusion is the buffer pool's job (see Disk).
type MemDisk struct {
	mu    sync.RWMutex
	pages [][]byte
}

// NewMemDisk returns an empty in-memory disk.
func NewMemDisk() *MemDisk { return &MemDisk{} }

// ReadPage implements Disk.
func (d *MemDisk) ReadPage(id uint32, buf *[PageSize]byte) error {
	d.mu.RLock()
	defer d.mu.RUnlock()
	if int(id) >= len(d.pages) {
		return fmt.Errorf("storage: read of unallocated page %d", id)
	}
	copy(buf[:], d.pages[id])
	return nil
}

// WritePage implements Disk.
func (d *MemDisk) WritePage(id uint32, buf *[PageSize]byte) error {
	d.mu.RLock()
	defer d.mu.RUnlock()
	if int(id) >= len(d.pages) {
		return fmt.Errorf("storage: write of unallocated page %d", id)
	}
	copy(d.pages[id], buf[:])
	return nil
}

// Allocate implements Disk.
func (d *MemDisk) Allocate() (uint32, error) {
	d.mu.Lock()
	defer d.mu.Unlock()
	id := uint32(len(d.pages))
	d.pages = append(d.pages, make([]byte, PageSize))
	return id, nil
}

// NumPages implements Disk.
func (d *MemDisk) NumPages() uint32 {
	d.mu.RLock()
	defer d.mu.RUnlock()
	return uint32(len(d.pages))
}
