package storage

import (
	"fmt"
	"sync"
)

// RID addresses a record: (page id, slot number).
type RID struct {
	Page uint32
	Slot int
}

// String renders the RID as page.slot.
func (r RID) String() string { return fmt.Sprintf("%d.%d", r.Page, r.Slot) }

// RecordStore stores variable-length storage atoms in slotted pages.
// It is the "storage atom" layer of the paper's §1.1: every atomic
// object of the object store maps to exactly one record here, which in
// turn lives on some page — the granularity the conventional baselines
// lock.
//
// RIDs are *stable*: when an update outgrows its page, the record is
// relocated and the store remembers the forwarding in an indirection
// table keyed by the home RID (flattened to a single hop). Stability
// matters for concurrency control — the page-level protocol locks the
// home page of an atom, and that mapping must not change underneath a
// running transaction (otherwise two transactions could write the same
// atom while holding locks on different pages, and compensating
// subtransactions could need pages their transaction never locked).
// A disk-resident system would persist the forwarding as stubs with a
// minimum record size; the in-memory table is equivalent for every
// behaviour this repository measures.
//
// RecordStore serialises its own structural operations with a single
// mutex; transactional isolation is the concurrency-control layer's
// job, not this one's.
type RecordStore struct {
	mu   sync.Mutex
	pool *Pool
	// pages with known free space, most-recently-inserted first; a
	// simple free-space heuristic sufficient for the workloads here.
	openPages []uint32
	// fwd maps a home RID to the record's current physical location
	// after relocation (always one hop).
	fwd map[RID]RID
}

// NewRecordStore returns a RecordStore over the given buffer pool.
// Multiple RecordStores may share one pool (the sharded object store
// gives each shard its own RecordStore over a common pool); page ids
// come from the pool's disk, so their page sets never overlap.
func NewRecordStore(pool *Pool) *RecordStore {
	return &RecordStore{pool: pool, fwd: make(map[RID]RID)}
}

// resolveLocked returns the current physical location of home.
func (rs *RecordStore) resolveLocked(home RID) RID {
	if phys, ok := rs.fwd[home]; ok {
		return phys
	}
	return home
}

// Insert stores rec and returns its RID.
func (rs *RecordStore) Insert(rec []byte) (RID, error) {
	rs.mu.Lock()
	defer rs.mu.Unlock()
	return rs.insertLocked(rec)
}

func (rs *RecordStore) insertLocked(rec []byte) (RID, error) {
	if len(rec) > PageSize-headerSize-slotEntrySize {
		return RID{}, fmt.Errorf("storage: record of %d bytes exceeds page capacity", len(rec))
	}
	// Try open pages first.
	for i := len(rs.openPages) - 1; i >= 0; i-- {
		id := rs.openPages[i]
		p, err := rs.pool.Fetch(id)
		if err != nil {
			return RID{}, err
		}
		if p.FreeSpace() >= len(rec) {
			slot, err := p.Insert(rec)
			if uerr := rs.pool.Unpin(id, err == nil); uerr != nil {
				return RID{}, uerr
			}
			if err != nil {
				return RID{}, err
			}
			return RID{Page: id, Slot: slot}, nil
		}
		if uerr := rs.pool.Unpin(id, false); uerr != nil {
			return RID{}, uerr
		}
		// Page is effectively full; stop tracking it.
		rs.openPages = append(rs.openPages[:i], rs.openPages[i+1:]...)
	}
	p, err := rs.pool.NewPage()
	if err != nil {
		return RID{}, err
	}
	id := p.ID()
	slot, err := p.Insert(rec)
	if uerr := rs.pool.Unpin(id, err == nil); uerr != nil {
		return RID{}, uerr
	}
	if err != nil {
		return RID{}, err
	}
	rs.openPages = append(rs.openPages, id)
	return RID{Page: id, Slot: slot}, nil
}

// Read returns a copy of the record whose home address is rid,
// following the forwarding table to its current location.
func (rs *RecordStore) Read(rid RID) ([]byte, error) {
	rs.mu.Lock()
	defer rs.mu.Unlock()
	phys := rs.resolveLocked(rid)
	p, err := rs.pool.Fetch(phys.Page)
	if err != nil {
		return nil, err
	}
	data, err := p.Read(phys.Slot)
	var out []byte
	if err == nil {
		out = make([]byte, len(data))
		copy(out, data)
	}
	if uerr := rs.pool.Unpin(phys.Page, false); uerr != nil {
		return nil, uerr
	}
	return out, err
}

// Update overwrites the record whose home address is rid. If the
// record no longer fits at its current location it is relocated and
// the forwarding table updated, so rid stays valid; rid is returned
// unchanged.
func (rs *RecordStore) Update(rid RID, rec []byte) (RID, error) {
	rs.mu.Lock()
	defer rs.mu.Unlock()
	phys := rs.resolveLocked(rid)
	p, err := rs.pool.Fetch(phys.Page)
	if err != nil {
		return RID{}, err
	}
	uerr := p.Update(phys.Slot, rec)
	if perr := rs.pool.Unpin(phys.Page, uerr == nil); perr != nil {
		return RID{}, perr
	}
	if uerr == nil {
		return rid, nil
	}
	if uerr != ErrPageFull {
		return RID{}, uerr
	}
	// Relocate: insert the record elsewhere and remember the
	// forwarding (flattened: the home RID always maps directly to the
	// current location). The home slot itself must never be reused by
	// a later insert — its RID would collide with the forwarding
	// entry — so it is shrunk to a 1-byte reservation rather than
	// tombstoned; an intermediate physical location (already
	// forwarded-from) is deleted outright.
	nphys, err := rs.insertLocked(rec)
	if err != nil {
		return RID{}, err
	}
	p, err = rs.pool.Fetch(phys.Page)
	if err != nil {
		return RID{}, err
	}
	var derr error
	if phys == rid {
		derr = p.Update(phys.Slot, []byte{0}) // shrink-in-place always fits
	} else {
		derr = p.Delete(phys.Slot)
	}
	if perr := rs.pool.Unpin(phys.Page, derr == nil); perr != nil {
		return RID{}, perr
	}
	if derr != nil {
		return RID{}, derr
	}
	rs.fwd[rid] = nphys
	return rid, nil
}

// Delete removes the record whose home address is rid, releasing both
// the current location and, when forwarded, the reserved home slot.
func (rs *RecordStore) Delete(rid RID) error {
	rs.mu.Lock()
	defer rs.mu.Unlock()
	phys := rs.resolveLocked(rid)
	p, err := rs.pool.Fetch(phys.Page)
	if err != nil {
		return err
	}
	derr := p.Delete(phys.Slot)
	if uerr := rs.pool.Unpin(phys.Page, derr == nil); uerr != nil {
		return uerr
	}
	if derr != nil {
		return derr
	}
	if phys != rid {
		// Release the reserved home slot as well.
		hp, err := rs.pool.Fetch(rid.Page)
		if err != nil {
			return err
		}
		herr := hp.Delete(rid.Slot)
		if uerr := rs.pool.Unpin(rid.Page, herr == nil); uerr != nil {
			return uerr
		}
		if herr != nil {
			return herr
		}
		delete(rs.fwd, rid)
	}
	return nil
}
