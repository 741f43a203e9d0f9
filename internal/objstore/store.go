// Package objstore implements the object-structure graph model of the
// paper's §2.1: a database is a graph of atomic objects, tuple objects
// (named components), and set objects (members addressed by a primary
// key, with a generic Select operation).
//
// Atomic object values are persisted as storage atoms in the
// record/page layer (internal/storage), so every atomic object has a
// well-defined page — the granularity the conventional locking
// baselines operate on. Tuple and set structure is kept in memory;
// structural operations are versioned through the same concurrency
// control layer as atomic accesses.
//
// The store is sharded: each shard owns a disjoint slice of the object
// directory, its own OID allocation stride, and its own RecordStore
// over the shared buffer pool. An OID's shard, and its entry's position
// in that shard's directory, are pure functions of the OID — no hash
// lookup — so every single-object operation locks exactly one shard;
// set scans snapshot one shard and sort outside the lock (DESIGN.md
// §3.9).
//
// The store itself provides only *physical* operations and
// latch-level safety. Transactional isolation is implemented above it
// by internal/core.
package objstore

import (
	"fmt"
	"math"
	"math/bits"
	"runtime"
	"sort"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"semcc/internal/obs"
	"semcc/internal/oid"
	"semcc/internal/storage"
	"semcc/internal/val"
)

// SetEntry is one member of a set object.
type SetEntry struct {
	Key    val.V
	Member oid.OID
}

// dirEntry is one object's directory entry. Its payload depends on
// kind: an atom's home RID (a = page, b = slot); a tuple's schema (a)
// and the start of its components in the shard's arena (b) — a tuple
// type is a fixed component list (Malta & Martinez, "Tuple-based
// abstract data types: full parallelism"), so navigation is addressing,
// not a hash lookup; a set's index into the shard's sets (a). tag is
// the caller's type tag (SetTag). The entry holds no pointer, so the
// collector never walks the directory. Kind Invalid marks a slot whose
// insert has not finished.
type dirEntry struct {
	kind oid.Kind
	a, b uint32
	tag  uint32
}

// shard owns one stripe of the object directory. All fields behind
// mu; next is atomic so OID allocation never waits on directory
// traffic in other shards.
type shard struct {
	mu      sync.RWMutex
	idx     int // position in Store.shards
	records *storage.RecordStore
	// dir is indexed by allocation position: the object whose OID this
	// shard handed out as its j-th is dir[j].
	dir []dirEntry
	// schemas holds each distinct component-name list once; comps is
	// the arena of this shard's tuples' component vectors, back to
	// back (tuples are never deleted).
	schemas [][]string
	comps   []oid.OID
	sets    []map[string]SetEntry // canonical key string -> entry
	next    atomic.Uint64         // per-shard OID sequence counter
}

// put installs e as the entry of allocation position j. Inserts finish
// in any order, so the directory grows to j+1 with not-yet-finished
// slots zero (kind Invalid). Caller holds mu for writing.
func (sh *shard) put(j uint64, e dirEntry) {
	if n := uint64(len(sh.dir)); j >= n {
		sh.dir = append(sh.dir, make([]dirEntry, j+1-n)...)
	}
	sh.dir[j] = e
}

// entry returns the entry of id, at position j, if id and its entry
// are both of kind k. Every lookup goes through it, so every call site
// misses alike: a position past the end (or noPos), an unfinished
// slot, a kind other than k. Caller holds mu.
func (sh *shard) entry(id oid.OID, j uint64, k oid.Kind) (*dirEntry, bool) {
	if j >= uint64(len(sh.dir)) || id.K != k || k == oid.Invalid || sh.dir[j].kind != k {
		return nil, false
	}
	return &sh.dir[j], true
}

// schemaOf returns the number of the schema with exactly these names,
// interning a copy on first sight. Caller holds mu for writing.
func (sh *shard) schemaOf(names []string) uint32 {
search:
	for i, have := range sh.schemas {
		if len(have) != len(names) {
			continue
		}
		for j := range have {
			if have[j] != names[j] {
				continue search
			}
		}
		return uint32(i)
	}
	sh.schemas = append(sh.schemas, append([]string(nil), names...))
	return uint32(len(sh.schemas) - 1)
}

// Config parameterises NewStore.
type Config struct {
	// Shards is the number of store shards, rounded up to a power of
	// two; 0 selects GOMAXPROCS×4. Every caller outside this package
	// leaves it 0: the count is settable only so the package's tests
	// can pin the one-shard layout (every directory behind one lock).
	Shards int
	// PoolFrames sizes the shared buffer pool; 0 selects a default
	// large enough for the experiments in this repository.
	PoolFrames int
	// Obs, when set, receives the store's metrics: per-shard operation
	// counters and a scan-latency histogram (gated on the Obs being
	// enabled), plus the buffer pool's counters (attached here because
	// the store owns its pool).
	Obs *obs.Obs
	// OIDStride and OIDOffset interleave this store's OID sequence with
	// other stores': the store allocates only sequence numbers
	// N ≡ OIDOffset+1 (mod OIDStride), so in a multi-node topology node
	// ownership is derivable from the OID alone — owner(id) =
	// (id.N-1) mod OIDStride. Zero values (stride 1, offset 0) allocate
	// the dense sequence 1, 2, 3, … and reproduce the single-store
	// layout byte-for-byte.
	OIDStride int
	OIDOffset int
}

// Store operation indices for the per-shard op counters.
const (
	opRead = iota
	opWrite
	opInsert
	opRemove
	opSelect
	opScan
	opAlloc
	numStoreOps
)

var storeOpNames = [numStoreOps]string{"read", "write", "insert", "remove", "select", "scan", "alloc"}

// storeObs carries the store's gated metrics: one counter per
// (shard, op) pair, registered as semcc_store_shard_ops_total
// {shard=...,op=...}, and the scan-latency histogram.
type storeObs struct {
	o      *obs.Obs
	ops    []*obs.Counter // shard-major: shard*numStoreOps + op
	scanNs *obs.Hist
}

func newStoreObs(o *obs.Obs, shards int) *storeObs {
	m := &storeObs{
		o:      o,
		ops:    make([]*obs.Counter, shards*numStoreOps),
		scanNs: o.Registry.Hist("semcc_store_scan_ns", "Set scan latency (snapshot + sort), nanoseconds."),
	}
	for i := 0; i < shards; i++ {
		for op := 0; op < numStoreOps; op++ {
			m.ops[i*numStoreOps+op] = o.Registry.Counter(
				"semcc_store_shard_ops_total", "Object-store operations by shard and kind (while obs is enabled).",
				obs.L("shard", strconv.Itoa(i)), obs.L("op", storeOpNames[op]))
		}
	}
	return m
}

func (m *storeObs) on() bool { return m != nil && m.o.On() }

// op counts one operation against shard sh.
func (s *Store) op(sh *shard, op int) {
	if m := s.om; m.on() {
		m.ops[sh.idx*numStoreOps+op].Inc()
	}
}

// Store is the object store. All methods are safe for concurrent use.
type Store struct {
	pool   *storage.Pool
	shards []shard
	mask   uint64
	shift  uint // log2(len(shards)): position >> shift indexes a shard's dir
	om     *storeObs
	// stride/offset interleave this store's OID sequence across a
	// multi-node topology (Config.OIDStride/OIDOffset); stride 1,
	// offset 0 is the dense single-store sequence.
	stride uint64
	offset uint64
	// rr round-robins object creation over shards; under sequential
	// creation the allocated OID sequence is identical to the old
	// global generator's (1, 2, 3, …).
	rr atomic.Uint64
}

// New returns an empty store backed by a fresh in-memory disk with the
// given buffer-pool capacity (frames) and default sharding. A capacity
// of 0 selects a default large enough for the experiments in this
// repository.
func New(poolFrames int) *Store {
	return NewStore(Config{PoolFrames: poolFrames})
}

// NewStore returns an empty store configured by cfg, backed by a fresh
// in-memory disk.
func NewStore(cfg Config) *Store {
	if cfg.PoolFrames <= 0 {
		cfg.PoolFrames = 1024
	}
	n := cfg.Shards
	if n <= 0 {
		n = runtime.GOMAXPROCS(0) * 4
	}
	n = ceilPow2(n)
	stride := cfg.OIDStride
	if stride <= 0 {
		stride = 1
	}
	pool := storage.NewPool(storage.NewMemDisk(), cfg.PoolFrames, 0)
	s := &Store{
		pool:   pool,
		shards: make([]shard, n),
		mask:   uint64(n - 1),
		shift:  uint(bits.TrailingZeros(uint(n))),
		stride: uint64(stride),
		offset: uint64(cfg.OIDOffset),
	}
	s.AttachObs(cfg.Obs)
	for i := range s.shards {
		s.shards[i].idx = i
		s.shards[i].records = storage.NewRecordStore(pool)
	}
	return s
}

// AttachObs registers the store's (and its buffer pool's) metrics with
// o. Nil-safe; call at construction or — for a Reopen'd database
// sharing a surviving store — before the new instance sees concurrent
// use.
func (s *Store) AttachObs(o *obs.Obs) {
	if o == nil {
		return
	}
	s.pool.AttachObs(o)
	s.om = newStoreObs(o, len(s.shards))
}

// PoolStats reports the shared buffer pool's hit/miss/evict counters.
func (s *Store) PoolStats() (hits, misses, evicts uint64) { return s.pool.Stats() }

// noPos is the directory position of an OID this store never
// allocates; every lookup of it misses.
const noPos = math.MaxUint64

// locate returns id's shard and its position in that shard's
// directory; the caller locks the shard and reads the entry with
// shard.entry. The store's own 0-based allocation position is
// (id.N-1-offset)/stride; its low bits pick the shard (so ownership is
// derivable from the OID alone and every single-object operation is
// single-shard) and the rest is the position there. An OID outside
// this store's sequence — Nil, N ≤ offset, or N in another store's
// stride residue — gets noPos.
func (s *Store) locate(id oid.OID) (*shard, uint64) {
	if id.N <= s.offset {
		return &s.shards[0], noPos
	}
	d := id.N - 1 - s.offset
	local := d / s.stride
	if local*s.stride != d {
		return &s.shards[local&s.mask], noPos
	}
	return &s.shards[local&s.mask], local >> s.shift
}

// alloc picks the next creation shard round-robin and allocates a
// fresh OID of the given kind from its stride, returning it with its
// position in the shard's directory. The store's dense local position
// sequence (0, 1, 2, …) is spread over the global OID space as
// n = pos*stride + offset + 1, so with stride 1 the sequence is the
// classic 1, 2, 3, … and with stride N the store owns exactly the
// residue class offset (mod N).
func (s *Store) alloc(k oid.Kind) (*shard, oid.OID, uint64) {
	i := (s.rr.Add(1) - 1) & s.mask
	sh := &s.shards[i]
	j := sh.next.Add(1) - 1
	pos := j<<s.shift + i
	n := pos*s.stride + s.offset + 1
	s.op(sh, opAlloc)
	return sh, oid.OID{K: k, N: n}, j
}

// keyString canonicalises a key value for map lookup.
func keyString(k val.V) string { return k.String() }

// NewAtomic creates an atomic object with the given initial value.
func (s *Store) NewAtomic(initial val.V) (oid.OID, error) {
	sh, id, j := s.alloc(oid.Atomic)
	rid, err := sh.records.Insert(initial.Marshal())
	if err != nil {
		return oid.Nil, err
	}
	sh.mu.Lock()
	sh.put(j, dirEntry{kind: oid.Atomic, a: rid.Page, b: uint32(rid.Slot)})
	sh.mu.Unlock()
	return id, nil
}

// rid returns the home RID of atomic object id. Caller holds sh.mu.
func (sh *shard) rid(id oid.OID, j uint64) (storage.RID, error) {
	e, ok := sh.entry(id, j, oid.Atomic)
	if !ok {
		return storage.RID{}, fmt.Errorf("objstore: no atomic object %s", id)
	}
	return storage.RID{Page: e.a, Slot: int(e.b)}, nil
}

// ReadAtomic returns the current value of atomic object id.
func (s *Store) ReadAtomic(id oid.OID) (val.V, error) {
	sh, j := s.locate(id)
	s.op(sh, opRead)
	sh.mu.RLock()
	rid, err := sh.rid(id, j)
	sh.mu.RUnlock()
	if err != nil {
		return val.NullV, err
	}
	raw, err := sh.records.Read(rid)
	if err != nil {
		return val.NullV, err
	}
	v, _, err := val.Unmarshal(raw)
	return v, err
}

// WriteAtomic replaces the value of atomic object id. The record
// store's RIDs are stable (forwarding stubs), so the object→page
// mapping used by page-level locking never changes.
func (s *Store) WriteAtomic(id oid.OID, v val.V) error {
	sh, j := s.locate(id)
	s.op(sh, opWrite)
	sh.mu.RLock()
	rid, err := sh.rid(id, j)
	sh.mu.RUnlock()
	if err != nil {
		return err
	}
	_, err = sh.records.Update(rid, v.Marshal())
	return err
}

// AddAtomic adds delta to the integer value of atomic object id and
// returns the new value. Unlike WriteAtomic, the read-modify-write
// runs under the shard's exclusive lock, so concurrent AddAtomics
// never lose updates — the physical guarantee behind the blind OpAdd
// leaf operation (Add/Add commutes at the lock level, so the engine
// admits them concurrently and the store must make them atomic).
func (s *Store) AddAtomic(id oid.OID, delta int64) (val.V, error) {
	sh, j := s.locate(id)
	s.op(sh, opWrite)
	sh.mu.Lock()
	defer sh.mu.Unlock()
	rid, err := sh.rid(id, j)
	if err != nil {
		return val.NullV, err
	}
	raw, err := sh.records.Read(rid)
	if err != nil {
		return val.NullV, err
	}
	v, _, err := val.Unmarshal(raw)
	if err != nil {
		return val.NullV, err
	}
	nv := val.OfInt(v.Int() + delta)
	if _, err := sh.records.Update(rid, nv.Marshal()); err != nil {
		return val.NullV, err
	}
	return nv, nil
}

// PageOf returns the OID of the storage page holding atomic object id.
// It is the object→page mapping used by the page-level baseline.
func (s *Store) PageOf(id oid.OID) (oid.OID, error) {
	sh, j := s.locate(id)
	sh.mu.RLock()
	defer sh.mu.RUnlock()
	rid, err := sh.rid(id, j)
	if err != nil {
		return oid.Nil, err
	}
	return oid.PageOID(uint64(rid.Page)), nil
}

// NewTuple creates a tuple object with the given components, in order.
func (s *Store) NewTuple(names []string, comps map[string]oid.OID) (oid.OID, error) {
	if len(names) != len(comps) {
		return oid.Nil, fmt.Errorf("objstore: tuple has %d names but %d components", len(names), len(comps))
	}
	for _, n := range names {
		if _, ok := comps[n]; !ok {
			return oid.Nil, fmt.Errorf("objstore: tuple component %q missing", n)
		}
	}
	sh, id, j := s.alloc(oid.Tuple)
	sh.mu.Lock()
	defer sh.mu.Unlock()
	if len(sh.comps)+len(names) > math.MaxUint32 {
		return oid.Nil, fmt.Errorf("objstore: tuple component arena full")
	}
	sh.put(j, dirEntry{kind: oid.Tuple, a: sh.schemaOf(names), b: uint32(len(sh.comps))})
	for _, n := range names {
		sh.comps = append(sh.comps, comps[n])
	}
	return id, nil
}

// TupleGet returns the OID of component name of tuple id.
func (s *Store) TupleGet(id oid.OID, name string) (oid.OID, error) {
	sh, j := s.locate(id)
	sh.mu.RLock()
	defer sh.mu.RUnlock()
	t, ok := sh.entry(id, j, oid.Tuple)
	if !ok {
		return oid.Nil, fmt.Errorf("objstore: no tuple object %s", id)
	}
	for i, n := range sh.schemas[t.a] {
		if n == name {
			return sh.comps[int(t.b)+i], nil
		}
	}
	return oid.Nil, fmt.Errorf("objstore: tuple %s has no component %q", id, name)
}

// TupleComponents returns the component names of tuple id in
// definition order.
func (s *Store) TupleComponents(id oid.OID) ([]string, error) {
	sh, j := s.locate(id)
	sh.mu.RLock()
	defer sh.mu.RUnlock()
	t, ok := sh.entry(id, j, oid.Tuple)
	if !ok {
		return nil, fmt.Errorf("objstore: no tuple object %s", id)
	}
	return append([]string(nil), sh.schemas[t.a]...), nil
}

// NewSet creates an empty set object.
func (s *Store) NewSet() (oid.OID, error) {
	sh, id, j := s.alloc(oid.Set)
	sh.mu.Lock()
	sh.put(j, dirEntry{kind: oid.Set, a: uint32(len(sh.sets))})
	sh.sets = append(sh.sets, make(map[string]SetEntry))
	sh.mu.Unlock()
	return id, nil
}

// set returns the members of set object id. Caller holds sh.mu.
func (sh *shard) set(id oid.OID, j uint64) (map[string]SetEntry, error) {
	e, ok := sh.entry(id, j, oid.Set)
	if !ok {
		return nil, fmt.Errorf("objstore: no set object %s", id)
	}
	return sh.sets[e.a], nil
}

// SetInsert adds member under key to set id. Inserting an existing key
// fails.
func (s *Store) SetInsert(id oid.OID, key val.V, member oid.OID) error {
	sh, j := s.locate(id)
	s.op(sh, opInsert)
	sh.mu.Lock()
	defer sh.mu.Unlock()
	members, err := sh.set(id, j)
	if err != nil {
		return err
	}
	ks := keyString(key)
	if _, dup := members[ks]; dup {
		return fmt.Errorf("objstore: duplicate key %s in set %s", key, id)
	}
	members[ks] = SetEntry{Key: key, Member: member}
	return nil
}

// SetRemove removes the member under key from set id.
func (s *Store) SetRemove(id oid.OID, key val.V) error {
	sh, j := s.locate(id)
	s.op(sh, opRemove)
	sh.mu.Lock()
	defer sh.mu.Unlock()
	members, err := sh.set(id, j)
	if err != nil {
		return err
	}
	ks := keyString(key)
	if _, ok := members[ks]; !ok {
		return fmt.Errorf("objstore: no key %s in set %s", key, id)
	}
	delete(members, ks)
	return nil
}

// SetSelect returns the member stored under key, if any. This is the
// paper's generic Select operation (§2.2).
func (s *Store) SetSelect(id oid.OID, key val.V) (oid.OID, bool, error) {
	sh, j := s.locate(id)
	s.op(sh, opSelect)
	sh.mu.RLock()
	defer sh.mu.RUnlock()
	members, err := sh.set(id, j)
	if err != nil {
		return oid.Nil, false, err
	}
	e, ok := members[keyString(key)]
	if !ok {
		return oid.Nil, false, nil
	}
	return e.Member, true, nil
}

// SetScan returns all entries of set id, sorted by canonical key, so
// scans are deterministic. The entries are snapshotted under the
// shard lock; the O(n log n) sort runs after it is released.
func (s *Store) SetScan(id oid.OID) ([]SetEntry, error) {
	if m := s.om; m.on() {
		start := time.Now()
		entries, err := s.setScan(id)
		m.scanNs.Observe(uint64(time.Since(start)))
		return entries, err
	}
	return s.setScan(id)
}

func (s *Store) setScan(id oid.OID) ([]SetEntry, error) {
	sh, j := s.locate(id)
	s.op(sh, opScan)
	sh.mu.RLock()
	members, err := sh.set(id, j)
	if err != nil {
		sh.mu.RUnlock()
		return nil, err
	}
	keys := make([]string, 0, len(members))
	entries := make([]SetEntry, 0, len(members))
	for k, e := range members {
		keys = append(keys, k)
		entries = append(entries, e)
	}
	sh.mu.RUnlock()
	sort.Sort(&entrySorter{keys: keys, entries: entries})
	return entries, nil
}

// entrySorter sorts entries by their canonical key without
// re-canonicalising per comparison.
type entrySorter struct {
	keys    []string
	entries []SetEntry
}

func (es *entrySorter) Len() int           { return len(es.keys) }
func (es *entrySorter) Less(i, j int) bool { return es.keys[i] < es.keys[j] }
func (es *entrySorter) Swap(i, j int) {
	es.keys[i], es.keys[j] = es.keys[j], es.keys[i]
	es.entries[i], es.entries[j] = es.entries[j], es.entries[i]
}

// SetLen returns the number of members in set id.
func (s *Store) SetLen(id oid.OID) (int, error) {
	sh, j := s.locate(id)
	sh.mu.RLock()
	defer sh.mu.RUnlock()
	members, err := sh.set(id, j)
	if err != nil {
		return 0, err
	}
	return len(members), nil
}

// Kind returns the kind of object id, or Invalid if unknown.
func (s *Store) Kind(id oid.OID) oid.Kind {
	sh, j := s.locate(id)
	sh.mu.RLock()
	defer sh.mu.RUnlock()
	if _, ok := sh.entry(id, j, id.K); ok {
		return id.K
	}
	return oid.Invalid
}

// SetTag records tag — the caller's name for the encapsulated type
// object id is an instance of — in id's directory entry; 0 clears it.
func (s *Store) SetTag(id oid.OID, tag uint32) error {
	sh, j := s.locate(id)
	sh.mu.Lock()
	defer sh.mu.Unlock()
	e, ok := sh.entry(id, j, id.K)
	if !ok {
		return fmt.Errorf("objstore: no object %s", id)
	}
	e.tag = tag
	return nil
}

// Tag returns the tag SetTag recorded for object id, or 0 if it has
// none or the store does not hold id.
func (s *Store) Tag(id oid.OID) uint32 {
	sh, j := s.locate(id)
	sh.mu.RLock()
	defer sh.mu.RUnlock()
	if e, ok := sh.entry(id, j, id.K); ok {
		return e.tag
	}
	return 0
}

// DumpAtom renders "oid=value" for diagnostics and state comparison.
func (s *Store) DumpAtom(id oid.OID) string {
	v, err := s.ReadAtomic(id)
	if err != nil {
		return fmt.Sprintf("%s=<err:%v>", id, err)
	}
	return fmt.Sprintf("%s=%s", id, v)
}

// DumpSubgraph renders the object graph rooted at id, one line per
// object, depth-first with stable ordering. It visits one object (one
// shard) at a time, so it never freezes the whole store. Used by tests
// that compare database states for serial equivalence.
func (s *Store) DumpSubgraph(id oid.OID) string {
	var b strings.Builder
	seen := make(map[oid.OID]bool)
	s.dump(&b, id, 0, seen)
	return b.String()
}

func (s *Store) dump(b *strings.Builder, id oid.OID, depth int, seen map[oid.OID]bool) {
	indent := strings.Repeat("  ", depth)
	if seen[id] {
		fmt.Fprintf(b, "%s%s (shared)\n", indent, id)
		return
	}
	seen[id] = true
	switch s.Kind(id) {
	case oid.Atomic:
		fmt.Fprintf(b, "%s%s\n", indent, s.DumpAtom(id))
	case oid.Tuple:
		fmt.Fprintf(b, "%s%s tuple\n", indent, id)
		names, _ := s.TupleComponents(id)
		for _, n := range names {
			c, _ := s.TupleGet(id, n)
			fmt.Fprintf(b, "%s  .%s:\n", indent, n)
			s.dump(b, c, depth+2, seen)
		}
	case oid.Set:
		fmt.Fprintf(b, "%s%s set\n", indent, id)
		entries, _ := s.SetScan(id)
		for _, e := range entries {
			fmt.Fprintf(b, "%s  [%s]:\n", indent, e.Key)
			s.dump(b, e.Member, depth+2, seen)
		}
	default:
		fmt.Fprintf(b, "%s%s <unknown>\n", indent, id)
	}
}

// ceilPow2 rounds n up to the next power of two.
func ceilPow2(n int) int {
	p := 1
	for p < n {
		p <<= 1
	}
	return p
}
