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
// The store is sharded: each shard owns a disjoint slice of the
// atoms/tuples/sets directories, its own OID allocation stride, and
// its own RecordStore over the shared buffer pool. An OID's shard is a
// pure function of the OID, so every single-object operation locks
// exactly one shard; set scans snapshot one shard and sort outside the
// lock (DESIGN.md §3.9).
//
// The store itself provides only *physical* operations and
// latch-level safety. Transactional isolation is implemented above it
// by internal/core.
package objstore

import (
	"fmt"
	"math"
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

// tupleObj is a tuple's directory entry. A tuple type is a fixed
// component list (Malta & Martinez, "Tuple-based abstract data types:
// full parallelism"), so an instance is only a component vector:
// component i is comps[start+i] of its shard's arena and is named
// schemas[schema][i]. Navigation t.c is addressing into the schema,
// not a hash lookup per instance — and the entry holds no pointer, so
// the collector never walks the tuple directory.
type tupleObj struct {
	schema uint32
	start  uint32
}

type setObj struct {
	members map[string]SetEntry // canonical key string -> entry
}

// shard owns one stripe of the object directories. All fields behind
// mu; next is atomic so OID allocation never waits on directory
// traffic in other shards.
type shard struct {
	mu      sync.RWMutex
	records *storage.RecordStore
	// atoms and tuples, the two directories with an entry per order,
	// are pointer-free in key and value: their buckets are never
	// scanned by the collector.
	atoms  map[oid.OID]storage.RID
	tuples map[oid.OID]tupleObj
	// schemas holds each distinct component-name list once; comps is
	// the arena of this shard's tuples' component vectors, back to
	// back (tuples are never deleted).
	schemas [][]string
	comps   []oid.OID
	sets    map[oid.OID]*setObj
	next    atomic.Uint64 // per-shard OID sequence counter
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

// op counts one operation against the shard owning id's stride slot.
func (s *Store) op(shardIdx uint64, op int) {
	if m := s.om; m.on() {
		m.ops[int(shardIdx)*numStoreOps+op].Inc()
	}
}

// Store is the object store. All methods are safe for concurrent use.
type Store struct {
	pool   *storage.Pool
	shards []shard
	mask   uint64
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
		stride: uint64(stride),
		offset: uint64(cfg.OIDOffset),
	}
	s.AttachObs(cfg.Obs)
	for i := range s.shards {
		sh := &s.shards[i]
		sh.records = storage.NewRecordStore(pool)
		sh.atoms = make(map[oid.OID]storage.RID)
		sh.tuples = make(map[oid.OID]tupleObj)
		sh.sets = make(map[oid.OID]*setObj)
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

// localIdx maps id to this store's shard index. The store's own local
// 0-based allocation position is (id.N-1-offset)/stride; masking it
// picks the shard. A foreign OID (one outside this store's stride
// residue) still maps to *some* shard — its directory lookup simply
// misses, which is the desired "no such object" behaviour.
func (s *Store) localIdx(id oid.OID) uint64 {
	return ((id.N - 1 - s.offset) / s.stride) & s.mask
}

// shardOf returns the shard owning id. OIDs are allocated in strides
// of len(shards): shard i hands out local positions ≡ i (mod shards),
// so ownership is derivable from the OID alone and every
// single-object operation is single-shard.
func (s *Store) shardOf(id oid.OID) *shard {
	return &s.shards[s.localIdx(id)]
}

// alloc picks the next creation shard round-robin and allocates a
// fresh OID of the given kind from its stride. The store's dense local
// position sequence (0, 1, 2, …) is spread over the global OID space
// as n = pos*stride + offset + 1, so with stride 1 the sequence is the
// classic 1, 2, 3, … and with stride N the store owns exactly the
// residue class offset (mod N).
func (s *Store) alloc(k oid.Kind) (*shard, oid.OID) {
	i := (s.rr.Add(1) - 1) & s.mask
	sh := &s.shards[i]
	pos := (sh.next.Add(1)-1)*uint64(len(s.shards)) + i
	n := pos*s.stride + s.offset + 1
	s.op(i, opAlloc)
	return sh, oid.OID{K: k, N: n}
}

// keyString canonicalises a key value for map lookup.
func keyString(k val.V) string { return k.String() }

// NewAtomic creates an atomic object with the given initial value.
func (s *Store) NewAtomic(initial val.V) (oid.OID, error) {
	sh, id := s.alloc(oid.Atomic)
	rid, err := sh.records.Insert(initial.Marshal())
	if err != nil {
		return oid.Nil, err
	}
	sh.mu.Lock()
	sh.atoms[id] = rid
	sh.mu.Unlock()
	return id, nil
}

// ReadAtomic returns the current value of atomic object id.
func (s *Store) ReadAtomic(id oid.OID) (val.V, error) {
	s.op(s.localIdx(id), opRead)
	sh := s.shardOf(id)
	sh.mu.RLock()
	rid, ok := sh.atoms[id]
	sh.mu.RUnlock()
	if !ok {
		return val.NullV, fmt.Errorf("objstore: no atomic object %s", id)
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
	s.op(s.localIdx(id), opWrite)
	sh := s.shardOf(id)
	sh.mu.RLock()
	rid, ok := sh.atoms[id]
	sh.mu.RUnlock()
	if !ok {
		return fmt.Errorf("objstore: no atomic object %s", id)
	}
	_, err := sh.records.Update(rid, v.Marshal())
	return err
}

// AddAtomic adds delta to the integer value of atomic object id and
// returns the new value. Unlike WriteAtomic, the read-modify-write
// runs under the shard's exclusive lock, so concurrent AddAtomics
// never lose updates — the physical guarantee behind the blind OpAdd
// leaf operation (Add/Add commutes at the lock level, so the engine
// admits them concurrently and the store must make them atomic).
func (s *Store) AddAtomic(id oid.OID, delta int64) (val.V, error) {
	s.op(s.localIdx(id), opWrite)
	sh := s.shardOf(id)
	sh.mu.Lock()
	defer sh.mu.Unlock()
	rid, ok := sh.atoms[id]
	if !ok {
		return val.NullV, fmt.Errorf("objstore: no atomic object %s", id)
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
	sh := s.shardOf(id)
	sh.mu.RLock()
	defer sh.mu.RUnlock()
	rid, ok := sh.atoms[id]
	if !ok {
		return oid.Nil, fmt.Errorf("objstore: no atomic object %s", id)
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
	sh, id := s.alloc(oid.Tuple)
	sh.mu.Lock()
	defer sh.mu.Unlock()
	if len(sh.comps)+len(names) > math.MaxUint32 {
		return oid.Nil, fmt.Errorf("objstore: tuple component arena full")
	}
	t := tupleObj{schema: sh.schemaOf(names), start: uint32(len(sh.comps))}
	for _, n := range names {
		sh.comps = append(sh.comps, comps[n])
	}
	sh.tuples[id] = t
	return id, nil
}

// TupleGet returns the OID of component name of tuple id.
func (s *Store) TupleGet(id oid.OID, name string) (oid.OID, error) {
	sh := s.shardOf(id)
	sh.mu.RLock()
	defer sh.mu.RUnlock()
	t, ok := sh.tuples[id]
	if !ok {
		return oid.Nil, fmt.Errorf("objstore: no tuple object %s", id)
	}
	for i, n := range sh.schemas[t.schema] {
		if n == name {
			return sh.comps[int(t.start)+i], nil
		}
	}
	return oid.Nil, fmt.Errorf("objstore: tuple %s has no component %q", id, name)
}

// TupleComponents returns the component names of tuple id in
// definition order.
func (s *Store) TupleComponents(id oid.OID) ([]string, error) {
	sh := s.shardOf(id)
	sh.mu.RLock()
	defer sh.mu.RUnlock()
	t, ok := sh.tuples[id]
	if !ok {
		return nil, fmt.Errorf("objstore: no tuple object %s", id)
	}
	return append([]string(nil), sh.schemas[t.schema]...), nil
}

// NewSet creates an empty set object.
func (s *Store) NewSet() (oid.OID, error) {
	sh, id := s.alloc(oid.Set)
	sh.mu.Lock()
	sh.sets[id] = &setObj{members: make(map[string]SetEntry)}
	sh.mu.Unlock()
	return id, nil
}

// SetInsert adds member under key to set id. Inserting an existing key
// fails.
func (s *Store) SetInsert(id oid.OID, key val.V, member oid.OID) error {
	s.op(s.localIdx(id), opInsert)
	sh := s.shardOf(id)
	sh.mu.Lock()
	defer sh.mu.Unlock()
	set, ok := sh.sets[id]
	if !ok {
		return fmt.Errorf("objstore: no set object %s", id)
	}
	ks := keyString(key)
	if _, dup := set.members[ks]; dup {
		return fmt.Errorf("objstore: duplicate key %s in set %s", key, id)
	}
	set.members[ks] = SetEntry{Key: key, Member: member}
	return nil
}

// SetRemove removes the member under key from set id.
func (s *Store) SetRemove(id oid.OID, key val.V) error {
	s.op(s.localIdx(id), opRemove)
	sh := s.shardOf(id)
	sh.mu.Lock()
	defer sh.mu.Unlock()
	set, ok := sh.sets[id]
	if !ok {
		return fmt.Errorf("objstore: no set object %s", id)
	}
	ks := keyString(key)
	if _, ok := set.members[ks]; !ok {
		return fmt.Errorf("objstore: no key %s in set %s", key, id)
	}
	delete(set.members, ks)
	return nil
}

// SetSelect returns the member stored under key, if any. This is the
// paper's generic Select operation (§2.2).
func (s *Store) SetSelect(id oid.OID, key val.V) (oid.OID, bool, error) {
	s.op(s.localIdx(id), opSelect)
	sh := s.shardOf(id)
	sh.mu.RLock()
	defer sh.mu.RUnlock()
	set, ok := sh.sets[id]
	if !ok {
		return oid.Nil, false, fmt.Errorf("objstore: no set object %s", id)
	}
	e, ok := set.members[keyString(key)]
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
		m.ops[int(s.localIdx(id))*numStoreOps+opScan].Inc()
		start := time.Now()
		entries, err := s.setScan(id)
		m.scanNs.Observe(uint64(time.Since(start)))
		return entries, err
	}
	return s.setScan(id)
}

func (s *Store) setScan(id oid.OID) ([]SetEntry, error) {
	sh := s.shardOf(id)
	sh.mu.RLock()
	set, ok := sh.sets[id]
	if !ok {
		sh.mu.RUnlock()
		return nil, fmt.Errorf("objstore: no set object %s", id)
	}
	keys := make([]string, 0, len(set.members))
	entries := make([]SetEntry, 0, len(set.members))
	for k, e := range set.members {
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
	sh := s.shardOf(id)
	sh.mu.RLock()
	defer sh.mu.RUnlock()
	set, ok := sh.sets[id]
	if !ok {
		return 0, fmt.Errorf("objstore: no set object %s", id)
	}
	return len(set.members), nil
}

// Kind returns the kind of object id, or Invalid if unknown.
func (s *Store) Kind(id oid.OID) oid.Kind {
	sh := s.shardOf(id)
	sh.mu.RLock()
	defer sh.mu.RUnlock()
	if _, ok := sh.atoms[id]; ok {
		return oid.Atomic
	}
	if _, ok := sh.tuples[id]; ok {
		return oid.Tuple
	}
	if _, ok := sh.sets[id]; ok {
		return oid.Set
	}
	return oid.Invalid
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
