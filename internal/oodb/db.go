package oodb

import (
	"sync"

	"semcc/internal/clock"
	"semcc/internal/compat"
	"semcc/internal/core"
	"semcc/internal/objstore"
	"semcc/internal/obs"
	"semcc/internal/oid"
	"semcc/internal/val"
)

// Options configure a DB.
type Options struct {
	// Protocol selects the concurrency control protocol. Default:
	// the paper's semantic protocol.
	Protocol core.ProtocolKind
	// Record enables history recording (for the serializability
	// checker). Leave off for benchmarks.
	Record bool
	// PoolFrames sizes the storage buffer pool; 0 selects a default.
	PoolFrames int
	// NoAncestorRelief forwards the experiments' ablation knob: it
	// disables the Fig. 9 commutative-ancestor cases in the engine.
	NoAncestorRelief bool
	// Journal, when set, receives write-ahead-log records for restart
	// recovery (internal/wal).
	Journal core.Journal
	// Obs, when set, attaches the cross-layer observability handle
	// (internal/obs): unified metrics registry over engine, WAL,
	// buffer pool, and object store, per-transaction span trees, and
	// the lock manager's decision events with the per-object
	// contention profile. When nil the DB creates a private disabled
	// Obs, so ObservabilityJSON and ServeObservability always work;
	// gated collection (spans, events, latency histograms, per-shard op
	// counts) starts only after Obs.SetEnabled(true) or
	// ServeObservability.
	Obs *obs.Obs
	// Hooks passes test callbacks to the engine.
	Hooks core.Hooks
	// OIDStride and OIDOffset interleave this database's OID sequence
	// with other nodes' in a multi-node topology (internal/dist): the
	// store allocates only OIDs N with (N-1) mod OIDStride == OIDOffset,
	// so object ownership is derivable from the OID alone. Zero values
	// reproduce the dense single-node sequence.
	OIDStride int
	OIDOffset int
	// Clock supplies the engine's wall-time measurements (span WAL
	// timing, lock-wait attribution). Nil selects the real clock;
	// deterministic harnesses (internal/chaos) inject clock.Fake.
	Clock clock.Clock
}

// DB is an object-oriented database: an object store, a schema of
// encapsulated types, and a transactional engine running one of the
// implemented concurrency control protocols.
type DB struct {
	store  *objstore.Store
	reg    *typeRegistry
	engine *core.Engine
	obs    *obs.Obs
	// clk times the store operations charged to spans: the engine's
	// clock, Options.Clock or the wall clock.
	clk clock.Clock
	// journal is Options.Journal: the schema records go there.
	journal core.Journal

	mu    sync.RWMutex
	named map[string]oid.OID
}

// Open creates an empty database.
func Open(opts Options) *DB {
	o := opts.Obs
	if o == nil {
		o = obs.New(obs.Config{})
	}
	db := &DB{
		store: objstore.NewStore(objstore.Config{
			PoolFrames: opts.PoolFrames,
			Obs:        o,
			OIDStride:  opts.OIDStride,
			OIDOffset:  opts.OIDOffset,
		}),
		named: make(map[string]oid.OID),
		obs:   o,
	}
	db.reg = newTypeRegistry(db.store)
	db.finishOpen(opts)
	return db
}

// Reopen simulates a restart after a crash: the returned DB shares
// the old one's object store (the "disk"), schema registry (method
// bodies are code and survive a crash), and name bindings, but gets a
// fresh engine — all volatile state (lock table, transaction trees)
// is gone. The old DB must not be used afterwards.
func Reopen(old *DB, opts Options) *DB {
	o := opts.Obs
	if o == nil {
		o = obs.New(obs.Config{})
	}
	db := &DB{
		store: old.store,
		reg:   old.reg,
		named: old.named,
		obs:   o,
	}
	// The store survived the "crash"; rebind its metrics to the new
	// instance's registry so the reopened DB's exports cover it.
	db.store.AttachObs(o)
	db.finishOpen(opts)
	return db
}

// finishOpen builds the engine and wires the observability handle:
// engine stats register as func-backed metrics, the journal (if it
// implements obs.Attacher, as *wal.Log does) registers its own, and
// the protocol plus the engine-stats section feed the merged JSON
// export.
func (db *DB) finishOpen(opts Options) {
	db.clk = clock.Or(opts.Clock)
	db.journal = opts.Journal
	db.engine = core.New(core.Config{
		Kind:             opts.Protocol,
		Table:            db.reg,
		PageOf:           db.store.PageOf,
		Record:           opts.Record,
		NoAncestorRelief: opts.NoAncestorRelief,
		Journal:          opts.Journal,
		Obs:              db.obs,
		Hooks:            opts.Hooks,
		Clock:            db.clk,
	})
	db.engine.SetExec(func(parent *core.Tx, inv compat.Invocation) error {
		_, err := db.invoke(parent, inv)
		return err
	})
	if a, ok := opts.Journal.(obs.Attacher); ok {
		a.AttachObs(db.obs)
	}
	db.obs.SetConst("protocol", db.engine.Kind().String())
	db.obs.Section("stats", func(obs.Params) any { return db.engine.Stats() })
	for _, t := range (*db.reg.types.Load())[1:] {
		db.journalSchema(t)
	}
}

// journalSchema writes t's schema record (core.JSchema) to the journal:
// the type name, then its method names in id order.
func (db *DB) journalSchema(t *Type) {
	if db.journal == nil {
		return
	}
	args := []val.V{val.OfStr(t.Name)}
	for _, m := range t.Matrix.Methods() {
		args = append(args, val.OfStr(m))
	}
	db.journal.Append(core.JournalRecord{Kind: core.JSchema, Inv: &compat.Invocation{Object: oid.DB, Method: compat.OpRoot, Args: args}})
}

// Protocol returns the concurrency control protocol in effect.
func (db *DB) Protocol() core.ProtocolKind { return db.engine.Kind() }

// Engine exposes the concurrency control engine (stats, probes,
// history snapshots).
func (db *DB) Engine() *core.Engine { return db.engine }

// Store exposes the physical object store. Intended for schema
// population helpers and state-comparison in tests; transactional
// code must access objects through Tx/Ctx.
func (db *DB) Store() *objstore.Store { return db.store }

// RegisterType installs an encapsulated type in the schema and
// journals its schema record.
func (db *DB) RegisterType(t *Type) error {
	err := db.reg.register(t)
	if err == nil {
		db.journalSchema(t)
	}
	return err
}

// TypeByName returns a registered type.
func (db *DB) TypeByName(name string) (*Type, bool) { return db.reg.typeByName(name) }

// BindInstance declares obj to be an instance of the named type, so
// method invocations on it resolve and its matrix governs
// compatibility. Population code calls this when creating objects
// outside a transaction; Ctx.NewInstance is the transactional path.
func (db *DB) BindInstance(obj oid.OID, typeName string) error {
	return db.reg.bindInstance(obj, typeName)
}

// TypeOf returns the encapsulated type of obj, if any.
func (db *DB) TypeOf(obj oid.OID) (*Type, bool) { return db.reg.typeOf(obj) }

// Bind gives a database-root object a name (e.g. "Items").
func (db *DB) Bind(name string, obj oid.OID) {
	db.mu.Lock()
	db.named[name] = obj
	db.mu.Unlock()
}

// Lookup resolves a bound name.
func (db *DB) Lookup(name string) (oid.OID, bool) {
	db.mu.RLock()
	defer db.mu.RUnlock()
	o, ok := db.named[name]
	return o, ok
}

// Names returns all bound names.
func (db *DB) Names() []string {
	db.mu.RLock()
	defer db.mu.RUnlock()
	out := make([]string, 0, len(db.named))
	for n := range db.named {
		out = append(out, n)
	}
	return out
}

// Component navigates a tuple to a component's OID without locking.
// Tuple structure is immutable after creation, so navigation is pure
// addressing (paper §2.2 writes it as t.c).
func (db *DB) Component(tuple oid.OID, name string) (oid.OID, error) {
	return db.store.TupleGet(tuple, name)
}

// ComponentPath navigates a chain of tuple components.
func (db *DB) ComponentPath(obj oid.OID, names ...string) (oid.OID, error) {
	cur := obj
	for _, n := range names {
		next, err := db.store.TupleGet(cur, n)
		if err != nil {
			return oid.Nil, err
		}
		cur = next
	}
	return cur, nil
}

// ReadAtom reads an atomic object's value outside any transaction —
// for test assertions and population checks only.
func (db *DB) ReadAtom(obj oid.OID) (val.V, error) { return db.store.ReadAtomic(obj) }

// Obs returns the database's observability handle (never nil; a
// private disabled one is created when Options.Obs was unset).
func (db *DB) Obs() *obs.Obs { return db.obs }

// ObservabilityJSON renders the merged observability snapshot: the
// protocol, the engine's monotone concurrency-control counters
// ("stats"), the decision events and contention profile ("trace"),
// and the unified registry + span sections covering lock
// manager, WAL, buffer pool, and object store ("metrics", "spans").
// Safe to call while transactions run; counters are then monotone per
// field but not a single consistent cut (see core.Stats).
func (db *DB) ObservabilityJSON(topK, recentEvents int) ([]byte, error) {
	return db.obs.JSON(obs.Params{TopK: topK, Recent: recentEvents})
}

// ServeObservability enables gated collection and starts the live
// observability endpoint on addr (e.g. "127.0.0.1:0"): Prometheus
// text at /metrics, the JSON snapshot at /json, the slow-transaction
// span log at /slow, and net/http/pprof under /debug/pprof/. Close
// the returned server to stop serving (collection stays enabled).
func (db *DB) ServeObservability(addr string) (*obs.Server, error) {
	db.obs.SetEnabled(true)
	return db.obs.Serve(addr)
}
