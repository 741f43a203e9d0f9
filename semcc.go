// Package semcc is a Go implementation of the semantic concurrency
// control protocol for object-oriented database systems from
//
//	P. Muth, T. C. Rakow, G. Weikum, P. Brössler, C. Hasse:
//	"Semantic Concurrency Control in Object-Oriented Database
//	Systems", Proc. 9th IEEE ICDE, 1993.
//
// It bundles a small object-oriented database engine (object graph
// model, slotted-page storage, encapsulated types with user-defined
// methods) with an open nested transaction manager whose locking
// protocol exploits method commutativity: compatible method executions
// on the same object run concurrently, subtransactions commit early
// with *retained* semantic locks, and the commutative-ancestor
// conflict test of the paper's Fig. 9 makes the protocol correct even
// when transactions bypass object encapsulation and access
// implementation objects directly.
//
// # Quick start
//
//	db := semcc.Open(semcc.Options{Protocol: semcc.Semantic})
//	counter, _ := adts.NewCounter(db, 0)   // an encapsulated type
//
//	tx := db.Begin()
//	tx.Call(counter, "Inc", semcc.Int(1))
//	tx.Commit()
//
// See examples/ for complete programs, internal/orderentry for the
// paper's running example, DESIGN.md for the architecture, and
// EXPERIMENTS.md for the reproduction of every figure in the paper.
//
// The five implemented concurrency control protocols (Semantic,
// OpenNoRetain, ClosedNested, TwoPLObject, TwoPLPage) are selected via
// Options.Protocol and run on identical machinery, which is what the
// benchmark harness compares.
package semcc

import (
	"semcc/internal/compat"
	"semcc/internal/core"
	"semcc/internal/dist"
	"semcc/internal/obs"
	"semcc/internal/oid"
	"semcc/internal/oodb"
	"semcc/internal/val"
	"semcc/internal/wal"
)

// DB is an object-oriented database instance.
type DB = oodb.DB

// Tx is a top-level transaction.
type Tx = oodb.Tx

// Ctx is the execution context passed to method bodies.
type Ctx = oodb.Ctx

// Type is an encapsulated object type (methods + compatibility
// matrix).
type Type = oodb.Type

// Method is a user-defined method of an encapsulated type.
type Method = oodb.Method

// MethodFunc is a method body.
type MethodFunc = oodb.MethodFunc

// InverseFunc derives a method execution's compensating invocation.
type InverseFunc = oodb.InverseFunc

// Options configure Open.
type Options = oodb.Options

// Open creates an empty database.
func Open(opts Options) *DB { return oodb.Open(opts) }

// NewType builds an encapsulated type; it validates that every method
// appears in the matrix.
func NewType(name string, matrix *Matrix, methods ...*Method) (*Type, error) {
	return oodb.NewType(name, matrix, methods...)
}

// Protocol selects a concurrency control protocol.
type Protocol = core.ProtocolKind

// The implemented protocols. Semantic is the paper's contribution;
// the others are the baselines it is evaluated against.
const (
	// Semantic is the full protocol of the paper's §4.
	Semantic = core.Semantic
	// OpenNoRetain is the §3 protocol without retained locks
	// (incorrect under encapsulation bypass; included to reproduce
	// the paper's Fig. 5).
	OpenNoRetain = core.OpenNoRetain
	// ClosedNested is Moss-style closed nested transactions.
	ClosedNested = core.ClosedNested
	// TwoPLObject is strict two-phase read/write locking on objects.
	TwoPLObject = core.TwoPLObject
	// TwoPLPage is strict two-phase read/write locking on pages.
	TwoPLPage = core.TwoPLPage
)

// Protocols lists all protocols in comparison order.
func Protocols() []Protocol { return core.Protocols() }

// WALMode selects a journal durability mode (see NewJournal and
// Options.Journal).
type WALMode = wal.Mode

// The implemented durability modes. WALSync is the per-record-flush
// baseline; WALGroup is the group-commit pipeline (batched flushes,
// commits park until their batch is durable); WALAsync acknowledges
// commits before the flush, trading the durability of the last few
// acknowledged outcomes for latency.
const (
	WALSync  = wal.ModeSync
	WALGroup = wal.ModeGroup
	WALAsync = wal.ModeAsync
)

// WALModes lists all durability modes in comparison order.
func WALModes() []WALMode { return wal.Modes() }

// WALConfig parameterises NewJournal (mode plus the group-commit
// MaxBatch/MaxDelay knobs).
type WALConfig = wal.Config

// Journal is a write-ahead log usable as Options.Journal: record
// inspection, the batch-framed durable image, Sync/Close lifecycle and
// journal statistics. Close a group or async journal when done with
// the database; an unclosed one holds a parked writer goroutine.
type Journal = wal.Journal

// JournalStats is a point-in-time journal summary.
type JournalStats = wal.JournalStats

// NewJournal builds a journal in the requested durability mode.
func NewJournal(cfg WALConfig) Journal { return wal.New(cfg) }

// ErrDeadlock is returned by operations of a transaction chosen as a
// deadlock victim; abort the transaction and retry it.
var ErrDeadlock = core.ErrDeadlock

// Stats is a snapshot of engine counters.
type Stats = core.StatsSnapshot

// Obs is the cross-layer observability handle: one metrics registry
// (engine, WAL, buffer pool, object store), a per-transaction span
// recorder capturing the open-nested invocation tree, and the lock
// manager's decision events (blocks, waited grants, Fig. 9 case-1
// grants, deadlock victims) with a per-object contention
// profile. Attach one via Options.Obs, switch gated collection on
// with SetEnabled, and read it back through DB.ObservabilityJSON,
// Obs.Events, Obs.WriteProm, or the live HTTP endpoint
// (DB.ServeObservability).
type Obs = obs.Obs

// ObsConfig parameterises NewObs (slow-span threshold and log, span
// ring sizes).
type ObsConfig = obs.Config

// ObsServer is a running observability HTTP endpoint (/metrics,
// /json, /slow, /debug/pprof/).
type ObsServer = obs.Server

// ObsParams parameterises snapshot rendering (Obs.JSON).
type ObsParams = obs.Params

// Span is one node of a recorded transaction tree: a (sub)transaction
// with its outcome, lock-wait time by conflict cause, and WAL /
// storage / compensation cost.
type Span = obs.Span

// NewObs builds an observability handle. It starts disabled; a
// disabled Obs costs one atomic load per instrumentation site and
// its func-backed counters are live either way.
func NewObs(cfg ObsConfig) *Obs { return obs.New(cfg) }

// MergedObs is a read-only union of several Obs handles exposed as one
// endpoint — the cluster view: parts are stamped with identifying
// labels (node="i"), the Prometheus exposition merges families by name
// across parts, and parts added via AddFunc are re-resolved on every
// scrape so a node recovered with a fresh Obs stays live.
// Cluster.MergedObs builds the standard coordinator-plus-nodes layout.
type MergedObs = obs.Merged

// NewMergedObs returns an empty merged observability endpoint; add
// parts with Add/AddFunc.
func NewMergedObs() *MergedObs { return obs.NewMerged() }

// OID identifies a database object.
type OID = oid.OID

// Value is the tagged value union of the object model.
type Value = val.V

// Event is a status event (member of an Events value).
type Event = val.Event

// Null is the null Value.
var Null = val.NullV

// Int builds an integer Value.
func Int(v int64) Value { return val.OfInt(v) }

// Float builds a float Value.
func Float(v float64) Value { return val.OfFloat(v) }

// Str builds a string Value.
func Str(v string) Value { return val.OfStr(v) }

// Bool builds a boolean Value.
func Bool(v bool) Value { return val.OfBool(v) }

// Ref builds an object-reference Value.
func Ref(v OID) Value { return val.OfRef(v) }

// Events builds an event-multiset Value.
func Events(evs ...Event) Value { return val.OfEvents(evs...) }

// Matrix is a commutativity-based compatibility matrix.
type Matrix = compat.Matrix

// Invocation is a method (or generic operation) applied to an object.
type Invocation = compat.Invocation

// Rule decides compatibility of two invocations on the same object.
type Rule = compat.Rule

// NewMatrix creates an empty matrix over the given method universe;
// absent pairs conflict.
func NewMatrix(typeName string, methods ...string) *Matrix {
	return compat.NewMatrix(typeName, methods...)
}

// Always is the Rule for unconditionally compatible pairs.
func Always(a, b Invocation) bool { return compat.Always(a, b) }

// Never is the Rule for unconditionally conflicting pairs.
func Never(a, b Invocation) bool { return compat.Never(a, b) }

// ArgsDiffer returns a Rule that grants compatibility iff the i-th
// arguments differ (parameter-dependent commutativity).
func ArgsDiffer(i int) Rule { return compat.ArgsDiffer(i) }

// Cluster is an in-process multi-node topology: N engine nodes, each
// owning the OID shard its allocator strides over, behind a Transport,
// with root transactions routed through a two-phase-commit
// coordinator and a cross-node deadlock detector merging the nodes'
// waits-for graphs (DESIGN.md §3.14).
type Cluster = dist.Cluster

// ClusterTx is a root transaction spanning a Cluster's nodes: method
// invocations and bypass operations route to the owning node, and
// commit runs two-phase commit over the participants' journals (a
// root that did work on at most one node commits exactly like a
// single-engine root).
type ClusterTx = dist.Tx

// ClusterNode is one engine node of a Cluster, wrapping its own
// database with lock table, buffer pool and journal.
type ClusterNode = dist.Node

// Transport carries the coordinator's per-node operations; the
// in-process implementation backs OpenCluster, and the interface is
// the seam a socket transport plugs into.
type Transport = dist.Transport

// ErrNodeDown is reported (via errors.Is) by cluster operations that
// reached a killed node.
var ErrNodeDown = dist.ErrNodeDown

// ClusterStats is a point-in-time copy of the coordinator's own
// observability counters (commit paths taken, aborts, node-down hops,
// recoveries and in-doubt resolutions, deadlock sweep results); all
// zero until Cluster.AttachObs enables collection.
type ClusterStats = dist.DistStats

// OpenCluster creates an n-node cluster; opts(i) configures node i's
// engine (the cluster overrides each node's OID allocation stride and
// offset so ownership is derivable from any OID).
func OpenCluster(n int, opts func(i int) Options) *Cluster {
	return dist.OpenCluster(n, opts)
}
