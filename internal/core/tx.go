// Package core implements the paper's contribution: the semantic
// locking protocol for open nested transactions in OODBs (paper §3–§4,
// Figs. 8 and 9), together with the baseline protocols it is compared
// against (conventional strict 2PL on objects or pages, closed nested
// transactions, and the retained-lock-free open protocol of §3).
//
// A transaction is a dynamic tree of invocation nodes. Every node
// corresponds to one method (or generic operation) execution and is a
// subtransaction; the root is the top-level transaction, modelled as
// an action on the database pseudo-object. Each node acquires a
// semantic lock on its receiver before executing. When a node
// completes, its locks are retained (owner marked committed) rather
// than released; all locks are dropped at top-level commit or abort.
//
// # Concurrency contract
//
// A transaction tree is driven by one goroutine at a time (the oodb
// layer's Tx documents the same rule); different trees run fully
// concurrently. Tree-local state (children, locks, undo) is therefore
// written only by the owning goroutine. The fields foreign trees read
// during conflict testing — a node's lifecycle state and its
// immutable identity (invocation, parent/root links, depth) — are
// either immutable after creation or accessed atomically, so the
// sharded lock manager never needs an engine-wide mutex.
package core

import (
	"fmt"
	"sync"
	"sync/atomic"

	"semcc/internal/compat"
	"semcc/internal/obs"
)

// State is the lifecycle state of a transaction node.
type State uint8

const (
	// Active nodes are executing (or waiting for a lock).
	Active State = iota
	// Committed nodes have completed; their locks are retained.
	Committed
	// Aborted nodes were rolled back; their locks are released.
	Aborted
)

// String returns the state name.
func (s State) String() string {
	switch s {
	case Active:
		return "active"
	case Committed:
		return "committed"
	default:
		return "aborted"
	}
}

// Tx is one node of an open nested transaction tree: the root
// (top-level transaction) or a subtransaction created by a method
// invocation. Tx values are created and completed only through the
// Engine.
type Tx struct {
	id     uint64
	inv    compat.Invocation
	parent *Tx
	root   *Tx
	depth  int

	// state holds a State value; atomic because conflict tests read
	// foreign nodes' states while their trees transition them.
	state atomic.Uint32
	done  chan struct{} // closed when state leaves Active

	// children is written by the tree's driving goroutine under the
	// root's treeMu; Forest snapshots read it under the same mutex.
	children []*Tx

	// treeMu (used on roots only) guards children appends against
	// concurrent Forest snapshots. Within a tree it is uncontended:
	// one goroutine drives the tree.
	treeMu sync.Mutex

	// locks acquired by this node (usually exactly one: the semantic
	// lock on inv.Object; baselines may take zero), plus any inherited
	// from closed-nested children. Tree-local.
	locks []*lock
	// own is the one lock the node itself requests and lockBuf the
	// first backing array of locks, both embedded so that acquiring
	// the lock allocates nothing beyond the node.
	own     lock
	lockBuf [1]*lock

	// undo is the compensation log: inverse invocations for this
	// node's committed children (and physical-equivalent inverses for
	// its leaf writes), in forward order. Applied in reverse on abort.
	// Tree-local.
	undo []compat.Invocation

	// beginSeq/endSeq are logical timestamps for history recording.
	beginSeq, endSeq int64

	// compensating marks nodes executing compensation during an
	// abort. Compensating requests skip FCFS queueing and are never
	// chosen as deadlock victims: open nested transactions cannot
	// abort without compensation, so compensation must drain.
	// Tree-local (only ever read on the owning tree's paths).
	compensating bool

	// span is this node's observability span (nil unless the engine's
	// Obs was enabled when the root began). Tree-local while the tree
	// runs; published immutably when the root finishes.
	span *obs.Span
}

// State returns the node's lifecycle state.
func (t *Tx) State() State { return State(t.state.Load()) }

func (t *Tx) setState(s State) { t.state.Store(uint32(s)) }

// ID returns the node's unique id.
func (t *Tx) ID() uint64 { return t.id }

// Invocation returns the invocation this node executes.
func (t *Tx) Invocation() compat.Invocation { return t.inv }

// Parent returns the parent node (nil for roots).
func (t *Tx) Parent() *Tx { return t.parent }

// Root returns the top-level transaction of this node's tree.
func (t *Tx) Root() *Tx { return t.root }

// Depth returns the node's depth (0 for roots).
func (t *Tx) Depth() int { return t.depth }

// IsRoot reports whether t is a top-level transaction.
func (t *Tx) IsRoot() bool { return t.parent == nil }

// Idle reports whether the node has executed nothing: no child was ever
// begun under it. Call from the goroutine driving the tree.
func (t *Tx) Idle() bool { return len(t.children) == 0 }

// Done returns a channel closed when the node commits or aborts.
func (t *Tx) Done() <-chan struct{} { return t.done }

// Span returns the node's observability span, nil when span collection
// was off at root begin. Callers may use it unconditionally: all
// *obs.Span methods are nil-safe.
func (t *Tx) Span() *obs.Span { return t.span }

// String renders the node for diagnostics; a type's method shows as
// its id (Engine.Describe names it).
func (t *Tx) String() string { return t.describe(nil) }

// describe renders the node with its method named by table, if any.
func (t *Tx) describe(table compat.Table) string {
	if table == nil {
		return fmt.Sprintf("tx%d[%s]", t.id, t.inv)
	}
	return fmt.Sprintf("tx%d[%s]", t.id, t.inv.Format(table.Name(t.inv)))
}

// ancestors returns the strict ancestor chain bottom-up:
// parent, grandparent, …, root (paper §4.2 "ancestor chain").
func (t *Tx) ancestors() []*Tx {
	var out []*Tx
	for a := t.parent; a != nil; a = a.parent {
		out = append(out, a)
	}
	return out
}

// isAncestorOf reports whether t is a strict ancestor of u.
func (t *Tx) isAncestorOf(u *Tx) bool {
	for a := u.parent; a != nil; a = a.parent {
		if a == t {
			return true
		}
	}
	return false
}

// eachNode visits t and all descendants depth-first.
func (t *Tx) eachNode(f func(*Tx)) {
	f(t)
	for _, c := range t.children {
		c.eachNode(f)
	}
}
