// Package dist splits the engine along the shard boundary: an
// in-process multi-node topology in which each node owns an OID shard
// range with its own lock table, buffer pool, and WAL,
// and a coordinator routes method invocations and bypass operations by
// OID ownership, committing cross-node roots with a two-phase commit
// over the per-node journals.
//
// The split mirrors the paper's architecture at a coarser grain: the
// object store was already sharded for concurrency inside one engine;
// here the same ownership function — derived from the OID alone —
// partitions whole engines, so every node runs the unmodified semantic
// protocol on its own objects and only the transaction boundary
// (begin, prepare, decide, commit, abort) crosses nodes.
package dist

import (
	"errors"
	"sync"

	"semcc/internal/compat"
	"semcc/internal/core/waitgraph"
	"semcc/internal/objstore"
	"semcc/internal/obs"
	"semcc/internal/val"
)

// ErrNodeDown is returned for any request sent to a node that is down
// (killed by the chaos driver, or crashed mid-request). Callers treat
// it like a crash: the node's volatile state is gone and its branches
// resolve at recovery.
var ErrNodeDown = errors.New("dist: node down")

// OpKind enumerates the request types of the node protocol.
type OpKind int

const (
	// OpBegin creates a branch (a local top-level transaction) for a
	// global transaction on the node.
	OpBegin OpKind = iota
	// OpInvoke runs one invocation — a method call or a generic bypass
	// operation — inside the global transaction's branch.
	OpInvoke
	// OpScan enumerates the set in Request.Inv.Object (Scan has a
	// member-list result, so it cannot ride OpInvoke's single value).
	OpScan
	// OpCommit commits the branch locally (single-participant roots and
	// branches that did no work — no 2PC records).
	OpCommit
	// OpAbort rolls the branch back with compensation.
	OpAbort
	// OpPrepare asks the branch for its vote: a branch with work to
	// compensate forces its JPrepare record durable and may no longer be
	// aborted unilaterally; one without commits and answers ReadOnly.
	OpPrepare
	// OpDecide applies the coordinator's decision (Request.Commit) to a
	// prepared branch. Read-only voters get none.
	OpDecide
	// OpEdges snapshots the node's waits-for edges, mapped into the
	// coordinator's global transaction id space.
	OpEdges
	// OpVictim condemns the global transaction's branch for a
	// cross-node deadlock cycle the coordinator found.
	OpVictim

	numOps // count of op kinds (sizes the per-op metric arrays)
)

// String returns the op name (the value of the op= metric label).
func (k OpKind) String() string {
	switch k {
	case OpBegin:
		return "begin"
	case OpInvoke:
		return "invoke"
	case OpScan:
		return "scan"
	case OpCommit:
		return "commit"
	case OpAbort:
		return "abort"
	case OpPrepare:
		return "prepare"
	case OpDecide:
		return "decide"
	case OpEdges:
		return "edges"
	case OpVictim:
		return "victim"
	default:
		return "unknown"
	}
}

// Request is one message of the node protocol. GID is the
// coordinator-assigned global transaction id; which other fields are
// meaningful depends on Op.
type Request struct {
	Op     OpKind
	GID    uint64
	Inv    compat.Invocation // OpInvoke; Inv.Object is the set for OpScan
	Commit bool              // OpDecide: true = commit, false = abort
}

// Response is a request's result. Err carries error values unencoded:
// the in-process transport preserves error identity, so sentinel tests
// (errors.Is against core.ErrDeadlock, ErrNodeDown) keep working
// across the node boundary. A wire transport would need an error
// codec; that is its problem, not the protocol's.
type Response struct {
	Val     val.V
	Entries []objstore.SetEntry // OpScan
	Edges   []waitgraph.Edge    // OpEdges, in GID space
	// ReadOnly is OpPrepare's read-only vote: the branch is committed
	// and gone from the node, and must not be sent a decision.
	ReadOnly bool
	// Span is the branch's finished span tree, carried back by the
	// settling ops (OpCommit, OpAbort, OpDecide, and an OpPrepare that
	// voted read-only) when the node's engine collected one, so the
	// coordinator can graft it into the global transaction's
	// distributed span. Nil when the node's Obs is off.
	// The tree is immutable once the branch finishes, so sharing the
	// pointer across the in-process transport is safe; a wire transport
	// would serialise it like any other result field.
	Span *obs.Span
	Err  error
}

// Transport delivers requests to nodes and their responses back. Start
// hands req to the node and returns without waiting for the answer,
// which arrives as exactly one Response on reply (it must have room:
// capacity 1, nothing else outstanding on it) — so a coordinator can
// have a request in flight on every node at once. Invocations can wait
// on locks for arbitrarily long, so implementations must not serialise
// requests to one node behind each other.
type Transport interface {
	Start(node int, req Request, reply chan<- Response)
	Close()
}

// chanTransport is the in-process transport: one request channel per
// node, an acceptor goroutine per node, and one worker goroutine per
// in-flight request (a fixed pool would deadlock: a request blocked on
// a lock must not prevent the request that will release that lock from
// being served).
type chanTransport struct {
	chans []chan envelope
	wg    sync.WaitGroup
	once  sync.Once
}

type envelope struct {
	req   Request
	reply chan<- Response
}

func newChanTransport(nodes []*Node) *chanTransport {
	t := &chanTransport{chans: make([]chan envelope, len(nodes))}
	for i := range nodes {
		ch := make(chan envelope)
		t.chans[i] = ch
		t.wg.Add(1)
		go func(n *Node, ch chan envelope) {
			defer t.wg.Done()
			var reqs sync.WaitGroup
			for env := range ch {
				reqs.Add(1)
				go func(env envelope) {
					defer reqs.Done()
					env.reply <- n.Handle(env.req)
				}(env)
			}
			reqs.Wait()
		}(nodes[i], ch)
	}
	return t
}

func (t *chanTransport) Start(node int, req Request, reply chan<- Response) {
	t.chans[node] <- envelope{req: req, reply: reply}
}

// Close shuts the acceptors down after in-flight requests drain. The
// caller must have stopped issuing requests.
func (t *chanTransport) Close() {
	t.once.Do(func() {
		for _, ch := range t.chans {
			close(ch)
		}
		t.wg.Wait()
	})
}
