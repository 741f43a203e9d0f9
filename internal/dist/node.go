package dist

import (
	"fmt"
	"sync"

	"semcc/internal/core/waitgraph"
	"semcc/internal/oodb"
)

// Node wraps one engine (one *oodb.DB with its own lock table, buffer
// pool, and journal) as a participant in the multi-node topology. It owns the branch directory: which local root belongs to
// which global transaction.
type Node struct {
	index int

	mu    sync.Mutex
	db    *oodb.DB
	dead  bool
	byGID map[uint64]*oodb.Tx // global transaction id → local branch
	gidOf map[uint64]uint64   // local root id → global transaction id
}

// NewNode wraps db as node index of a cluster.
func NewNode(index int, db *oodb.DB) *Node {
	return &Node{
		index: index,
		db:    db,
		byGID: make(map[uint64]*oodb.Tx),
		gidOf: make(map[uint64]uint64),
	}
}

// Index returns the node's position in the cluster.
func (n *Node) Index() int { return n.index }

// DB returns the node's current database (after a Revive, the
// recovered one).
func (n *Node) DB() *oodb.DB {
	n.mu.Lock()
	defer n.mu.Unlock()
	return n.db
}

// Down reports whether the node is currently down.
func (n *Node) Down() bool {
	n.mu.Lock()
	defer n.mu.Unlock()
	return n.dead
}

// Kill takes the node down: every subsequent request answers
// ErrNodeDown until Revive. The store and journal keep whatever was
// durable; volatile state (branches, locks) is abandoned exactly as a
// process crash would abandon it.
func (n *Node) Kill() {
	n.mu.Lock()
	n.dead = true
	n.mu.Unlock()
}

// Revive brings the node back up over db — the recovered database
// (oodb.Reopen + wal recovery over the surviving store). The branch
// directory is reset: a restart forgets volatile state.
func (n *Node) Revive(db *oodb.DB) {
	n.mu.Lock()
	n.db = db
	n.dead = false
	n.byGID = make(map[uint64]*oodb.Tx)
	n.gidOf = make(map[uint64]uint64)
	n.mu.Unlock()
}

// GIDOf maps a local root id to its global transaction id (the chaos
// driver resolves journal records — which carry local ids — to global
// transactions with it).
func (n *Node) GIDOf(localRoot uint64) (uint64, bool) {
	n.mu.Lock()
	defer n.mu.Unlock()
	gid, ok := n.gidOf[localRoot]
	return gid, ok
}

// Handle serves one request. It runs on the transport's per-request
// goroutine and may block (lock waits). A panic during handling models
// a node crash — the injected crash journals panic at their configured
// append — so it is absorbed here: the node goes down, the requester
// sees ErrNodeDown, and the store keeps exactly what was durable at
// the instant of the panic.
func (n *Node) Handle(req Request) (resp Response) {
	n.mu.Lock()
	if n.dead {
		n.mu.Unlock()
		return Response{Err: fmt.Errorf("node %d: %w", n.index, ErrNodeDown)}
	}
	db := n.db
	tx := n.byGID[req.GID]
	n.mu.Unlock()

	defer func() {
		if r := recover(); r != nil {
			n.Kill()
			resp = Response{Err: fmt.Errorf("node %d crashed (%v): %w", n.index, r, ErrNodeDown)}
		}
	}()

	switch req.Op {
	case OpBegin:
		if tx != nil { // a second branch would strand the first one's locks
			return Response{Err: fmt.Errorf("dist: node %d already has a branch for global tx %d", n.index, req.GID)}
		}
		t := db.Begin()
		n.mu.Lock()
		n.byGID[req.GID] = t
		n.gidOf[t.Root().ID()] = req.GID
		n.mu.Unlock()
		return Response{}
	case OpEdges:
		edges := db.Engine().WaitEdges()
		n.mu.Lock()
		out := make([]waitgraph.Edge, 0, len(edges))
		for _, e := range edges {
			// Edges whose endpoints are not cluster branches (a root
			// begun directly on the node's DB) cannot participate in a
			// cross-node cycle through the coordinator; drop them.
			w, ok1 := n.gidOf[e.Waiter]
			t, ok2 := n.gidOf[e.Target]
			if ok1 && ok2 {
				out = append(out, waitgraph.Edge{Waiter: w, Target: t})
			}
		}
		n.mu.Unlock()
		return Response{Edges: out}
	case OpVictim:
		if tx != nil {
			db.Engine().VictimizeRoot(tx.Root().ID())
		}
		return Response{}
	}

	if tx == nil {
		return Response{Err: fmt.Errorf("dist: node %d has no branch for global tx %d", n.index, req.GID)}
	}
	switch req.Op {
	case OpInvoke:
		v, err := tx.Exec(req.Inv)
		return Response{Val: v, Err: err}
	case OpScan:
		entries, err := tx.Scan(req.Inv.Object)
		return Response{Entries: entries, Err: err}
	case OpCommit:
		if tx.Root().Idle() { // read nothing: nobody waits for its outcome
			return n.settled(req.GID, tx, db.Engine().CommitRootUnforced(tx.Root()))
		}
		return n.settled(req.GID, tx, tx.Commit())
	case OpAbort:
		return n.settled(req.GID, tx, tx.Abort())
	case OpPrepare:
		readOnly, err := db.Engine().PrepareRoot(tx.Root(), req.GID)
		if !readOnly {
			return Response{Err: err}
		}
		resp := n.settled(req.GID, tx, err)
		resp.ReadOnly = true
		return resp
	case OpDecide:
		return n.settled(req.GID, tx, db.Engine().DecideRoot(tx.Root(), req.GID, req.Commit))
	}
	return Response{Err: fmt.Errorf("dist: unknown op %d", req.Op)}
}

// settled drops a branch whose outcome call returned err from the
// directory. Its span tree (if the node's Obs collected one) is finished
// and immutable by now: the coordinator gets it for grafting.
func (n *Node) settled(gid uint64, tx *oodb.Tx, err error) Response {
	n.mu.Lock()
	delete(n.byGID, gid)
	delete(n.gidOf, tx.Root().ID())
	n.mu.Unlock()
	return Response{Err: err, Span: tx.Root().Span()}
}
