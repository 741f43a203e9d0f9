package dist

import (
	"errors"
	"fmt"
	"sync"
	"sync/atomic"
	"time"

	"semcc/internal/compat"
	"semcc/internal/objstore"
	"semcc/internal/obs"
	"semcc/internal/oid"
	"semcc/internal/oodb"
	"semcc/internal/val"
	"semcc/internal/wal"
)

// DecisionLog is the coordinator's record of two-phase-commit outcomes
// under presumed abort: only commit decisions are logged, and logging
// the decision IS the commit point. A recovering participant whose
// journal ends in JPrepare asks the log; no entry means abort.
//
// It is a map, which is sound only because the coordinator does not
// crash in our failure model (nodes do), and the commit path leans on
// it: a decided branch forces nothing further, so an acknowledged
// cross-node root may be durable only as its JPrepare records plus the
// entry here. A coordinator that can crash must force the entry to its
// own disk before Commit returns (ROADMAP item 9(a)).
type DecisionLog struct {
	mu        sync.Mutex
	committed map[uint64]bool
}

// NewDecisionLog returns an empty decision log.
func NewDecisionLog() *DecisionLog {
	return &DecisionLog{committed: make(map[uint64]bool)}
}

// Commit records the commit decision for a global transaction (in
// memory only: see the type's comment).
func (d *DecisionLog) Commit(gid uint64) {
	d.mu.Lock()
	d.committed[gid] = true
	d.mu.Unlock()
}

// Committed reports whether a commit decision was logged for gid. The
// signature matches wal.RecoverDecided's resolver.
func (d *DecisionLog) Committed(gid uint64) bool {
	d.mu.Lock()
	defer d.mu.Unlock()
	return d.committed[gid]
}

// Closer is anything Cluster.Own can adopt for shutdown. It matches
// wal.Journal's no-error Close rather than io.Closer.
type Closer interface{ Close() }

// Cluster is N engine nodes behind a transport, plus the coordinator
// state: the global transaction id allocator, the decision log, and
// (when attached) the coordinator's observability handles.
type Cluster struct {
	nodes []*Node
	tr    Transport
	gids  atomic.Uint64
	dlog  *DecisionLog
	co    *clusterObs

	mu        sync.Mutex
	detStops  []func()
	owned     []Closer
	closeOnce sync.Once
}

// New wires the given databases into a cluster over the in-process
// channel transport. The databases must have been opened with
// OIDStride = len(dbs) and OIDOffset = their node index, so that
// ownership is derivable from the OID alone (see OpenCluster).
func New(dbs []*oodb.DB) *Cluster {
	nodes := make([]*Node, len(dbs))
	for i, db := range dbs {
		nodes[i] = NewNode(i, db)
	}
	c := &Cluster{nodes: nodes, dlog: NewDecisionLog()}
	c.tr = newChanTransport(nodes)
	return c
}

// OpenCluster opens n databases with interleaved OID allocation —
// node i allocates exactly the OIDs it owns — and wires them into a
// cluster. opts(i) supplies node i's options (journal, protocol,
// ablation knobs); the OIDStride/OIDOffset fields are overwritten with
// the topology's values. A nil opts gives every node default options.
func OpenCluster(n int, opts func(i int) oodb.Options) *Cluster {
	dbs := make([]*oodb.DB, n)
	for i := range dbs {
		var o oodb.Options
		if opts != nil {
			o = opts(i)
		}
		o.OIDStride, o.OIDOffset = n, i
		dbs[i] = oodb.Open(o)
	}
	return New(dbs)
}

// Nodes returns the node count.
func (c *Cluster) Nodes() int { return len(c.nodes) }

// Node returns node i (tests, the chaos driver, and recovery wiring).
func (c *Cluster) Node(i int) *Node { return c.nodes[i] }

// DecisionLog exposes the coordinator's decision log (recovery and the
// crash sweeps resolve in-doubt roots against it).
func (c *Cluster) DecisionLog() *DecisionLog { return c.dlog }

// Owner maps an OID to the index of the node that owns it. Ownership
// is total and derivable from the OID alone: node i's store allocates
// exactly the OIDs N with (N-1) mod nodes == i.
func (c *Cluster) Owner(obj oid.OID) int {
	return int((obj.N - 1) % uint64(len(c.nodes)))
}

// OwnerDB returns the database owning obj — the routed replacement for
// single-node navigation helpers (Component, population reads).
func (c *Cluster) OwnerDB(obj oid.OID) *oodb.DB {
	return c.nodes[c.Owner(obj)].DB()
}

// Own transfers shutdown responsibility for closers (typically the
// per-node journals) to the cluster: Close will close them after the
// transport drains.
func (c *Cluster) Own(closers ...Closer) {
	c.mu.Lock()
	c.owned = append(c.owned, closers...)
	c.mu.Unlock()
}

// Close shuts the cluster down, idempotently: any running deadlock
// detectors are stopped first, then the transport drains, then owned
// closers (per-node journals) are closed — flushing group-commit
// batches. Callers must have stopped issuing transactions; calling a
// detector's stop() before or after Close is safe either way.
func (c *Cluster) Close() {
	c.closeOnce.Do(func() {
		c.mu.Lock()
		stops := c.detStops
		owned := c.owned
		c.detStops, c.owned = nil, nil
		c.mu.Unlock()
		for _, stop := range stops {
			stop()
		}
		c.tr.Close()
		for _, cl := range owned {
			cl.Close()
		}
	})
}

// start hands req to node; the answer will arrive on reply. It returns
// the hop's start instant, zero while coordinator observability is off
// (one nil check, one atomic load, no allocation): collect then charges
// nothing.
func (c *Cluster) start(node int, req Request, reply chan Response) (at time.Time) {
	if co := c.co; co.on() {
		co.inflight.Add(1)
		at = time.Now()
	}
	c.tr.Start(node, req, reply)
	return at
}

// collect receives the answer to the hop started at instant at and
// charges the hop, start to its own reply collected, to the metrics.
func (c *Cluster) collect(op OpKind, at time.Time, reply chan Response) Response {
	resp := <-reply
	if at.IsZero() {
		return resp
	}
	co := c.co
	co.hop[op].Observe(uint64(time.Since(at)))
	co.inflight.Add(-1)
	if errors.Is(resp.Err, ErrNodeDown) {
		co.nodeDown.Inc()
	}
	return resp
}

// send is one synchronous hop outside any transaction (the detector's).
func (c *Cluster) send(node int, req Request) Response {
	reply := make(chan Response, 1)
	return c.collect(req.Op, c.start(node, req, reply), reply)
}

// branchState is the coordinator's view of one node's branch; zero is
// "no live branch" (never begun, or settled). States are bits so that a
// fan-out can address several.
type branchState uint8

const (
	brEmpty    branchState = 1 << iota // begun, routed no operation
	brWorked                           // routed at least one operation
	brPrepared                         // voted yes: holds its locks until the decision
	brFailed                           // failed its prepare
)

// branch is a transaction's slot for one node.
type branch struct {
	state branchState
	// reply carries every answer of the node to this root: one goroutine
	// drives a root, with at most one request outstanding per node.
	reply chan Response
	// Scratch of the fan-out in flight: hop start, phase child span.
	at   time.Time
	span *obs.Span
}

// Tx is a coordinator transaction: one global transaction spanning a
// branch (a local top-level transaction) on every node. Like
// *oodb.Tx, a Tx must be driven from a single goroutine.
//
// Branches are created eagerly on Begin rather than on first touch:
// the branch's JBeginRoot then lands in each node's journal at the
// same point it would in the single-engine path, which is what makes
// the one-node cluster's journal byte-identical to the direct path —
// the ablation baseline the topology is measured against.
type Tx struct {
	c    *Cluster
	gid  uint64
	br   []branch // by node index
	done bool
	// span is the distributed span root (ID = GID, label "global"),
	// nil when the coordinator's Obs is absent or disabled at Begin.
	span *obs.Span
}

// Begin starts a global transaction with a branch on every node. If
// any node is down, the branches that did begin are aborted and the
// begin fails.
func (c *Cluster) Begin() (*Tx, error) {
	t := &Tx{c: c, gid: c.gids.Add(1), br: make([]branch, len(c.nodes))}
	for i := range t.br {
		t.br[i] = branch{state: brEmpty, reply: make(chan Response, 1)}
	}
	if co := c.co; co.on() {
		t.span = co.o.Spans.BeginRoot(t.gid, "global")
	}
	if node, err := t.fan(OpBegin, false, brEmpty); err != nil {
		t.fan(OpAbort, false, brEmpty)
		t.done = true
		t.finishSpan(obs.OutcomeAborted)
		return nil, fmt.Errorf("dist: begin on node %d: %w", node, err)
	}
	return t, nil
}

// fan runs one round of the transaction-boundary protocol: it starts op
// on every node whose branch is in one of the states sel names, then
// collects the answers in node order and moves each branch to its next
// state. All requests are outstanding before the first answer is
// awaited, so a round costs its slowest node, not the sum; phase spans
// are created before and grafted after the round in node order, whoever
// answered first. It returns the lowest node whose hop failed, and that
// hop's error. A down node cannot fail an abort: its branch resolves at
// recovery (presumed abort — no decision was logged).
func (t *Tx) fan(op OpKind, commit bool, sel branchState) (failed int, err error) {
	c, co := t.c, t.c.co
	req := Request{Op: op, GID: t.gid, Commit: commit}
	for i := range t.br {
		b := &t.br[i]
		if b.state&sel == 0 {
			continue
		}
		if t.span != nil && co.label[op] != nil {
			b.span = t.span.NewChild(t.gid, co.label[op][i])
		}
		b.at = c.start(i, req, b.reply)
	}
	for i := range t.br {
		b := &t.br[i]
		if b.state&sel == 0 {
			continue
		}
		resp := c.collect(op, b.at, b.reply)
		if !b.at.IsZero() && co.phaseNs[op] != nil {
			co.phaseNs[op][i].Observe(uint64(time.Since(b.at)))
		}
		if b.span != nil {
			// The branch's finished tree, if the hop settled the branch.
			if resp.Span != nil {
				b.span.Children = append(b.span.Children, resp.Span)
			}
			out := obs.OutcomeCommitted
			if resp.Err != nil || op == OpAbort || op == OpDecide && !commit {
				out = obs.OutcomeAborted
			}
			b.span.Finish(out)
			b.span = nil
		}
		switch {
		case op == OpBegin:
			if resp.Err != nil {
				b.state = 0
			}
		case op != OpPrepare || resp.ReadOnly:
			// Settled. A read-only voter is gone from its node even when
			// its commit reported an error, so it is never sent a decision.
			b.state = 0
		case resp.Err != nil:
			b.state = brFailed
		default:
			b.state = brPrepared
		}
		if resp.Err != nil && err == nil && !(op == OpAbort && errors.Is(resp.Err, ErrNodeDown)) {
			failed, err = i, resp.Err
		}
	}
	return failed, err
}

// hop routes one operation of the transaction to node n.
func (t *Tx) hop(n int, req Request) Response {
	b := &t.br[n]
	if b.state == brEmpty {
		b.state = brWorked
	}
	return t.c.collect(req.Op, t.c.start(n, req, b.reply), b.reply)
}

// finish counts the root's outcome — aborted, or committed with (twoPC)
// or without a logged decision — and publishes its span.
func (t *Tx) finish(out obs.Outcome, twoPC bool) {
	if co := t.c.co; co.on() {
		switch {
		case out == obs.OutcomeAborted:
			co.aborts.Inc()
		case twoPC:
			co.commits2PC.Inc()
		default:
			co.commitsSingle.Inc()
		}
	}
	t.finishSpan(out)
}

// finishSpan publishes the distributed span, if one was begun.
func (t *Tx) finishSpan(out obs.Outcome) {
	if t.span != nil {
		t.c.co.o.Spans.FinishRoot(t.span, out)
	}
}

// GID returns the coordinator-assigned global transaction id.
func (t *Tx) GID() uint64 { return t.gid }

// invoke routes one invocation to the owner of its receiver.
func (t *Tx) invoke(inv compat.Invocation) (val.V, error) {
	resp := t.hop(t.c.Owner(inv.Object), Request{Op: OpInvoke, GID: t.gid, Inv: inv})
	return resp.Val, resp.Err
}

// Call invokes a method on an encapsulated object (routed to the
// object's node, whose type registry resolves the name).
func (t *Tx) Call(obj oid.OID, method string, args ...val.V) (val.V, error) {
	resp := t.hop(t.c.Owner(obj), Request{Op: OpInvoke, GID: t.gid, Inv: compat.Invocation{Object: obj, Args: args}, Method: method})
	return resp.Val, resp.Err
}

// Get reads an atomic object directly (bypass).
func (t *Tx) Get(obj oid.OID) (val.V, error) {
	return t.invoke(compat.Inv(obj, compat.OpGet))
}

// Put writes an atomic object directly (bypass).
func (t *Tx) Put(obj oid.OID, v val.V) error {
	_, err := t.invoke(compat.Inv(obj, compat.OpPut, v))
	return err
}

// Add atomically adds delta to an atomic integer (bypass).
func (t *Tx) Add(obj oid.OID, delta int64) (val.V, error) {
	return t.invoke(compat.Inv(obj, compat.OpAdd, val.OfInt(delta)))
}

// Select looks up a set member by key (bypass).
func (t *Tx) Select(set oid.OID, key val.V) (oid.OID, bool, error) {
	r, err := t.invoke(compat.Inv(set, compat.OpSelect, key))
	if err != nil {
		return oid.Nil, false, err
	}
	if r.IsNull() {
		return oid.Nil, false, nil
	}
	return r.Ref(), true, nil
}

// Insert adds a member to a set (bypass). The member need not live on
// the set's node: sets hold OIDs, and OIDs address the whole cluster.
func (t *Tx) Insert(set oid.OID, key val.V, member oid.OID) error {
	_, err := t.invoke(compat.Inv(set, compat.OpInsert, key, val.OfRef(member)))
	return err
}

// Remove deletes a member from a set (bypass).
func (t *Tx) Remove(set oid.OID, key val.V) error {
	_, err := t.invoke(compat.Inv(set, compat.OpRemove, key))
	return err
}

// Scan enumerates a set (bypass).
func (t *Tx) Scan(set oid.OID) ([]objstore.SetEntry, error) {
	resp := t.hop(t.c.Owner(set), Request{Op: OpScan, GID: t.gid, Inv: compat.Inv(set, compat.OpScan)})
	return resp.Entries, resp.Err
}

// Exec runs an arbitrary invocation (routed).
func (t *Tx) Exec(inv compat.Invocation) (val.V, error) { return t.invoke(inv) }

// Commit commits the global transaction, waiting for the log device
// once. A root that worked on at most one node commits that branch
// directly: no prepare, no decision record, a journal indistinguishable
// from the single-engine path. Two or more working nodes run two-phase
// commit with presumed abort. Prepare goes to every working branch at
// once and is the root's one device wait: a branch with work to
// compensate forces its JPrepare, one without votes read-only, commits
// on the spot and leaves the protocol. If any branch prepared, the
// decision is logged — the commit point, which outlives any node crash —
// and decide-commit goes to the prepared branches at once, forcing and
// awaiting nothing (core.DecideRoot). All voters read-only: nothing to
// decide, the root counts as single-path. A prepare failure (a node
// crash included) decides abort once every vote is in. Branches that
// did no work commit last on either path, unforced too.
func (t *Tx) Commit() error {
	if t.done {
		return fmt.Errorf("dist: commit of finished global tx %d", t.gid)
	}
	t.done = true

	working, decided := 0, false
	for i := range t.br {
		if t.br[i].state == brWorked {
			working++
		}
	}
	if working > 1 {
		if node, err := t.fan(OpPrepare, false, brWorked); err != nil {
			// Decide abort, logging nothing (presumed abort): prepared
			// branches get the decision record they promised to wait for,
			// failed ones roll back plainly, read-only voters are gone.
			t.fan(OpDecide, false, brPrepared)
			t.fan(OpAbort, false, brFailed)
			t.fan(OpCommit, false, brEmpty)
			t.finish(obs.OutcomeAborted, false)
			return fmt.Errorf("dist: prepare on node %d: %w", node, err)
		}
		for i := range t.br {
			decided = decided || t.br[i].state == brPrepared
		}
		if decided {
			var ds *obs.Span
			if t.span != nil {
				ds = t.span.NewChild(t.gid, "decision-log")
			}
			t.c.dlog.Commit(t.gid)
			ds.Finish(obs.OutcomeCommitted)
			t.fan(OpDecide, true, brPrepared) // a node dying here changes nothing
		}
	}
	// Left: a single-participant root's working branch, and the idle ones.
	node, err := t.fan(OpCommit, false, brWorked|brEmpty)
	if err != nil && !decided {
		t.finish(obs.OutcomeAborted, false)
		return fmt.Errorf("dist: commit on node %d: %w", node, err)
	}
	t.finish(obs.OutcomeCommitted, decided)
	return nil
}

// Abort rolls the global transaction back on every node at once.
func (t *Tx) Abort() error {
	if t.done {
		return fmt.Errorf("dist: abort of finished global tx %d", t.gid)
	}
	t.done = true
	node, err := t.fan(OpAbort, false, brWorked|brEmpty)
	t.finish(obs.OutcomeAborted, false)
	if err != nil {
		return fmt.Errorf("dist: abort on node %d: %w", node, err)
	}
	return nil
}

// RecoverNode restarts a crashed node: reopen the database over the
// surviving store, then resolve its journal with the coordinator's
// decision log — winners stay, losers are compensated, and in-doubt
// roots (prepared, undecided in the node's own journal) commit exactly
// when the coordinator logged a commit decision, abort otherwise
// (presumed abort). The recovered DB is installed into the node, which
// comes back up.
func (c *Cluster) RecoverNode(i int, opts oodb.Options, records wal.RecordSource) (*wal.Analysis, error) {
	n := c.nodes[i]
	opts.OIDStride, opts.OIDOffset = len(c.nodes), i
	db := oodb.Reopen(n.DB(), opts)
	a, err := wal.RecoverDecided(db, records, c.dlog.Committed)
	if err != nil {
		return nil, fmt.Errorf("dist: recover node %d: %w", i, err)
	}
	n.Revive(db)
	if co := c.co; co.on() {
		co.recoveries.Inc()
		for _, d := range a.InDoubt {
			if c.dlog.Committed(d.GID) {
				co.indoubtCommit.Inc()
			} else {
				co.indoubtAbort.Inc()
			}
		}
	}
	return a, nil
}
