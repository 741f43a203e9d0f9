package core

import (
	"errors"
	"fmt"
	"sort"
	"strings"
	"time"

	"semcc/internal/clock"
	"semcc/internal/compat"
	"semcc/internal/core/locktable"
	"semcc/internal/core/waitgraph"
	"semcc/internal/obs"
	"semcc/internal/oid"
)

// ErrDeadlock is returned by a lock acquisition that would close a
// cycle in the waits-for graph. The requesting top-level transaction
// must abort (the engine's caller typically retries it).
var ErrDeadlock = errors.New("core: deadlock detected, transaction must abort")

// LockManager is the lock-table component of the Engine: lock
// acquisition with FCFS queueing and deadlock handling, the protocol's
// lock disposition at subtransaction commit (retention conversion),
// tree-wide release at top-level end, and non-mutating conflict
// probes. The Engine owns transaction lifecycle and journaling; the
// LockManager owns everything that touches lock heads.
type LockManager interface {
	// LockFor maps an invocation to the lock the protocol acquires
	// for it; ok=false when the protocol takes no lock (e.g. method
	// invocations under the read/write baselines).
	LockFor(inv compat.Invocation) (compat.Invocation, bool)
	// Acquire obtains the lock described by lockInv for node t,
	// blocking until the protocol grants it. It returns ErrDeadlock
	// if waiting would create a waits-for cycle.
	Acquire(t *Tx, lockInv compat.Invocation) error
	// Retain applies the protocol's lock disposition at t's
	// subcommit: retention (semantic), release of the children's
	// locks (§3 open nesting), or inheritance by the parent (closed
	// nesting). Called by CompleteChild before t is marked committed.
	Retain(t *Tx)
	// ReleaseTree removes every lock owned by t or any descendant
	// (top-level commit or abort).
	ReleaseTree(t *Tx)
	// Probe computes, without acquiring anything or touching the
	// statistics, the waits-for set a child of parent invoking inv
	// would face right now.
	Probe(parent *Tx, inv compat.Invocation) []*Tx
	// Dump renders the lock table for diagnostics, ordered by object.
	Dump() string
}

// lock is one lock control block: a (possibly translated) invocation
// mode on an object, owned by a transaction node. A lock is "retained"
// when its owner has committed but the lock is still held (paper
// §4.1); retention is derived from the owner's state rather than
// stored. The owner field is mutated (closed-nested inheritance) and
// read (conflict tests) only under the owning head's shard mutex; the
// queued flag is likewise only touched under the shard mutex.
type lock struct {
	inv    compat.Invocation
	owner  *Tx
	queued bool // still in the wait queue (not granted)
}

func (l *lock) String() string {
	// Both tags can apply at once: a queued request whose owner has
	// already committed (e.g. a closed-nested parent queued elsewhere
	// while a child's inherited lock is retained) must show both, not
	// let one silently overwrite the other.
	tag := ""
	if l.owner.State() == Committed {
		tag += " retained"
	}
	if l.queued {
		tag += " queued"
	}
	return fmt.Sprintf("%s by %s%s", l.inv, l.owner, tag)
}

// lockHead is the engine's per-object lock list instantiation.
type lockHead = locktable.Head[*lock]

// lockMgr implements LockManager over a locktable.Table; the protocol
// code never depends on how many shards the table has (see
// internal/core/locktable).
type lockMgr struct {
	kind     ProtocolKind
	table    compat.Table
	pageOf   func(oid.OID) (oid.OID, error)
	noRelief bool
	hooks    Hooks

	tbl   *locktable.Table[*lock]
	wfg   *waitgraph.Graph
	stats *Stats
	obs   *obs.Obs // decision events; nil when none is attached
	// clk supplies wait-time *measurements* (blockedAt, wait nanos).
	// The waitAll recheck timer deliberately stays on real time: it is
	// a scheduling decision, not a measurement (see internal/clock).
	clk clock.Clock
}

// classifyWaits maps a waits-for set to its wait cause and a
// representative peer: any root target means the request waits for a
// top-level commit (the Fig. 9 worst case); otherwise every target is
// a subtransaction whose subcommit will release the request (case 2).
// Only called when event or span collection is enabled.
func classifyWaits(waits []*Tx) (obs.WaitCause, uint64) {
	cause := obs.WaitCase2
	peer := uint64(0)
	for _, w := range waits {
		if peer == 0 {
			peer = w.id
		}
		if w.IsRoot() {
			cause = obs.WaitRoot
			peer = w.id
		}
	}
	return cause, peer
}

// endWait closes the books of a request that blocked at since for
// cause. Every exit of such a request comes through here, so its
// blocked time is charged exactly once: to Stats.WaitNanos, to the
// node's span, and — through the event — to the per-cause histogram
// and the object's contention profile.
func (m *lockMgr) endWait(t *Tx, stripe int, since time.Time, cause obs.WaitCause, kind obs.EventKind) {
	waited := uint64(m.clk.Since(since))
	m.stats.add(stripe, cWaitNanos, waited)
	t.span.AddLockWait(cause, waited)
	if m.obs.On() {
		m.obs.Emit(stripe, obs.Event{Kind: kind, Cause: cause, Node: t.id, Root: t.root.id, Obj: t.own.inv.Object, Nanos: waited})
	}
}

// waitSet computes the waits-for set of request l: the distinct
// transaction nodes whose completion l must await, per the protocol's
// conflict test, considering all granted locks and all queued requests
// ahead of l (paper Fig. 8: "for all locks h that are held or have
// been requested on t.object") — except queued requests that are
// themselves waiting on l's own transaction (the conversion rule, see
// blockedByRoot). Caller holds h's shard mutex, so the returned slice
// is a consistent snapshot of the object's lock list.
//
// A conflict whose target has already completed is dropped, and so is
// its wait class: an aborting root closes its nodes' done channels
// before it releases their locks, and a request that looks in between
// waits for nothing. Only conflicts with an Active target count as
// case-2 or root waits (unless probe).
func (m *lockMgr) waitSet(h *lockHead, l *lock, stripe int, probe bool) []*Tx {
	var waits []*Tx
	seen := make(map[*Tx]bool)
	add := func(b *Tx, c statCounter) {
		if b == nil || b.State() != Active {
			return
		}
		if !probe && c != noCount {
			m.stats.bump(stripe, c)
		}
		if !seen[b] {
			seen[b] = true
			waits = append(waits, b)
		}
	}
	for _, g := range h.Granted {
		if g == l {
			continue
		}
		add(m.testConflict(g, l, stripe, probe))
	}
	if !l.owner.compensating {
		// Compensating requests skip the FCFS queue: an aborting
		// transaction must drain, so it does not line up behind new
		// work (which may transitively wait on the aborting
		// transaction's own locks).
		for _, q := range h.Queue {
			if q == l {
				// Only requests queued ahead of l block it.
				break
			}
			if m.blockedByRoot(h, q, l.owner.root) {
				continue
			}
			add(m.testConflict(q, l, stripe, probe))
		}
	}
	return waits
}

// blockedByRoot reports whether queued request q is blocked by a lock
// that root's tree holds on this object. Such a q cannot be granted
// before root completes, so a later request of the same root that
// lined up behind it would wait for a request that waits for it: a
// deadlock FCFS queueing manufactures, and the reason conventional
// lock managers serve a holder's re-requests (conversions) ahead of
// the queue. Paper Fig. 8 leaves the rule implicit (DESIGN.md §3.6).
// The conflict test runs as a probe, so no counter moves. Caller holds
// h's shard mutex.
func (m *lockMgr) blockedByRoot(h *lockHead, q *lock, root *Tx) bool {
	for _, g := range h.Granted {
		if g.owner.root != root {
			continue
		}
		if b, _ := m.testConflict(g, q, 0, true); b != nil && b.State() == Active {
			return true
		}
	}
	return false
}

// Acquire implements the blocking lock acquisition of paper Fig. 8.
// All head manipulation happens under the object's shard mutex;
// waits-for edges go to the waitgraph component, whose cycle checks
// run under its own lock with no shard held; blocking itself waits on
// the target nodes' done channels, entirely outside any mutex.
func (m *lockMgr) Acquire(t *Tx, lockInv compat.Invocation) error {
	obj := lockInv.Object
	stripe := m.tbl.ShardOf(obj)
	// A node requests one lock in its life (BeginChild); it lives in
	// the node.
	l := &t.own
	*l = lock{inv: lockInv, owner: t}
	m.stats.bump(stripe, cLockRequests)

	first := true
	var blockedAt time.Time
	blockCause := obs.WaitOther
	for {
		var (
			waits   []*Tx
			granted bool
			aborted bool
		)
		m.tbl.With(obj, func(h *lockHead) {
			if t.root.State() == Aborted || t.State() == Aborted {
				if l.queued {
					h.RemoveQueued(l)
					l.queued = false
				}
				aborted = true
				return
			}
			waits = m.waitSet(h, l, stripe, false)
			if len(waits) == 0 {
				if l.queued {
					h.RemoveQueued(l)
					l.queued = false
				}
				h.Granted = append(h.Granted, l)
				granted = true
				return
			}
			if first {
				h.Queue = append(h.Queue, l)
				l.queued = true
			}
		})
		if aborted {
			if !first {
				m.endWait(t, stripe, blockedAt, blockCause, obs.EvAborted)
			}
			return fmt.Errorf("core: %s aborted while acquiring %s", t, lockInv)
		}
		if granted {
			t.locks = append(t.locks, l)
			if first {
				m.stats.bump(stripe, cImmediateGrants)
			} else {
				m.endWait(t, stripe, blockedAt, blockCause, obs.EvGrant)
			}
			return nil
		}
		if first {
			first = false
			blockedAt = m.clk.Now()
			m.stats.bump(stripe, cBlocks)
			if m.obs.On() || t.span != nil {
				var peer uint64
				blockCause, peer = classifyWaits(waits)
				if m.obs.On() {
					m.obs.Emit(stripe, obs.Event{Kind: obs.EvBlock, Cause: blockCause, Node: t.id, Root: t.root.id, Obj: obj, Peer: peer})
				}
			}
		}
		// Install the wait edges and look for a cycle — atomically,
		// under the graph's own lock, with no shard held.
		// Compensating requests are never victimized: compensation
		// must complete for the abort to finish, so a cycle through a
		// compensator is broken by one of its non-compensating
		// participants (they re-check periodically in waitAll).
		targets := rootIDs(waits)
		if t.compensating {
			m.wfg.Add(t.id, t.root.id, targets)
		} else if m.wfg.AddAndCheck(t.id, t.root.id, targets) {
			m.dequeue(l)
			m.stats.bump(stripe, cDeadlocks)
			m.endWait(t, stripe, blockedAt, blockCause, obs.EvDeadlock)
			return ErrDeadlock
		}
		m.stats.add(stripe, cWaitEvents, uint64(len(waits)))
		if m.hooks.OnBlock != nil {
			// Contract: OnBlock runs with no shard mutex (and no
			// other engine lock) held, and waits is a consistent
			// snapshot of the object's lock list at block time. See
			// Hooks.
			m.hooks.OnBlock(t, waits)
		}
		chans := make([]<-chan struct{}, len(waits))
		for i, w := range waits {
			chans[i] = w.done
		}
		switch m.waitAll(t, chans) {
		case waitDone:
			if m.hooks.OnWake != nil {
				// Contract: OnWake runs with no shard mutex (and no
				// other engine lock) held, after every waited-on node
				// completed and before the request re-examines the lock
				// list. It may block — deterministic schedulers park
				// woken requests here. See Hooks.
				m.hooks.OnWake(t)
			}
		case waitVictim:
			// A cycle formed while waiting (e.g. a compensating
			// request joined after us): self-victimize.
			m.wfg.Clear(t.id)
			m.dequeue(l)
			m.stats.bump(stripe, cDeadlocks)
			m.endWait(t, stripe, blockedAt, blockCause, obs.EvDeadlock)
			return ErrDeadlock
		case waitForce:
			// Last-resort for a cycle consisting only of compensating
			// requests: grant despite the conflict so both aborts can
			// drain (see waitAll).
			m.wfg.Clear(t.id)
			m.tbl.With(obj, func(h *lockHead) {
				if l.queued {
					h.RemoveQueued(l)
					l.queued = false
				}
				h.Granted = append(h.Granted, l)
			})
			t.locks = append(t.locks, l)
			m.stats.bump(stripe, cForcedGrants)
			m.endWait(t, stripe, blockedAt, blockCause, obs.EvForce)
			return nil
		}
		m.wfg.Clear(t.id)
	}
}

// dequeue removes l from its object's wait queue (victimised or
// aborted requests).
func (m *lockMgr) dequeue(l *lock) {
	m.tbl.With(l.inv.Object, func(h *lockHead) {
		if l.queued {
			h.RemoveQueued(l)
			l.queued = false
		}
	})
}

// rootIDs collapses a waits-for set to the ids of the top-level
// transactions waited on (the waitgraph's edge targets).
func rootIDs(waits []*Tx) []uint64 {
	ids := make([]uint64, len(waits))
	for i, w := range waits {
		ids[i] = w.root.id
	}
	return ids
}

type waitOutcome int

const (
	waitDone waitOutcome = iota
	waitVictim
	waitForce
)

// waitAll blocks until every channel is closed, re-running deadlock
// detection periodically (cycles can form after the edge-install
// check, because compensating requests install edges without
// self-victimizing). Non-compensating waiters in a cycle become
// victims (waitVictim). Compensating waiters are never victimized —
// compensation must drain for the abort to complete — but if a cycle
// persists across several rechecks (meaning every participant is
// compensating, so nobody will self-victimize), the compensator
// force-grants (waitForce): both aborts proceed despite the formal
// conflict. With inverse operations whose conflict profile matches
// their forward operation (DESIGN.md §3.3) and stable object→page
// mappings, such all-compensator cycles cannot arise under the
// semantic protocol; the backstop exists for the deliberately
// incorrect §3 baseline and is counted in Stats.ForcedGrants.
// Called without any shard mutex held.
func (m *lockMgr) waitAll(t *Tx, chans []<-chan struct{}) waitOutcome {
	const recheck = 2 * time.Millisecond
	timer := time.NewTimer(recheck)
	defer timer.Stop()
	cycles := 0
	for _, ch := range chans {
		for {
			select {
			case <-ch:
			case <-timer.C:
				// A distributed detector may have condemned this root
				// for a cross-node cycle no local graph can see; the
				// sentence is consumed exactly once.
				if !t.compensating && m.wfg.ConsumeVictim(t.root.id) {
					return waitVictim
				}
				if m.wfg.HasCycle(t.root.id) {
					if !t.compensating {
						return waitVictim
					}
					cycles++
					if cycles >= 3 {
						return waitForce
					}
				} else {
					cycles = 0
				}
				timer.Reset(recheck)
				continue
			}
			break
		}
	}
	return waitDone
}

// Retain applies the protocol's lock disposition at t's subcommit.
// Called while t is still Active (just before the engine marks it
// Committed), so conflict tests never observe a half-converted state.
func (m *lockMgr) Retain(t *Tx) {
	switch m.kind {
	case Semantic:
		// Retained: nothing to do — retention is derived from the
		// owner's Committed state (paper §4.1).
		if len(t.locks) > 0 {
			m.stats.bump(int(t.root.id), cRetains)
		}
	case OpenNoRetain:
		// Paper §3: the locks of the actions *in* the subtransaction
		// are released at its commit; the subtransaction's own lock is
		// the "higher-level semantic lock" its parent holds further.
		for _, c := range t.children {
			m.releaseOwned(c)
		}
	case ClosedNested:
		// Moss-style lock inheritance: the parent adopts the locks.
		// Owner reassignment happens under each lock's shard mutex,
		// where conflict tests read it.
		for _, l := range t.locks {
			l := l
			m.tbl.With(l.inv.Object, func(*lockHead) {
				l.owner = t.parent
			})
			t.parent.locks = append(t.parent.locks, l)
		}
		t.locks = nil
	case TwoPLObject, TwoPLPage:
		// Strict 2PL: all locks held to top-level end.
	}
}

// releaseOwned removes every granted lock owned by node t (not its
// descendants).
func (m *lockMgr) releaseOwned(t *Tx) {
	for _, l := range t.locks {
		l := l
		m.tbl.With(l.inv.Object, func(h *lockHead) {
			h.RemoveGranted(l)
		})
	}
	t.locks = nil
}

// ReleaseTree removes every lock owned by t or any descendant.
func (m *lockMgr) ReleaseTree(t *Tx) {
	t.eachNode(func(n *Tx) {
		m.releaseOwned(n)
	})
}

// Probe implements non-mutating conflict probing (Engine.ProbeConflicts).
func (m *lockMgr) Probe(parent *Tx, inv compat.Invocation) []*Tx {
	lockInv, need := m.LockFor(inv)
	if !need {
		return nil
	}
	// A throwaway node representing the would-be child; zero state is
	// Active.
	probe := &Tx{inv: inv, parent: parent, root: parent.root, depth: parent.depth + 1}
	l := &lock{inv: lockInv, owner: probe}
	var waits []*Tx
	m.tbl.With(lockInv.Object, func(h *lockHead) {
		waits = m.waitSet(h, l, 0, true)
	})
	return waits
}

// Dump renders the lock table for diagnostics, ordered by object.
func (m *lockMgr) Dump() string {
	var lines []string
	m.tbl.Range(func(h *lockHead) {
		if len(h.Granted) == 0 && len(h.Queue) == 0 {
			return
		}
		var parts []string
		for _, g := range h.Granted {
			parts = append(parts, g.String())
		}
		for _, q := range h.Queue {
			parts = append(parts, q.String())
		}
		lines = append(lines, fmt.Sprintf("%s: %s", h.Obj, strings.Join(parts, "; ")))
	})
	sort.Strings(lines)
	return strings.Join(lines, "\n")
}
