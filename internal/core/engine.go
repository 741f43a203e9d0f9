package core

import (
	"fmt"
	"sync"
	"sync/atomic"
	"time"

	"semcc/internal/clock"
	"semcc/internal/compat"
	"semcc/internal/core/locktable"
	"semcc/internal/core/waitgraph"
	"semcc/internal/history"
	"semcc/internal/obs"
	"semcc/internal/oid"
)

// JournalKind tags a journal record.
type JournalKind uint8

// Journal record kinds, in the order the engine emits them.
const (
	// JBeginRoot: a top-level transaction started.
	JBeginRoot JournalKind = iota
	// JBegin: a subtransaction started (Node, Parent). Recovery needs
	// only its place in the tree, so the engine writes no Inv; generic
	// read leaves write no JBegin at all (Engine.journals).
	JBegin
	// JSubCommit: a subtransaction committed; Inv is its registered
	// inverse, Splice true when the children's inverses move up
	// instead.
	JSubCommit
	// JAbortStart: compensation of a node's committed work began
	// (its accumulated undo list is now being applied in reverse).
	JAbortStart
	// JCompensated: one undo entry was applied successfully.
	JCompensated
	// JNodeAborted: the node's rollback finished.
	JNodeAborted
	// JRootCommit: a top-level transaction committed.
	JRootCommit
	// Kinds 7 and 8 are retired: they journaled the reservations of a
	// state-dependent admission regime the engine no longer has. The
	// slots stay empty so every later kind keeps its byte in existing
	// journals; recovery rejects them as unknown.
	_
	_
	// JPrepare: a root transaction entered the prepared state as a
	// participant of a distributed commit (2PC phase 1). Parent
	// carries the coordinator's global transaction id. The record is
	// forced durable before PrepareRoot returns; until a decision
	// record (or outcome) follows, recovery must treat the root as
	// in-doubt and resolve it from the coordinator's decision log.
	JPrepare
	// JDecide: the coordinator's 2PC decision reached this
	// participant. Parent carries the global transaction id; Splice
	// true means commit, false abort. A commit decision without a
	// following JRootCommit still commits on recovery (the decision
	// is the commit point); an abort decision falls back to the
	// ordinary loser path.
	JDecide
	// JSchema names a type's method ids: its Inv's arguments are the
	// type name, then the method names in id order. The database
	// journals one per registered type before any record uses it; each
	// epoch repeats them (wal.Log.Reset); recovery checks them.
	JSchema
)

// JournalRecord is one write-ahead-log record. The engine emits them
// in execution order; internal/wal persists and replays them for
// restart recovery (multilevel recovery in the sense of [WHBM90]).
type JournalRecord struct {
	Kind   JournalKind
	Node   uint64
	Parent uint64
	Inv    *compat.Invocation
	Splice bool
}

// Journal receives engine journal records. Implementations must be
// safe for concurrent use. Append fixes the record's position in the
// journal's total order before it returns; whether the record is also
// *durable* on return is the journal's durability mode (sync mode
// forces every record, group mode defers to a batched flush — see
// AckJournal).
type Journal interface {
	Append(rec JournalRecord)
}

// Ack is a durability future for one journal record. Wait blocks
// until the record's batch is durable; the zero Ack is already
// durable and Wait returns immediately.
type Ack struct {
	// C, when non-nil, is closed once the record is durable.
	C <-chan struct{}
}

// Wait parks until the acknowledged record is durable.
func (a Ack) Wait() {
	if a.C != nil {
		<-a.C
	}
}

// AckJournal is implemented by journals that decouple record
// submission from durability (the group-commit pipeline). AppendAck
// submits rec exactly like Append — its position in the journal order
// is fixed on return — and additionally returns an Ack resolved when
// rec has reached durable storage. Durability must advance in prefixes
// of that order: when an Ack resolves, every record submitted before
// its record is durable too. A journal in asynchronous durability mode
// may return an already-resolved Ack before the flush
// (throughput-over-latency; a crash can then lose acknowledged
// outcomes).
//
// The engine uses AppendAck for root outcome records, and the contract
// it builds on it has three parts: an outcome is *submitted* before it
// becomes observable (state transition, lock release, waiter wake-up);
// it is *acknowledged* — Commit/Abort return — only once the Ack has
// resolved, so under sync and group modes an acknowledged outcome is
// durable; and a root that depends on it (took over one of its locks)
// is ordered behind it by the journal prefix, never by holding the
// lock across the device wait. PrepareRoot is the one caller that
// submits and waits with every lock held; CommitRootUnforced is the one
// outcome that goes through plain Append, because nobody waits for it.
type AckJournal interface {
	Journal
	AppendAck(rec JournalRecord) Ack
}

// Hooks are optional engine callbacks used by deterministic tests and
// the figure replayer.
type Hooks struct {
	// OnBlock fires when a lock request starts waiting, with the
	// waits-for set.
	//
	// Contract (independent of the lock table's shard count): the
	// callback runs with no lock-table shard mutex and no other
	// engine lock held, so it may freely call back into the engine
	// (ProbeConflicts, DumpLocks, Stats). The waits slice is a
	// consistent snapshot of the blocking object's lock list, computed
	// atomically under that object's shard mutex just before the
	// callback; it is owned by the callee and never mutated afterwards
	// by the engine.
	OnBlock func(t *Tx, waits []*Tx)
	// OnWake fires when a blocked lock request wakes from its wait —
	// after every node it waited on completed, before the request
	// re-examines the lock list (and so before it can be granted or
	// mutate anything).
	//
	// Contract: the callback runs with no lock-table shard mutex and no
	// other engine lock held. It may block: a deterministic scheduler
	// parks the woken request here until it is that request's turn to
	// run, which is exactly what internal/chaos does to keep concurrent
	// wake-ups from racing each other.
	OnWake func(t *Tx)
}

// Config configures an Engine.
type Config struct {
	// Kind selects the concurrency control protocol.
	Kind ProtocolKind
	// Table answers compatibility questions for same-object
	// invocation pairs (semantic matrices plus the generic matrix).
	Table compat.Table
	// PageOf maps an atomic object to its storage page; required by
	// the TwoPLPage protocol, ignored otherwise.
	PageOf func(oid.OID) (oid.OID, error)
	// Record enables history recording for the serializability
	// checker. Leave off for long benchmark runs.
	Record bool
	// NoAncestorRelief disables the commutative-ancestor search of
	// Fig. 9 (cases 1 and 2): every retained-lock conflict then waits
	// for the holder's top-level commit. Ablation knob for the
	// experiments; never enable in production use.
	NoAncestorRelief bool
	// Journal, when set, receives write-ahead-log records for restart
	// recovery (see internal/wal).
	Journal Journal
	// Obs, when set, hosts the engine's registry metrics (the striped
	// Stats counters, read at exposition time) and, while enabled,
	// records per-transaction span trees and the lock manager's
	// decision events. Disabled is one atomic load per site, nil a
	// pointer check.
	Obs *obs.Obs
	// Clock supplies every wall-time *measurement* the engine makes
	// (span WAL timing, lock-wait attribution). Nil selects the real
	// clock; deterministic harnesses inject clock.Fake. Scheduling
	// decisions (deadlock-recheck timers) stay on real time regardless.
	Clock clock.Clock
	// Hooks are optional test callbacks.
	Hooks Hooks
}

// Engine executes open nested transactions under a selectable
// concurrency control protocol. It implements the paper's
// exec-transaction (Fig. 8): lock acquisition with FCFS queueing and
// waits-for sets, subtransaction completion with lock retention, and
// top-level commit releasing the tree's locks — plus deadlock
// detection and compensation-based abort, which the paper presumes but
// does not specify.
//
// Internally the engine is three separable components: the Engine
// itself (transaction lifecycle, journaling, history recording), the
// LockManager (lock heads, FCFS queues, conflict tests — sharded by
// object), and the waits-for graph (internal/core/waitgraph, fed edge
// events by the lock manager). There is no engine-wide mutex.
type Engine struct {
	kind    ProtocolKind
	table   compat.Table
	record  bool
	journal Journal
	// ackJournal is the journal's AckJournal view, resolved once at
	// construction; nil when the journal (or none) is submit==durable.
	ackJournal AckJournal
	obs        *obs.Obs          // nil when none is attached
	spans      *obs.SpanRecorder // nil when no Obs is attached
	// releaseNs is the time a root outcome spent observable but not yet
	// durable (journalWait); nil when no Obs is attached, observed only
	// for roots that carry a span.
	releaseNs *obs.Hist
	clk       clock.Clock

	// exec runs a compensating invocation as a child of the given
	// node; installed by the OODB layer (which owns method bodies).
	exec func(parent *Tx, inv compat.Invocation) error

	lm LockManager
	// wfg is the lock manager's waits-for graph, held directly for the
	// distributed-detection surface (WaitEdges/VictimizeRoot).
	wfg   *waitgraph.Graph
	stats *Stats

	recMu sync.Mutex
	roots []*Tx // recorded roots (when record is on)

	seq atomic.Int64
	ids atomic.Uint64
}

// New returns an Engine for the given configuration. Config.Table is
// required.
func New(cfg Config) *Engine {
	if cfg.Table == nil {
		panic("core: Config.Table is required")
	}
	stats := &Stats{}
	clk := clock.Or(cfg.Clock)
	lm := &lockMgr{
		kind:     cfg.Kind,
		table:    cfg.Table,
		pageOf:   cfg.PageOf,
		noRelief: cfg.NoAncestorRelief,
		hooks:    cfg.Hooks,
		tbl:      locktable.New[*lock](0),
		wfg:      waitgraph.New(),
		stats:    stats,
		obs:      cfg.Obs,
		clk:      clk,
	}
	e := &Engine{
		kind:    cfg.Kind,
		table:   cfg.Table,
		record:  cfg.Record,
		journal: cfg.Journal,
		obs:     cfg.Obs,
		lm:      lm,
		wfg:     lm.wfg,
		stats:   stats,
		clk:     clk,
	}
	if aj, ok := cfg.Journal.(AckJournal); ok {
		e.ackJournal = aj
	}
	if cfg.Obs != nil {
		e.spans = cfg.Obs.Spans
		e.releaseNs = cfg.Obs.Registry.Hist("semcc_core_release_to_durable_ns",
			"Time a root outcome was observable (locks released) before its journal record was durable, nanoseconds.")
		stats.register(cfg.Obs.Registry)
	}
	return e
}

// Kind returns the protocol the engine runs.
func (e *Engine) Kind() ProtocolKind { return e.kind }

// Table returns the compatibility table the engine consults (the
// serializability checkers reuse it).
func (e *Engine) Table() compat.Table { return e.table }

// LockManager returns the engine's lock-table component.
func (e *Engine) LockManager() LockManager { return e.lm }

// WaitEdges snapshots the engine's root-collapsed waits-for edges.
// The distributed deadlock detector pulls one snapshot per node and
// merges them; edges reference this node's local root ids.
func (e *Engine) WaitEdges() []waitgraph.Edge { return e.wfg.Edges() }

// VictimizeRoot condemns the given local root for a deadlock cycle an
// external (cross-node) detector found: its blocked waiter observes
// the sentence on its next periodic recheck and returns ErrDeadlock,
// exactly as for a locally detected cycle. A root with no blocked
// waiter leaves the sentence pending until one blocks or the root
// finishes.
func (e *Engine) VictimizeRoot(root uint64) { e.wfg.Victimize(root) }

// SetExec installs the compensation executor. It must be set before
// any abort can run logical undo.
func (e *Engine) SetExec(f func(parent *Tx, inv compat.Invocation) error) { e.exec = f }

// Stats returns a snapshot of the engine counters.
func (e *Engine) Stats() StatsSnapshot { return e.stats.Snapshot() }

// journals reports whether t's begin, subcommit and abort are
// journaled: always, when there is a journal, except for a generic read
// leaf (Get, Select, Scan). Recovery compensates a loser's committed
// work and nothing else, and a read leaf has none: no inverse and no
// children. Any write that depends on what it read is journaled where
// it happens, after the read's lock was granted, so the loser order of
// DESIGN.md §3.7 still rests on journaled records. The read keeps its
// lock exactly as a journaled node does.
func (e *Engine) journals(t *Tx) bool {
	return e.journal != nil && !compat.IsReadOp(t.inv.Method)
}

// journalAppend appends rec, charging the append's wall-clock time to
// t's span when span collection is on. Call only when e.journal is
// non-nil; the write-ahead-ordering comments at the call sites govern
// *where* in each transition the append happens.
func (e *Engine) journalAppend(t *Tx, rec JournalRecord) {
	if sp := t.span; sp != nil {
		start := e.clk.Now()
		e.journal.Append(rec)
		sp.AddWAL(uint64(e.clk.Since(start)))
		return
	}
	e.journal.Append(rec)
}

// pendingOutcome is a root outcome record that has been submitted —
// its position in the journal order is fixed — but whose durability the
// submitting goroutine has not yet waited for.
type pendingOutcome struct {
	ack Ack
	// at is the submit instant, set only when the root carries a span.
	at time.Time
}

// journalSubmit is the submit half of the outcome pipeline (submit →
// make observable → wait): it hands rec to the journal, which fixes
// its position in the journal's total order before returning, and
// returns the durability future without waiting on it. In sync mode
// (and under any journal that is not an AckJournal) the record is
// durable on return and the future is already resolved; in group mode
// it resolves when the covering batch is flushed; under async
// durability it resolves before the flush. This
// is the engine's only AppendAck call site. Call only when e.journal
// is non-nil.
func (e *Engine) journalSubmit(t *Tx, rec JournalRecord) pendingOutcome {
	var p pendingOutcome
	if t.span != nil {
		p.at = e.clk.Now()
	}
	if e.ackJournal != nil {
		p.ack = e.ackJournal.AppendAck(rec)
	} else {
		e.journal.Append(rec)
	}
	return p
}

// journalWait is the wait half: it parks until the outcome submitted
// as p is durable. The whole submit-to-durable interval is charged to
// the span's WAL time — whatever ran between the two halves included —
// so ack latency stays attributable per transaction. released says the
// caller made the outcome observable (locks released, done closed)
// just before the call; the part of the wait that follows is then the
// window in which dependents may run ahead of this root's durability,
// observed as semcc_core_release_to_durable_ns.
func (e *Engine) journalWait(t *Tx, p pendingOutcome, released bool) {
	if p.at.IsZero() {
		// No span, or nothing was submitted: nothing to attribute.
		p.ack.Wait()
		return
	}
	var from time.Time
	if released {
		from = e.clk.Now()
	}
	p.ack.Wait()
	if released {
		e.releaseNs.Observe(uint64(e.clk.Since(from)))
	}
	t.span.AddWAL(uint64(e.clk.Since(p.at)))
}

// BeginRoot starts a top-level transaction: a node operating on the
// database pseudo-object (paper §3, footnote 2). Roots acquire no
// lock.
func (e *Engine) BeginRoot() *Tx {
	t := &Tx{
		id:       e.ids.Add(1),
		inv:      compat.Inv(oid.DB, compat.OpRoot),
		done:     make(chan struct{}),
		beginSeq: e.seq.Add(1),
	}
	t.root = t
	if e.record {
		e.recMu.Lock()
		e.roots = append(e.roots, t)
		e.recMu.Unlock()
	}
	e.stats.bump(int(t.id), cRootsStarted)
	// The span (if collection is on) exists before the first journal
	// append so every cost of the root — including this begin record —
	// lands on it.
	t.span = e.spans.BeginRoot(t.id, "root")
	if e.journal != nil {
		e.journalAppend(t, JournalRecord{Kind: JBeginRoot, Node: t.id})
	}
	return t
}

// BeginChild creates a subtransaction of parent for the given
// invocation and acquires its lock per the protocol, blocking until
// granted. On ErrDeadlock the child is marked aborted and the caller
// must abort the top-level transaction.
func (e *Engine) BeginChild(parent *Tx, inv compat.Invocation) (*Tx, error) {
	if parent == nil {
		return nil, fmt.Errorf("core: BeginChild with nil parent")
	}
	if parent.State() != Active {
		return nil, fmt.Errorf("core: BeginChild on %s parent %s", parent.State(), parent)
	}
	t := &Tx{
		id:           e.ids.Add(1),
		inv:          inv,
		parent:       parent,
		root:         parent.root,
		depth:        parent.depth + 1,
		done:         make(chan struct{}),
		beginSeq:     e.seq.Add(1),
		compensating: parent.compensating,
	}
	t.locks = t.lockBuf[:0]
	parent.root.treeMu.Lock()
	parent.children = append(parent.children, t)
	parent.root.treeMu.Unlock()
	e.stats.bump(int(t.root.id), cSubtxs)
	// Child spans hang off the parent's span, created before lock
	// acquisition so lock waits charge to this node. The label is
	// formatted only for a span that will carry it: without a parent
	// span (collection off) the cost is this one pointer check.
	if parent.span != nil {
		t.span = parent.span.NewChild(t.id, inv.Format(e.table.Name(inv)))
	}

	lockInv, need := e.lm.LockFor(inv)
	if need {
		if err := e.lm.Acquire(t, lockInv); err != nil {
			if t.State() == Active {
				t.setState(Aborted)
				t.endSeq = e.seq.Add(1)
				close(t.done)
			}
			t.span.Finish(obs.OutcomeAborted)
			return t, err
		}
	}
	if e.journals(t) {
		e.journalAppend(t, JournalRecord{Kind: JBegin, Node: t.id, Parent: parent.id})
	}
	return t, nil
}

// CompleteChild commits subtransaction t (paper Fig. 8's tail): the
// node's locks become retained, and the compensation responsibility
// moves to the parent — either as the method's registered inverse
// invocation, or, if the method has none, as the node's own undo list
// (lower-level compensation fallback).
func (e *Engine) CompleteChild(t *Tx, inverse *compat.Invocation) error {
	if t.IsRoot() {
		return fmt.Errorf("core: CompleteChild on root %s", t)
	}
	if t.State() != Active {
		return fmt.Errorf("core: CompleteChild on %s node %s", t.State(), t)
	}

	// Propagate compensation upward.
	if inverse != nil {
		t.parent.undo = append(t.parent.undo, *inverse)
	} else {
		t.parent.undo = append(t.parent.undo, t.undo...)
	}
	t.undo = nil

	// Write-ahead ordering: the subcommit record must be durable
	// before the commit becomes observable (state transition, retained
	// locks, waiter wake-up). A crash between the append and the
	// transition leaves a journal that is *ahead* of observed state,
	// which recovery treats as "committed" and compensates — correct,
	// because every store effect of t happened before this point. The
	// reverse order would let a crash produce observed effects the
	// journal knows nothing about, which undo-based recovery can never
	// fix.
	if e.journals(t) {
		e.journalAppend(t, JournalRecord{Kind: JSubCommit, Node: t.id, Inv: inverse, Splice: inverse == nil})
	}

	// Lock disposition at subcommit, while t is still Active — so no
	// conflict test ever sees a committed node whose locks are only
	// half converted (which could send a waiter to sleep on a
	// long-lived ancestor for a lock that is about to disappear).
	e.lm.Retain(t)

	t.setState(Committed)
	t.endSeq = e.seq.Add(1)
	close(t.done)
	t.span.Finish(obs.OutcomeCommitted)
	return nil
}

// RecordUndo appends a compensating invocation to t's undo list. The
// OODB layer calls this for leaf writes (inverse Put/Insert/Remove).
func (e *Engine) RecordUndo(t *Tx, inverse compat.Invocation) {
	t.undo = append(t.undo, inverse)
}

// CommitRoot commits top-level transaction t and releases every lock
// held by its tree. The commit runs as submit → make observable →
// wait: the JRootCommit record is submitted (its position in the
// journal order is the commit point), the commit becomes observable at
// once — state Committed, locks released, waiters woken
// — and only then does the goroutine park until the record is durable.
// CommitRoot therefore still returns only once the outcome is durable
// (sync and group modes), but no waiter inherits the committer's wait
// for the log device. That is safe because the journal is totally
// ordered and durable in prefixes: a root that takes over a released
// lock journals its conflicting work, and later its own outcome, after
// this record, so it can neither be acknowledged nor survive a crash
// without this root (DESIGN.md §3.7). Values the root's calls returned
// are tentative until CommitRoot itself returns.
func (e *Engine) CommitRoot(t *Tx) error { return e.commitRoot(t, true) }

// CommitRootUnforced is CommitRoot without the device wait: the
// JRootCommit record is appended like any non-outcome record — its
// position fixed, its flush left to the next batch — and the call
// returns at once. It is for the two commits nobody has to wait for: a
// two-phase-commit branch whose commit the coordinator's decision log
// already made durable (DecideRoot), and a root that executed nothing
// (Tx.Idle), which read nothing a crash could take back. Dependents are
// ordered behind the record by the journal prefix exactly as behind a
// forced one.
func (e *Engine) CommitRootUnforced(t *Tx) error { return e.commitRoot(t, false) }

func (e *Engine) commitRoot(t *Tx, forced bool) error {
	if !t.IsRoot() {
		return fmt.Errorf("core: CommitRoot on non-root %s", t)
	}
	if t.State() != Active {
		return fmt.Errorf("core: CommitRoot on %s root %s", t.State(), t)
	}
	// Write-ahead ordering: the commit record is *submitted* before the
	// commit becomes observable (state transition, lock release, waiter
	// wake-up), so no journal prefix can show a dependent's work without
	// this root's outcome ahead of it, and a crash cannot leave winners
	// the journal still lists as losers.
	var out pendingOutcome
	if e.journal != nil {
		rec := JournalRecord{Kind: JRootCommit, Node: t.id}
		if forced {
			out = e.journalSubmit(t, rec)
		} else {
			e.journalAppend(t, rec)
		}
	}
	t.setState(Committed)
	t.endSeq = e.seq.Add(1)
	t.undo = nil
	// Release before waking waiters: anyone blocked on this tree
	// wakes via close(done) below and re-examines a lock list the
	// tree has already left. (A waiter woken early by another event
	// may also observe the committed state with locks still present;
	// the conflict test filters non-Active wait targets, so that too
	// grants — release order is a wake-up optimisation, not a
	// correctness requirement.)
	e.lm.ReleaseTree(t)
	// Drop any unconsumed external victim sentence: the root finished,
	// so the cross-node cycle it participated in is broken.
	e.wfg.ConsumeVictim(t.id)
	close(t.done)
	e.stats.bump(int(t.id), cRootsCommitted)
	// Acknowledge only when durable: the caller's Commit returns after
	// the batch holding the record is on stable storage (at once in
	// sync mode, in async mode, and for an unforced commit,
	// which submitted nothing to wait for).
	e.journalWait(t, out, true)
	e.spans.FinishRoot(t.span, obs.OutcomeCommitted)
	return nil
}

// PrepareRoot asks top-level transaction t for its vote in a
// distributed two-phase commit. A root with work to compensate enters
// the prepared state: the JPrepare record — tagged with the
// coordinator's global transaction id — is forced durable before the
// call returns, after which this participant guarantees it can commit t
// (all effects and their compensations are journaled) and must not
// abort it unilaterally. The root stays Active and keeps every lock;
// the coordinator resolves it with DecideRoot. Recovery of a journal
// whose last word on t is JPrepare reports t as in-doubt
// (wal.Analysis.InDoubt) for resolution against the coordinator's
// decision log.
//
// A root with an empty undo list has nothing
// either decision could change, so it votes read-only (presumed-abort
// 2PC's read-only vote): it commits here through the ordinary
// CommitRoot, writes no JPrepare, and takes no DecideRoot. It still
// waits for its JRootCommit: its locks went at submission like any
// commit's, but what it read may rest on a predecessor whose outcome is
// not durable yet, and the coordinator acknowledges the global root on
// the strength of this vote.
func (e *Engine) PrepareRoot(t *Tx, gid uint64) (readOnly bool, err error) {
	if !t.IsRoot() {
		return false, fmt.Errorf("core: PrepareRoot on non-root %s", t)
	}
	if t.State() != Active {
		return false, fmt.Errorf("core: PrepareRoot on %s root %s", t.State(), t)
	}
	if len(t.undo) == 0 {
		return true, e.CommitRoot(t)
	}
	if e.journal != nil {
		// The one place an outcome-class record is submitted and waited
		// for with every lock held: a prepared branch has promised the
		// coordinator it can still go either way, so nothing of it may
		// become observable before the decision — there is no "make
		// observable" step to put between the two halves.
		out := e.journalSubmit(t, JournalRecord{Kind: JPrepare, Node: t.id, Parent: gid})
		e.journalWait(t, out, false)
	}
	return false, nil
}

// DecideRoot applies the coordinator's two-phase-commit decision to a
// prepared root: the JDecide record is appended first (a journal never
// shows an outcome without its decision), then the root commits or
// aborts as in the single-node path — except that a commit forces
// nothing and waits for nothing. The coordinator's decision log is the
// commit point and is already durable, so a crash that loses the JDecide
// and JRootCommit leaves the branch in doubt behind its durable
// JPrepare, and recovery resolves it to commit against that log; a
// forced flush here would buy no guarantee. An abort decision still
// returns only when its JNodeAborted is durable, like any root abort.
func (e *Engine) DecideRoot(t *Tx, gid uint64, commit bool) error {
	if !t.IsRoot() {
		return fmt.Errorf("core: DecideRoot on non-root %s", t)
	}
	if e.journal != nil {
		e.journalAppend(t, JournalRecord{Kind: JDecide, Node: t.id, Parent: gid, Splice: commit})
	}
	if commit {
		return e.CommitRootUnforced(t)
	}
	return e.AbortRoot(t)
}

// AbortChild rolls back subtransaction t: its committed children are
// compensated (in reverse order, as fresh children of t, through the
// normal locking machinery), its subtree's locks are released, and the
// node is marked aborted. The parent receives no undo entry for t.
func (e *Engine) AbortChild(t *Tx) error {
	if t.IsRoot() {
		return fmt.Errorf("core: AbortChild on root %s", t)
	}
	return e.abortNode(t)
}

// AbortRoot rolls back top-level transaction t, compensating all its
// committed top-level actions in reverse order, and releases every
// lock of the tree. Like CommitRoot it submits its outcome record
// (JNodeAborted), makes the rollback observable, and returns once the
// record is durable.
func (e *Engine) AbortRoot(t *Tx) error {
	if !t.IsRoot() {
		return fmt.Errorf("core: AbortRoot on non-root %s", t)
	}
	err := e.abortNode(t)
	e.wfg.ConsumeVictim(t.id)
	e.stats.bump(int(t.id), cRootsAborted)
	return err
}

func (e *Engine) abortNode(t *Tx) error {
	if t.State() != Active {
		return fmt.Errorf("core: abort of %s node %s", t.State(), t)
	}
	undo := t.undo
	t.undo = nil
	t.compensating = true
	journaled := e.journals(t)
	if journaled {
		e.journalAppend(t, JournalRecord{Kind: JAbortStart, Node: t.id})
	}

	// Compensate committed work in reverse chronological order. The
	// compensating subtransactions run under t itself, so their lock
	// requests never conflict with t's own tree (same root) and they
	// are recorded in the history like any other action.
	var firstErr error
	for i := len(undo) - 1; i >= 0; i-- {
		if e.exec == nil {
			firstErr = fmt.Errorf("core: no compensation executor installed, cannot undo %s", undo[i].Format(e.table.Name(undo[i])))
			break
		}
		err := e.exec(t, undo[i])
		if err != nil && firstErr == nil {
			firstErr = fmt.Errorf("core: compensation %s failed: %w", undo[i].Format(e.table.Name(undo[i])), err)
		}
		if err == nil && journaled {
			e.journalAppend(t, JournalRecord{Kind: JCompensated, Node: t.id})
		}
		if e.obs.On() {
			e.obs.Emit(int(t.root.id), obs.Event{Kind: obs.EvComp, Node: t.id, Root: t.root.id, Obj: undo[i].Object})
		}
		t.span.AddComp(1)
		e.stats.bump(int(t.root.id), cCompensations)
	}

	// Write-ahead ordering: the abort-complete record is submitted to
	// the journal before the rollback becomes observable (nodes marked
	// Aborted, locks released) — a crash in between re-runs an empty
	// pending list, never un-aborts the tree.
	var out pendingOutcome
	if firstErr == nil && journaled {
		// Root aborts are top-level outcomes like commits: submitted
		// here, waited for below once the rollback is observable (see
		// CommitRoot). Subtransaction rollbacks stay fire-and-forget —
		// their parent's outcome subsumes them.
		if t.IsRoot() {
			out = e.journalSubmit(t, JournalRecord{Kind: JNodeAborted, Node: t.id})
		} else {
			e.journalAppend(t, JournalRecord{Kind: JNodeAborted, Node: t.id})
		}
	}
	t.eachNode(func(n *Tx) {
		if n.State() == Active {
			n.setState(Aborted)
			n.endSeq = e.seq.Add(1)
			close(n.done)
			if n != t {
				n.span.Finish(obs.OutcomeAborted)
			}
		}
	})
	e.lm.ReleaseTree(t)
	if t.IsRoot() {
		e.journalWait(t, out, true)
		e.spans.FinishRoot(t.span, obs.OutcomeAborted)
	} else {
		t.span.Finish(obs.OutcomeAborted)
	}
	return firstErr
}

// ProbeConflicts computes, without acquiring anything or touching the
// statistics, the waits-for set a child of parent invoking inv would
// face right now. Deterministic figure tests use it to assert exactly
// which (sub)transactions would block a request (paper Figs. 5–7).
func (e *Engine) ProbeConflicts(parent *Tx, inv compat.Invocation) []*Tx {
	return e.lm.Probe(parent, inv)
}

// Describe renders t as Tx.String does, with its method's name.
func (e *Engine) Describe(t *Tx) string { return t.describe(e.table) }

// DumpLocks renders the lock table for diagnostics, ordered by object.
func (e *Engine) DumpLocks() string { return e.lm.Dump() }

// Forest returns a snapshot of all recorded transaction trees.
// History recording must have been enabled in the Config. Node
// timestamps and states are only exact for trees that have completed;
// the checkers call Forest at quiescence.
func (e *Engine) Forest() *history.Forest {
	e.recMu.Lock()
	defer e.recMu.Unlock()
	f := &history.Forest{}
	for _, r := range e.roots {
		r.treeMu.Lock()
		f.Roots = append(f.Roots, e.snapNode(r))
		r.treeMu.Unlock()
	}
	return f
}

func (e *Engine) snapNode(t *Tx) *history.Node {
	n := &history.Node{
		ID:        t.id,
		Inv:       t.inv,
		Name:      e.table.Name(t.inv),
		Begin:     t.beginSeq,
		End:       t.endSeq,
		Committed: t.State() == Committed,
	}
	for _, c := range t.children {
		n.Children = append(n.Children, e.snapNode(c))
	}
	return n
}
