// The deterministic driver.
//
// Concurrency under test is real — every root transaction runs on its
// own goroutine against the real engine — but the *schedule* is owned
// by a single driver goroutine: exactly one command (action, commit,
// abort) is in flight at any moment, and every scheduling choice comes
// from the seeded rng. The engine's only scheduling freedom is lock
// blocking, and the driver domesticates it:
//
//   - When the in-flight root blocks (Hooks.OnBlock → evBlocked), the
//     driver force-commits every holder root, in sorted id order.
//     Commits never block, so resolution always terminates; since at
//     most one root is ever parked, the waits-for graph never has a
//     cycle and the engine's deadlock paths never fire.
//   - A woken request (Hooks.OnWake) parks on its root's resume gate
//     until the driver has fully finished committing the holders —
//     without the gate, the woken request would race the tail of the
//     holder's lock release and the schedule would depend on timing.
//
// The trade-off is explicit: wait chains stay short and deadlock
// victimization is not exercised here (the engine's own tests cover
// it); in exchange every block/wake/commit sequence — and therefore
// every journal byte — is a pure function of the seed.
//
// Kill-and-recover happens at quiescent points (no command in
// flight). The live store cannot be rewound, so a crash cut must keep
// it consistent: the driver syncs the journal, commits one or two
// seeded roots so their commit records land as single-record batches,
// and then truncates the durable image at a batch boundary such that
// every dropped record is a root-commit. Analysis then sees those
// roots — and any roots still open at the kill — as losers, and
// recovery compensates their (fully durable) subcommits, which is
// exactly the state the store holds. A cut is never allowed to drop
// the current epoch's own recovery records (the epoch floor), and each
// epoch gets a fresh journal, so the restart of engine node ids after
// Reopen can never alias records across epochs.

package chaos

import (
	"errors"
	"fmt"
	"math/rand"
	"sort"
	"strings"
	"time"

	"semcc/internal/clock"
	"semcc/internal/core"
	"semcc/internal/dist"
	"semcc/internal/obs"
	"semcc/internal/oid"
	"semcc/internal/oodb"
	"semcc/internal/ordercluster"
	"semcc/internal/orderentry"
	"semcc/internal/serial"
	"semcc/internal/val"
	"semcc/internal/wal"
)

type cmdKind int

const (
	cmdAction cmdKind = iota
	cmdCommit
	cmdAbort
)

type cmd struct {
	kind cmdKind
	ac   action
}

type evKind int

const (
	evDone evKind = iota
	evBlocked
	evWake
)

type event struct {
	kind  evKind
	root  *rootState
	frag  string
	err   error
	waits []uint64 // sorted, deduped holder root core ids (evBlocked)
}

// rootState is one live root transaction and its serving goroutine.
type rootState struct {
	name string
	tx   orderentry.Session
	// key identifies the root in byCore: the engine root id on a
	// single node, the coordinator's global transaction id on a
	// cluster.
	key       uint64
	app       *orderentry.App // the epoch's app at spawn time
	cmds      chan cmd
	resume    chan struct{} // OnWake gate
	plan      []action
	next      int
	wantAbort bool
	executed  []action // completed prefix (what the oracle replays)
	frags     []string
	// net is the root's successful stock-counter deltas by ItemNo;
	// folded into the driver's committed net-stock on commit (and
	// folded back out when a crash cut drops the commit).
	net  map[int64]int64
	done bool
}

var batchChoices = []int{2, 3, 5, 8}

type driver struct {
	cfg    Config
	pop    orderentry.Config
	rng    *rand.Rand
	clk    *clock.Fake
	gen    *gen
	hooks  core.Hooks
	events chan event
	report *Report

	db      *oodb.DB
	app     *orderentry.App
	journal wal.Journal

	// Multi-node topology (Config.Nodes >= 2): the database is
	// sharded over cluster's nodes, every root runs through the
	// two-phase-commit coordinator, and kills take down a single
	// rotating node instead of the whole process. journals[i] is node
	// i's journal; crashEpoch marks the window between a node kill and
	// its recovery, in which a forced commit may legitimately die on
	// the dead participant.
	cluster    *dist.Cluster
	journals   []wal.Journal
	crashEpoch bool
	// lastDist is the coordinator observability counters at the last
	// epoch boundary; per-epoch deltas against it populate the Epoch
	// Obs* fields and the reconcile checks (multi-node runs only).
	lastDist dist.DistStats

	byCore map[uint64]*rootState // root core id → state; guarded by mu
	mu     chan struct{}         // 1-token mutex (keeps imports lean)

	live        []*rootState
	commitLog   []*rootState // committed roots in commit order
	rootSeq     int
	doneActions int
	killAt      []int
	nextKill    int
	injected    bool

	modeSeq    []wal.Mode
	curBatch   int
	epochFloor int
	// netStock is the committed net stock delta by ItemNo
	// (credits − debits of committed roots): the conservation
	// invariant's correction term.
	netStock map[int64]int64

	wakePending *rootState
	hash        uint64
	recent      []string
}

const fnvOffset = 14695981039346656037
const fnvPrime = 1099511628211

func newDriver(cfg Config) *driver {
	d := &driver{
		cfg:    cfg,
		rng:    rand.New(rand.NewSource(cfg.Seed)),
		clk:    clock.NewFake(time.Unix(0, 0), time.Millisecond),
		events: make(chan event),
		byCore: make(map[uint64]*rootState),
		mu:     make(chan struct{}, 1),
		report: &Report{Seed: cfg.Seed},
		hash:   fnvOffset,
	}
	d.pop = orderentry.Config{
		Items:         3,
		OrdersPerItem: max(8, cfg.Actions/3+4),
		InitialQOH:    int64(cfg.Actions/20 + 2),
		Price:         10,
		OrderQuantity: 1,
	}
	d.gen = newGen(d.rng, d.pop)
	d.hooks = d.hooksAt(0)
	modes := wal.Modes()
	for _, i := range d.rng.Perm(len(modes)) {
		d.modeSeq = append(d.modeSeq, modes[i])
	}
	d.netStock = make(map[int64]int64)
	kills := cfg.Kills
	for i := 1; i <= kills; i++ {
		d.killAt = append(d.killAt, i*cfg.Actions/(kills+1))
	}
	d.curBatch = batchChoices[d.rng.Intn(len(batchChoices))]
	if cfg.Nodes >= 2 {
		// Multi-node: one engine, lock table, pool and journal per
		// node, the order-entry population sharded by item ownership,
		// every root a coordinator transaction. The durability mode
		// rotates with each crashed node's fresh journal.
		d.journals = make([]wal.Journal, cfg.Nodes)
		d.cluster = dist.OpenCluster(cfg.Nodes, func(i int) oodb.Options {
			j := wal.New(wal.Config{
				Mode:     d.modeSeq[0],
				MaxBatch: d.curBatch,
				MaxDelay: time.Hour,
				Clock:    d.clk,
			})
			d.journals[i] = j
			return oodb.Options{
				PoolFrames: cfg.PoolFrames,
				Journal:    j,
				Hooks:      d.hooksAt(i),
				Clock:      d.clk,
			}
		})
		// The coordinator runs with observability enabled for the whole
		// run: the chaos oracle doubles as the instrumentation's audit —
		// every epoch's counter deltas must reconcile with the driver's
		// own event counts, kills and recoveries included. Collection is
		// timing-only on the metric side, so TraceHash is unaffected.
		co := obs.New(obs.Config{})
		co.SetEnabled(true)
		d.cluster.AttachObs(co)
		app, err := ordercluster.Setup(d.cluster, d.pop)
		if err != nil {
			d.fail("setup: %v", err)
		}
		d.app = app
		d.db = d.cluster.Node(0).DB()
		d.journal = d.journals[0]
		d.tracef("seed=%d actions=%d roots=%d nodes=%d kills=%v mode=%s batch=%d pop=%+v",
			cfg.Seed, cfg.Actions, cfg.Roots, cfg.Nodes, d.killAt, d.journal.Mode(), d.curBatch, d.pop)
		return d
	}
	j := wal.New(wal.Config{
		Mode:     d.modeSeq[0],
		MaxBatch: d.curBatch,
		MaxDelay: time.Hour, // deterministic: only batch-full/urgent/Sync flush
		Clock:    d.clk,
	})
	d.journal = j
	d.db = oodb.Open(oodb.Options{
		PoolFrames: cfg.PoolFrames,
		Journal:    j,
		Hooks:      d.hooks,
		Clock:      d.clk,
	})
	app, err := orderentry.Setup(d.db, d.pop)
	if err != nil {
		d.fail("setup: %v", err)
	}
	d.app = app
	d.epochFloor = j.Len()
	d.tracef("seed=%d actions=%d roots=%d kills=%v mode=%s batch=%d pop=%+v",
		cfg.Seed, cfg.Actions, cfg.Roots, d.killAt, j.Mode(), d.curBatch, d.pop)
	return d
}

// hooksAt builds node's engine hooks. Block and wake events carry the
// driver-level root, resolved through the node's local-root → global
// transaction id table on a cluster (the identity on one node).
func (d *driver) hooksAt(node int) core.Hooks {
	return core.Hooks{
		OnBlock: func(t *core.Tx, waits []*core.Tx) {
			r := d.rootAt(node, t.Root().ID())
			if r == nil {
				return
			}
			seen := map[uint64]bool{}
			ids := make([]uint64, 0, len(waits))
			for _, w := range waits {
				id, ok := d.keyAt(node, w.Root().ID())
				if !ok || id == r.key || seen[id] {
					continue
				}
				seen[id] = true
				ids = append(ids, id)
			}
			sort.Slice(ids, func(i, j int) bool { return ids[i] < ids[j] })
			d.events <- event{kind: evBlocked, root: r, waits: ids}
		},
		OnWake: func(t *core.Tx) {
			r := d.rootAt(node, t.Root().ID())
			if r == nil {
				return
			}
			d.events <- event{kind: evWake, root: r}
			<-r.resume // park until the driver finishes the resolution
		},
	}
}

// keyAt maps a node-local engine root id to the driver's byCore key.
func (d *driver) keyAt(node int, local uint64) (uint64, bool) {
	if d.cluster == nil {
		return local, true
	}
	return d.cluster.Node(node).GIDOf(local)
}

// rootAt resolves a node-local root id to its driver state.
func (d *driver) rootAt(node int, local uint64) *rootState {
	key, ok := d.keyAt(node, local)
	if !ok {
		return nil
	}
	return d.rootByCore(key)
}

// ownerDB returns the database owning an object (d.db on one node).
func (d *driver) ownerDB(obj oid.OID) *oodb.DB {
	if d.cluster != nil {
		return d.cluster.OwnerDB(obj)
	}
	return d.db
}

func (d *driver) rootByCore(id uint64) *rootState {
	d.mu <- struct{}{}
	r := d.byCore[id]
	<-d.mu
	return r
}

func (d *driver) fail(format string, args ...any) {
	msg := fmt.Sprintf(format, args...)
	panic(failure{fmt.Sprintf("chaos seed %d: %s\nrecent trace:\n  %s",
		d.cfg.Seed, msg, strings.Join(d.recent, "\n  "))})
}

// tracef appends one line to the execution trace: it feeds the
// determinism fingerprint (Report.TraceHash) and a bounded ring kept
// for failure reports.
func (d *driver) tracef(format string, args ...any) {
	line := fmt.Sprintf(format, args...)
	h := d.hash
	for i := 0; i < len(line); i++ {
		h = (h ^ uint64(line[i])) * fnvPrime
	}
	d.hash = (h ^ '\n') * fnvPrime
	d.recent = append(d.recent, line)
	if len(d.recent) > 64 {
		d.recent = d.recent[1:]
	}
}

func hashBytes(b []byte) uint64 {
	h := uint64(fnvOffset)
	for i := 0; i < len(b); i++ {
		h = (h ^ uint64(b[i])) * fnvPrime
	}
	return h
}

// recv receives the next event, failing loudly rather than hanging if
// the harness itself deadlocks.
func (d *driver) recv() event {
	select {
	case e := <-d.events:
		return e
	case <-time.After(60 * time.Second):
		panic(failure{fmt.Sprintf("chaos seed %d: no event within 60s (harness deadlock?)\nrecent trace:\n  %s",
			d.cfg.Seed, strings.Join(d.recent, "\n  "))})
	}
}

// serve is a root's goroutine: it executes commands one at a time and
// reports each completion on the shared event channel.
func (d *driver) serve(r *rootState) {
	for c := range r.cmds {
		switch c.kind {
		case cmdAction:
			frag, err := applyAction(r.app, r.tx, c.ac)
			d.events <- event{kind: evDone, root: r, frag: frag, err: err}
		case cmdCommit:
			err := r.tx.Commit()
			d.events <- event{kind: evDone, root: r, err: err}
			return
		case cmdAbort:
			err := r.tx.Abort()
			d.events <- event{kind: evDone, root: r, err: err}
			return
		}
	}
}

func (d *driver) spawn() *rootState {
	plan, wantAbort := d.gen.plan()
	var tx orderentry.Session
	var key uint64
	if d.cluster != nil {
		ct, err := d.cluster.Begin()
		if err != nil {
			d.fail("spawn: %v", err)
		}
		tx, key = ct, ct.GID()
	} else {
		ot := d.db.Begin()
		tx, key = ot, ot.Root().ID()
	}
	r := &rootState{
		name:      fmt.Sprintf("r%d", d.rootSeq),
		tx:        tx,
		key:       key,
		app:       d.app,
		cmds:      make(chan cmd),
		resume:    make(chan struct{}),
		plan:      plan,
		wantAbort: wantAbort,
	}
	d.rootSeq++
	d.mu <- struct{}{}
	d.byCore[key] = r
	<-d.mu
	d.live = append(d.live, r)
	go d.serve(r)
	d.tracef("spawn %s core=%d plan=%d abort=%t", r.name, key, len(plan), wantAbort)
	return r
}

// exec dispatches one command to r and runs the event loop until r's
// completion arrives, resolving any block along the way.
func (d *driver) exec(r *rootState, c cmd) (string, error) {
	r.cmds <- c
	return d.awaitDone(r)
}

func (d *driver) awaitDone(target *rootState) (string, error) {
	for {
		e := d.recv()
		switch e.kind {
		case evBlocked:
			if e.root != target {
				d.fail("%s blocked while awaiting %s", e.root.name, target.name)
			}
			d.report.Blocks++
			d.tracef("blocked %s waits=%v", e.root.name, e.waits)
			d.resolveBlock(e)
		case evWake:
			// The parked root's lock was granted mid-resolution; hold
			// it on its gate until the resolution completes.
			if d.wakePending != nil {
				d.fail("second pending wake (%s, then %s)", d.wakePending.name, e.root.name)
			}
			d.wakePending = e.root
		case evDone:
			if e.root != target {
				d.fail("unexpected completion of %s while awaiting %s", e.root.name, target.name)
			}
			return e.frag, e.err
		}
	}
}

// resolveBlock force-commits every holder the blocked root waits for,
// then releases the root's wake gate. The engine wakes a waiter only
// after all waited-on holders completed, so the wake arrives exactly
// once, after the last holder's commit.
func (d *driver) resolveBlock(e event) {
	for _, id := range e.waits {
		h := d.rootByCore(id)
		if h == nil {
			d.fail("%s waits for unknown root core=%d", e.root.name, id)
		}
		if h.done {
			continue
		}
		d.forceCommit(h)
	}
	if d.wakePending == nil {
		// All holders committed; the wake is on its way.
		w := d.recv()
		if w.kind != evWake || w.root != e.root {
			d.fail("awaiting wake of %s, got event kind=%d root=%s", e.root.name, w.kind, w.root.name)
		}
		d.wakePending = w.root
	}
	if d.wakePending != e.root {
		d.fail("pending wake is %s, blocked root is %s", d.wakePending.name, e.root.name)
	}
	d.wakePending = nil
	d.report.Wakes++
	d.tracef("wake %s", e.root.name)
	e.root.resume <- struct{}{}
}

func (d *driver) forceCommit(h *rootState) {
	d.report.ForcedCommits++
	d.tracef("forcecommit %s after %d/%d actions", h.name, h.next, len(h.plan))
	h.cmds <- cmd{kind: cmdCommit}
	_, err := d.awaitDone(h)
	if err != nil && d.crashEpoch && errors.Is(err, dist.ErrNodeDown) {
		// The holder's two-phase commit reached the killed node before
		// the decision was logged: the coordinator aborted every
		// reachable branch, which released the locks the blocked root
		// is waiting for, and the holder joins the crash casualties.
		h.done = true
		d.removeLive(h)
		d.report.CrashAborted++
		d.tracef("forcecommit %s died with the killed node", h.name)
		return
	}
	d.finishCommit(h, err)
}

func (d *driver) finishCommit(r *rootState, err error) {
	if err != nil {
		d.fail("commit of %s: %v", r.name, err)
	}
	r.done = true
	d.removeLive(r)
	d.commitLog = append(d.commitLog, r)
	for item, net := range r.net {
		d.netStock[item] += net
	}
	d.report.Committed++
	d.tracef("commit %s seq=%d obs=%s", r.name, len(d.commitLog)-1, strings.Join(r.frags, ";"))
}

func (d *driver) finishAbort(r *rootState, err error) {
	if err != nil {
		d.fail("abort of %s: %v", r.name, err)
	}
	r.done = true
	d.removeLive(r)
	d.report.Aborted++
	d.tracef("abort %s", r.name)
}

func (d *driver) removeLive(r *rootState) {
	for i, x := range d.live {
		if x == r {
			d.live = append(d.live[:i], d.live[i+1:]...)
			return
		}
	}
}

// run executes the whole schedule: spawn roots, dispatch seeded
// actions one at a time, fire kills and the fault injection at their
// seeded points, and drain every root to an outcome.
func (d *driver) run() {
	total := d.cfg.Actions
	for d.doneActions < total || len(d.live) > 0 {
		if d.nextKill < len(d.killAt) && d.doneActions >= d.killAt[d.nextKill] {
			d.nextKill++
			d.kill()
			continue
		}
		if d.cfg.Inject && !d.injected && d.doneActions >= total/2 {
			d.injected = true
			d.inject()
		}
		for len(d.live) < d.cfg.Roots && d.doneActions < total {
			d.spawn()
		}
		if len(d.live) == 0 {
			break
		}
		r := d.live[d.rng.Intn(len(d.live))]
		switch {
		case r.next < len(r.plan) && d.doneActions < total:
			ac := r.plan[r.next]
			r.next++
			d.doneActions++
			d.tracef("step %s %s", r.name, ac)
			frag, err := d.exec(r, cmd{kind: cmdAction, ac: ac})
			if err != nil {
				d.fail("action %s on %s: %v", ac, r.name, err)
			}
			r.executed = append(r.executed, ac)
			r.frags = append(r.frags, frag)
			if strings.HasSuffix(frag, "=stock") {
				d.report.InsufficientStock++
			}
			if (ac.kind == actDebit || ac.kind == actCredit) && strings.HasSuffix(frag, "=ok") {
				if r.net == nil {
					r.net = make(map[int64]int64)
				}
				if ac.kind == actDebit {
					r.net[ac.item] -= ac.v
				} else {
					r.net[ac.item] += ac.v
				}
				d.report.StockOps++
			}
			d.tracef("done %s %s", r.name, frag)
		case r.wantAbort:
			d.tracef("abortreq %s", r.name)
			_, err := d.exec(r, cmd{kind: cmdAbort})
			d.finishAbort(r, err)
		default:
			_, err := d.exec(r, cmd{kind: cmdCommit})
			d.finishCommit(r, err)
		}
	}
	d.report.Epochs = append(d.report.Epochs, Epoch{
		Mode:     d.journal.Mode().String(),
		MaxBatch: d.curBatch,
		Records:  d.journalLen(),
	})
	d.fillEpochObs()
	d.reconcileObs()
	d.report.Actions = d.doneActions
}

// journalLen is the run's current durable record count: one journal's
// length on a single node, the sum over every node's journal on a
// cluster.
func (d *driver) journalLen() int {
	if d.cluster == nil {
		return d.journal.Len()
	}
	n := 0
	for _, j := range d.journals {
		n += j.Len()
	}
	return n
}

// fillEpochObs records the coordinator observability counter deltas
// since the previous epoch boundary into the just-appended Epoch entry
// (no-op on a single engine, where there is no coordinator). The
// deltas are pure functions of the deterministic schedule, so they are
// part of the reproducible Report.
func (d *driver) fillEpochObs() dist.DistStats {
	if d.cluster == nil {
		return dist.DistStats{}
	}
	cur := d.cluster.DistStats()
	delta := dist.DistStats{
		SingleCommits:  cur.SingleCommits - d.lastDist.SingleCommits,
		Commits2PC:     cur.Commits2PC - d.lastDist.Commits2PC,
		Aborts:         cur.Aborts - d.lastDist.Aborts,
		Recoveries:     cur.Recoveries - d.lastDist.Recoveries,
		InDoubtCommits: cur.InDoubtCommits - d.lastDist.InDoubtCommits,
		InDoubtAborts:  cur.InDoubtAborts - d.lastDist.InDoubtAborts,
	}
	d.lastDist = cur
	ep := &d.report.Epochs[len(d.report.Epochs)-1]
	ep.ObsCommits = int(delta.SingleCommits + delta.Commits2PC)
	ep.ObsAborts = int(delta.Aborts)
	ep.ObsRecoveries = int(delta.Recoveries)
	ep.ObsInDoubtCommits = int(delta.InDoubtCommits)
	ep.ObsInDoubtAborts = int(delta.InDoubtAborts)
	return delta
}

// reconcileObs is the end-of-run audit of the coordinator's counters
// against the driver's own event counts: every root the driver saw
// commit must appear in exactly one commit counter, every voluntary or
// crash abort in the abort counter, and every kill in the recovery
// counter. Metrics that lie under crashes are worse than no metrics.
func (d *driver) reconcileObs() {
	if d.cluster == nil {
		return
	}
	tot := d.lastDist
	if got := int(tot.SingleCommits + tot.Commits2PC); got != d.report.Committed {
		d.fail("obs reconcile: coordinator counted %d commits (%d single + %d 2pc), driver committed %d",
			got, tot.SingleCommits, tot.Commits2PC, d.report.Committed)
	}
	if want := d.report.Aborted + d.report.CrashAborted; int(tot.Aborts) != want {
		d.fail("obs reconcile: coordinator counted %d aborts, driver aborted %d (%d voluntary + %d crash)",
			tot.Aborts, want, d.report.Aborted, d.report.CrashAborted)
	}
	if int(tot.Recoveries) != d.report.Kills {
		d.fail("obs reconcile: coordinator counted %d recoveries, driver killed %d nodes",
			tot.Recoveries, d.report.Kills)
	}
}

// inject is the deliberate fault: a non-transactional write bumping an
// item's quantity-on-hand atom behind the engine's back. No serial
// execution can produce the offset, so the oracle must report it.
func (d *driver) inject() {
	item, err := d.app.Item(1)
	if err != nil {
		d.fail("inject: %v", err)
	}
	atom, err := d.app.QOHAtom(item)
	if err != nil {
		d.fail("inject: %v", err)
	}
	db := d.ownerDB(atom)
	v, err := db.ReadAtom(atom)
	if err != nil {
		d.fail("inject: %v", err)
	}
	if err := db.Store().WriteAtomic(atom, val.OfInt(v.Int()+7)); err != nil {
		d.fail("inject: %v", err)
	}
	d.tracef("inject qoh(1) %d -> %d", v.Int(), v.Int()+7)
}

// kill crashes the engine at a quiescent point and recovers from the
// journal's durable image, possibly after cutting committed work off
// its tail (see the package comment for why the cut must drop only
// root-commit records).
func (d *driver) kill() {
	if d.cluster != nil {
		d.killNode()
		return
	}
	j := d.journal
	j.Sync()

	// Manufacture droppable commits: commit up to two seeded open
	// roots, each Sync-fenced so its commit record is a complete
	// single-record batch in every mode.
	if len(d.live) > 0 {
		n := 1 + d.rng.Intn(min(2, len(d.live)))
		for i := 0; i < n && len(d.live) > 0; i++ {
			r := d.live[d.rng.Intn(len(d.live))]
			d.tracef("precommit %s", r.name)
			_, err := d.exec(r, cmd{kind: cmdCommit})
			d.finishCommit(r, err)
			j.Sync()
		}
	}

	img := append([]byte(nil), j.DurableBytes()...)
	recs := j.Records()
	_, batches, err := wal.UnmarshalDurable(img)
	if err != nil {
		d.fail("kill: durable image corrupt before cut: %v", err)
	}
	if n := 0; len(batches) > 0 {
		n = batches[len(batches)-1].End
		if n != len(recs) {
			d.fail("kill: durable image covers %d of %d records after Sync", n, len(recs))
		}
	}

	// The droppable suffix: trailing batches above the epoch floor
	// whose records are all root-commits.
	maxDrop := 0
	for i := len(batches) - 1; i >= 0; i-- {
		b := batches[i]
		start := b.End - b.Records
		if start < d.epochFloor {
			break
		}
		pure := true
		for _, r := range recs[start:b.End] {
			if r.Kind != core.JRootCommit {
				pure = false
				break
			}
		}
		if !pure {
			break
		}
		maxDrop++
	}
	drop := 0
	if maxDrop > 0 {
		drop = d.rng.Intn(maxDrop + 1)
	}
	cutEnd, cutOff := 0, 0
	if cut := len(batches) - drop; cut > 0 {
		cutEnd, cutOff = batches[cut-1].End, batches[cut-1].EndOff
	}
	keep := append([]byte(nil), img[:cutOff]...)
	// Torn tail: a strict prefix of the next dropped frame when one
	// exists, else a partial frame header — both must be tolerated.
	torn := d.rng.Intn(4)
	if torn > 0 {
		if rest := img[cutOff:]; len(rest) > torn {
			keep = append(keep, rest[:torn]...)
		} else {
			keep = append(keep, []byte{0xFF, 0xFF, 0x7F}[:torn]...)
		}
	}

	// Reclassify the roots whose commits the cut dropped: they are a
	// suffix of the commit order, and recovery will compensate them.
	for i := len(recs) - 1; i >= cutEnd; i-- {
		h := d.rootByCore(recs[i].Node)
		if h == nil {
			d.fail("kill: dropped commit of unknown root core=%d", recs[i].Node)
		}
		if n := len(d.commitLog); n == 0 || d.commitLog[n-1] != h {
			d.fail("kill: dropped commit of %s is not the commit-order tail", h.name)
		}
		d.commitLog = d.commitLog[:len(d.commitLog)-1]
		for item, net := range h.net {
			d.netStock[item] -= net
		}
		d.report.Committed--
		d.report.CrashAborted++
		d.tracef("crashdrop %s", h.name)
	}

	// Roots still open die with the engine; recovery rolls them back.
	for _, r := range d.live {
		close(r.cmds)
		r.done = true
		d.report.CrashAborted++
		d.tracef("crashopen %s after %d/%d actions", r.name, r.next, len(r.plan))
	}
	d.live = d.live[:0]
	d.mu <- struct{}{}
	d.byCore = make(map[uint64]*rootState) // next epoch's node ids restart
	<-d.mu

	d.report.Epochs = append(d.report.Epochs, Epoch{
		Mode:           j.Mode().String(),
		MaxBatch:       d.curBatch,
		Records:        cutEnd,
		DroppedCommits: len(recs) - cutEnd,
		TornBytes:      torn,
	})

	// Next epoch: fresh journal with rotated durability mode, engine
	// rebuilt over the shared store, recovery from the cut image.
	mode := d.modeSeq[(d.report.Kills+1)%len(d.modeSeq)]
	d.curBatch = batchChoices[d.rng.Intn(len(batchChoices))]
	nj := wal.New(wal.Config{
		Mode:     mode,
		MaxBatch: d.curBatch,
		MaxDelay: time.Hour,
		Clock:    d.clk,
	})
	cutLog, _, err := wal.UnmarshalDurable(keep)
	if err != nil {
		d.fail("kill: recovering cut image: %v", err)
	}
	if cutLog.Len() != cutEnd {
		d.fail("kill: cut image decodes %d records, want %d", cutLog.Len(), cutEnd)
	}
	db2 := oodb.Reopen(d.db, oodb.Options{
		PoolFrames: d.cfg.PoolFrames,
		Journal:    nj,
		Hooks:      d.hooks,
		Clock:      d.clk,
	})
	an, err := wal.Recover(db2, cutLog)
	if err != nil {
		d.fail("kill: recovery: %v", err)
	}
	app2, err := orderentry.Attach(db2)
	if err != nil {
		d.fail("kill: attach: %v", err)
	}
	d.db, d.app, d.journal = db2, app2, nj
	d.epochFloor = nj.Len()
	d.report.Epochs[len(d.report.Epochs)-1].Losers = len(an.Losers)
	d.report.Kills++
	d.tracef("kill#%d keep=%d drop=%d torn=%d img=%016x losers=%d next=%s/%d",
		d.report.Kills, cutEnd, len(recs)-cutEnd, torn, hashBytes(keep), len(an.Losers), mode, d.curBatch)
	d.checkConservation(fmt.Sprintf("after recovery %d", d.report.Kills))
}

// killNode is the multi-node crash: one node — rotating
// deterministically across kills — dies at a quiescent point and is
// recovered from its own journal's durable image while the rest of
// the cluster keeps its state. Unlike the single-node kill, no
// committed work is dropped (every node Syncs first, so the cut is
// the full synced image plus an optional torn tail); the crash
// coverage here is the branches: every root open at the kill loses
// its branch on the dead node to recovery's rollback, while its
// surviving branches are compensated through the coordinator — the
// cross-node analogue of "open roots die with the engine".
func (d *driver) killNode() {
	victim := d.report.Kills % len(d.journals)
	for _, j := range d.journals {
		j.Sync()
	}
	j := d.journals[victim]
	img := append([]byte(nil), j.DurableBytes()...)
	recs := j.Records()
	_, batches, err := wal.UnmarshalDurable(img)
	if err != nil {
		d.fail("killnode: durable image corrupt: %v", err)
	}
	if len(batches) > 0 && batches[len(batches)-1].End != len(recs) {
		d.fail("killnode: durable image covers %d of %d records after Sync",
			batches[len(batches)-1].End, len(recs))
	}
	keep := img
	torn := d.rng.Intn(4)
	if torn > 0 {
		keep = append(keep, []byte{0xFF, 0xFF, 0x7F}[:torn]...)
	}

	d.cluster.Node(victim).Kill()
	d.crashEpoch = true
	// Abort every open root through the coordinator: the dead node
	// answers ErrNodeDown (its branch is recovery's problem), the live
	// nodes compensate. A blocked compensation still resolves through
	// the normal force-commit path; a forced commit that hits the dead
	// participant aborts instead (see forceCommit).
	for len(d.live) > 0 {
		r := d.live[0]
		d.tracef("crashopen %s after %d/%d actions", r.name, r.next, len(r.plan))
		_, err := d.exec(r, cmd{kind: cmdAbort})
		if err != nil {
			d.fail("killnode: crash abort of %s: %v", r.name, err)
		}
		r.done = true
		d.removeLive(r)
		d.report.CrashAborted++
	}
	d.crashEpoch = false
	d.mu <- struct{}{}
	d.byCore = make(map[uint64]*rootState)
	<-d.mu

	d.report.Epochs = append(d.report.Epochs, Epoch{
		Mode:      j.Mode().String(),
		MaxBatch:  d.curBatch,
		Records:   len(recs),
		TornBytes: torn,
	})

	// Recover the victim over the shared store: fresh journal with a
	// rotated durability mode, in-doubt branches resolved against the
	// coordinator's decision log (none here — kills happen at
	// quiescent points — but the resolver is always wired).
	mode := d.modeSeq[(d.report.Kills+1)%len(d.modeSeq)]
	d.curBatch = batchChoices[d.rng.Intn(len(batchChoices))]
	nj := wal.New(wal.Config{
		Mode:     mode,
		MaxBatch: d.curBatch,
		MaxDelay: time.Hour,
		Clock:    d.clk,
	})
	cutLog, _, err := wal.UnmarshalDurable(keep)
	if err != nil {
		d.fail("killnode: recovering cut image: %v", err)
	}
	if cutLog.Len() != len(recs) {
		d.fail("killnode: cut image decodes %d records, want %d", cutLog.Len(), len(recs))
	}
	an, err := d.cluster.RecoverNode(victim, oodb.Options{
		PoolFrames: d.cfg.PoolFrames,
		Journal:    nj,
		Hooks:      d.hooksAt(victim),
		Clock:      d.clk,
	}, cutLog)
	if err != nil {
		d.fail("killnode: recovery: %v", err)
	}
	d.journals[victim] = nj
	if victim == 0 {
		d.journal = nj
		d.db = d.cluster.Node(0).DB()
	}
	attached, err := orderentry.Attach(d.cluster.Node(victim).DB())
	if err != nil {
		d.fail("killnode: attach: %v", err)
	}
	d.app.Peers[victim] = attached
	d.report.Epochs[len(d.report.Epochs)-1].Losers = len(an.Losers)
	// Per-kill reconcile: the epoch's counter deltas must account for
	// exactly this recovery, and the in-doubt resolutions must match
	// the analysis split by the coordinator's decision log.
	delta := d.fillEpochObs()
	if delta.Recoveries != 1 {
		d.fail("killnode: obs counted %d recoveries for one kill", delta.Recoveries)
	}
	wantCommit, wantAbort := 0, 0
	for _, id := range an.InDoubt {
		if d.cluster.DecisionLog().Committed(id.GID) {
			wantCommit++
		} else {
			wantAbort++
		}
	}
	if int(delta.InDoubtCommits) != wantCommit || int(delta.InDoubtAborts) != wantAbort {
		d.fail("killnode: obs counted %d/%d in-doubt commit/abort resolutions, analysis had %d/%d",
			delta.InDoubtCommits, delta.InDoubtAborts, wantCommit, wantAbort)
	}
	d.report.Kills++
	d.tracef("killnode#%d victim=%d keep=%d torn=%d img=%016x losers=%d next=%s/%d",
		d.report.Kills, victim, len(recs), torn, hashBytes(keep), len(an.Losers), mode, d.curBatch)
	d.checkConservation(fmt.Sprintf("after recovery %d", d.report.Kills))
}

// checkConservation verifies the stock invariant at a quiescent point,
// recording the first violation as the run's divergence.
func (d *driver) checkConservation(when string) {
	states, err := d.app.Snapshot()
	if err != nil {
		d.fail("snapshot %s: %v", when, err)
	}
	if err := orderentry.CheckConservationNet(states, d.pop.InitialQOH, d.netStock); err != nil && d.report.Divergence == "" {
		d.report.Divergence = fmt.Sprintf("seed %d (%s): %v", d.cfg.Seed, when, err)
	}
}

// oracle compares the run with a serial execution of the committed
// roots in commit order. Under strict semantic two-phase locking with
// retained locks, conflict order equals commit order, so the commit
// order must reproduce every committed root's observations and the
// final state; one linear replay suffices — no factorial search.
func (d *driver) oracle() error {
	state, err := d.app.ConcurrentState()
	if err != nil {
		return err
	}
	d.report.FinalState = state
	d.checkConservation("final")

	progs := make([]orderentry.Program, len(d.commitLog))
	obs := make([]serial.Observation, len(d.commitLog))
	order := make([]int, len(d.commitLog))
	for i, r := range d.commitLog {
		progs[i] = programOf(r.executed)
		obs[i] = serial.Observation{Name: r.name, Obs: strings.Join(r.frags, ";")}
		order[i] = i
	}
	ok, why, err := serial.ReplayOrder(orderentry.NewReplayFactory(d.pop, progs), obs, state, order)
	if err != nil {
		return err
	}
	if !ok && d.report.Divergence == "" {
		d.report.Divergence = fmt.Sprintf("seed %d: commit-order replay: %s", d.cfg.Seed, why)
	}
	d.report.TraceHash = d.hash
	return nil
}
