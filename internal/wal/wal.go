// Package wal implements write-ahead logging and restart recovery for
// open nested transactions — the multilevel recovery discipline the
// paper points to as future work (§5, citing [WHBM90]).
//
// The engine journals the invocation hierarchy: node begins (a node's
// place in its tree; generic reads, which have nothing to undo, write
// nothing), subtransaction commits with their registered inverses,
// abort progress, and top-level outcomes. On restart, Recover replays
// the journal to reconstruct each in-flight transaction's pending undo —
// exactly the compensation state the crashed engine held — and applies
// the remaining inverses through a fresh engine, so loser transactions
// are rolled back *logically*, at the highest committed level, just as
// a live abort would.
//
// Scope: the object store survives a crash in this simulation (all
// leaf writes reach it synchronously, i.e. a steal/force buffer
// policy at leaf granularity); the log's job is purely the undo of
// losers. Redo logging for a no-force buffer pool is orthogonal and
// out of scope, as is logging of schema (method bodies are code).
//
// There is one journal type, Log (group.go), whose durability mode
// decides who flushes and when an append is acknowledged, and one
// record codec (appendRecord, decodeRecord and its size mirror
// recordBytes) under both serialisations: the flat Marshal
// format, one chain of records, and the batch frames of the durable
// image (frame.go), one chain per frame. Node and parent ids are
// written relative to their neighbourhood (idCodes), so the bytes a
// root costs do not depend on how many nodes the engine has started.
package wal

import (
	"encoding/binary"
	"fmt"
	"math/bits"
	"sort"

	"semcc/internal/compat"
	"semcc/internal/core"
	"semcc/internal/oid"
	"semcc/internal/oodb"
	"semcc/internal/val"
)

// uvarintLen is the encoded size of v as a binary.AppendUvarint.
func uvarintLen(v uint64) int { return (bits.Len64(v|1) + 6) / 7 }

// zigzag folds a wrapping difference of two ids into an unsigned
// integer that is small when the ids are close, whichever is larger;
// unzigzag is its inverse. Both are bijections on uint64.
func zigzag(d uint64) uint64   { return d<<1 ^ uint64(int64(d)>>63) }
func unzigzag(z uint64) uint64 { return z>>1 ^ -(z & 1) }

// idCodes returns the two varints a record's ids are written as, given
// the Node of the record before it in the same frame body or flat
// sequence (0 for the first). Node ids come from one engine-wide
// counter and the journal interleaves a handful of active trees, so
// written absolutely every id grows a byte each time the counter
// crosses a power of 128 and a journal's size depends on how many
// nodes the engine has ever started; written relative to their
// neighbourhood they do not.
//
//	node:   zigzag(Node − prev)
//	parent: 0 when Parent is 0 (most records), else zigzag(Node − Parent)
//
// All arithmetic wraps, so any pair of uint64 values round-trips — the
// gids JPrepare/JDecide carry in Parent are unrelated to Node. For the
// parent code to stay a bijection the two codes that would collide are
// swapped: Parent == Node, which no engine writes, takes the code that
// plain zigzag would have given Parent == 0.
func idCodes(prev, node, parent uint64) (nodeCode, parentCode uint64) {
	switch parent {
	case 0:
	case node:
		parentCode = zigzag(node)
	default:
		parentCode = zigzag(node - parent)
	}
	return zigzag(node - prev), parentCode
}

// parentOf inverts idCodes' parent code for a record of the given Node.
func parentOf(node, parentCode uint64) uint64 {
	switch parentCode {
	case 0:
		return 0
	case zigzag(node):
		return node
	default:
		return node - unzigzag(parentCode)
	}
}

// recordBytes mirrors appendRecord's size arithmetic so the byte
// counter reports encoded sizes without marshalling on the append
// path. prev is the Node of the record before r, as for appendRecord.
func recordBytes(prev uint64, r core.JournalRecord) uint64 {
	node, parent := idCodes(prev, r.Node, r.Parent)
	n := 1 + uvarintLen(node) + uvarintLen(parent) + 2
	if r.Inv != nil {
		n += 1 + uvarintLen(r.Inv.Object.N) + uvarintLen(uint64(len(r.Inv.Method))) + len(r.Inv.Method)
		n += uvarintLen(uint64(len(r.Inv.Args)))
		for _, a := range r.Inv.Args {
			s := a.Size()
			n += uvarintLen(uint64(s)) + s
		}
	}
	return uint64(n)
}

// appendRecord appends r's encoding to buf: the per-record layout
// shared by the flat Marshal format and the batch-frame bodies,
//
//	kind  uvarint(node code)  uvarint(parent code)  splice  hasInv  [invocation]
//
// with the id codes of idCodes relative to prev, the Node of the record
// before r in the same frame body or flat sequence (0 for the first).
// recordBytes mirrors the size arithmetic; TestRecordBytesExact holds
// the two together.
func appendRecord(buf []byte, prev uint64, r core.JournalRecord) []byte {
	node, parent := idCodes(prev, r.Node, r.Parent)
	buf = append(buf, byte(r.Kind))
	buf = binary.AppendUvarint(buf, node)
	buf = binary.AppendUvarint(buf, parent)
	if r.Splice {
		buf = append(buf, 1)
	} else {
		buf = append(buf, 0)
	}
	if r.Inv == nil {
		buf = append(buf, 0)
	} else {
		buf = append(buf, 1)
		buf = append(buf, byte(r.Inv.Object.K))
		buf = binary.AppendUvarint(buf, r.Inv.Object.N)
		buf = binary.AppendUvarint(buf, uint64(len(r.Inv.Method)))
		buf = append(buf, r.Inv.Method...)
		buf = binary.AppendUvarint(buf, uint64(len(r.Inv.Args)))
		for _, a := range r.Inv.Args {
			buf = binary.AppendUvarint(buf, uint64(a.Size()))
			buf = a.AppendTo(buf)
		}
	}
	return buf
}

// appendRecords appends uvarint(len(recs)) and the records as one
// chain: the whole of the flat format, and the body of a batch frame.
func appendRecords(buf []byte, recs []core.JournalRecord) []byte {
	buf = binary.AppendUvarint(buf, uint64(len(recs)))
	prev := uint64(0)
	for _, r := range recs {
		buf = appendRecord(buf, prev, r)
		prev = r.Node
	}
	return buf
}

// Unmarshal reconstructs a log serialised by Marshal. It is hardened
// against corrupt or adversarial input: every length-carrying varint
// (record count, method length, argument count and sizes) is validated
// against the bytes actually remaining before it is converted to an
// int or used to size an allocation, and record kinds outside the
// JournalKind range are rejected.
func Unmarshal(b []byte) (*Log, error) {
	l := NewLog()
	n, k := binary.Uvarint(b)
	if k <= 0 {
		return nil, fmt.Errorf("wal: bad record count")
	}
	// Every record costs at least 5 bytes (kind, two 1-byte varints,
	// two flag bytes); a count the input cannot possibly hold is
	// corruption, caught before the record loop allocates anything.
	if n > uint64(len(b)-k)/5+1 {
		return nil, fmt.Errorf("wal: record count %d exceeds input size %d", n, len(b))
	}
	p := k
	prev := uint64(0)
	for i := uint64(0); i < n; i++ {
		r, np, err := decodeRecord(b, p, i, prev)
		if err != nil {
			return nil, err
		}
		p, prev = np, r.Node
		l.recs = append(l.recs, r)
	}
	// The flat format carries no batch boundaries, so the one faithful
	// durable image is sync mode's own framing — one single-record frame
	// per append. That makes a NewLog→Marshal→Unmarshal round-trip
	// byte-identical in DurableBytes and exact in Stats (flushes ==
	// records), instead of fabricating one giant frame with flushes = 1.
	// Group/async images keep their real batch boundaries through
	// UnmarshalDurable, which decodes the framed bytes directly.
	for i := range l.recs {
		l.flushLocked(i + 1)
	}
	return l, nil
}

// decodeRecord decodes one journal record at b[p:] and returns it with
// the new offset (i is the record's index, for error messages; prev the
// Node of the record decoded before it, 0 for the first — see
// idCodes). Shared by the flat Unmarshal format and the batch-frame
// bodies, and hardened identically in both: every length-carrying
// varint is validated against the bytes actually remaining before
// conversion to int or use as an allocation size.
func decodeRecord(b []byte, p int, i uint64, prev uint64) (core.JournalRecord, int, error) {
	var r core.JournalRecord
	next := func() (uint64, error) {
		v, k := binary.Uvarint(b[p:])
		if k <= 0 {
			return 0, fmt.Errorf("wal: truncated varint at %d", p)
		}
		p += k
		return v, nil
	}
	if p >= len(b) {
		return r, p, fmt.Errorf("wal: truncated record %d", i)
	}
	r.Kind = core.JournalKind(b[p])
	if r.Kind > core.JDecide {
		return r, p, fmt.Errorf("wal: record %d has invalid kind %d", i, b[p])
	}
	p++
	node, err := next()
	if err != nil {
		return r, p, err
	}
	parent, err := next()
	if err != nil {
		return r, p, err
	}
	r.Node = prev + unzigzag(node)
	r.Parent = parentOf(r.Node, parent)
	if p+2 > len(b) {
		return r, p, fmt.Errorf("wal: truncated flags in record %d", i)
	}
	r.Splice = b[p] == 1
	p++
	hasInv := b[p] == 1
	p++
	if hasInv {
		if p >= len(b) {
			return r, p, fmt.Errorf("wal: truncated invocation in record %d", i)
		}
		kind := oid.Kind(b[p])
		p++
		objN, err := next()
		if err != nil {
			return r, p, err
		}
		mlen, err := next()
		if err != nil {
			return r, p, err
		}
		// Compare in uint64 space before converting: a huge mlen
		// must not overflow the int addition (or the slice bound)
		// on its way to the range check.
		if mlen > uint64(len(b)-p) {
			return r, p, fmt.Errorf("wal: truncated method in record %d", i)
		}
		method := string(b[p : p+int(mlen)])
		p += int(mlen)
		argc, err := next()
		if err != nil {
			return r, p, err
		}
		// Each argument takes at least 1 byte; clamping argc to the
		// remaining input bounds the prealloc below by len(b).
		if argc > uint64(len(b)-p) {
			return r, p, fmt.Errorf("wal: argument count %d exceeds input in record %d", argc, i)
		}
		args := make([]val.V, 0, argc)
		for j := uint64(0); j < argc; j++ {
			alen, err := next()
			if err != nil {
				return r, p, err
			}
			if alen > uint64(len(b)-p) {
				return r, p, fmt.Errorf("wal: truncated argument in record %d", i)
			}
			v, _, err := val.Unmarshal(b[p : p+int(alen)])
			if err != nil {
				return r, p, err
			}
			p += int(alen)
			args = append(args, v)
		}
		inv := compat.Invocation{Object: oid.OID{K: kind, N: objN}, Method: method, Args: args}
		r.Inv = &inv
	}
	return r, p, nil
}

// replayNode mirrors the engine's per-node compensation state.
type replayNode struct {
	id      uint64
	parent  *replayNode
	root    *replayNode
	depth   int
	seq     int // begin order in the log; chronology tie-break for losers
	last    int // roots only: journal position of the tree's last record
	state   core.State
	undo    []compat.Invocation
	pending []compat.Invocation // remaining undo after AbortStart, in application order
	started bool                // AbortStart seen
	// prepared marks a root that entered 2PC phase 1 (JPrepare seen,
	// no decision or outcome yet); gid is the distributed transaction
	// id the prepare record carried.
	prepared bool
	gid      uint64
	// childComp counts compensation steps already accounted through a
	// compensation child's own JSubCommit but not yet matched by this
	// node's JCompensated record (the two are distinct records, so a
	// crash can fall between them).
	childComp int
}

// Analysis is the outcome of the log analysis pass.
type Analysis struct {
	// Committed top-level transaction ids (winners).
	Committed []uint64
	// Losers: in-flight or mid-abort top-level transactions, each with
	// the compensating invocations still to apply, in order.
	Losers []Loser
	// InDoubt: prepared 2PC participants whose journal ends without a
	// decision or outcome. The crashed node cannot resolve them alone —
	// the coordinator's decision log decides (presumed abort for
	// unknown global ids). Recover resolves them through its decided
	// callback; plain Analyze only reports them.
	InDoubt []InDoubt
}

// InDoubt is one prepared-but-undecided distributed transaction
// participant: the local root, the coordinator's global transaction
// id from its JPrepare record, and — should the decision be abort —
// the same journal position and pending-undo payload a Loser carries.
type InDoubt struct {
	Root    uint64
	GID     uint64
	Last    int
	Pending []compat.Invocation
}

// Loser is one transaction requiring rollback completion.
type Loser struct {
	Root uint64
	// Last is the journal position (record index) of the last record
	// any node of the loser's tree wrote. Losers are compensated in
	// descending order of Last — see sortLosers.
	Last    int
	Pending []compat.Invocation
}

// RecordSource is the read side Analyze and Recover need from a
// journal; *Log provides it.
type RecordSource interface {
	RecordsFrom(i int) []core.JournalRecord
}

// Analyze replays the journal and computes winners and losers with
// their pending undo work.
func Analyze(l RecordSource) (*Analysis, error) {
	nodes := make(map[uint64]*replayNode)
	var roots []*replayNode
	committed := make(map[uint64]bool)
	fullyAborted := make(map[uint64]bool)

	seq := 0
	for pos, r := range l.RecordsFrom(0) {
		switch r.Kind {
		case core.JBeginRoot:
			n := &replayNode{id: r.Node, state: core.Active, seq: seq}
			seq++
			n.root = n
			nodes[r.Node] = n
			roots = append(roots, n)
		case core.JBegin:
			p, ok := nodes[r.Parent]
			if !ok {
				return nil, fmt.Errorf("wal: begin of %d under unknown parent %d", r.Node, r.Parent)
			}
			n := &replayNode{id: r.Node, parent: p, root: p.root, depth: p.depth + 1, state: core.Active, seq: seq}
			seq++
			nodes[r.Node] = n
		case core.JSubCommit:
			n, ok := nodes[r.Node]
			if !ok {
				return nil, fmt.Errorf("wal: subcommit of unknown node %d", r.Node)
			}
			n.state = core.Committed
			switch p := n.parent; {
			case p == nil:
			case p.started:
				// n is a compensation child completing while p aborts:
				// its commit consumes the head of p's pending undo
				// instead of growing p's undo. Accounting it here (and
				// crediting childComp so the matching JCompensated does
				// not consume a second entry) closes the window between
				// the child's subcommit and the parent's JCompensated —
				// a crash in between must not re-run the compensation.
				if len(p.pending) == 0 {
					return nil, fmt.Errorf("wal: compensation subcommit of %d without pending undo on node %d", r.Node, p.id)
				}
				p.pending = p.pending[1:]
				p.childComp++
			case r.Splice:
				p.undo = append(p.undo, n.undo...)
			case r.Inv != nil:
				p.undo = append(p.undo, *r.Inv)
			}
			n.undo = nil
		case core.JAbortStart:
			n, ok := nodes[r.Node]
			if !ok {
				return nil, fmt.Errorf("wal: abort-start of unknown node %d", r.Node)
			}
			n.started = true
			// The engine applies the undo list in reverse; keep the
			// pending list in application order.
			for i := len(n.undo) - 1; i >= 0; i-- {
				n.pending = append(n.pending, n.undo[i])
			}
			n.undo = nil
		case core.JCompensated:
			n, ok := nodes[r.Node]
			if !ok {
				return nil, fmt.Errorf("wal: compensated record for unknown node %d", r.Node)
			}
			if n.childComp > 0 {
				// Already consumed via the compensation child's own
				// subcommit record above.
				n.childComp--
			} else if len(n.pending) == 0 {
				return nil, fmt.Errorf("wal: compensated record without pending undo on node %d", r.Node)
			} else {
				n.pending = n.pending[1:]
			}
		case core.JNodeAborted:
			n, ok := nodes[r.Node]
			if !ok {
				return nil, fmt.Errorf("wal: aborted record for unknown node %d", r.Node)
			}
			n.state = core.Aborted
			n.pending = nil
			n.undo = nil
			if n.parent == nil {
				fullyAborted[n.id] = true
			}
		case core.JRootCommit:
			committed[r.Node] = true
			if n, ok := nodes[r.Node]; ok {
				n.state = core.Committed
			}
		case core.JPrepare:
			n, ok := nodes[r.Node]
			if !ok {
				return nil, fmt.Errorf("wal: prepare of unknown root %d", r.Node)
			}
			if n.parent != nil {
				return nil, fmt.Errorf("wal: prepare of non-root node %d", r.Node)
			}
			n.prepared = true
			n.gid = r.Parent
		case core.JDecide:
			n, ok := nodes[r.Node]
			if !ok {
				return nil, fmt.Errorf("wal: decide for unknown root %d", r.Node)
			}
			// The decision resolves the in-doubt window either way. A
			// commit decision is the commit point even without the
			// JRootCommit that normally follows: the participant's
			// effects are durable and must stand.
			n.prepared = false
			if r.Splice {
				committed[r.Node] = true
				n.state = core.Committed
			}
		default:
			// The retired kinds 7 and 8: the codec still reads them,
			// but no engine writes them any more.
			return nil, fmt.Errorf("wal: record %d has unknown kind %d", pos, r.Kind)
		}
		if n, ok := nodes[r.Node]; ok {
			n.root.last = pos
		}
	}

	a := &Analysis{}
	for _, r := range roots {
		if committed[r.id] {
			a.Committed = append(a.Committed, r.id)
			continue
		}
		if fullyAborted[r.id] {
			continue
		}
		// Loser: collect pending undo along the tree's still-active
		// (or mid-abort) nodes, deepest first — the completion of the
		// rollback the crashed engine owed.
		var active []*replayNode
		for _, n := range nodes {
			if n.root == r && (n.state == core.Active) {
				active = append(active, n)
			}
		}
		// Deepest first; equal-depth siblings in reverse begin order
		// (the live engine likewise unwinds the youngest work first).
		// The seq tie-break also makes the order deterministic — the
		// nodes map iterates in random order, and sibling inverses
		// need not commute.
		sort.Slice(active, func(i, j int) bool {
			if active[i].depth != active[j].depth {
				return active[i].depth > active[j].depth
			}
			return active[i].seq > active[j].seq
		})
		var pend []compat.Invocation
		for _, n := range active {
			if n.started {
				pend = append(pend, n.pending...)
			} else {
				for i := len(n.undo) - 1; i >= 0; i-- {
					pend = append(pend, n.undo[i])
				}
			}
		}
		if r.prepared {
			// Prepared, undecided: the node alone cannot tell winner
			// from loser. Report it in-doubt with the loser payload a
			// presumed-abort resolution would need.
			a.InDoubt = append(a.InDoubt, InDoubt{Root: r.id, GID: r.gid, Last: r.last, Pending: pend})
			continue
		}
		a.Losers = append(a.Losers, Loser{Root: r.id, Last: r.last, Pending: pend})
	}
	sort.Slice(a.Committed, func(i, j int) bool { return a.Committed[i] < a.Committed[j] })
	sortLosers(a.Losers)
	sort.Slice(a.InDoubt, func(i, j int) bool { return a.InDoubt[i].Root < a.InDoubt[j].Root })
	return a, nil
}

// sortLosers puts losers in the order recovery compensates them:
// descending journal position of each tree's last record, i.e. the
// loser that wrote last is undone first.
//
// Why that is a reverse-dependency order. The engine releases a root's
// locks when its outcome record is *submitted*, not when it is durable
// (core.CommitRoot), so a root T2 may take over a lock of a root T1
// whose outcome a crash then loses — both are losers, and T2's work
// was built on T1's. T2's conflicting request is granted only after
// T1's release, which follows the submission of T1's outcome record,
// which is T1's last record; every record of T2's conflicting work is
// journaled after that. So Last(T2) > Last(T1) whenever T2 depends on
// T1 — even when T2 began first and has the smaller root id — and
// undoing in descending Last unwinds T2's work (a before-image, say)
// before the state it was applied to is itself compensated. Losers
// that do not depend on each other hold compatible locks only, their
// logical compensations commute, and any order serves. (The order is
// exact for these release dependencies only: two *active* losers tied
// by Fig. 9 case 1 through an unfinished subtransaction are usually,
// not always, put right by it — DESIGN.md §3.7, "Known limit".)
func sortLosers(ls []Loser) {
	sort.Slice(ls, func(i, j int) bool { return ls[i].Last > ls[j].Last })
}

// Recover completes the rollback of every loser transaction against
// db (typically a freshly Reopen-ed database sharing the crashed
// instance's store). Each loser's pending compensations run in one
// recovery transaction. It returns the analysis for inspection.
//
// In-doubt 2PC participants are resolved by presumed abort: without a
// coordinator decision log their pending compensations run like any
// loser's. Use RecoverDecided when decisions are available.
func Recover(db *oodb.DB, l RecordSource) (*Analysis, error) {
	return RecoverDecided(db, l, nil)
}

// RecoverDecided is Recover with the coordinator's decision log:
// decided reports whether the given distributed transaction id was
// committed. An in-doubt participant whose global id the coordinator
// committed is folded into Committed (its durable effects stand and
// nothing runs); every other in-doubt participant is presumed aborted
// and completes its rollback like a loser. The resolved entries appear
// in both InDoubt (raw) and Committed/Losers (as resolved). A nil
// decided commits nothing — pure presumed abort.
func RecoverDecided(db *oodb.DB, l RecordSource, decided func(gid uint64) bool) (*Analysis, error) {
	a, err := Analyze(l)
	if err != nil {
		return nil, err
	}
	for _, d := range a.InDoubt {
		if decided != nil && decided(d.GID) {
			a.Committed = append(a.Committed, d.Root)
			continue
		}
		a.Losers = append(a.Losers, Loser{Root: d.Root, Last: d.Last, Pending: d.Pending})
	}
	sort.Slice(a.Committed, func(i, j int) bool { return a.Committed[i] < a.Committed[j] })
	sortLosers(a.Losers)
	for _, loser := range a.Losers {
		tx := db.Begin()
		for _, inv := range loser.Pending {
			if _, err := tx.Exec(inv); err != nil {
				_ = tx.Abort()
				return a, fmt.Errorf("wal: recovery of tx %d: compensation %s failed: %w", loser.Root, inv, err)
			}
		}
		if err := tx.Commit(); err != nil {
			return a, err
		}
	}
	return a, nil
}
