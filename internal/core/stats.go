package core

import (
	"sync/atomic"

	"semcc/internal/obs"
)

// statCounter indexes one engine counter within a stats stripe.
type statCounter int

const (
	cRootsStarted statCounter = iota
	cRootsCommitted
	cRootsAborted
	cSubtxs
	cLockRequests
	cImmediateGrants
	cBlocks
	cWaitEvents
	cCase1Grants
	cCase2Waits
	cRootWaits
	cDeadlocks
	cCompensations
	cForcedGrants
	cRetains
	cWaitNanos
	numStatCounters
)

// statStripes is the number of independent counter blocks; a power of
// two so stripe selection is a mask. Lock-path events use the shard
// index of the object being locked, transaction-level events the root
// id, so concurrent updates land on different stripes with high
// probability.
const statStripes = 64

// statStripe is one block of counters, padded up to a whole number of
// 64-byte cache lines (16 words = 2 lines for the current 16
// counters) so neighbouring stripes never false-share.
type statStripe struct {
	c [numStatCounters]atomic.Uint64
	_ [(8 - numStatCounters%8) % 8]uint64
}

// Stats aggregates engine-level concurrency-control counters. All
// counters are monotone. Updates go to per-stripe atomics (no mutex
// anywhere on the hot path); Snapshot aggregates the stripes on read.
// A snapshot taken while transactions run is therefore monotone per
// counter but not a single consistent cut across counters — the
// experiment harness and tests read it at quiescence, where it is
// exact.
type Stats struct {
	stripes [statStripes]statStripe
}

func (s *Stats) add(stripe int, c statCounter, n uint64) {
	s.stripes[uint(stripe)&(statStripes-1)].c[c].Add(n)
}

func (s *Stats) bump(stripe int, c statCounter) { s.add(stripe, c, 1) }

// StatsSnapshot is a copyable view of Stats.
type StatsSnapshot struct {
	RootsStarted   uint64 // top-level transactions begun
	RootsCommitted uint64
	RootsAborted   uint64
	Subtxs         uint64 // subtransactions (non-root nodes) begun

	LockRequests    uint64 // lock acquisitions attempted
	ImmediateGrants uint64 // granted without waiting
	Blocks          uint64 // requests that had to wait at least once
	WaitEvents      uint64 // individual waits-for targets waited on

	Case1Grants uint64 // pseudo-conflicts ignored: committed commutative ancestor (paper Fig. 6)
	Case2Waits  uint64 // waits for a commutative ancestor's subcommit (paper Fig. 7)
	RootWaits   uint64 // worst case: waits for a top-level commit

	// These two are always zero: the engine has one compatibility
	// regime, the static matrices, and no state-dependent admission.
	// They stay only because the benchmark's layer report still reads
	// them, and go with its next revision.
	EscrowAdmits  uint64
	EscrowDenials uint64

	Deadlocks     uint64 // deadlock victims
	Compensations uint64 // inverse invocations executed during aborts
	ForcedGrants  uint64 // compensation force-grants (all-compensator cycles)
	Retains       uint64 // subcommits that converted locks to retained (semantic protocol)

	// WaitNanos accumulates wall-clock time lock requests spent
	// blocked (summed over requests).
	WaitNanos uint64
}

// Add returns the field-wise sum of two snapshots. Multi-node runs
// use it to merge per-node engine statistics into one cluster-wide
// view; note that branch-level counters (RootsStarted and friends)
// then count every node's branch of a root, not distinct roots.
func (s StatsSnapshot) Add(o StatsSnapshot) StatsSnapshot {
	s.RootsStarted += o.RootsStarted
	s.RootsCommitted += o.RootsCommitted
	s.RootsAborted += o.RootsAborted
	s.Subtxs += o.Subtxs
	s.LockRequests += o.LockRequests
	s.ImmediateGrants += o.ImmediateGrants
	s.Blocks += o.Blocks
	s.WaitEvents += o.WaitEvents
	s.Case1Grants += o.Case1Grants
	s.Case2Waits += o.Case2Waits
	s.RootWaits += o.RootWaits
	s.Deadlocks += o.Deadlocks
	s.Compensations += o.Compensations
	s.ForcedGrants += o.ForcedGrants
	s.Retains += o.Retains
	s.WaitNanos += o.WaitNanos
	return s
}

// CaseMix returns the Fig. 9 conflict-classification shares: the
// fractions of classified conflicts that resolved as case-1
// pseudo-conflict grants, case-2 subcommit waits, and worst-case
// top-level-commit waits. The shares sum to 1 when any conflict was
// classified; all three are 0 for a conflict-free run.
func (s StatsSnapshot) CaseMix() (case1, case2, root float64) {
	tot := s.Case1Grants + s.Case2Waits + s.RootWaits
	if tot == 0 {
		return 0, 0, 0
	}
	f := float64(tot)
	return float64(s.Case1Grants) / f, float64(s.Case2Waits) / f, float64(s.RootWaits) / f
}

// CaseShare is one conflict-classification bucket: a rendered label, a
// one-letter short form for compact table headers, the raw count, and
// the bucket's share of all classified conflicts.
type CaseShare struct {
	Label string
	Short string
	Count uint64
	Share float64
}

// CaseShares is CaseMix with counts and labels, for rendering. Buckets
// are returned in fixed order (case-1, case-2, root-wait); shares sum
// to 1 when any conflict was classified and are all 0 for a
// conflict-free run. Buckets with zero count are still returned, so
// callers can render stable columns.
func (s StatsSnapshot) CaseShares() []CaseShare {
	out := []CaseShare{
		{Label: "case1", Short: "1", Count: s.Case1Grants},
		{Label: "case2", Short: "2", Count: s.Case2Waits},
		{Label: "root-wait", Short: "r", Count: s.RootWaits},
	}
	var tot uint64
	for _, c := range out {
		tot += c.Count
	}
	if tot == 0 {
		return out
	}
	for i := range out {
		out[i].Share = float64(out[i].Count) / float64(tot)
	}
	return out
}

// Snapshot aggregates the stripes into a copyable view.
func (s *Stats) Snapshot() StatsSnapshot {
	var tot [numStatCounters]uint64
	for i := range s.stripes {
		for j := statCounter(0); j < numStatCounters; j++ {
			tot[j] += s.stripes[i].c[j].Load()
		}
	}
	return StatsSnapshot{
		RootsStarted: tot[cRootsStarted], RootsCommitted: tot[cRootsCommitted],
		RootsAborted: tot[cRootsAborted], Subtxs: tot[cSubtxs],
		LockRequests: tot[cLockRequests], ImmediateGrants: tot[cImmediateGrants],
		Blocks: tot[cBlocks], WaitEvents: tot[cWaitEvents],
		Case1Grants: tot[cCase1Grants], Case2Waits: tot[cCase2Waits],
		RootWaits: tot[cRootWaits], Deadlocks: tot[cDeadlocks],
		Compensations: tot[cCompensations], ForcedGrants: tot[cForcedGrants],
		Retains: tot[cRetains], WaitNanos: tot[cWaitNanos],
	}
}

// total sums one counter across the stripes.
func (s *Stats) total(c statCounter) uint64 {
	var t uint64
	for i := range s.stripes {
		t += s.stripes[i].c[c].Load()
	}
	return t
}

// register exposes every engine counter as a func-backed registry
// metric: the hot path keeps writing the striped atomics it already
// writes, and the registry reads them only at exposition time.
func (s *Stats) register(r *obs.Registry) {
	defs := []struct {
		c    statCounter
		name string
		help string
	}{
		{cRootsStarted, "semcc_engine_roots_started_total", "Top-level transactions begun."},
		{cRootsCommitted, "semcc_engine_roots_committed_total", "Top-level transactions committed."},
		{cRootsAborted, "semcc_engine_roots_aborted_total", "Top-level transactions aborted."},
		{cSubtxs, "semcc_engine_subtxs_total", "Subtransactions (non-root nodes) begun."},
		{cLockRequests, "semcc_engine_lock_requests_total", "Lock acquisitions attempted."},
		{cImmediateGrants, "semcc_engine_immediate_grants_total", "Lock requests granted without waiting."},
		{cBlocks, "semcc_engine_blocks_total", "Lock requests that waited at least once."},
		{cWaitEvents, "semcc_engine_wait_events_total", "Individual waits-for targets waited on."},
		{cCase1Grants, "semcc_engine_case1_grants_total", "Fig. 9 case-1 pseudo-conflict grants (committed commutative ancestor)."},
		{cCase2Waits, "semcc_engine_case2_waits_total", "Fig. 9 case-2 waits for a commutative ancestor's subcommit."},
		{cRootWaits, "semcc_engine_root_waits_total", "Worst-case waits for a top-level commit."},
		{cDeadlocks, "semcc_engine_deadlocks_total", "Deadlock victims."},
		{cCompensations, "semcc_engine_compensations_total", "Compensating inverse invocations executed during aborts."},
		{cForcedGrants, "semcc_engine_forced_grants_total", "Compensation force-grants (all-compensator cycles)."},
		{cRetains, "semcc_engine_retains_total", "Subcommits that converted locks to retained (semantic protocol)."},
		{cWaitNanos, "semcc_engine_lock_wait_ns_total", "Wall-clock nanoseconds lock requests spent blocked."},
	}
	for _, d := range defs {
		c := d.c
		r.CounterFunc(d.name, d.help, func() uint64 { return s.total(c) })
	}
}
