package dist

import (
	"strconv"

	"semcc/internal/obs"
)

// Cluster-side observability. AttachObs instruments the coordinator:
// per-op-kind transport hop latency, an in-flight request gauge, an
// ErrNodeDown counter, 2PC phase timings per node (prepare and decide
// fan-out), commit-path counters (single-participant fast path vs full
// 2PC), the cross-node deadlock detector (sweeps, merged-graph build
// time, cycles, victims), and RecoverNode outcomes (recoveries,
// in-doubt roots resolved commit vs abort). The same Obs's span
// recorder collects the distributed span: the coordinator opens one
// root span per global transaction keyed by GID, hangs a phase child
// per hop of the commit protocol, and grafts each node's finished
// branch tree (carried back in Response.Span) under the corresponding
// phase — one tree shows routing, per-node lock waits by Fig. 9 case,
// WAL time, and the 2PC tail.
//
// Cost contract (same as internal/obs): a cluster without AttachObs
// pays one nil check per site; an attached-but-disabled Obs pays the
// nil check plus a single atomic load and allocates nothing, including
// on the per-invocation hop path.

// clusterObs holds the coordinator's pre-registered metric handles so
// the hot path never touches the registry.
type clusterObs struct {
	o *obs.Obs

	hop      [numOps]*obs.Hist
	inflight *obs.Gauge
	nodeDown *obs.Counter

	commitsSingle *obs.Counter
	commits2PC    *obs.Counter
	aborts        *obs.Counter
	// phaseNs[op]: per-node round trips of a 2PC phase (prepare, decide).
	phaseNs [numOps][]*obs.Hist

	sweeps  *obs.Counter
	cycles  *obs.Counter
	victims *obs.Counter
	mergeNs *obs.Hist

	recoveries    *obs.Counter
	indoubtCommit *obs.Counter
	indoubtAbort  *obs.Counter

	// label[op]: pre-built phase span labels per node ("commit:node0"), so
	// the enabled path concatenates nothing; nil for ops without a phase.
	label [numOps][]string
}

// on reports whether gated collection is live: nil check plus one
// atomic load, the whole disabled path.
func (co *clusterObs) on() bool { return co != nil && co.o.On() }

// AttachObs instruments the coordinator with o (nil is a no-op).
// Attach before issuing traffic; the handles are installed without
// synchronisation. The node engines keep their own per-node Obs
// (passed via oodb.Options); MergedObs unifies both views.
func (c *Cluster) AttachObs(o *obs.Obs) {
	if o == nil {
		return
	}
	co := &clusterObs{o: o}
	r := o.Registry
	for k := OpKind(0); k < numOps; k++ {
		co.hop[k] = r.Hist("semcc_dist_hop_ns", "Transport round-trip latency by op kind, nanoseconds.", obs.L("op", k.String()))
	}
	co.inflight = r.Gauge("semcc_dist_inflight", "Transport requests currently in flight.")
	co.nodeDown = r.Counter("semcc_dist_node_down_total", "Requests answered ErrNodeDown.")
	const commitsHelp = "Global transactions committed, by commit path: 2pc = a decision was logged, single = none was needed (at most one working node, or every voter read-only)."
	co.commitsSingle = r.Counter("semcc_dist_commits_total", commitsHelp, obs.L("path", "single"))
	co.commits2PC = r.Counter("semcc_dist_commits_total", commitsHelp, obs.L("path", "2pc"))
	co.aborts = r.Counter("semcc_dist_aborts_total", "Global transactions aborted (voluntary aborts plus failed commits).")
	co.sweeps = r.Counter("semcc_dist_deadlock_sweeps_total", "Cross-node deadlock detection passes.")
	co.cycles = r.Counter("semcc_dist_deadlock_cycles_total", "Cycles found in the merged waits-for graph (including single-node cycles left to the local detectors).")
	co.victims = r.Counter("semcc_dist_deadlock_victims_total", "Branches condemned for cross-node cycles.")
	co.mergeNs = r.Hist("semcc_dist_deadlock_merge_ns", "Merged waits-for graph build time (edge pull plus sort), nanoseconds.")
	co.recoveries = r.Counter("semcc_dist_recoveries_total", "Nodes recovered via RecoverNode.")
	co.indoubtCommit = r.Counter("semcc_dist_indoubt_total", "In-doubt roots resolved at recovery, by outcome.", obs.L("outcome", "commit"))
	co.indoubtAbort = r.Counter("semcc_dist_indoubt_total", "In-doubt roots resolved at recovery, by outcome.", obs.L("outcome", "abort"))
	for i := range c.nodes {
		ns := strconv.Itoa(i)
		co.phaseNs[OpPrepare] = append(co.phaseNs[OpPrepare], r.Hist("semcc_dist_prepare_ns", "2PC prepare round-trip per node, nanoseconds.", obs.L("node", ns)))
		co.phaseNs[OpDecide] = append(co.phaseNs[OpDecide], r.Hist("semcc_dist_decide_ns", "2PC decide round-trip per node, nanoseconds.", obs.L("node", ns)))
		for _, op := range []OpKind{OpCommit, OpAbort, OpPrepare, OpDecide} {
			co.label[op] = append(co.label[op], op.String()+":node"+ns)
		}
	}

	// Cluster rollups: func-backed sums over the live node engines.
	// The closures re-read Node.DB() on every scrape, so a node revived
	// over a recovered database stays represented.
	r.GaugeFunc("semcc_cluster_nodes_up", "Nodes currently serving.", func() int64 {
		up := int64(0)
		for _, n := range c.nodes {
			if !n.Down() {
				up++
			}
		}
		return up
	})
	r.CounterFunc("semcc_cluster_roots_committed_total", "Branch roots committed, summed across nodes.", func() uint64 {
		var t uint64
		for _, n := range c.nodes {
			t += n.DB().Engine().Stats().RootsCommitted
		}
		return t
	})
	r.CounterFunc("semcc_cluster_roots_aborted_total", "Branch roots aborted, summed across nodes.", func() uint64 {
		var t uint64
		for _, n := range c.nodes {
			t += n.DB().Engine().Stats().RootsAborted
		}
		return t
	})
	r.CounterFunc("semcc_cluster_blocks_total", "Lock blocks, summed across nodes.", func() uint64 {
		var t uint64
		for _, n := range c.nodes {
			t += n.DB().Engine().Stats().Blocks
		}
		return t
	})
	r.CounterFunc("semcc_cluster_deadlocks_total", "Local deadlocks broken, summed across nodes.", func() uint64 {
		var t uint64
		for _, n := range c.nodes {
			t += n.DB().Engine().Stats().Deadlocks
		}
		return t
	})
	r.CounterFunc("semcc_cluster_wait_ns_total", "Lock wait time, summed across nodes, nanoseconds.", func() uint64 {
		var t uint64
		for _, n := range c.nodes {
			t += n.DB().Engine().Stats().WaitNanos
		}
		return t
	})
	o.SetConst("cluster_nodes", strconv.Itoa(len(c.nodes)))
	c.co = co
}

// Obs returns the coordinator's attached Obs, or nil.
func (c *Cluster) Obs() *obs.Obs {
	if c.co == nil {
		return nil
	}
	return c.co.o
}

// MergedObs builds the cluster-wide observability endpoint: the
// coordinator's Obs (if attached) as the unlabelled part plus every
// node's Obs as a part labelled node="i". Node parts resolve through
// Node.DB at scrape time, so a recovered node's fresh Obs stays live.
func (c *Cluster) MergedObs() *obs.Merged {
	m := obs.NewMerged()
	if c.co != nil {
		m.Add(c.co.o)
	}
	for i, n := range c.nodes {
		n := n
		m.AddFunc(func() *obs.Obs { return n.DB().Obs() }, obs.L("node", strconv.Itoa(i)))
	}
	return m
}

// ServeObservability starts the merged cluster endpoint on addr
// (Prometheus text, JSON snapshot, slow spans, pprof).
func (c *Cluster) ServeObservability(addr string) (*obs.Server, error) {
	return c.MergedObs().Serve(addr)
}

// DistStats is a point-in-time copy of the coordinator's own counters
// (all zero when no Obs is attached or collection is disabled). The
// chaos driver reconciles these against its oracle's event counts.
type DistStats struct {
	SingleCommits   uint64 `json:"single_commits"`
	Commits2PC      uint64 `json:"commits_2pc"`
	Aborts          uint64 `json:"aborts"`
	NodeDown        uint64 `json:"node_down"`
	Recoveries      uint64 `json:"recoveries"`
	InDoubtCommits  uint64 `json:"indoubt_commits"`
	InDoubtAborts   uint64 `json:"indoubt_aborts"`
	DeadlockSweeps  uint64 `json:"deadlock_sweeps"`
	DeadlockCycles  uint64 `json:"deadlock_cycles"`
	DeadlockVictims uint64 `json:"deadlock_victims"`
}

// DistStats snapshots the coordinator counters.
func (c *Cluster) DistStats() DistStats {
	co := c.co
	if co == nil {
		return DistStats{}
	}
	return DistStats{
		SingleCommits:   co.commitsSingle.Load(),
		Commits2PC:      co.commits2PC.Load(),
		Aborts:          co.aborts.Load(),
		NodeDown:        co.nodeDown.Load(),
		Recoveries:      co.recoveries.Load(),
		InDoubtCommits:  co.indoubtCommit.Load(),
		InDoubtAborts:   co.indoubtAbort.Load(),
		DeadlockSweeps:  co.sweeps.Load(),
		DeadlockCycles:  co.cycles.Load(),
		DeadlockVictims: co.victims.Load(),
	}
}
