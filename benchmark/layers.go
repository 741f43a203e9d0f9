package main

import (
	"fmt"
	"strconv"
	"time"

	"semcc/internal/core"
	"semcc/internal/dist"
	"semcc/internal/obs"
	"semcc/internal/orderentry"
)

// tracedPhase is what the traced phase yields: the benchmark's spans,
// the engine's span sums and the gated histograms, all over res.
type tracedPhase struct {
	res    phaseResult
	ns     [numSpanNames]uint64
	count  [numSpanNames]uint64
	eng    engineSums
	ack    obs.HistSnap
	flush  obs.HistSnap
	fault  obs.HistSnap
	scan   obs.HistSnap
	hops   map[dist.OpKind]obs.HistSnap
	prepNs uint64
	decNs  uint64
	dstats dist.DistStats
}

// runTraced runs one more segment with every Obs enabled and a timing
// Session installed through App.BeginFn, one front App per client so
// that each client's spans go to its own list. It feeds per-layer
// metrics only.
func runTraced(s *sut, clients []*client, o options) (*tracedPhase, error) {
	epoch := time.Now()
	traces := make([]*clientTrace, len(clients))
	fronts := make([]*orderentry.App, len(clients))
	for i := range clients {
		tr := &clientTrace{epoch: epoch}
		traces[i] = tr
		fronts[i] = orderentry.NewClusterApp(s.peers, func() (orderentry.Session, error) {
			t0 := time.Now()
			inner, err := s.app.Begin()
			tr.span(spBegin, t0, time.Now())
			if err != nil {
				return nil, err
			}
			return &tracedSession{Session: inner, tr: tr}, nil
		})
	}
	s.setTracing(true)
	res, err := runPhase(clients, phase{roots: int64(s.sp.traced), apps: fronts, traces: traces})
	s.setTracing(false)
	if err != nil {
		return nil, fmt.Errorf("traced phase: %w", err)
	}
	if res.committed == 0 {
		return nil, fmt.Errorf("traced phase committed no root")
	}
	s.cutJournals()

	tp := &tracedPhase{res: res, hops: make(map[dist.OpKind]obs.HistSnap)}
	for _, tr := range traces {
		for n := range tr.ns {
			tp.ns[n] += tr.ns[n]
			tp.count[n] += tr.count[n]
		}
		tp.eng.add(tr.eng)
	}
	for _, no := range s.nodeObs {
		tp.ack = addSnap(tp.ack, histSnap(no, "semcc_wal_ack_ns"))
		tp.flush = addSnap(tp.flush, histSnap(no, "semcc_wal_flush_ns"))
		tp.fault = addSnap(tp.fault, histSnap(no, "semcc_pool_fault_ns"))
		tp.scan = addSnap(tp.scan, histSnap(no, "semcc_store_scan_ns"))
	}
	if s.cluster != nil {
		for _, tree := range s.coordObs.Spans.Snapshot(0).Recent {
			tp.eng.addTree(tree, 0, 3)
		}
		for _, op := range distHopOps {
			tp.hops[op] = histSnap(s.coordObs, "semcc_dist_hop_ns", obs.L("op", op.String()))
		}
		for i := 0; i < s.cluster.Nodes(); i++ {
			node := obs.L("node", strconv.Itoa(i))
			tp.prepNs += histSnap(s.coordObs, "semcc_dist_prepare_ns", node).Sum
			tp.decNs += histSnap(s.coordObs, "semcc_dist_decide_ns", node).Sum
		}
		tp.dstats = s.cluster.DistStats()
	}
	if err := writeTrace(o.outDir, s.sp, o.seed, traces); err != nil {
		return nil, fmt.Errorf("trace file: %w", err)
	}
	return tp, nil
}

// coreCounters maps the engine's always-on counters to metrics: the
// delta over the measured phase times scale, per committed root.
var coreCounters = []struct {
	name  string
	scale float64
	get   func(core.StatsSnapshot) uint64
}{
	{"core.lock_requests_per_root", 1, func(s core.StatsSnapshot) uint64 { return s.LockRequests }},
	{"core.subtx_per_root", 1, func(s core.StatsSnapshot) uint64 { return s.Subtxs }},
	{"core.retains_per_root", 1, func(s core.StatsSnapshot) uint64 { return s.Retains }},
	{"core.blocks_per_root", 1, func(s core.StatsSnapshot) uint64 { return s.Blocks }},
	{"core.lock_wait_us_per_root", 1e-3, func(s core.StatsSnapshot) uint64 { return s.WaitNanos }},
	{"core.case1_grants_per_kroot", 1e3, func(s core.StatsSnapshot) uint64 { return s.Case1Grants }},
	{"core.case2_waits_per_kroot", 1e3, func(s core.StatsSnapshot) uint64 { return s.Case2Waits }},
	{"core.root_waits_per_kroot", 1e3, func(s core.StatsSnapshot) uint64 { return s.RootWaits }},
	{"core.escrow_admits_per_kroot", 1e3, func(s core.StatsSnapshot) uint64 { return s.EscrowAdmits }},
	{"core.escrow_denials_per_kroot", 1e3, func(s core.StatsSnapshot) uint64 { return s.EscrowDenials }},
	{"core.deadlocks_per_kroot", 1e3, func(s core.StatsSnapshot) uint64 { return s.Deadlocks }},
	{"core.compensations_per_kroot", 1e3, func(s core.StatsSnapshot) uint64 { return s.Compensations }},
}

// ratio is a/b, 0 when b is 0 (a layer that did nothing).
func ratio(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}

// layerValues assembles the per-layer metrics: counters are deltas over
// the measured (untraced) phase per committed root of it, timed values
// come from the traced phase per committed root of that.
func layerValues(m *measured, warm phaseResult, tp *tracedPhase) values {
	roots := float64(m.total.committed)
	troots := float64(tp.res.committed)
	us := func(ns uint64) float64 { return float64(ns) / 1e3 / troots }
	v := values{
		"workload.root_p95_us":           median(m.segP95),
		"workload.root_p99_us":           float64(percentile(m.sorted, 0.99)) / 1e3,
		"workload.retries_per_root":      float64(m.total.retries) / roots,
		"workload.cpu_us_per_root":       float64(m.cpuNs) / 1e3 / roots,
		"workload.cpu_cores_busy":        float64(m.cpuNs) / float64(m.total.elapsed),
		"workload.gc_cycles":             float64(m.gcCycles),
		"workload.gc_pause_ms":           float64(m.gcPauseNs) / 1e6,
		"workload.warmup_s":              warm.elapsed.Seconds(),
		"workload.trace.overhead_pct":    100 * (1 - tp.res.rootsPerSec()/median(m.segRate)),
		"workload.trace.span_coverage":   ratio(float64(tp.ns[spBegin]+tp.ns[spCall]+tp.ns[spCommit]+tp.ns[spAbort]), float64(tp.ns[spRoot])),
		"core.wait_us_per_root.case2":    us(tp.eng.wait[obs.WaitCase2]),
		"core.wait_us_per_root.root":     us(tp.eng.wait[obs.WaitRoot]),
		"core.wait_us_per_root.other":    us(tp.eng.wait[obs.WaitOther]),
		"oodb.begin_us_per_root":         us(tp.ns[spBegin]),
		"oodb.call_us_per_root":          us(tp.ns[spCall]),
		"oodb.calls_per_root":            float64(tp.count[spCall]) / troots,
		"oodb.commit_us_per_root":        us(tp.ns[spCommit]),
		"oodb.abort_us_per_root":         us(tp.ns[spAbort]),
		"oodb.call_self_us_per_root":     us(tp.ns[spCall]) - us(tp.eng.inCalls),
		"wal.records_per_root":           float64(m.journal.records) / roots,
		"wal.flushes_per_root":           float64(m.journal.flushes) / roots,
		"wal.records_per_flush":          ratio(float64(m.journal.records), float64(m.journal.flushes)),
		"wal.append_us_per_root":         us(tp.eng.walNs),
		"wal.ack_wait_p50_us":            histQuantile(tp.ack, 0.5) / 1e3,
		"wal.flush_p50_us":               histQuantile(tp.flush, 0.5) / 1e3,
		"wal.recover_us_per_root":        median(m.segRecover),
		"storage.fault_us_per_root":      us(tp.fault.Sum),
		"objstore.ops_per_root":          float64(tp.eng.storeOps) / troots,
		"objstore.op_us_per_root":        us(tp.eng.storeNs),
		"objstore.scan_p50_us":           histQuantile(tp.scan, 0.5) / 1e3,
		"dist.begin_us_per_root":         us(tp.hops[dist.OpBegin].Sum),
		"dist.prepare_us_per_root":       us(tp.prepNs),
		"dist.decide_us_per_root":        us(tp.decNs),
		"dist.twopc_share":               ratio(float64(tp.dstats.Commits2PC), float64(tp.dstats.Commits2PC+tp.dstats.SingleCommits)),
		"dist.cross_deadlocks_per_kroot": 1e3 * float64(tp.dstats.DeadlockVictims) / troots,
	}
	for k, name := range kindNames {
		v["workload.kind_p50_us."+name] = float64(percentile(m.byKind[k], 0.5)) / 1e3
	}
	for _, c := range coreCounters {
		v[c.name] = c.scale * float64(c.get(m.ctr1.eng)-c.get(m.ctr0.eng)) / roots
	}
	hits, misses := float64(m.ctr1.hits-m.ctr0.hits), float64(m.ctr1.misses-m.ctr0.misses)
	v["storage.fetches_per_root"] = (hits + misses) / roots
	v["storage.hit_rate"] = ratio(hits, hits+misses)
	v["storage.misses_per_root"] = misses / roots
	v["storage.evictions_per_root"] = float64(m.ctr1.evicts-m.ctr0.evicts) / roots
	var allHops obs.HistSnap
	for _, op := range distHopOps {
		h := tp.hops[op]
		v["dist.hops_per_root."+op.String()] = float64(h.Count()) / troots
		allHops = addSnap(allHops, h)
	}
	v["dist.hop_p50_us"] = histQuantile(allHops, 0.5) / 1e3
	return v
}

// histSnap reads a registry histogram by name (Registry.Hist returns the
// registered one).
func histSnap(o *obs.Obs, name string, labels ...obs.Label) obs.HistSnap {
	return o.Registry.Hist(name, "", labels...).Snap()
}

func addSnap(a, b obs.HistSnap) obs.HistSnap {
	for i := range a.B {
		a.B[i] += b.B[i]
	}
	a.Sum += b.Sum
	return a
}
