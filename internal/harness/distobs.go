// Experiment E10: the cluster observability overhead study. The
// tentpole question is whether the distributed instrumentation — the
// per-hop transport metrics, the 2PC phase histograms, and the
// GID-keyed distributed span trees — honours the layer's cost
// contract: an attached-but-disabled Obs must cost one atomic load per
// site and nothing else, and the enabled path must stay within noise
// of disabled at realistic MPLs. Each point runs the same cluster
// workload twice, once with every Obs (coordinator and per node)
// attached but disabled and once with all of them enabled, and the
// paired points yield the overhead percentage checked in as
// BENCH_10.json.
package harness

import (
	"encoding/json"
	"fmt"
	"sort"

	"semcc/internal/core"
	"semcc/internal/obs"
	"semcc/internal/wal"
)

// ObsDistPoint is one measured configuration of the E10 overhead
// sweep — the JSON shape checked in as BENCH_10.json.
type ObsDistPoint struct {
	// Obs is "off" (attached but disabled — the contract path) or "on"
	// (full collection: metrics, spans, 2PC phase timings).
	Obs   string `json:"obs"`
	Nodes int    `json:"nodes"`
	MPL   int    `json:"mpl"`
	TxPer int    `json:"tx_per_client"`

	Throughput float64 `json:"tps"`
	Committed  uint64  `json:"commits"`
	Retries    uint64  `json:"retries"`
	P50Ms      float64 `json:"p50_ms,omitempty"`
	P99Ms      float64 `json:"p99_ms,omitempty"`
}

// ObsDistOverhead pairs the off/on runs of one configuration.
type ObsDistOverhead struct {
	Nodes int `json:"nodes"`
	MPL   int `json:"mpl"`
	// OffTps/OnTps are the paired throughputs; OverheadPct is
	// (off−on)/off·100 — negative means the enabled run happened to be
	// faster (noise).
	OffTps      float64 `json:"off_tps"`
	OnTps       float64 `json:"on_tps"`
	OverheadPct float64 `json:"overhead_pct"`
}

// runObsDistPoint measures one cluster configuration with the full
// observability stack attached: a coordinator Obs on the cluster and
// one engine Obs per node, all enabled or all disabled. Every node
// gets its own parked-device group-commit journal (the E9 device
// model), so the point reflects a realistic commit path.
func runObsDistPoint(base Base, nodes, mpl, txPer int, enabled bool) (ObsDistPoint, error) {
	pt := ObsDistPoint{Obs: "off", Nodes: nodes, MPL: mpl, TxPer: txPer}
	if enabled {
		pt.Obs = "on"
	}
	co := obs.New(obs.Config{})
	co.SetEnabled(enabled)
	nodeObs := make([]*obs.Obs, nodes)
	for i := range nodeObs {
		nodeObs[i] = obs.New(obs.Config{})
		nodeObs[i].SetEnabled(enabled)
	}
	var journals []wal.Journal
	defer func() {
		for _, j := range journals {
			j.Close()
		}
	}()
	// E10 owns the topology and observability axes per point: a -nodes
	// or -serve selection must not leak underneath.
	cfg := base.point(core.Semantic, 32, mpl, txPer)
	cfg.Nodes = nodes
	cfg.Obs = co
	cfg.NodeObs = func(i int) *obs.Obs { return nodeObs[i] }
	cfg.NodeJournal = func(int) core.Journal {
		j := wal.New(wal.Config{Mode: wal.ModeGroup, FlushDelay: distDeviceDelay, DeviceSleep: true})
		journals = append(journals, j)
		return j
	}
	m, err := runPoint(cfg)
	if err != nil {
		return pt, err
	}
	pt.Throughput = m.Throughput
	pt.Committed = m.Committed
	pt.Retries = m.Retries
	pt.P50Ms = float64(m.P50Ns) / 1e6
	pt.P99Ms = float64(m.P99Ns) / 1e6
	return pt, nil
}

// ObsDistSweep runs the E10 sweeps: the topology axis (off/on pairs at
// nodes = 1, 2, 4, MPL 16) and the MPL axis (off/on pairs on a
// two-node cluster). Points come back interleaved off, on per
// configuration; overhead pairs them up.
func ObsDistSweep(base Base, quick bool) (topo, mpl []ObsDistPoint, overhead []ObsDistOverhead, err error) {
	txPer := 300
	topoNodes := []int{1, 2, 4}
	mpls := []int{4, 8, 16, 32}
	if quick {
		txPer = 100
		topoNodes = []int{1, 2}
		mpls = []int{8}
	}
	// The parked-device commit path makes single runs noisy (run-to-run
	// scheduling variance over the flush convoy dwarfs the
	// instrumentation cost), so each arm is the throughput-median of
	// reps interleaved off/on runs, after one discarded warmup run.
	reps := 3
	if quick {
		reps = 1
	}
	pair := func(nodes, clients int) (off, on ObsDistPoint, err error) {
		if !quick {
			if _, err = runObsDistPoint(base, nodes, clients, txPer, false); err != nil {
				return
			}
		}
		var offs, ons []ObsDistPoint
		for r := 0; r < reps; r++ {
			pt, perr := runObsDistPoint(base, nodes, clients, txPer, false)
			if perr != nil {
				return off, on, perr
			}
			offs = append(offs, pt)
			if pt, perr = runObsDistPoint(base, nodes, clients, txPer, true); perr != nil {
				return off, on, perr
			}
			ons = append(ons, pt)
		}
		byTps := func(pts []ObsDistPoint) ObsDistPoint {
			sort.Slice(pts, func(i, j int) bool { return pts[i].Throughput < pts[j].Throughput })
			return pts[len(pts)/2]
		}
		return byTps(offs), byTps(ons), nil
	}
	addOverhead := func(off, on ObsDistPoint) {
		pct := 0.0
		if off.Throughput > 0 {
			pct = (off.Throughput - on.Throughput) / off.Throughput * 100
		}
		overhead = append(overhead, ObsDistOverhead{
			Nodes: off.Nodes, MPL: off.MPL,
			OffTps: off.Throughput, OnTps: on.Throughput, OverheadPct: pct,
		})
	}
	for _, n := range topoNodes {
		off, on, err := pair(n, 16)
		if err != nil {
			return nil, nil, nil, fmt.Errorf("E10 nodes=%d: %w", n, err)
		}
		topo = append(topo, off, on)
		addOverhead(off, on)
	}
	for _, m := range mpls {
		off, on, err := pair(2, m)
		if err != nil {
			return nil, nil, nil, fmt.Errorf("E10 mpl=%d: %w", m, err)
		}
		mpl = append(mpl, off, on)
		addOverhead(off, on)
	}
	return topo, mpl, overhead, nil
}

// obsDistSweepDoc is the BENCH_10.json document.
type obsDistSweepDoc struct {
	Experiment string            `json:"experiment"`
	Title      string            `json:"title"`
	Notes      string            `json:"notes"`
	TopoSweep  []ObsDistPoint    `json:"topology_sweep"`
	MPLSweep   []ObsDistPoint    `json:"mpl_sweep"`
	Overhead   []ObsDistOverhead `json:"overhead"`
}

// ObsDistSweepJSON runs the E10 sweeps and renders them as the
// BENCH_10.json document (semcc-bench -exp E10 -json).
func ObsDistSweepJSON(base Base, quick bool) ([]byte, error) {
	topo, mpl, overhead, err := ObsDistSweep(base, quick)
	if err != nil {
		return nil, err
	}
	return json.MarshalIndent(obsDistSweepDoc{
		Experiment: "E10",
		Title:      "cluster observability overhead: attached-but-disabled vs fully enabled (semantic protocol, standard mix, items=32)",
		Notes: "Every point attaches the full cluster observability stack — a coordinator " +
			"Obs (hop/2PC metrics, distributed spans) plus one engine Obs per node — " +
			"and runs it disabled (off: the one-atomic-load contract path) or enabled " +
			"(on: full collection). Each arm is the throughput-median of 3 interleaved " +
			"off/on runs after a discarded warmup (the parked-device commit path is " +
			"noisy run to run). overhead_pct = (off_tps-on_tps)/off_tps*100; the " +
			"acceptance bar is <3% at nodes=2. Negative values mean the enabled arm " +
			"batched deeper on the parked device (see EXPERIMENTS.md E10); the " +
			"nodes=2/mpl=32 pair sits past device saturation where same-arm repeats " +
			"spread over +/-30%, so its overhead carries no signal. Off rows report " +
			"no latency percentiles: span collection is what measures them.",
		TopoSweep: topo,
		MPLSweep:  mpl,
		Overhead:  overhead,
	}, "", "  ")
}

func obsDistCells(pt ObsDistPoint) []string {
	lat := "-"
	if pt.P50Ms != 0 || pt.P99Ms != 0 {
		lat = fmt.Sprintf("%.2f/%.2f", pt.P50Ms, pt.P99Ms)
	}
	return []string{pt.Obs, f0(pt.Throughput), d(pt.Committed), d(pt.Retries), lat}
}

var obsDistHeader = []string{"obs", "tps", "commits", "retries", "p50/p99(ms)"}

func init() {
	Register(&Experiment{
		ID:    "E10",
		Title: "Cluster observability overhead: disabled contract vs full collection",
		Run: func(base Base, quick bool) ([]*Table, error) {
			topo, mpl, overhead, err := ObsDistSweep(base, quick)
			if err != nil {
				return nil, err
			}
			t1 := &Table{
				ID:     "E10",
				Title:  "topology sweep, obs off/on pairs (semantic, standard mix, items=32, MPL=16)",
				Notes:  "off = coordinator and per-node Obs attached but disabled (each site pays\none atomic load, allocates nothing); on = full collection including the\nGID-keyed distributed span per global transaction.",
				Header: append([]string{"nodes"}, obsDistHeader...),
			}
			for _, pt := range topo {
				t1.AddRow(append([]string{d(pt.Nodes)}, obsDistCells(pt)...)...)
			}
			t2 := &Table{
				ID:     "E10b",
				Title:  "MPL sweep on a two-node cluster, obs off/on pairs",
				Notes:  "Overhead under client scaling: more concurrent roots mean more hop\nobservations and span nodes per second.",
				Header: append([]string{"mpl"}, obsDistHeader...),
			}
			for _, pt := range mpl {
				t2.AddRow(append([]string{d(pt.MPL)}, obsDistCells(pt)...)...)
			}
			t3 := &Table{
				ID:     "E10c",
				Title:  "paired overhead (off vs on)",
				Notes:  "overhead% = (off-on)/off*100; negative values are run-to-run noise.\nThe acceptance bar is <3% at nodes=2.",
				Header: []string{"nodes", "mpl", "off tps", "on tps", "overhead%"},
			}
			for _, ov := range overhead {
				t3.AddRow(d(ov.Nodes), d(ov.MPL), f0(ov.OffTps), f0(ov.OnTps), fmt.Sprintf("%.2f", ov.OverheadPct))
			}
			return []*Table{t1, t2, t3}, nil
		},
	})
}
