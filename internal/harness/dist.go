// The -nodes topology axis and experiment E9: the distribution study.
// Like the other axes, -nodes swaps one layer under an otherwise
// identical stack — whether transactions run against a single engine
// directly or through the two-phase-commit coordinator over N engine
// nodes behind the in-process transport — so the sweep isolates what
// the coordinator costs (direct vs a one-node cluster, which the
// single-participant optimisation keeps on the identical protocol
// path) and what sharding buys (per-node lock tables, buffer pools and
// journals vs cross-node 2PC commits on multi-item roots).
package harness

import (
	"encoding/json"
	"fmt"
	"time"

	"semcc/internal/core"
	"semcc/internal/wal"
)

// distDeviceDelay is the simulated per-flush device latency of the E9
// journals — the same parked-device group-commit model as E8, one
// journal per node, so a two-node cluster genuinely has two devices
// flushing in parallel while a 2PC root pays two sequential flushes
// (prepare on the participants, then the decision).
const distDeviceDelay = 200 * time.Microsecond

// DistPoint is one measured configuration of the E9 topology sweep —
// the JSON shape checked in as BENCH_9.json.
type DistPoint struct {
	// Topology is "direct" (one engine, no coordinator) or
	// "coordinator" (every root routed through the 2PC coordinator).
	Topology string `json:"topology"`
	// Nodes is the engine-node count (1 for direct).
	Nodes int     `json:"nodes"`
	ZipfS float64 `json:"zipf_s,omitempty"`
	Items int     `json:"items"`
	MPL   int     `json:"mpl"`
	TxPer int     `json:"tx_per_client"`

	Throughput     float64 `json:"tps"`
	Committed      uint64  `json:"commits"`
	Retries        uint64  `json:"retries"`
	RetryExhausted uint64  `json:"retry_exhausted,omitempty"`
	// BlocksPerTx is the conflict rate: blocked lock requests per
	// committed transaction, summed over every node's lock table.
	BlocksPerTx float64 `json:"blocks_per_tx"`
	// Deadlocks counts victims chosen by local detection plus the
	// cross-node detector's merged-graph sweeps.
	Deadlocks uint64  `json:"deadlocks,omitempty"`
	P50Ms     float64 `json:"p50_ms"`
	P99Ms     float64 `json:"p99_ms"`
}

// runDistPoint measures one workload configuration on one topology:
// nodes == 0 is the direct single-engine path, nodes ≥ 1 a cluster of
// that many nodes behind the coordinator. Every engine gets its own
// parked-device group-commit journal (distDeviceDelay).
func runDistPoint(cfg Base, nodes int) (DistPoint, error) {
	pt := DistPoint{
		ZipfS: cfg.ZipfS, Items: cfg.Items, MPL: cfg.Clients, TxPer: cfg.TxPerClient,
	}
	newJournal := func() wal.Journal {
		return wal.New(wal.Config{Mode: wal.ModeGroup, FlushDelay: distDeviceDelay, DeviceSleep: true})
	}
	// E9 owns the topology axis: a -nodes selection must not leak under
	// the direct rows.
	cfg.Nodes = nodes
	if nodes == 0 {
		pt.Topology, pt.Nodes = "direct", 1
		j := newJournal()
		defer j.Close()
		cfg.Journal = j
	} else {
		pt.Topology, pt.Nodes = "coordinator", nodes
		var journals []wal.Journal
		cfg.NodeJournal = func(int) core.Journal {
			j := newJournal()
			journals = append(journals, j)
			return j
		}
		defer func() {
			for _, j := range journals {
				j.Close()
			}
		}()
	}
	m, err := runPoint(cfg)
	if err != nil {
		return pt, err
	}
	pt.Throughput = m.Throughput
	pt.Committed = m.Committed
	pt.Retries = m.Retries
	pt.RetryExhausted = m.RetryExhausted
	pt.BlocksPerTx = m.BlockRate()
	pt.Deadlocks = m.Engine.Deadlocks
	pt.P50Ms = float64(m.P50Ns) / 1e6
	pt.P99Ms = float64(m.P99Ns) / 1e6
	return pt, nil
}

// DistSweep runs the E9 parameter sweeps and returns the measured
// points: the topology sweep (direct, then clusters of 1..4 nodes —
// direct vs the one-node cluster is the pure coordinator overhead),
// the MPL sweep on a two-node cluster, and the Zipf skew sweep on a
// two-node cluster (skew concentrates the load on few items, which
// striding places on few nodes, eroding the sharding win). All points
// run the semantic protocol under the standard mix, whose T1–T4
// transactions touch two distinct items — on a cluster those roots
// frequently span nodes and commit via full two-phase commit.
func DistSweep(base Base, quick bool) (topo, mpl, zipf []DistPoint, err error) {
	txPer := 400
	topoNodes := []int{0, 1, 2, 3, 4}
	mpls := []int{4, 8, 16, 32}
	zipfS := []float64{0, 1.1, 1.4, 1.8}
	if quick {
		txPer = 100
		topoNodes = []int{0, 1, 2}
		mpls = []int{8}
		zipfS = []float64{1.4}
	}
	point := func(s float64, clients int) Base {
		cfg := base.point(core.Semantic, 32, clients, txPer)
		cfg.ZipfS = s
		return cfg
	}
	for _, n := range topoNodes {
		pt, err := runDistPoint(point(0, 16), n)
		if err != nil {
			return nil, nil, nil, fmt.Errorf("E9 nodes=%d: %w", n, err)
		}
		topo = append(topo, pt)
	}
	for _, m := range mpls {
		pt, err := runDistPoint(point(0, m), 2)
		if err != nil {
			return nil, nil, nil, fmt.Errorf("E9 mpl=%d: %w", m, err)
		}
		mpl = append(mpl, pt)
	}
	for _, s := range zipfS {
		pt, err := runDistPoint(point(s, 16), 2)
		if err != nil {
			return nil, nil, nil, fmt.Errorf("E9 zipf=%.1f: %w", s, err)
		}
		zipf = append(zipf, pt)
	}
	return topo, mpl, zipf, nil
}

// distSweepDoc is the BENCH_9.json document.
type distSweepDoc struct {
	Experiment string      `json:"experiment"`
	Title      string      `json:"title"`
	Notes      string      `json:"notes"`
	TopoSweep  []DistPoint `json:"topology_sweep"`
	MPLSweep   []DistPoint `json:"mpl_sweep"`
	ZipfSweep  []DistPoint `json:"zipf_sweep"`
}

// DistSweepJSON runs the E9 sweeps and renders them as the
// BENCH_9.json document (semcc-bench -exp E9 -json).
func DistSweepJSON(base Base, quick bool) ([]byte, error) {
	topo, mpl, zipf, err := DistSweep(base, quick)
	if err != nil {
		return nil, err
	}
	return json.MarshalIndent(distSweepDoc{
		Experiment: "E9",
		Title:      "single engine vs sharded multi-node topology (semantic protocol, standard mix, items=32)",
		Notes: "direct = one engine, no coordinator; coordinator = roots routed through " +
			"the in-process transport with two-phase commit across the owning nodes " +
			"(one parked group-commit journal per node). direct vs nodes=1 is the " +
			"pure coordinator overhead — the one-node cluster takes the identical " +
			"protocol path via the single-participant optimisation. T1-T4 touch two " +
			"distinct items, so multi-node commits genuinely exercise prepare/decide.",
		TopoSweep: topo,
		MPLSweep:  mpl,
		ZipfSweep: zipf,
	}, "", "  ")
}

func distCells(pt DistPoint) []string {
	return []string{
		f0(pt.Throughput),
		d(pt.Committed),
		d(pt.Retries),
		fmt.Sprintf("%.2f", pt.BlocksPerTx),
		d(pt.Deadlocks),
		fmt.Sprintf("%.2f/%.2f", pt.P50Ms, pt.P99Ms),
	}
}

var distHeader = []string{"tps", "commits", "retries", "blocks/tx", "deadlocks", "p50/p99(ms)"}

func init() {
	Register(&Experiment{
		ID:    "E9",
		Title: "Multi-node topology: coordinator overhead and sharding scale-out",
		Run: func(base Base, quick bool) ([]*Table, error) {
			topo, mpl, zipf, err := DistSweep(base, quick)
			if err != nil {
				return nil, err
			}
			t1 := &Table{
				ID:     "E9",
				Title:  "topology sweep (semantic, standard mix, items=32, MPL=16)",
				Notes:  "direct vs nodes=1 isolates the coordinator: the one-node cluster commits\nover the identical protocol path (single-participant optimisation), so the\ngap is pure routing. nodes≥2 adds per-node journals and lock tables but\npays two-phase commit on roots spanning nodes.",
				Header: append([]string{"topology", "nodes"}, distHeader...),
			}
			for _, pt := range topo {
				t1.AddRow(append([]string{pt.Topology, d(pt.Nodes)}, distCells(pt)...)...)
			}
			t2 := &Table{
				ID:     "E9b",
				Title:  "MPL sweep on a two-node cluster (standard mix, items=32)",
				Notes:  "Client scaling against a fixed two-node topology: parallel per-node\ndevices absorb load until cross-node 2PC commits dominate.",
				Header: append([]string{"topology", "mpl"}, distHeader...),
			}
			for _, pt := range mpl {
				t2.AddRow(append([]string{fmt.Sprintf("%d-node", pt.Nodes), d(pt.MPL)}, distCells(pt)...)...)
			}
			t3 := &Table{
				ID:     "E9c",
				Title:  "Zipf skew sweep on a two-node cluster (standard mix, MPL=16)",
				Notes:  "Skew concentrates traffic on few items; striding places those on few\nnodes, so the sharding win erodes into a single hot node plus 2PC tax.",
				Header: append([]string{"topology", "zipf"}, distHeader...),
			}
			for _, pt := range zipf {
				t3.AddRow(append([]string{fmt.Sprintf("%d-node", pt.Nodes), fmt.Sprintf("%.1f", pt.ZipfS)}, distCells(pt)...)...)
			}
			return []*Table{t1, t2, t3}, nil
		},
	})
}
