package harness

import (
	"encoding/json"
	"testing"

	"semcc/internal/core"
)

// TestDistPointSmoke is the CI smoke for the topology axis: one small
// standard-mix workload runs direct, as a one-node cluster, and as a
// two-node cluster. Each point validates the conservation invariant
// against its merged snapshot inside runPoint, so a lost branch (a
// root committed on one node but not the other) fails the test, and
// all three topologies must commit work.
func TestDistPointSmoke(t *testing.T) {
	cfg := Base{}.point(core.Semantic, 8, 8, 40)
	for _, n := range []int{0, 1, 2} {
		pt, err := runDistPoint(cfg, n)
		if err != nil {
			t.Fatalf("nodes=%d: %v", n, err)
		}
		if pt.Committed == 0 {
			t.Fatalf("nodes=%d: no commits", n)
		}
		t.Logf("%s nodes=%d tps=%.0f commits=%d blocks/tx=%.2f deadlocks=%d",
			pt.Topology, pt.Nodes, pt.Throughput, pt.Committed, pt.BlocksPerTx, pt.Deadlocks)
	}
}

// TestDistSweepJSONQuick renders the quick E9 document and checks its
// shape: well-formed JSON with all three sweeps populated and a
// direct-vs-coordinator pair in the topology sweep.
func TestDistSweepJSONQuick(t *testing.T) {
	if testing.Short() {
		t.Skip("sweep is slow")
	}
	raw, err := DistSweepJSON(Base{}, true)
	if err != nil {
		t.Fatal(err)
	}
	var doc struct {
		Experiment string      `json:"experiment"`
		TopoSweep  []DistPoint `json:"topology_sweep"`
		MPLSweep   []DistPoint `json:"mpl_sweep"`
		ZipfSweep  []DistPoint `json:"zipf_sweep"`
	}
	if err := json.Unmarshal(raw, &doc); err != nil {
		t.Fatalf("BENCH_9 document does not parse: %v", err)
	}
	if doc.Experiment != "E9" {
		t.Fatalf("experiment = %q, want E9", doc.Experiment)
	}
	if len(doc.TopoSweep) < 3 || len(doc.MPLSweep) == 0 || len(doc.ZipfSweep) == 0 {
		t.Fatalf("sweeps missing points: topo=%d mpl=%d zipf=%d",
			len(doc.TopoSweep), len(doc.MPLSweep), len(doc.ZipfSweep))
	}
	if doc.TopoSweep[0].Topology != "direct" || doc.TopoSweep[1].Topology != "coordinator" {
		t.Fatalf("topology sweep must open with the direct/coordinator overhead pair, got %s/%s",
			doc.TopoSweep[0].Topology, doc.TopoSweep[1].Topology)
	}
	for _, pt := range append(append(doc.TopoSweep, doc.MPLSweep...), doc.ZipfSweep...) {
		if pt.Committed == 0 {
			t.Fatalf("point %+v committed nothing", pt)
		}
	}
}
