package harness

import (
	"bytes"
	"strings"
	"testing"

	"semcc/internal/core"
	"semcc/internal/wal"
)

func TestTableRendering(t *testing.T) {
	tab := &Table{
		ID: "T", Title: "demo", Notes: "a note",
		Header: []string{"col", "value"},
	}
	tab.AddRow("x", "1")
	tab.AddRow("longer-name", "2")
	out := tab.String()
	for _, want := range []string{"== T: demo ==", "a note", "col", "longer-name"} {
		if !strings.Contains(out, want) {
			t.Errorf("table missing %q:\n%s", want, out)
		}
	}
}

func TestRegistryComplete(t *testing.T) {
	want := []string{"E1", "E2", "E3", "E4", "E5", "E6"}
	all := All()
	if len(all) != len(want) {
		t.Fatalf("registered %d experiments, want %d", len(all), len(want))
	}
	for i, e := range all {
		if e.ID != want[i] {
			t.Errorf("experiment %d = %s, want %s", i, e.ID, want[i])
		}
	}
	if _, ok := Get("E1"); !ok {
		t.Error("Get(E1) failed")
	}
	if _, ok := Get("E99"); ok {
		t.Error("Get(E99) succeeded")
	}
}

// TestFiguresRun replays every figure demonstration end-to-end.
func TestFiguresRun(t *testing.T) {
	for fig := 1; fig <= 9; fig++ {
		var buf bytes.Buffer
		if err := RunFigure(fig, &buf); err != nil {
			t.Fatalf("figure %d: %v", fig, err)
		}
		if buf.Len() == 0 {
			t.Errorf("figure %d produced no output", fig)
		}
	}
	if err := RunFigure(10, &bytes.Buffer{}); err == nil {
		t.Error("figure 10 must not exist")
	}
}

// TestExperimentsQuick runs every experiment with reduced sweeps and
// sanity-checks the headline claims' shapes on the E4 and E5 tables.
func TestExperimentsQuick(t *testing.T) {
	if testing.Short() {
		t.Skip("experiments skipped in -short mode")
	}
	for _, e := range All() {
		e := e
		t.Run(e.ID, func(t *testing.T) {
			tables, err := e.Run(Base{}, true)
			if err != nil {
				t.Fatal(err)
			}
			if len(tables) == 0 || len(tables[0].Rows) == 0 {
				t.Fatal("experiment produced no rows")
			}
			for _, tab := range tables {
				for _, row := range tab.Rows {
					if len(row) != len(tab.Header) {
						t.Errorf("%s: ragged row %v", tab.ID, row)
					}
				}
			}
		})
	}
}

// TestDistPointSmoke is the CI smoke for the topology axis (-nodes):
// one small standard-mix point runs direct, as a one-node cluster, and
// as a two-node cluster. runPoint validates the conservation invariant
// against the merged snapshot, so a lost branch (a root committed on
// one node but not the other) fails the test, and all three topologies
// must commit work.
func TestDistPointSmoke(t *testing.T) {
	for _, n := range []int{0, 1, 2} {
		var base Base
		base.Nodes = n
		m, err := runPoint(base.point(core.Semantic, 8, 8, 40))
		if err != nil {
			t.Fatalf("nodes=%d: %v", n, err)
		}
		if m.Committed == 0 {
			t.Fatalf("nodes=%d: no commits", n)
		}
		t.Logf("nodes=%d tps=%.0f commits=%d blocks/tx=%.2f deadlocks=%d",
			n, m.Throughput, m.Committed, m.BlockRate(), m.Engine.Deadlocks)
	}
}

// TestBaseAxesQuick runs quick E4 with every flag axis set at once —
// a group-commit journal on a two-node cluster and on the direct
// engine, so both of runPoint's Base.WAL branches
// attach journals — and every point must still commit the whole
// offered load (16 clients × 150 tx).
func TestBaseAxesQuick(t *testing.T) {
	if testing.Short() {
		t.Skip("experiments skipped in -short mode")
	}
	e, _ := Get("E4")
	for _, nodes := range []int{2, 0} {
		var base Base
		base.Nodes = nodes
		base.WAL = &wal.Config{Mode: wal.ModeGroup}
		tables, err := e.Run(base, true)
		if err != nil {
			t.Fatalf("nodes=%d: %v", nodes, err)
		}
		tab := tables[0]
		col := -1
		for i, h := range tab.Header {
			if h == "commits" {
				col = i
			}
		}
		if col < 0 || len(tab.Rows) == 0 {
			t.Fatalf("nodes=%d: E4 table has no commits column or no rows:\n%s", nodes, tab)
		}
		for _, row := range tab.Rows {
			if row[col] != "2400" {
				t.Errorf("nodes=%d: %s committed %s, want 2400", nodes, row[0], row[col])
			}
		}
	}
}
