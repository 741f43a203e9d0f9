package harness

import (
	"bytes"
	"strings"
	"testing"
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
	want := []string{"E1", "E2", "E3", "E4", "E5", "E6", "E7", "E8", "E9", "chaos"}
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
