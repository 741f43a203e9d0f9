// Package harness defines the repository's experiments: one runnable
// definition per paper figure (F1–F9 demonstrations) and per
// performance experiment (E1–E6, DESIGN.md §4), each producing a
// formatted table. cmd/semcc-bench and the root benchmarks drive it.
package harness

import (
	"fmt"
	"sort"
	"strings"
)

// Table is a formatted experiment result.
type Table struct {
	ID     string
	Title  string
	Notes  string
	Header []string
	Rows   [][]string
}

// AddRow appends a row.
func (t *Table) AddRow(cells ...string) { t.Rows = append(t.Rows, cells) }

// String renders the table with aligned columns.
func (t *Table) String() string {
	var b strings.Builder
	fmt.Fprintf(&b, "== %s: %s ==\n", t.ID, t.Title)
	if t.Notes != "" {
		for _, line := range strings.Split(t.Notes, "\n") {
			fmt.Fprintf(&b, "   %s\n", line)
		}
	}
	widths := make([]int, len(t.Header))
	for i, h := range t.Header {
		widths[i] = len(h)
	}
	for _, r := range t.Rows {
		for i, c := range r {
			if i < len(widths) && len(c) > widths[i] {
				widths[i] = len(c)
			}
		}
	}
	writeRow := func(cells []string) {
		for i, c := range cells {
			if i > 0 {
				b.WriteString("  ")
			}
			fmt.Fprintf(&b, "%-*s", widths[i], c)
		}
		b.WriteByte('\n')
	}
	writeRow(t.Header)
	sep := make([]string, len(t.Header))
	for i := range sep {
		sep[i] = strings.Repeat("-", widths[i])
	}
	writeRow(sep)
	for _, r := range t.Rows {
		writeRow(r)
	}
	return b.String()
}

// Experiment is a runnable experiment definition.
type Experiment struct {
	ID    string
	Title string
	// Run executes the experiment's points on top of base. Quick runs
	// a reduced parameter set (used by `go test`); full runs the
	// complete sweep.
	Run func(base Base, quick bool) ([]*Table, error)
}

var registry = map[string]*Experiment{}

// Register installs an experiment (called from init functions).
func Register(e *Experiment) {
	if _, dup := registry[e.ID]; dup {
		panic("harness: duplicate experiment " + e.ID)
	}
	registry[e.ID] = e
}

// Get returns an experiment by id.
func Get(id string) (*Experiment, bool) {
	e, ok := registry[id]
	return e, ok
}

// All returns every experiment ordered by id.
func All() []*Experiment {
	ids := make([]string, 0, len(registry))
	for id := range registry {
		ids = append(ids, id)
	}
	sort.Strings(ids)
	out := make([]*Experiment, 0, len(ids))
	for _, id := range ids {
		out = append(out, registry[id])
	}
	return out
}

// f1 formats a float with one decimal.
func f1(x float64) string { return fmt.Sprintf("%.1f", x) }

// f0 formats a float with no decimals.
func f0(x float64) string { return fmt.Sprintf("%.0f", x) }

// d formats an integer.
func d[T int | int64 | uint64](x T) string { return fmt.Sprintf("%d", x) }
