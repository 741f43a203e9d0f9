package main

import (
	"encoding/json"
	"io"
	"os"
	"regexp"
	"strings"
	"testing"
	"time"
)

// TestQuickAllWorkloads is the smoke test tier-1 runs: all four
// workloads at -quick size, traced, through every phase including crash
// and restart. It keeps the benchmark compiling against the layers'
// public functions and every named metric present, finite and
// unit-tagged.
func TestQuickAllWorkloads(t *testing.T) {
	stderr = io.Discard
	defer func() { stderr = os.Stderr }()
	start := time.Now()
	for _, sp := range specs {
		rep, err := run(options{sp: sp, seed: 3, traced: true, quick: true, outDir: t.TempDir()})
		if err != nil {
			t.Fatalf("%s: %v", sp.name, err)
		}
		if rep.failed != 0 || rep.attempted == 0 {
			t.Errorf("%s: attempted %d, failed %d", sp.name, rep.attempted, rep.failed)
		}
		for _, set := range []struct {
			defs []metricDef
			vs   values
		}{{endToEnd, rep.e2e}, {perLayer, rep.layer}} {
			if err := complete(set.defs, set.vs); err != nil {
				t.Errorf("%s: %v", sp.name, err)
			}
			if len(set.vs) != len(set.defs) {
				t.Errorf("%s: %d values for %d metrics", sp.name, len(set.vs), len(set.defs))
			}
			line, err := resultLine(rep.attempted, rep.failed, set.defs, set.vs)
			if err != nil {
				t.Fatal(err)
			}
			var res struct {
				Correct bool
				Metrics map[string]struct {
					Value *float64
					Unit  string
				}
			}
			if err := json.Unmarshal(line, &res); err != nil || !res.Correct {
				t.Fatalf("%s: result line %s: %v", sp.name, line, err)
			}
			for _, d := range set.defs {
				if m := res.Metrics[d.name]; m.Value == nil || m.Unit != d.unit {
					t.Errorf("%s: result line lacks %s in %s", sp.name, d.name, d.unit)
				}
			}
		}
		for _, d := range endToEnd {
			if rep.e2e[d.name] <= 0 {
				t.Errorf("%s: end-to-end metric %s = %v", sp.name, d.name, rep.e2e[d.name])
			}
		}
		// The layers separate as designed, as far as a run this small
		// can show: only the cluster enters dist.
		if hops := rep.layer["dist.hops_per_root.begin"]; (hops > 0) != (sp.nodes > 0) {
			t.Errorf("%s: dist.hops_per_root.begin = %v on %d nodes", sp.name, hops, sp.nodes)
		}
		if cov := rep.layer["workload.trace.span_coverage"]; cov < 0.5 || cov > 1 {
			t.Errorf("%s: span coverage %v", sp.name, cov)
		}
	}
	if d := time.Since(start); d > 20*time.Second {
		t.Errorf("quick runs took %v, want under 20 s", d)
	}
}

// TestConservationGate: the check the run's correctness rests on does
// notice a lost update.
func TestConservationGate(t *testing.T) {
	sp, _ := specByName("std-direct")
	s, err := openSUT(sp.quick(), quickItems, quickOrders)
	if err != nil {
		t.Fatal(err)
	}
	defer s.close()
	cl := &client{net: make([]int64, quickItems)}
	if err := checkConservation(s.app, []*client{cl}); err != nil {
		t.Fatalf("fresh population: %v", err)
	}
	if err := s.app.DebitTx(5, 2); err != nil {
		t.Fatal(err)
	}
	if err := checkConservation(s.app, []*client{cl}); err == nil {
		t.Fatal("a debit the driver did not tally passed the conservation check")
	}
	cl.net[4] = -2
	if err := checkConservation(s.app, []*client{cl}); err != nil {
		t.Fatalf("tallied debit: %v", err)
	}
}

// TestBenchmarkJSONMatches pins BENCHMARK.json to the tables the program
// prints from, and to the limits of its contract.
func TestBenchmarkJSONMatches(t *testing.T) {
	raw, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var doc struct {
		Command    []string `json:"command"`
		Paths      []string `json:"paths"`
		RunSeconds int      `json:"run_seconds"`
		Workloads  []struct{ Name, Why string }
		EndToEnd   []struct {
			Name, Unit, Better string
			Bound              float64
		} `json:"end_to_end"`
		PerLayer []struct{ Name, Unit, Better string } `json:"per_layer"`
	}
	dec := json.NewDecoder(strings.NewReader(string(raw)))
	dec.DisallowUnknownFields()
	if err := dec.Decode(&doc); err != nil {
		t.Fatal(err)
	}
	if strings.Join(doc.Command, " ") != "go run ./benchmark" || len(doc.Paths) != 1 || doc.Paths[0] != "benchmark" {
		t.Errorf("command %v, paths %v", doc.Command, doc.Paths)
	}
	if doc.RunSeconds < 1 || doc.RunSeconds > 60 {
		t.Errorf("run_seconds %d", doc.RunSeconds)
	}
	name := regexp.MustCompile(`^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$`)
	unit := regexp.MustCompile(`^[A-Za-z0-9_/%.-]{1,16}$`)
	seen := make(map[string]bool)
	checkName := func(n, u string) {
		if !name.MatchString(n) || seen[n] {
			t.Errorf("name %q is malformed or used twice", n)
		}
		seen[n] = true
		if u != "" && !unit.MatchString(u) {
			t.Errorf("%s: unit %q is malformed", n, u)
		}
	}
	better := func(higher bool) string {
		if higher {
			return "higher"
		}
		return "lower"
	}
	if len(doc.Workloads) != len(specs) {
		t.Fatalf("%d workloads, want %d", len(doc.Workloads), len(specs))
	}
	for i, w := range doc.Workloads {
		checkName(w.Name, "")
		if w.Name != specs[i].name || w.Why != specs[i].why || len(w.Why) > 200 || strings.Contains(w.Why, "\n") {
			t.Errorf("workload %d: %+v, want %s: %s", i, w, specs[i].name, specs[i].why)
		}
	}
	if len(doc.EndToEnd) != len(endToEnd) || len(doc.PerLayer) != len(perLayer) {
		t.Fatalf("%d end-to-end and %d per-layer metrics, want %d and %d", len(doc.EndToEnd), len(doc.PerLayer), len(endToEnd), len(perLayer))
	}
	setup := false
	for i, m := range doc.EndToEnd {
		checkName(m.Name, m.Unit)
		d := endToEnd[i]
		if m.Name != d.name || m.Unit != d.unit || m.Better != better(d.higher) || m.Bound != d.bound {
			t.Errorf("end-to-end metric %d: %+v, want %+v", i, m, d)
		}
		if m.Bound <= 0 || m.Bound > 0.25 {
			t.Errorf("%s: bound %v", m.Name, m.Bound)
		}
		setup = setup || (m.Name == "setup_s" && m.Unit == "s" && m.Better == "lower")
	}
	if !setup {
		t.Error("no setup_s metric in s, lower is better")
	}
	if len(doc.PerLayer) > 128 {
		t.Errorf("%d per-layer metrics", len(doc.PerLayer))
	}
	for i, m := range doc.PerLayer {
		checkName(m.Name, m.Unit)
		d := perLayer[i]
		if m.Name != d.name || m.Unit != d.unit || m.Better != better(d.higher) {
			t.Errorf("per-layer metric %d: %+v, want %+v", i, m, d)
		}
	}
}
