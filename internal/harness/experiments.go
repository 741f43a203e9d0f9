package harness

import (
	"fmt"

	"semcc/internal/core"
	"semcc/internal/obs"
	"semcc/internal/wal"
	"semcc/internal/workload"
)

// perfProtocols are the protocols compared in the performance study.
// OpenNoRetain is included for completeness: on workloads without
// bypass anomalies it is a valid data point for "open nesting without
// retained locks".
var perfProtocols = []core.ProtocolKind{
	core.Semantic, core.OpenNoRetain, core.ClosedNested, core.TwoPLObject, core.TwoPLPage,
}

// Base is the configuration every experiment point starts from.
// semcc-bench builds one value from its flags and hands it to
// Experiment.Run and the *SweepJSON functions; tests pass the zero
// value. There is no other channel: a point is a copy of the base with
// its workload shape filled in (see point), and an experiment that
// owns an axis (E7 the journal, E8 the compat regime, E9 the topology)
// overwrites that field on its copy, so a flag cannot leak underneath
// the axis being swept.
type Base struct {
	// Config carries the flag-selected engine options and topology:
	// Compat (-compat), Nodes (-nodes), Obs and NodeObs (-serve). The
	// workload-shape fields are filled per point (see point).
	workload.Config
	// WAL, when non-nil, attaches a fresh journal of this configuration
	// to every engine of every point that brings none of its own
	// (-wal). The default is no journal: the paper's performance study
	// models an in-memory engine, so durability cost is opt-in, not
	// baked into E1–E6.
	WAL *wal.Config
}

// point derives one experiment point from the base; every point runs
// seed 42.
func (b Base) point(p core.ProtocolKind, items, clients, txPer int) Base {
	b.Protocol, b.Items, b.Clients, b.TxPerClient, b.Seed = p, items, clients, txPer, 42
	return b
}

// runPoint executes one point (conservation-validated). A point
// without an Obs gets a fresh enabled one so the p50/p99 column is
// always populated; a point without journals gets its WAL's, one per
// engine.
func runPoint(pt Base) (workload.Metrics, error) {
	pt.Validate = true
	if pt.Obs == nil {
		pt.Obs = obs.New(obs.Config{})
		pt.Obs.SetEnabled(true)
	}
	if pt.Nodes >= 1 {
		if pt.NodeJournal == nil && pt.WAL != nil {
			var journals []wal.Journal
			pt.NodeJournal = func(int) core.Journal {
				j := wal.New(*pt.WAL)
				journals = append(journals, j)
				return j
			}
			defer func() {
				for _, j := range journals {
					j.Close()
				}
			}()
		}
	} else if pt.Journal == nil && pt.WAL != nil {
		j := wal.New(*pt.WAL)
		defer j.Close()
		pt.Journal = j
	}
	return workload.Run(pt.Config)
}

func metricCells(m workload.Metrics) []string {
	return []string{
		f0(m.Throughput),
		d(m.Committed),
		d(m.Retries),
		fmt.Sprintf("%.2f", m.BlockRate()),
		d(m.Engine.RootWaits),
		d(m.Engine.Case1Grants),
		d(m.Engine.Case2Waits),
		m.CaseMix(),
		m.LatencyStr(),
		d(m.Engine.Deadlocks),
		f1(m.AvgWaitMicros()),
	}
}

// mix% is the conflict-classification share — the paper's central
// quantitative claim (Fig. 9 cases plus the escrow-admit case),
// reported per row. The column list comes from the engine's
// classification table (workload.CaseMixHeader), not a hard-coded
// triple, so new admission cases appear automatically.
// p50/p99(ms) are root-transaction latency percentiles from the span
// recorder (internal/obs); "-" when span collection is off.
var metricHeader = []string{"tps", "commits", "retries", "blocks/tx", "rootwaits", "case1", "case2", workload.CaseMixHeader(), "p50/p99(ms)", "deadlocks", "wait(µs)"}

func init() {
	Register(&Experiment{
		ID:    "E1",
		Title: "Throughput vs multiprogramming level (hot item set, standard mix)",
		Run: func(base Base, quick bool) ([]*Table, error) {
			mpls := []int{1, 2, 4, 8, 16, 32}
			txPer := 300
			if quick {
				mpls = []int{1, 8}
				txPer = 150
			}
			t := &Table{
				ID:     "E1",
				Title:  "throughput vs MPL (items=4, standard mix)",
				Notes:  "Paper claim: semantic locking greatly improves possible concurrency under\ncontention; the gap vs conventional protocols should widen with MPL.",
				Header: append([]string{"protocol", "mpl"}, metricHeader...),
			}
			for _, mpl := range mpls {
				for _, p := range perfProtocols {
					m, err := runPoint(base.point(p, 4, mpl, txPer))
					if err != nil {
						return nil, fmt.Errorf("E1 %s mpl=%d: %w", p, mpl, err)
					}
					t.AddRow(append([]string{p.String(), d(mpl)}, metricCells(m)...)...)
				}
			}
			return []*Table{t}, nil
		},
	})

	Register(&Experiment{
		ID:    "E2",
		Title: "Throughput vs database size (contention sweep)",
		Run: func(base Base, quick bool) ([]*Table, error) {
			sizes := []int{2, 4, 8, 16, 32, 64}
			txPer := 300
			if quick {
				sizes = []int{2, 16}
				txPer = 150
			}
			t := &Table{
				ID:     "E2",
				Title:  "throughput vs #items (MPL=16, standard mix)",
				Notes:  "Contention falls as the item set grows; all protocols converge when\nconflicts become rare — the semantic advantage is a contention effect.",
				Header: append([]string{"protocol", "items"}, metricHeader...),
			}
			for _, n := range sizes {
				for _, p := range perfProtocols {
					m, err := runPoint(base.point(p, n, 16, txPer))
					if err != nil {
						return nil, fmt.Errorf("E2 %s items=%d: %w", p, n, err)
					}
					t.AddRow(append([]string{p.String(), d(n)}, metricCells(m)...)...)
				}
			}
			return []*Table{t}, nil
		},
	})

	Register(&Experiment{
		ID:    "E3",
		Title: "Throughput vs transaction mix (update-heavy to read-heavy)",
		Run: func(base Base, quick bool) ([]*Table, error) {
			mixes := []struct {
				name string
				mix  workload.Mix
			}{
				{"update-only", workload.UpdateOnlyMix()},
				{"standard", workload.StandardMix()},
				{"read-heavy", workload.ReadHeavyMix()},
			}
			txPer := 300
			if quick {
				txPer = 100
			}
			t := &Table{
				ID:     "E3",
				Title:  "throughput vs mix (items=4, MPL=16)",
				Notes:  "Commuting updates (ShipOrder/PayOrder, ChangeStatus) are where the\nsemantic protocol wins; pure readers also profit from case-1 grants.",
				Header: append([]string{"protocol", "mix"}, metricHeader...),
			}
			for _, mx := range mixes {
				for _, p := range perfProtocols {
					cfg := base.point(p, 4, 16, txPer)
					cfg.Mix = mx.mix
					m, err := runPoint(cfg)
					if err != nil {
						return nil, fmt.Errorf("E3 %s %s: %w", p, mx.name, err)
					}
					t.AddRow(append([]string{p.String(), mx.name}, metricCells(m)...)...)
				}
			}
			return []*Table{t}, nil
		},
	})

	Register(&Experiment{
		ID:    "E4",
		Title: "Conventional special case: pure-bypass workload",
		Run: func(base Base, quick bool) ([]*Table, error) {
			txPer := 400
			if quick {
				txPer = 150
			}
			t := &Table{
				ID:     "E4",
				Title:  "pure generic-operation transactions (items=4, MPL=16)",
				Notes:  "Paper claim: the protocol preserves conventional record-oriented locking\nas a special case. With only Get/Put transactions, the semantic protocol\nmust behave like strict 2PL on objects (same conflicts, similar rates).",
				Header: append([]string{"protocol"}, metricHeader...),
			}
			for _, p := range []core.ProtocolKind{core.Semantic, core.TwoPLObject, core.TwoPLPage} {
				cfg := base.point(p, 4, 16, txPer)
				cfg.Mix = workload.BypassOnlyMix()
				m, err := runPoint(cfg)
				if err != nil {
					return nil, fmt.Errorf("E4 %s: %w", p, err)
				}
				t.AddRow(append([]string{p.String()}, metricCells(m)...)...)
			}
			return []*Table{t}, nil
		},
	})

	Register(&Experiment{
		ID:    "E5",
		Title: "Ablation: commutative-ancestor relief (Fig. 9 cases 1 and 2) on/off",
		Run: func(base Base, quick bool) ([]*Table, error) {
			txPer := 300
			if quick {
				txPer = 100
			}
			t := &Table{
				ID:     "E5",
				Title:  "semantic protocol with and without the ancestor-pair search (items=4, MPL=16)",
				Notes:  "Without cases 1/2 every retained-lock conflict waits for top-level\ncommit: readers of bypassed subobjects (T3/T4/T5) stall behind updaters.",
				Header: append([]string{"variant", "mix"}, metricHeader...),
			}
			for _, mx := range []struct {
				name string
				mix  workload.Mix
			}{{"standard", workload.StandardMix()}, {"read-heavy", workload.ReadHeavyMix()}} {
				for _, off := range []bool{false, true} {
					name := "relief-on"
					if off {
						name = "relief-off"
					}
					cfg := base.point(core.Semantic, 4, 16, txPer)
					cfg.NoAncestorRelief, cfg.Mix = off, mx.mix
					m, err := runPoint(cfg)
					if err != nil {
						return nil, fmt.Errorf("E5 %s: %w", name, err)
					}
					t.AddRow(append([]string{name, mx.name}, metricCells(m)...)...)
				}
			}
			return []*Table{t}, nil
		},
	})

	Register(&Experiment{
		ID:    "E6",
		Title: "Skewed access (Zipf) contention",
		Run: func(base Base, quick bool) ([]*Table, error) {
			txPer := 300
			if quick {
				txPer = 100
			}
			t := &Table{
				ID:     "E6",
				Title:  "Zipf-skewed item access (items=32, MPL=16, s=1.4)",
				Notes:  "Skew concentrates conflicts on a few hot items even in a large database.",
				Header: append([]string{"protocol"}, metricHeader...),
			}
			for _, p := range perfProtocols {
				cfg := base.point(p, 32, 16, txPer)
				cfg.ZipfS = 1.4
				m, err := runPoint(cfg)
				if err != nil {
					return nil, fmt.Errorf("E6 %s: %w", p, err)
				}
				t.AddRow(append([]string{p.String()}, metricCells(m)...)...)
			}
			return []*Table{t}, nil
		},
	})
}
