// The chaos experiment: seeded kill-and-recover sweeps against the
// serial-reference oracle (internal/chaos), exposed through the same
// registry as the performance experiments so `semcc-bench -exp chaos`
// runs a sweep and prints one row per seed. This is a correctness
// experiment, not a benchmark: the interesting output is the empty
// "divergence" column, and — when it is not empty — the seed that
// reproduces the failure byte-for-byte.
package harness

import (
	"fmt"

	"semcc/internal/chaos"
)

func init() {
	Register(&Experiment{
		ID:    "chaos",
		Title: "Deterministic chaos oracle: seeded crash-recovery sweeps vs the serial reference",
		Run: func(_ Base, quick bool) ([]*Table, error) {
			seeds, actions := []int64{1, 2, 3, 4, 5, 6, 7, 8}, 400
			if quick {
				seeds, actions = []int64{1, 2, 3}, 150
			}
			t := &Table{
				ID:    "CHAOS",
				Title: fmt.Sprintf("chaos sweep, %d actions/seed, open roots + kills + WAL-mode rotation", actions),
				Notes: "every run replays its committed roots serially in commit order and compares\n" +
					"observations and final state; reproduce any row exactly with\n" +
					"  go test ./internal/chaos -run TestChaosOracle -chaos.actions=" + fmt.Sprint(actions) + " -chaos.seed=<seed>",
				Header: []string{"seed", "kills", "committed", "aborted", "crashAborted", "blocks", "forced", "stock", "trace", "divergence"},
			}
			for _, seed := range seeds {
				rep, err := chaos.Run(chaos.Config{Seed: seed, Actions: actions})
				if err != nil {
					return nil, fmt.Errorf("chaos seed %d: %w", seed, err)
				}
				div := rep.Divergence
				if div == "" {
					div = "-"
				}
				t.AddRow(fmt.Sprint(seed), fmt.Sprint(rep.Kills),
					fmt.Sprint(rep.Committed), fmt.Sprint(rep.Aborted), fmt.Sprint(rep.CrashAborted),
					fmt.Sprint(rep.Blocks), fmt.Sprint(rep.ForcedCommits), fmt.Sprint(rep.InsufficientStock),
					fmt.Sprintf("%016x", rep.TraceHash), div)
				if rep.Divergence != "" {
					return []*Table{t}, fmt.Errorf("chaos seed %d diverged: %s", seed, rep.Divergence)
				}
			}
			return []*Table{t}, nil
		},
	})
}
