package workload

import (
	"testing"

	"semcc/internal/core"
	"semcc/internal/oodb"
)

// TestMultiNodeWorkload runs the full contended mix through the
// two-phase-commit coordinator over 1, 2 and 3 nodes (one node is the
// coordinator-of-one path, which skips 2PC). Validation replays the
// conservation invariant against the merged snapshot, so a lost branch
// (a root committed on one node but not another) surfaces as a QOH
// mismatch.
func TestMultiNodeWorkload(t *testing.T) {
	for _, nodes := range []int{1, 2, 3} {
		for _, k := range []core.ProtocolKind{core.Semantic, core.TwoPLObject} {
			t.Run(k.String(), func(t *testing.T) {
				m, err := Run(Config{
					Options: oodb.Options{Protocol: k}, Nodes: nodes, Items: 4, Clients: 8, TxPerClient: 30,
					Seed: 1, Validate: true,
				})
				if err != nil {
					t.Fatal(err)
				}
				if m.Committed == 0 {
					t.Fatal("no transactions committed")
				}
				if m.Committed+m.Aborted+m.RetryExhausted != uint64(8*30) {
					t.Errorf("outcome counts %d+%d+%d do not cover 240 transactions",
						m.Committed, m.Aborted, m.RetryExhausted)
				}
				t.Logf("nodes=%d tps=%.0f committed=%d retries=%d blocks=%d deadlocks=%d",
					nodes, m.Throughput, m.Committed, m.Retries, m.Engine.Blocks, m.Engine.Deadlocks)
			})
		}
	}
}

// TestMultiNodeHotCounter drives the hot-counter mix through the
// coordinator: with the counters on different nodes, every debit and
// credit still serialises on its item, and NetStock still predicts the
// final balances (Run's validation).
func TestMultiNodeHotCounter(t *testing.T) {
	m, err := Run(Config{
		Options: oodb.Options{Protocol: core.Semantic}, Nodes: 2,
		Items: 2, Clients: 6, TxPerClient: 25, Seed: 7,
		Mix: HotCounterMix(), Validate: true,
	})
	if err != nil {
		t.Fatal(err)
	}
	if m.Committed == 0 {
		t.Fatal("no transactions committed")
	}
}
