package harness

import (
	"testing"

	"semcc/internal/core"
	"semcc/internal/workload"
)

// TestCompatEquivalenceSmoke is the CI smoke for the compat axis: the
// hot-counter workload runs once under each regime and must commit the
// same work with identical final balances — escrow admission changes
// when updates are admitted, never what they compute. runEscrowPair
// with strict set asserts exactly that (equal commits, equal net
// stock; each run's per-item conservation is checked inside runPoint),
// so this test fails on any cross-mode divergence.
func TestCompatEquivalenceSmoke(t *testing.T) {
	cfg := Base{}.point(core.Semantic, 8, 8, 50)
	cfg.Mix, cfg.ZipfS = workload.HotCounterMix(), 1.4
	stat, esc, err := runEscrowPair(cfg, "smoke", true)
	if err != nil {
		t.Fatal(err)
	}
	if stat.Committed == 0 || esc.Committed == 0 {
		t.Fatalf("no commits: static=%d escrow=%d", stat.Committed, esc.Committed)
	}
	if esc.EscrowAdmits == 0 {
		t.Fatalf("escrow run admitted nothing through the bounds interval")
	}
	if stat.EscrowAdmits != 0 {
		t.Fatalf("static run used escrow admission (%d admits)", stat.EscrowAdmits)
	}
	t.Logf("static tps=%.0f blocks/tx=%.2f; escrow tps=%.0f blocks/tx=%.2f admits=%d; net=%d",
		stat.Throughput, stat.BlocksPerTx, esc.Throughput, esc.BlocksPerTx, esc.EscrowAdmits, esc.NetStock)
}
