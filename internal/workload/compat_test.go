package workload

import (
	"testing"
	"time"

	"semcc/internal/compat"
	"semcc/internal/core"
	"semcc/internal/oodb"
	"semcc/internal/wal"
)

// TestCompatEquivalence runs the hot-counter mix once under each
// compatibility regime and requires the same committed work with
// identical final balances: escrow admission changes when updates are
// admitted, never what they compute. Each run's per-item conservation is
// checked inside Run; equal summed NetStock on top of it means equal QOH
// per item. Strict equality holds because the mix never deadlocks, so
// every client's RNG stream advances identically under both regimes.
// Each run commits through a group journal on a parked 200 µs device,
// so a committing root holds its retained locks across a real flush.
func TestCompatEquivalence(t *testing.T) {
	run := func(mode compat.Mode) Metrics {
		t.Helper()
		j := wal.New(wal.Config{Mode: wal.ModeGroup, FlushDelay: 200 * time.Microsecond, DeviceSleep: true})
		defer j.Close()
		m, err := Run(Config{
			Options: oodb.Options{Protocol: core.Semantic, Compat: mode, Journal: j},
			Items:   8, Clients: 8, TxPerClient: 50, Seed: 42,
			Mix: HotCounterMix(), ZipfS: 1.4, Validate: true,
		})
		if err != nil {
			t.Fatalf("%s: %v", mode, err)
		}
		return m
	}
	net := func(m Metrics) (sum int64) {
		for _, n := range m.NetStock {
			sum += n
		}
		return sum
	}
	stat, esc := run(compat.CompatStatic), run(compat.CompatEscrow)
	if stat.Committed == 0 || stat.Committed != esc.Committed || net(stat) != net(esc) {
		t.Fatalf("regimes diverged: static commits=%d net=%d, escrow commits=%d net=%d",
			stat.Committed, net(stat), esc.Committed, net(esc))
	}
	if esc.Engine.EscrowAdmits == 0 {
		t.Error("escrow run admitted nothing through the bounds interval")
	}
	if stat.Engine.EscrowAdmits != 0 {
		t.Errorf("static run used escrow admission (%d admits)", stat.Engine.EscrowAdmits)
	}
	t.Logf("static blocks/tx=%.2f; escrow blocks/tx=%.2f admits=%d; net=%d",
		stat.BlockRate(), esc.BlockRate(), esc.Engine.EscrowAdmits, net(esc))
}
