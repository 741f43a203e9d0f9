package workload

import (
	"testing"
	"time"

	"semcc/internal/core"
	"semcc/internal/oodb"
	"semcc/internal/wal"
)

// TestHotCounterConservation runs the hot-counter mix on the direct
// engine: every debit and credit of one item conflicts with every
// other, so the mix is one queue per hot item. Every offered root must
// commit, and Run's validation must find each item's QOH equal to its
// initial stock plus the committed net. Each root commits through a
// group journal on a parked 200 µs device, so a committing root holds
// its retained locks across a real flush.
func TestHotCounterConservation(t *testing.T) {
	j := wal.New(wal.Config{Mode: wal.ModeGroup, FlushDelay: 200 * time.Microsecond, DeviceSleep: true})
	defer j.Close()
	const clients, txPer = 8, 50
	m, err := Run(Config{
		Options: oodb.Options{Protocol: core.Semantic, Journal: j},
		Items:   8, Clients: clients, TxPerClient: txPer, Seed: 42,
		Mix: HotCounterMix(), ZipfS: 1.4, Validate: true,
	})
	if err != nil {
		t.Fatal(err)
	}
	if m.Committed != clients*txPer {
		t.Fatalf("committed %d of %d offered roots (aborted %d, retries exhausted %d)",
			m.Committed, clients*txPer, m.Aborted, m.RetryExhausted)
	}
	var net int64
	for _, n := range m.NetStock {
		net += n
	}
	t.Logf("blocks/tx=%.2f root waits=%d net=%d", m.BlockRate(), m.Engine.RootWaits, net)
}
