package workload

import (
	"testing"

	"semcc/internal/core"
	"semcc/internal/oodb"
)

// TestSmokeAllProtocols runs a small contended workload under every
// protocol, validating the conservation invariant afterwards.
func TestSmokeAllProtocols(t *testing.T) {
	for _, k := range core.Protocols() {
		k := k
		t.Run(k.String(), func(t *testing.T) {
			m, err := Run(Config{
				Options: oodb.Options{Protocol: k}, Items: 4, Clients: 8, TxPerClient: 50, Seed: 1, Validate: true,
			})
			if err != nil {
				t.Fatal(err)
			}
			if m.Committed == 0 {
				t.Fatal("no transactions committed")
			}
			t.Logf("tps=%.0f committed=%d aborted=%d retries=%d blocks=%d case1=%d case2=%d rootwaits=%d deadlocks=%d",
				m.Throughput, m.Committed, m.Aborted, m.Retries, m.Engine.Blocks,
				m.Engine.Case1Grants, m.Engine.Case2Waits, m.Engine.RootWaits, m.Engine.Deadlocks)
		})
	}
}
