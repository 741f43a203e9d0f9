package workload

import (
	"math"
	"math/rand"
	"testing"

	"semcc/internal/core"
	"semcc/internal/oodb"
)

func TestMixes(t *testing.T) {
	for name, mix := range map[string]Mix{
		"standard": StandardMix(), "read-heavy": ReadHeavyMix(),
		"update-only": UpdateOnlyMix(), "bypass-only": BypassOnlyMix(),
	} {
		total := 0
		for _, w := range mix {
			total += w
		}
		if total != 100 {
			t.Errorf("%s mix weights sum to %d, want 100", name, total)
		}
	}
}

func TestKindNames(t *testing.T) {
	for k := TxKind(0); int(k) < numKinds; k++ {
		if k.String() == "" || k.String()[0] == 'k' {
			t.Errorf("kind %d has no name", k)
		}
	}
}

func TestZipfTableSkew(t *testing.T) {
	z := newZipfTable(16, 1.4)
	rng := rand.New(rand.NewSource(1))
	counts := make([]int, 16)
	for i := 0; i < 20000; i++ {
		counts[z.pick(rng)]++
	}
	if counts[0] <= counts[15]*3 {
		t.Errorf("no skew: first=%d last=%d", counts[0], counts[15])
	}
	sum := 0
	for _, c := range counts {
		sum += c
	}
	if sum != 20000 {
		t.Fatalf("picks lost: %d", sum)
	}
}

func TestEmptyMixRejected(t *testing.T) {
	_, err := Run(Config{Options: oodb.Options{Protocol: core.Semantic}, Items: 2, Clients: 1, TxPerClient: 1, Mix: Mix{}})
	if err == nil {
		t.Fatal("empty mix accepted")
	}
}

func TestMetricsHelpers(t *testing.T) {
	m := Metrics{Committed: 10}
	m.Engine.Blocks = 5
	m.Engine.WaitNanos = 5_000_000
	if got := m.BlockRate(); got != 0.5 {
		t.Errorf("BlockRate = %f", got)
	}
	if got := m.AvgWaitMicros(); math.Abs(got-1000) > 1e-9 {
		t.Errorf("AvgWaitMicros = %f", got)
	}
	var empty Metrics
	if empty.BlockRate() != 0 || empty.AvgWaitMicros() != 0 {
		t.Error("zero metrics must not divide by zero")
	}
}

func TestDeterministicSeedsSamePicks(t *testing.T) {
	// Same seed ⇒ same committed count in a single-client run (no
	// concurrency nondeterminism).
	run := func() uint64 {
		m, err := Run(Config{Options: oodb.Options{Protocol: core.Semantic}, Items: 4, Clients: 1, TxPerClient: 40, Seed: 5, Validate: true})
		if err != nil {
			t.Fatal(err)
		}
		return m.Committed
	}
	if run() != run() {
		t.Error("single-client runs with the same seed differ")
	}
}

func TestBypassOnlyWorkloadAllProtocols(t *testing.T) {
	for _, p := range []core.ProtocolKind{core.Semantic, core.TwoPLObject, core.TwoPLPage} {
		m, err := Run(Config{Options: oodb.Options{Protocol: p}, Items: 2, Clients: 4, TxPerClient: 30, Seed: 3,
			Mix: BypassOnlyMix(), Validate: true})
		if err != nil {
			t.Fatalf("%s: %v", p, err)
		}
		if m.Committed != 120 {
			t.Errorf("%s: committed = %d, want 120", p, m.Committed)
		}
	}
}
