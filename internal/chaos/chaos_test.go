package chaos

import (
	"flag"
	"reflect"
	"strings"
	"testing"
)

var (
	flagActions = flag.Int("chaos.actions", 200, "actions per chaos run")
	flagSeed    = flag.Int64("chaos.seed", 42, "seed for the main chaos run")
)

// TestChaosOracle is the package's front door:
//
//	go test ./internal/chaos -chaos.actions=500 -chaos.seed=42
//
// A failure prints the seed; rerunning with that seed reproduces the
// run byte-for-byte (same trace hash, same durable images).
func TestChaosOracle(t *testing.T) {
	rep, err := Run(Config{Seed: *flagSeed, Actions: *flagActions})
	if err != nil {
		t.Fatalf("chaos run: %v", err)
	}
	t.Logf("seed=%d actions=%d kills=%d committed=%d aborted=%d crashAborted=%d blocks=%d forced=%d stock=%d trace=%016x",
		rep.Seed, rep.Actions, rep.Kills, rep.Committed, rep.Aborted, rep.CrashAborted,
		rep.Blocks, rep.ForcedCommits, rep.InsufficientStock, rep.TraceHash)
	for i, e := range rep.Epochs {
		t.Logf("epoch %d: %+v", i, e)
	}
	if rep.Divergence != "" {
		t.Fatalf("oracle divergence: %s", rep.Divergence)
	}
	if *flagActions >= 500 {
		// The acceptance bar: enough kills, all three WAL modes
		// exercised across the epochs, and stock updates actually
		// performed.
		if rep.Kills < 2 {
			t.Fatalf("want >=2 kill-and-recover events, got %d", rep.Kills)
		}
		modes := map[string]bool{}
		for _, e := range rep.Epochs {
			modes[e.Mode] = true
		}
		if len(modes) < 3 {
			t.Fatalf("want all three WAL modes across epochs, got %v", modes)
		}
		if rep.StockOps == 0 {
			t.Fatalf("want stock-counter actions in the mix, got none")
		}
	}
}

// TestChaosSameSeedReproducible pins the reproduction contract: two
// runs of the same seed yield deeply equal reports — same trace hash,
// same epochs (hence byte-identical durable images at every kill),
// same final state.
func TestChaosSameSeedReproducible(t *testing.T) {
	cfg := Config{Seed: 7, Actions: 150}
	a, err := Run(cfg)
	if err != nil {
		t.Fatalf("first run: %v", err)
	}
	b, err := Run(cfg)
	if err != nil {
		t.Fatalf("second run: %v", err)
	}
	if !reflect.DeepEqual(a, b) {
		t.Fatalf("same seed, different reports:\n  a=%+v\n  b=%+v", a, b)
	}
	if a.Divergence != "" {
		t.Fatalf("divergence: %s", a.Divergence)
	}
}

// TestChaosSeedSweep runs a handful of small seeds through the full
// oracle; any failure names the seed that reproduces it.
func TestChaosSeedSweep(t *testing.T) {
	for seed := int64(1); seed <= 6; seed++ {
		rep, err := Run(Config{Seed: seed, Actions: 120})
		if err != nil {
			t.Fatalf("seed %d: %v", seed, err)
		}
		if rep.Divergence != "" {
			t.Fatalf("seed %d: %s", seed, rep.Divergence)
		}
	}
}

// TestChaosInjectedDivergence proves the oracle is live: with the
// deliberate mid-run store corruption enabled it must report a
// divergence, the report must name the seed, and the reported
// divergence must be identical on a rerun (the reproduction promise
// is exactly what makes a chaos failure debuggable).
func TestChaosInjectedDivergence(t *testing.T) {
	cfg := Config{Seed: 11, Actions: 150, Inject: true}
	rep, err := Run(cfg)
	if err != nil {
		t.Fatalf("injected run: %v", err)
	}
	if rep.Divergence == "" {
		t.Fatalf("injected fault not detected; report: %+v", rep)
	}
	if !strings.Contains(rep.Divergence, "seed 11") {
		t.Fatalf("divergence does not name its seed: %s", rep.Divergence)
	}
	again, err := Run(cfg)
	if err != nil {
		t.Fatalf("injected rerun: %v", err)
	}
	if again.Divergence != rep.Divergence {
		t.Fatalf("divergence not reproducible:\n  first  %s\n  second %s", rep.Divergence, again.Divergence)
	}
	t.Logf("caught: %s", rep.Divergence)
}
