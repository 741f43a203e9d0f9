// Package chaos is a deterministic chaos oracle for the semantic
// concurrency control engine.
//
// A seeded generator produces hundreds of randomized actions — method
// invocations across concurrent open-nested transactions, bypass
// Get/Put/Scan, voluntary aborts — executed against the real engine
// through a deterministic driver (driver.go), under buffer-pool
// pressure, with seeded kill-and-recover events that snapshot the
// WAL's durable image mid-run, rebuild via UnmarshalDurable +
// wal.Recover, and continue, rotating the journal through all three
// durability modes across epochs. The run's outcome is then compared
// with a serial execution of the committed transactions in commit
// order (internal/serial.ReplayOrder): under the paper's protocol —
// strict semantic two-phase locking with retained locks — the commit
// order is a witnessing serial order, so any mismatch of observations
// or final state is an engine bug, not a false alarm. Conservation of
// stock (internal/orderentry.CheckConservationNet, corrected by the
// committed debit/credit net) is additionally checked after every
// recovery.
//
// Everything is derived from Config.Seed: same seed, same actions,
// same interleaving, same kill points, same byte-level durable images,
// same TraceHash. A reported divergence therefore replays exactly by
// rerunning its seed (DESIGN.md §3.12).
package chaos

import (
	"errors"
	"fmt"
)

// Config parameterizes one chaos run. The zero value of every field
// selects a sensible default; Seed 0 is a valid seed.
type Config struct {
	// Seed drives every random choice of the run.
	Seed int64
	// Actions is the total number of generated actions (default 200).
	Actions int
	// Roots is the number of concurrently open root transactions the
	// driver maintains (default 4).
	Roots int
	// Kills is the number of kill-and-recover events (default
	// Actions/100; negative forces zero).
	Kills int
	// PoolFrames sizes the buffer pool (default 16 — deliberately
	// tiny, so the run evicts constantly).
	PoolFrames int
	// Nodes selects the topology for the whole run: 0 or 1 is the
	// single-engine driver, N ≥ 2 shards the database over N engine
	// nodes behind the in-process transport with every root a
	// two-phase-commit coordinator transaction. Ownership is fixed at
	// population time, so the node count cannot rotate mid-run;
	// instead each kill takes down a single node, rotating the victim
	// across kills, and recovers it from its own journal while the
	// rest of the cluster keeps running.
	Nodes int
	// Inject enables the deliberate fault: mid-run, an item's
	// quantity-on-hand atom is corrupted by a non-transactional store
	// write. The oracle must report a divergence naming the seed.
	Inject bool
}

func (c Config) withDefaults() Config {
	if c.Actions <= 0 {
		c.Actions = 200
	}
	if c.Roots <= 0 {
		c.Roots = 4
	}
	if c.Kills == 0 {
		c.Kills = c.Actions / 100
	}
	if c.Kills < 0 {
		c.Kills = 0
	}
	if c.PoolFrames <= 0 {
		c.PoolFrames = 16
	}
	if c.Nodes < 2 {
		c.Nodes = 1
	}
	return c
}

// Epoch describes one inter-crash interval of the run.
type Epoch struct {
	// Mode is the WAL durability mode the epoch ran under.
	Mode string
	// MaxBatch is the group-commit batch cap used.
	MaxBatch int
	// Records is the journal record count that survived the epoch's
	// terminating crash (the consistent cut); for the final epoch it
	// is the journal length at the end of the run.
	Records int
	// DroppedCommits is how many root-commit records the crash cut
	// off the durable tail (those roots recover as losers and are
	// compensated).
	DroppedCommits int
	// TornBytes is the length of the torn partial frame appended past
	// the cut (recovery must tolerate it).
	TornBytes int
	// Losers is how many in-flight roots the epoch's recovery rolled
	// back. Zero for the final epoch (no terminating crash).
	Losers int

	// The Obs* fields are the per-epoch deltas of the cluster
	// coordinator's observability counters (dist.DistStats), recorded on
	// multi-node runs only — all zero on a single engine, where no
	// coordinator exists. The driver asserts they reconcile with its own
	// event counts (metrics that lie under crashes are worse than no
	// metrics), and since the schedule is deterministic they are part of
	// the reproducible Report.
	ObsCommits        int
	ObsAborts         int
	ObsRecoveries     int
	ObsInDoubtCommits int
	ObsInDoubtAborts  int
}

// Report is the outcome of a chaos run. Every field is a pure
// function of the Config: two runs with equal Configs produce
// reflect.DeepEqual Reports.
type Report struct {
	Seed    int64
	Actions int
	// Kills is the number of kill-and-recover events performed.
	Kills int
	// Epochs has one entry per inter-crash interval (Kills+1 when the
	// run completes).
	Epochs []Epoch
	// Committed counts roots whose commit survived (including
	// force-committed ones); Aborted counts voluntary aborts;
	// CrashAborted counts roots undone by a crash — open at the kill
	// or with their commit record cut off.
	Committed, Aborted, CrashAborted int
	// Blocks / ForcedCommits / Wakes count the driver's conflict
	// resolutions: each block parks one root, force-commits its
	// holders, and wakes the parked root.
	Blocks, ForcedCommits, Wakes int
	// InsufficientStock counts ship/debit actions that hit the
	// quantity-on-hand floor: expected, replayed observations.
	InsufficientStock int
	// StockOps counts successful DebitStock/CreditStock actions.
	StockOps int
	// TraceHash fingerprints the full execution trace, including the
	// byte-level durable image at every kill: equal seeds must give
	// equal hashes.
	TraceHash uint64
	// FinalState is the canonical database state at the end of the
	// run (orderentry.CanonicalState encoding).
	FinalState string
	// Divergence is empty when the run passed the oracle; otherwise a
	// description of the first divergence, embedding the seed that
	// reproduces it.
	Divergence string
}

// failure aborts a run from anywhere on the driver goroutine; Run
// recovers it into an error.
type failure struct {
	msg string
}

// Run executes one chaos run. An error means the harness itself broke
// (a hung step, an unexpected engine error); a Divergence in the
// Report means the oracle caught the engine misbehaving.
func Run(cfg Config) (rep *Report, err error) {
	cfg = cfg.withDefaults()
	d := newDriver(cfg)
	defer func() {
		if p := recover(); p != nil {
			f, ok := p.(failure)
			if !ok {
				panic(p)
			}
			err = errors.New(f.msg)
		}
	}()
	d.run()
	if err := d.oracle(); err != nil {
		return d.report, fmt.Errorf("chaos seed %d: oracle replay: %w", cfg.Seed, err)
	}
	return d.report, nil
}
