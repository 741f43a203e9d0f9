package main

import (
	"fmt"
	"time"
)

// kind is one generated call: the five transaction types of the paper's
// §2.3 plus NewOrder and the two stock-counter transactions.
type kind uint8

const (
	kT1 kind = iota
	kT2
	kT3
	kT4
	kT5
	kNewOrder
	kDebit
	kCredit
	numKinds
)

var kindNames = [numKinds]string{"T1", "T2", "T3", "T4", "T5", "NewOrder", "Debit", "Credit"}

func (k kind) String() string { return kindNames[k] }

// mix is a weighted transaction mix, indexed by kind.
type mix [numKinds]int

// The order-entry mixes. standardMix and readHeavyMix carry the weights
// of workload.StandardMix and workload.ReadHeavyMix; staticMix is the
// benchmark's own: no T1 and no NewOrder, so nothing ships and no order
// is created, and the first and the last root of a run cost the same.
// Seven in ten of its roots are stock-counter updates, which under the
// static regime conflict with everything else on their item: they are
// what makes the workload wait for locks.
var (
	standardMix  = mix{kT1: 25, kT2: 25, kT3: 15, kT4: 15, kT5: 10, kNewOrder: 10}
	readHeavyMix = mix{kT1: 10, kT2: 10, kT3: 30, kT4: 30, kT5: 20}
	staticMix    = mix{kT2: 10, kT3: 5, kT4: 5, kT5: 10, kDebit: 50, kCredit: 20}
)

// spec fixes everything about one workload except the seed.
type spec struct {
	name string
	why  string
	mix  mix
	// zipfS > 1 skews item picks; 0 is uniform.
	zipfS float64
	// nodes 0 is the direct engine; N ≥ 1 an N-node cluster behind the
	// two-phase-commit coordinator.
	nodes int
	// parked selects the 1 ms parked group-commit device; false is free
	// flushes.
	parked     bool
	poolFrames int
	clients    int
	// warmup and traced are root counts: the warm-up brings every
	// workload to the same state, and the traced phase keeps whole span
	// trees in memory, so both are sized in roots, not seconds.
	warmup int
	traced int
	// crash is the root count of the epoch that ends in the simulated
	// crash.
	crash int
}

// Population and limits shared by every workload.
const (
	fullItems     = 4096
	fullOrders    = 40
	quickItems    = 256
	quickOrders   = 8
	initialQOH    = 1 << 30
	segments      = 7
	retryBudget   = 50
	setupRepeats  = 3
	quickRoots    = 500 // the one measured segment of a -quick run
	flushDelay    = time.Millisecond
	detectorEvery = 2 * time.Millisecond
)

var specs = []spec{
	{
		name: "std-direct",
		why:  "paper mix, uniform items, direct engine, free flushes, data fits the pool: CPU-bound grant path, method bodies, store and WAL encode",
		mix:  standardMix, poolFrames: 8192, clients: 2, warmup: 8000, traced: 8000, crash: 1000,
	},
	{
		name: "hot-durable",
		why:  "stock-counter mix on a static population, Zipf 1.5 items, 1 ms parked group-commit device, 4 clients: lock wait/wake path and WAL submit-to-durable dominate",
		mix:  staticMix, zipfS: 1.5, parked: true, poolFrames: 8192, clients: 4, warmup: 1000, traced: 2000, crash: 400,
	},
	{
		name: "cluster-2pc",
		why:  "paper mix on two nodes with a parked journal each: transport hops, eager begin and serial prepare/decide fan-out, the only workload inside dist",
		mix:  standardMix, nodes: 2, parked: true, poolFrames: 8192, clients: 4, warmup: 1000, traced: 1500, crash: 400,
	},
	{
		name: "read-scan",
		why:  "read-heavy mix with T5 scans, free flushes, buffer pool smaller than the data: page faults, SetScan and many locks per root",
		mix:  readHeavyMix, poolFrames: 128, clients: 2, warmup: 8000, traced: 8000, crash: 1000,
	},
}

func specByName(name string) (spec, error) {
	for _, s := range specs {
		if s.name == name {
			return s, nil
		}
	}
	return spec{}, fmt.Errorf("unknown workload %q", name)
}

// quick shrinks a spec's phases to the smoke-test size.
func (s spec) quick() spec {
	s.warmup, s.traced, s.crash = 100, 300, 100
	return s
}
