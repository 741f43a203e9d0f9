package main

import (
	"encoding/json"
	"fmt"
	"io"
	"math"

	"semcc/internal/dist"
)

// metricDef names one metric. BENCHMARK.json lists the same names,
// units, directions and bounds; TestBenchmarkJSONMatches pins the two
// together.
type metricDef struct {
	name, unit string
	// higher is true when a larger value is better.
	higher bool
	// bound is the share of the parent's median by which an end-to-end
	// metric may get worse (0 for per-layer metrics, which have none).
	bound float64
}

// endToEnd are the metrics a user of the engine sees. The wall-clock
// ones carry this box's noise floor as their bound: the engine walks a
// 200 MB heap, and what the machine's other tenants do to memory latency
// moves its speed by up to a quarter for minutes at a time (README.md has
// the A/A runs). The counts repeat within a few tenths of a percent.
// Deliberately not here: p95 and p99, CPU time, flushes per root and the
// recovery timing — noisier still (the p95 of the CPU-bound workloads
// spread 16–38% over ten runs), or a trade a latency change may
// legitimately make; they are per-layer metrics below.
var endToEnd = []metricDef{
	{"roots_per_s", "1/s", true, 0.25},
	{"root_p50_us", "us", false, 0.25},
	{"allocs_per_root", "count", false, 0.02},
	{"alloc_bytes_per_root", "B", false, 0.02},
	{"journal_bytes_per_root", "B", false, 0.02},
	{"live_heap_mb", "MB", false, 0.03},
	{"setup_s", "s", false, 0.25},
}

// distHopOps are the transport ops a root's own work causes (the
// detector's edges/victim hops are not per-root work).
var distHopOps = []dist.OpKind{dist.OpBegin, dist.OpInvoke, dist.OpScan, dist.OpPrepare, dist.OpDecide, dist.OpCommit, dist.OpAbort}

// perLayer are the metrics of single layers, named layer.metric after
// the module that does the work.
var perLayer = func() []metricDef {
	lower := func(name, unit string) metricDef { return metricDef{name: name, unit: unit} }
	defs := []metricDef{
		lower("workload.root_p95_us", "us"),
		lower("workload.root_p99_us", "us"),
	}
	for _, k := range kindNames {
		defs = append(defs, lower("workload.kind_p50_us."+k, "us"))
	}
	defs = append(defs,
		lower("workload.retries_per_root", "count"),
		lower("workload.cpu_us_per_root", "us"),
		lower("workload.cpu_cores_busy", "count"),
		lower("workload.gc_cycles", "count"),
		lower("workload.gc_pause_ms", "ms"),
		lower("workload.warmup_s", "s"),
		lower("workload.trace.overhead_pct", "%"),
		metricDef{name: "workload.trace.span_coverage", unit: "ratio", higher: true},

		lower("core.lock_requests_per_root", "count"),
		lower("core.subtx_per_root", "count"),
		lower("core.retains_per_root", "count"),
		lower("core.blocks_per_root", "count"),
		lower("core.lock_wait_us_per_root", "us"),
		metricDef{name: "core.case1_grants_per_kroot", unit: "count", higher: true},
		lower("core.case2_waits_per_kroot", "count"),
		lower("core.root_waits_per_kroot", "count"),
		metricDef{name: "core.escrow_admits_per_kroot", unit: "count", higher: true},
		lower("core.escrow_denials_per_kroot", "count"),
		lower("core.deadlocks_per_kroot", "count"),
		lower("core.compensations_per_kroot", "count"),
		lower("core.wait_us_per_root.case2", "us"),
		lower("core.wait_us_per_root.root", "us"),
		lower("core.wait_us_per_root.other", "us"),

		lower("oodb.begin_us_per_root", "us"),
		lower("oodb.call_us_per_root", "us"),
		lower("oodb.calls_per_root", "count"),
		lower("oodb.commit_us_per_root", "us"),
		lower("oodb.abort_us_per_root", "us"),
		lower("oodb.call_self_us_per_root", "us"),

		lower("wal.records_per_root", "count"),
		lower("wal.flushes_per_root", "count"),
		metricDef{name: "wal.records_per_flush", unit: "count", higher: true},
		lower("wal.append_us_per_root", "us"),
		lower("wal.ack_wait_p50_us", "us"),
		lower("wal.flush_p50_us", "us"),
		lower("wal.recover_us_per_root", "us"),
		lower("wal.recover_decode_s", "s"),
		lower("wal.recover_analyze_s", "s"),
		lower("wal.recover_undo_ms", "ms"),
		metricDef{name: "wal.recover_records_per_s", unit: "1/s", higher: true},

		lower("storage.fetches_per_root", "count"),
		metricDef{name: "storage.hit_rate", unit: "ratio", higher: true},
		lower("storage.misses_per_root", "count"),
		lower("storage.evictions_per_root", "count"),
		lower("storage.fault_us_per_root", "us"),

		lower("objstore.ops_per_root", "count"),
		lower("objstore.op_us_per_root", "us"),
		lower("objstore.scan_p50_us", "us"),
	)
	// dist.* are 0 on the three direct workloads, which never enter
	// internal/dist.
	for _, op := range distHopOps {
		defs = append(defs, lower("dist.hops_per_root."+op.String(), "count"))
	}
	return append(defs,
		lower("dist.hop_p50_us", "us"),
		lower("dist.begin_us_per_root", "us"),
		lower("dist.prepare_us_per_root", "us"),
		lower("dist.decide_us_per_root", "us"),
		lower("dist.twopc_share", "ratio"),
		lower("dist.cross_deadlocks_per_kroot", "count"),
	)
}()

// values maps metric names to measured values.
type values map[string]float64

// report is one run's outcome.
type report struct {
	attempted, failed uint64
	e2e, layer        values // layer is nil when the run was not traced
}

// complete reports the first metric of defs that vs lacks or holds as
// NaN or ±Inf.
func complete(defs []metricDef, vs values) error {
	for _, d := range defs {
		v, ok := vs[d.name]
		if !ok {
			return fmt.Errorf("metric %s was not measured", d.name)
		}
		if math.IsNaN(v) || math.IsInf(v, 0) {
			return fmt.Errorf("metric %s is %v", d.name, v)
		}
	}
	return nil
}

// printText lists every metric by name with its unit.
func printText(w io.Writer, defs []metricDef, vs values) {
	for _, d := range defs {
		fmt.Fprintf(w, "%-40s %16.4f %s\n", d.name, vs[d.name], d.unit)
	}
}

// resultLine renders the contract's last line of standard output.
func resultLine(attempted, failed uint64, defs []metricDef, vs values) ([]byte, error) {
	type mv struct {
		Value float64 `json:"value"`
		Unit  string  `json:"unit"`
	}
	out := struct {
		Correct   bool          `json:"correct"`
		Attempted uint64        `json:"attempted"`
		Failed    uint64        `json:"failed"`
		Metrics   map[string]mv `json:"metrics"`
	}{Correct: true, Attempted: attempted, Failed: failed, Metrics: make(map[string]mv, len(defs))}
	for _, d := range defs {
		out.Metrics[d.name] = mv{Value: vs[d.name], Unit: d.unit}
	}
	return json.Marshal(out)
}
