// The -wal durability-mode ablation axis and experiment E7: the
// group-commit study of the journal. The axis switches the mode of the
// one journal under an otherwise identical stack — the core.Journal the
// engine's commit path blocks on — so the sweep isolates what the durability
// discipline itself costs: per-commit flushes (sync), batched flushes
// with commits parked until their batch is durable (group), and
// acknowledge-before-flush (async, the upper bound a journal-less run
// approximates).
package harness

import (
	"encoding/json"
	"fmt"
	"time"

	"semcc/internal/wal"
	"semcc/internal/workload"
)

// WALPoint is one measured configuration of the E7 durability sweep —
// the JSON shape checked in as BENCH_6.json.
type WALPoint struct {
	// Mode is the -wal spelling: none, sync, group or async.
	Mode string `json:"mode"`
	Mix  string `json:"mix"`
	// MaxBatch/MaxDelayUS are the group-commit knobs (absent for
	// none/sync); FlushDelayUS is the simulated per-flush device
	// latency (absent in the free-flush sweeps).
	MaxBatch     int   `json:"max_batch,omitempty"`
	MaxDelayUS   int64 `json:"max_delay_us,omitempty"`
	FlushDelayUS int64 `json:"flush_delay_us,omitempty"`
	MPL          int   `json:"mpl"`
	TxPer        int   `json:"tx_per_client"`

	Throughput float64 `json:"tps"`
	Committed  uint64  `json:"commits"`
	P50Ms      float64 `json:"p50_ms"`
	P99Ms      float64 `json:"p99_ms"`

	// Journal-side accounting, taken before Close so the achieved
	// batching of the run itself is visible: RecsPerFlush is the mean
	// batch size the writer actually reached under this load.
	WALRecords   int     `json:"wal_records,omitempty"`
	WALFlushes   uint64  `json:"wal_flushes,omitempty"`
	RecsPerFlush float64 `json:"recs_per_flush,omitempty"`
	DurableKB    float64 `json:"wal_durable_kb,omitempty"`
}

// runWALPoint measures one workload configuration against one journal
// configuration (nil = no journal).
func runWALPoint(cfg Base, jcfg *wal.Config) (WALPoint, error) {
	pt := WALPoint{Mode: "none", MPL: cfg.Clients, TxPer: cfg.TxPerClient}
	var j wal.Journal
	if jcfg != nil {
		j = wal.New(*jcfg)
		defer j.Close()
		cfg.Journal = j
		pt.Mode = jcfg.Mode.String()
		pt.FlushDelayUS = jcfg.FlushDelay.Microseconds()
		if jcfg.Mode != wal.ModeSync {
			pt.MaxBatch, pt.MaxDelayUS = jcfg.MaxBatch, jcfg.MaxDelay.Microseconds()
			if pt.MaxBatch == 0 {
				pt.MaxBatch = wal.DefaultMaxBatch
			}
			if pt.MaxDelayUS == 0 {
				pt.MaxDelayUS = wal.DefaultMaxDelay.Microseconds()
			}
		}
	}
	m, err := runPoint(cfg)
	if err != nil {
		return pt, err
	}
	pt.Throughput = m.Throughput
	pt.Committed = m.Committed
	pt.P50Ms = float64(m.P50Ns) / 1e6
	pt.P99Ms = float64(m.P99Ns) / 1e6
	if j != nil {
		st := j.Stats()
		pt.WALRecords, pt.WALFlushes = st.Records, st.Flushes
		if st.Flushes > 0 {
			pt.RecsPerFlush = float64(st.Durable) / float64(st.Flushes)
		}
		pt.DurableKB = float64(len(j.DurableBytes())) / 1024
	}
	return pt, nil
}

// walLatencyStr renders the point's p50/p99 like Metrics.LatencyStr.
func walLatencyStr(pt WALPoint) string {
	if pt.P50Ms == 0 && pt.P99Ms == 0 {
		return "-"
	}
	return fmt.Sprintf("%.2g/%.2g", pt.P50Ms, pt.P99Ms)
}

func walCells(pt WALPoint) []string {
	return []string{
		f0(pt.Throughput),
		d(int(pt.Committed)),
		walLatencyStr(pt),
		d(pt.WALRecords),
		d(int(pt.WALFlushes)),
		f1(pt.RecsPerFlush),
		f1(pt.DurableKB),
	}
}

var walHeader = []string{"tps", "commits", "p50/p99(ms)", "walrecs", "flushes", "recs/flush", "durableKB"}

// walDeviceDelay is the simulated stable-storage flush latency of the
// E7 device sweep — the fixed cost an fsync charges regardless of how
// many records ride in it, i.e. what group commit amortises. The
// free-flush sweeps (delay 0) isolate the pipeline's own overhead.
const walDeviceDelay = 20 * time.Microsecond

// WALSweep runs the E7 parameter sweeps and returns the measured
// points: the durability-mode × mix grid and the group-commit
// MaxBatch sweep with free flushes, plus the device sweep, which
// charges walDeviceDelay per flush (update-only mix only — its ~55
// journal records per commit keep the sync baseline's per-record
// device serialization bounded). All run the semantic protocol at the
// contended E1-style operating point (items=4, MPL=16), where many
// roots race into Commit and group commit has batches to coalesce.
func WALSweep(base Base, quick bool) (modes, batches, device []WALPoint, err error) {
	// E7 owns the journal axis: a -wal selection must not stack a
	// second journal under the none row.
	base.WAL = nil

	txPer := 300
	mixes := []struct {
		name string
		mix  workload.Mix
	}{
		{"standard", workload.StandardMix()},
		{"update-only", workload.UpdateOnlyMix()},
		{"read-heavy", workload.ReadHeavyMix()},
	}
	batchSizes := []int{1, 8, 64, 256}
	if quick {
		txPer = 100
		mixes = mixes[:2]
		batchSizes = []int{8, 64}
	}
	jcfgs := []*wal.Config{
		nil,
		{Mode: wal.ModeSync},
		{Mode: wal.ModeGroup},
		{Mode: wal.ModeAsync},
	}
	point := func(mix workload.Mix) Base {
		cfg := base.point(perfProtocols[0], 4, 16, txPer)
		cfg.Mix = mix
		return cfg
	}
	for _, mx := range mixes {
		for _, jcfg := range jcfgs {
			pt, err := runWALPoint(point(mx.mix), jcfg)
			pt.Mix = mx.name
			if err != nil {
				return nil, nil, nil, fmt.Errorf("E7 %s %s: %w", pt.Mode, mx.name, err)
			}
			modes = append(modes, pt)
		}
	}
	for _, mb := range batchSizes {
		pt, err := runWALPoint(point(workload.UpdateOnlyMix()),
			&wal.Config{Mode: wal.ModeGroup, MaxBatch: mb})
		pt.Mix = "update-only"
		if err != nil {
			return nil, nil, nil, fmt.Errorf("E7 group maxbatch=%d: %w", mb, err)
		}
		batches = append(batches, pt)
	}

	devTxPer := 150
	if quick {
		devTxPer = 50
	}
	for _, jcfg := range []*wal.Config{
		{Mode: wal.ModeSync, FlushDelay: walDeviceDelay},
		{Mode: wal.ModeGroup, FlushDelay: walDeviceDelay},
		{Mode: wal.ModeAsync, FlushDelay: walDeviceDelay},
	} {
		cfg := point(workload.UpdateOnlyMix())
		cfg.TxPerClient = devTxPer
		pt, err := runWALPoint(cfg, jcfg)
		pt.Mix = "update-only"
		if err != nil {
			return nil, nil, nil, fmt.Errorf("E7 device %s: %w", pt.Mode, err)
		}
		device = append(device, pt)
	}
	return modes, batches, device, nil
}

// walSweepDoc is the BENCH_6.json document.
type walSweepDoc struct {
	Experiment  string     `json:"experiment"`
	Title       string     `json:"title"`
	Notes       string     `json:"notes"`
	ModeSweep   []WALPoint `json:"mode_sweep"`
	BatchSweep  []WALPoint `json:"batch_sweep"`
	DeviceSweep []WALPoint `json:"device_sweep"`
}

// WALSweepJSON runs the E7 sweeps and renders them as the BENCH_6.json
// document (semcc-bench -exp E7 -json).
func WALSweepJSON(base Base, quick bool) ([]byte, error) {
	modes, batches, device, err := WALSweep(base, quick)
	if err != nil {
		return nil, err
	}
	return json.MarshalIndent(walSweepDoc{
		Experiment: "E7",
		Title:      "journal durability modes (semantic protocol, items=4, MPL=16)",
		Notes: "none = no journal; sync = one flush per record on the commit path; " +
			"group = batched flushes, commits park until durable; async = ack before flush. " +
			"mode_sweep/batch_sweep flush for free (pipeline overhead only); device_sweep " +
			"charges flush_delay_us of simulated device latency per flush, which is the " +
			"regime group commit exists for.",
		ModeSweep:   modes,
		BatchSweep:  batches,
		DeviceSweep: device,
	}, "", "  ")
}

func init() {
	Register(&Experiment{
		ID:    "E7",
		Title: "Journal durability modes: sync vs group-commit vs async",
		Run: func(base Base, quick bool) ([]*Table, error) {
			modes, batches, device, err := WALSweep(base, quick)
			if err != nil {
				return nil, err
			}
			t1 := &Table{
				ID:     "E7",
				Title:  "throughput vs durability mode (semantic, items=4, MPL=16)",
				Notes:  "sync pays one flush per journal record on the commit path; group commit\ncoalesces racing commits into shared batch flushes (recs/flush > 1) and\nshould recover most of the gap to the no-journal and async upper bounds.",
				Header: append([]string{"wal", "mix"}, walHeader...),
			}
			for _, pt := range modes {
				t1.AddRow(append([]string{pt.Mode, pt.Mix}, walCells(pt)...)...)
			}
			t2 := &Table{
				ID:     "E7b",
				Title:  "group commit vs MaxBatch (update-only mix)",
				Notes:  "MaxBatch=1 degenerates to per-record flushes with pipeline overhead;\nlarger caps let the writer absorb bursts (the default is 64).",
				Header: append([]string{"maxbatch", "mix"}, walHeader...),
			}
			for _, pt := range batches {
				t2.AddRow(append([]string{d(pt.MaxBatch), pt.Mix}, walCells(pt)...)...)
			}
			t3 := &Table{
				ID:     "E7c",
				Title:  fmt.Sprintf("durability modes on a %v-per-flush device (update-only mix)", walDeviceDelay),
				Notes:  "With a fixed device cost per flush the sync baseline serialises every\njournal record on the device; group commit amortises it across the batch\nand should close most of the gap to async.",
				Header: append([]string{"wal", "mix"}, walHeader...),
			}
			for _, pt := range device {
				t3.AddRow(append([]string{pt.Mode, pt.Mix}, walCells(pt)...)...)
			}
			return []*Table{t1, t2, t3}, nil
		},
	})
}
