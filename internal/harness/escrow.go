// The -compat compatibility-regime axis and experiment E8: the
// state-dependent commutativity study. Like -wal, the axis
// swaps one decision procedure under an otherwise identical stack —
// here whether the lock manager consults only the static matrices or
// additionally admits stock-counter updates against per-object escrow
// bounds intervals — so the sweep isolates what state-dependent
// admission buys on hot-spot counters.
package harness

import (
	"encoding/json"
	"fmt"
	"time"

	"semcc/internal/compat"
	"semcc/internal/core"
	"semcc/internal/wal"
	"semcc/internal/workload"
)

// escrowDeviceDelay is the simulated per-flush device latency of the
// E8 group-commit journal, charged as a parked wait (DeviceSleep): the
// committing root holds its locks while its batch is in flight, but
// the CPU is free for concurrent transactions. That lock-hold window
// is what the experiment is about — under the static regime every
// queued stock update on a hot item waits out the holder's full commit
// flush, one transaction per flush, while escrow admission lets all of
// them proceed and share batches. (The parked wait is floored by the
// host timer's granularity, typically ~1ms; both regimes pay the same
// device, so the ratio measures admission, not the device.)
const escrowDeviceDelay = 200 * time.Microsecond

// EscrowPoint is one measured configuration of the E8 compat sweep —
// the JSON shape checked in as BENCH_8.json.
type EscrowPoint struct {
	// Compat is the -compat spelling: static or escrow.
	Compat string  `json:"compat"`
	Mix    string  `json:"mix"`
	ZipfS  float64 `json:"zipf_s,omitempty"`
	Items  int     `json:"items"`
	MPL    int     `json:"mpl"`
	TxPer  int     `json:"tx_per_client"`

	Throughput     float64 `json:"tps"`
	Committed      uint64  `json:"commits"`
	Retries        uint64  `json:"retries"`
	RetryExhausted uint64  `json:"retry_exhausted,omitempty"`
	// BlocksPerTx is the conflict rate: blocked lock requests per
	// committed transaction. The escrow regime should collapse it on
	// counter-heavy mixes.
	BlocksPerTx   float64 `json:"blocks_per_tx"`
	EscrowAdmits  uint64  `json:"escrow_admits"`
	EscrowDenials uint64  `json:"escrow_denials,omitempty"`
	Case1         uint64  `json:"case1"`
	Case2         uint64  `json:"case2"`
	RootWaits     uint64  `json:"rootwaits"`
	Deadlocks     uint64  `json:"deadlocks,omitempty"`
	// CaseMix is the per-case classification share (e/1/2/r, percent).
	CaseMix string  `json:"case_mix"`
	P50Ms   float64 `json:"p50_ms"`
	P99Ms   float64 `json:"p99_ms"`
	// NetStock is the summed committed stock delta of the run's
	// Debit/Credit transactions across all items. Together with the
	// in-run conservation check it fingerprints the final balances:
	// matched static/escrow points must agree (CompatSweep errors out
	// otherwise).
	NetStock int64 `json:"net_stock"`
}

// runEscrowPoint measures one workload configuration under one
// compatibility regime, against the parked-device group-commit journal
// (escrowDeviceDelay) that makes lock-hold time observable.
func runEscrowPoint(cfg Base, mode compat.Mode) (EscrowPoint, error) {
	// E8 owns the compat axis: a -compat selection must not leak under
	// the static rows.
	cfg.Compat = mode
	pt := EscrowPoint{
		Compat: mode.String(), ZipfS: cfg.ZipfS, Items: cfg.Items,
		MPL: cfg.Clients, TxPer: cfg.TxPerClient,
	}
	j := wal.New(wal.Config{Mode: wal.ModeGroup, FlushDelay: escrowDeviceDelay, DeviceSleep: true})
	defer j.Close()
	cfg.Journal = j
	m, err := runPoint(cfg)
	if err != nil {
		return pt, err
	}
	pt.Throughput = m.Throughput
	pt.Committed = m.Committed
	pt.Retries = m.Retries
	pt.RetryExhausted = m.RetryExhausted
	pt.BlocksPerTx = m.BlockRate()
	pt.EscrowAdmits = m.Engine.EscrowAdmits
	pt.EscrowDenials = m.Engine.EscrowDenials
	pt.Case1 = m.Engine.Case1Grants
	pt.Case2 = m.Engine.Case2Waits
	pt.RootWaits = m.Engine.RootWaits
	pt.Deadlocks = m.Engine.Deadlocks
	pt.CaseMix = m.CaseMix()
	pt.P50Ms = float64(m.P50Ns) / 1e6
	pt.P99Ms = float64(m.P99Ns) / 1e6
	for _, net := range m.NetStock {
		pt.NetStock += net
	}
	return pt, nil
}

// runEscrowPair measures one configuration under both regimes. With
// strict set it additionally asserts the cross-mode equivalence the
// escrow design promises: same committed work, same final balances
// (both runs already passed the conservation check individually, so
// equal net stock means equal QOH per item). Strict holds for the
// deadlock-free hot-counter mix, whose per-client RNG streams advance
// identically in both regimes; mixes with deadlock retries re-draw
// picks and may legitimately commit different work.
func runEscrowPair(cfg Base, label string, strict bool) (stat, esc EscrowPoint, err error) {
	if stat, err = runEscrowPoint(cfg, compat.CompatStatic); err != nil {
		return stat, esc, fmt.Errorf("E8 %s static: %w", label, err)
	}
	if esc, err = runEscrowPoint(cfg, compat.CompatEscrow); err != nil {
		return stat, esc, fmt.Errorf("E8 %s escrow: %w", label, err)
	}
	if strict && (stat.Committed != esc.Committed || stat.NetStock != esc.NetStock) {
		return stat, esc, fmt.Errorf(
			"E8 %s: compat modes diverged: static commits=%d net=%d, escrow commits=%d net=%d",
			label, stat.Committed, stat.NetStock, esc.Committed, esc.NetStock)
	}
	return stat, esc, nil
}

// CompatSweep runs the E8 parameter sweeps and returns the measured
// points: the regime × mix grid at the hot-spot operating point, the
// Zipf skew sweep (where the headline ≥2× hot-counter claim lives at
// s=1.4), and the MPL sweep. All run the semantic protocol — escrow
// admission is a refinement of the semantic lock manager's
// compatibility test; the conventional protocols never consult it.
func CompatSweep(base Base, quick bool) (mixes, zipf, mpl []EscrowPoint, err error) {
	txPer := 400
	mixList := []struct {
		name string
		mix  workload.Mix
	}{
		{"hot-counter", workload.HotCounterMix()},
		{"inventory", workload.InventoryMix()},
	}
	zipfS := []float64{0, 1.1, 1.4, 1.8}
	mpls := []int{4, 8, 16, 32}
	if quick {
		txPer = 100
		mixList = mixList[:1]
		zipfS = []float64{1.4}
		mpls = []int{8}
	}
	point := func(mix workload.Mix, s float64, clients int) Base {
		cfg := base.point(core.Semantic, 32, clients, txPer)
		cfg.Mix, cfg.ZipfS = mix, s
		return cfg
	}
	for _, mx := range mixList {
		s, e, err := runEscrowPair(point(mx.mix, 1.4, 16), mx.name, mx.name == "hot-counter")
		if err != nil {
			return nil, nil, nil, err
		}
		s.Mix, e.Mix = mx.name, mx.name
		mixes = append(mixes, s, e)
	}
	for _, s := range zipfS {
		st, e, err := runEscrowPair(point(workload.HotCounterMix(), s, 16), fmt.Sprintf("zipf=%.1f", s), true)
		if err != nil {
			return nil, nil, nil, err
		}
		st.Mix, e.Mix = "hot-counter", "hot-counter"
		zipf = append(zipf, st, e)
	}
	for _, m := range mpls {
		st, e, err := runEscrowPair(point(workload.HotCounterMix(), 1.4, m), fmt.Sprintf("mpl=%d", m), true)
		if err != nil {
			return nil, nil, nil, err
		}
		st.Mix, e.Mix = "hot-counter", "hot-counter"
		mpl = append(mpl, st, e)
	}
	return mixes, zipf, mpl, nil
}

// escrowSweepDoc is the BENCH_8.json document.
type escrowSweepDoc struct {
	Experiment string        `json:"experiment"`
	Title      string        `json:"title"`
	Notes      string        `json:"notes"`
	MixSweep   []EscrowPoint `json:"mix_sweep"`
	ZipfSweep  []EscrowPoint `json:"zipf_sweep"`
	MPLSweep   []EscrowPoint `json:"mpl_sweep"`
}

// CompatSweepJSON runs the E8 sweeps and renders them as the
// BENCH_8.json document (semcc-bench -exp E8 -json).
func CompatSweepJSON(base Base, quick bool) ([]byte, error) {
	mixes, zipf, mpl, err := CompatSweep(base, quick)
	if err != nil {
		return nil, err
	}
	return json.MarshalIndent(escrowSweepDoc{
		Experiment: "E8",
		Title:      "static vs escrow compatibility regime (semantic protocol, items=32)",
		Notes: "static = matrix-only admission, every stock-counter pair on one item " +
			"conflicts; escrow = state-dependent admission against per-object bounds " +
			"intervals. Matched point pairs are asserted to commit the same work with " +
			"identical final balances; the headline claim is the hot-counter tps ratio " +
			"at zipf s=1.4, MPL=16.",
		MixSweep:  mixes,
		ZipfSweep: zipf,
		MPLSweep:  mpl,
	}, "", "  ")
}

func escrowCells(pt EscrowPoint) []string {
	return []string{
		f0(pt.Throughput),
		d(pt.Committed),
		d(pt.Retries),
		fmt.Sprintf("%.2f", pt.BlocksPerTx),
		d(pt.EscrowAdmits),
		d(pt.RootWaits),
		pt.CaseMix,
		d(pt.NetStock),
	}
}

var escrowHeader = []string{"tps", "commits", "retries", "blocks/tx", "escrow", "rootwaits", workload.CaseMixHeader(), "netstock"}

func init() {
	Register(&Experiment{
		ID:    "E8",
		Title: "State-dependent commutativity: static vs escrow compat regime",
		Run: func(base Base, quick bool) ([]*Table, error) {
			mixes, zipf, mpl, err := CompatSweep(base, quick)
			if err != nil {
				return nil, err
			}
			t1 := &Table{
				ID:     "E8",
				Title:  "compat regime vs mix (semantic, items=32, MPL=16, zipf s=1.4)",
				Notes:  "Static admission serialises every stock-counter pair on a hot item for\nthe whole root transaction; escrow admission grants them together while\nthe deltas fit the QOH interval, so conflicts collapse to escrow-admits.",
				Header: append([]string{"compat", "mix"}, escrowHeader...),
			}
			for _, pt := range mixes {
				t1.AddRow(append([]string{pt.Compat, pt.Mix}, escrowCells(pt)...)...)
			}
			t2 := &Table{
				ID:     "E8b",
				Title:  "compat regime vs Zipf skew (hot-counter mix, MPL=16)",
				Notes:  "Skew concentrates counter updates on few items; the static regime's\nhot-spot serialisation worsens with s while escrow stays flat.",
				Header: append([]string{"compat", "zipf"}, escrowHeader...),
			}
			for _, pt := range zipf {
				t2.AddRow(append([]string{pt.Compat, fmt.Sprintf("%.1f", pt.ZipfS)}, escrowCells(pt)...)...)
			}
			t3 := &Table{
				ID:     "E8c",
				Title:  "compat regime vs MPL (hot-counter mix, zipf s=1.4)",
				Notes:  "More clients pile onto the hot counters: the static regime saturates\nat the serialisation bound while escrow scales with the client count.",
				Header: append([]string{"compat", "mpl"}, escrowHeader...),
			}
			for _, pt := range mpl {
				t3.AddRow(append([]string{pt.Compat, d(pt.MPL)}, escrowCells(pt)...)...)
			}
			return []*Table{t1, t2, t3}, nil
		},
	})
}
