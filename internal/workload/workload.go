// Package workload drives the order-entry application with a
// closed-loop multi-client workload: a configurable mix of the paper's
// transaction types T1–T5 plus NewOrder and bypass transactions,
// uniform or Zipfian item selection, deadlock retry, and metrics
// collection. The experiment harness (internal/harness) runs it once
// per protocol and parameter point.
package workload

import (
	"errors"
	"fmt"
	"math"
	"math/rand"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"semcc/internal/core"
	"semcc/internal/dist"
	"semcc/internal/obs"
	"semcc/internal/oodb"
	"semcc/internal/ordercluster"
	"semcc/internal/orderentry"
	"semcc/internal/val"
)

// TxKind enumerates the workload's transaction types.
type TxKind int

const (
	// KindT1 ships two orders for two different items.
	KindT1 TxKind = iota
	// KindT2 pays two orders for two different items.
	KindT2
	// KindT3 checks shipment of two orders (method bypass of Item).
	KindT3
	// KindT4 checks payment of two orders (method bypass of Item).
	KindT4
	// KindT5 computes an item's total payment.
	KindT5
	// KindNewOrder enters one new order.
	KindNewOrder
	// KindBypassRead audits order statuses with raw Gets (pure
	// conventional transaction).
	KindBypassRead
	// KindBypassWrite updates an order's customer number with raw
	// Get+Put (pure conventional transaction).
	KindBypassWrite
	// KindDebit debits one item's stock counter (DebitStock) — the
	// hot-spot transaction whose self-conflicts the escrow compat mode
	// removes.
	KindDebit
	// KindCredit restocks one item (CreditStock).
	KindCredit
	numKinds int = iota
)

// String names the kind.
func (k TxKind) String() string {
	switch k {
	case KindT1:
		return "T1-ship"
	case KindT2:
		return "T2-pay"
	case KindT3:
		return "T3-checkship"
	case KindT4:
		return "T4-checkpay"
	case KindT5:
		return "T5-total"
	case KindNewOrder:
		return "NewOrder"
	case KindBypassRead:
		return "BypassRead"
	case KindBypassWrite:
		return "BypassWrite"
	case KindDebit:
		return "Debit"
	case KindCredit:
		return "Credit"
	default:
		return fmt.Sprintf("kind(%d)", int(k))
	}
}

// Mix is a weighted transaction mix.
type Mix map[TxKind]int

// StandardMix mirrors the paper's scenario: mostly T1/T2 updates with
// status checks and totals.
func StandardMix() Mix {
	return Mix{KindT1: 25, KindT2: 25, KindT3: 15, KindT4: 15, KindT5: 10, KindNewOrder: 10}
}

// ReadHeavyMix emphasises the commuting readers.
func ReadHeavyMix() Mix {
	return Mix{KindT1: 10, KindT2: 10, KindT3: 30, KindT4: 30, KindT5: 20}
}

// UpdateOnlyMix is pure T1/T2.
func UpdateOnlyMix() Mix { return Mix{KindT1: 50, KindT2: 50} }

// BypassOnlyMix contains only conventional (generic-operation)
// transactions — the "special case" claim E4 measures.
func BypassOnlyMix() Mix { return Mix{KindBypassRead: 50, KindBypassWrite: 50} }

// HotCounterMix hammers the items' stock counters: mostly debits with
// some restocking credits. Under the static compat regime every pair
// of updates to one item conflicts; under escrow all of them are
// admitted together as long as the deltas fit the QOH interval — the
// E8 hot-spot experiment.
func HotCounterMix() Mix { return Mix{KindDebit: 90, KindCredit: 10} }

// InventoryMix is an auction/inventory-style workload: inventory
// drains (debits) dominate, restocks trickle in, and readers total the
// item — mixing escrow-admissible counter traffic with statically
// conflicting scans.
func InventoryMix() Mix {
	return Mix{KindDebit: 50, KindCredit: 20, KindT5: 15, KindNewOrder: 15}
}

// Config parameterises one workload run.
type Config struct {
	// Options configure the run's engine — protocol, compatibility
	// regime, E5's NoAncestorRelief, … — and are the one place an
	// engine setting lives: Run opens the direct database, or every
	// node of the cluster, from this value. Two fields are
	// topology-sensitive on a cluster run (Nodes ≥ 1): Journal is
	// ignored (each node needs its own — use NodeJournal; the caller
	// owns every journal's lifecycle and closes group-commit ones after
	// the run), and Obs becomes the COORDINATOR's Obs
	// (cluster.AttachObs: hop/2PC metrics and the distributed span
	// trees land there, nodes get NodeObs). When Obs is enabled, span
	// collection yields the run's latency percentiles
	// (Metrics.P50Ns/P99Ns).
	oodb.Options
	// Nodes selects the topology: 0 (the zero value) runs on one
	// engine with no coordinator — the unchanged direct path; N ≥ 1
	// shards the database over N engine nodes behind the in-process
	// transport and routes every transaction through the
	// two-phase-commit coordinator, with the cross-node deadlock
	// detector running for the duration of the run. Nodes == 1 is the
	// ablation baseline: a one-node cluster takes the identical
	// protocol path as the direct one (the coordinator's
	// single-participant optimisation), so direct-vs-1 measures pure
	// coordinator overhead.
	Nodes int
	// NodeJournal, when set on a multi-node run, supplies node i's
	// journal. The caller owns the journals' lifecycles.
	NodeJournal func(node int) core.Journal
	// Items is the number of items; contention falls as it grows.
	Items int
	// OrdersPerItem sizes each item's pre-created order pool. It must
	// be large enough that T1 never runs out of unshipped orders:
	// ships consume pool entries.
	OrdersPerItem int
	// InitialQOH is each item's starting stock.
	InitialQOH int64
	// Clients is the multiprogramming level (concurrent clients).
	Clients int
	// TxPerClient is the number of transactions each client runs.
	TxPerClient int
	// Mix is the transaction mix (defaults to StandardMix).
	Mix Mix
	// ZipfS > 1 selects Zipfian item skew; 0 selects uniform.
	ZipfS float64
	// Seed seeds the per-run RNG (deterministic picks per client).
	Seed int64
	// MaxRetries bounds deadlock retries per transaction. 0 selects
	// DefaultMaxRetries; NoRetries (or any negative value) disables
	// retrying entirely, which a literal 0 cannot express because the
	// zero value must keep meaning "unset".
	MaxRetries int
	// Validate runs the conservation invariant check after the run.
	Validate bool
	// NodeObs, when set on a multi-node run, supplies node i's engine
	// Obs (per-node lock/WAL/pool metrics, branch spans). Nil entries
	// are fine; cluster.MergedObs unifies the parts.
	NodeObs func(node int) *obs.Obs
}

// DefaultMaxRetries is the retry budget selected by MaxRetries == 0.
const DefaultMaxRetries = 50

// NoRetries disables deadlock retrying (Config.MaxRetries).
const NoRetries = -1

// retryBudget resolves Config.MaxRetries to the effective retry count
// without mutating the config (Metrics.Config keeps the caller's
// value): 0 is unset, negative is NoRetries.
func retryBudget(cfg Config) int {
	switch {
	case cfg.MaxRetries == 0:
		return DefaultMaxRetries
	case cfg.MaxRetries < 0:
		return 0
	}
	return cfg.MaxRetries
}

// Metrics summarises one workload run.
type Metrics struct {
	Config    Config
	Committed uint64
	// Aborted counts transactions that permanently failed on a
	// non-retryable error. Retry-exhausted transactions are counted in
	// RetryExhausted, not here: Committed + Aborted + RetryExhausted
	// covers every transaction the run attempted.
	Aborted uint64
	// RetryExhausted counts transactions whose last error was still
	// retryable (deadlock victim, ship-pool race) when the retry budget
	// ran out.
	RetryExhausted uint64
	// ClientErrors counts the distinct non-retryable client failures of
	// the run — all of them, not just the first (RunOn's error return
	// joins them).
	ClientErrors uint64
	Retries      uint64 // deadlock retries
	Elapsed      time.Duration
	Throughput   float64 // committed transactions per second
	Engine       core.StatsSnapshot
	// P50Ns/P99Ns are root-transaction latency percentiles for this
	// run, from the span recorder's log₂ histogram (delta against the
	// recorder's state before the run, so a shared Obs still yields
	// per-run numbers). Zero when span collection was off.
	P50Ns uint64
	P99Ns uint64
	// NetStock maps ItemNo to the net committed stock delta (credits −
	// debits) the run's Debit/Credit transactions applied. Combined with
	// the conservation check it is a fingerprint of the final balances:
	// two runs with equal NetStock ended with identical QOH per item —
	// the E8 cross-mode equivalence assertion.
	NetStock map[int64]int64
}

// AvgWaitMicros returns the mean blocked time per blocking lock
// request, in microseconds.
func (m Metrics) AvgWaitMicros() float64 {
	if m.Engine.Blocks == 0 {
		return 0
	}
	return float64(m.Engine.WaitNanos) / float64(m.Engine.Blocks) / 1e3
}

// BlockRate returns blocked lock requests per committed transaction.
func (m Metrics) BlockRate() float64 {
	if m.Committed == 0 {
		return 0
	}
	return float64(m.Engine.Blocks) / float64(m.Committed)
}

// LatencyStr renders the run's root-transaction latency percentiles
// as "p50/p99" in milliseconds (e.g. "0.12/1.4"), or "-" when span
// collection was off.
func (m Metrics) LatencyStr() string {
	if m.P50Ns == 0 && m.P99Ns == 0 {
		return "-"
	}
	return fmt.Sprintf("%.2g/%.2g", float64(m.P50Ns)/1e6, float64(m.P99Ns)/1e6)
}

// CaseMix renders the conflict-classification shares as slash-joined
// percentages, one per classification case in CaseShares order
// (escrow-admit/case1/case2/root-wait, e.g. "10/55/20/15"), or "-"
// for a conflict-free run. The columns are not hard-coded: they follow
// core.StatsSnapshot.CaseShares, so a new admission case shows up here
// and in CaseMixHeader without touching the renderers.
func (m Metrics) CaseMix() string {
	shares := m.Engine.CaseShares()
	var total uint64
	for _, cs := range shares {
		total += cs.Count
	}
	if total == 0 {
		return "-"
	}
	parts := make([]string, len(shares))
	for i, cs := range shares {
		parts[i] = fmt.Sprintf("%.0f", cs.Share*100)
	}
	return strings.Join(parts, "/")
}

// CaseMixHeader is the column header matching Metrics.CaseMix, e.g.
// "mix%(e/1/2/r)" — built from the same classification table.
func CaseMixHeader() string {
	shares := core.StatsSnapshot{}.CaseShares()
	shorts := make([]string, len(shares))
	for i, cs := range shares {
		shorts[i] = cs.Short
	}
	return "mix%(" + strings.Join(shorts, "/") + ")"
}

// Run executes the workload and returns its metrics.
func Run(cfg Config) (Metrics, error) {
	if cfg.Mix == nil {
		cfg.Mix = StandardMix()
	}
	if cfg.Items <= 0 {
		cfg.Items = 4
	}
	shipBudget := cfg.Clients*cfg.TxPerClient*2 + cfg.Items // worst case: all T1
	if cfg.OrdersPerItem == 0 {
		cfg.OrdersPerItem = shipBudget/cfg.Items + 2
	}
	if cfg.InitialQOH == 0 {
		cfg.InitialQOH = int64(shipBudget) * 2
	}

	popCfg := orderentry.Config{
		Items:         cfg.Items,
		OrdersPerItem: cfg.OrdersPerItem,
		InitialQOH:    cfg.InitialQOH,
		Price:         10,
		OrderQuantity: 1,
	}

	if cfg.Nodes >= 1 {
		c := dist.OpenCluster(cfg.Nodes, func(i int) oodb.Options {
			opts := cfg.Options
			opts.Journal, opts.Obs = nil, nil
			if cfg.NodeJournal != nil {
				opts.Journal = cfg.NodeJournal(i)
			}
			if cfg.NodeObs != nil {
				opts.Obs = cfg.NodeObs(i)
			}
			return opts
		})
		c.AttachObs(cfg.Obs)
		defer c.Close()
		app, err := ordercluster.Setup(c, popCfg)
		if err != nil {
			return Metrics{}, err
		}
		stop := c.StartDetector(2 * time.Millisecond)
		defer stop()
		return RunOn(app, cfg)
	}

	db := oodb.Open(cfg.Options)
	app, err := orderentry.Setup(db, popCfg)
	if err != nil {
		return Metrics{}, err
	}
	return RunOn(app, cfg)
}

// RunOn executes the workload against an existing app (used by the
// benchmarks to amortise population cost).
func RunOn(app *orderentry.App, cfg Config) (Metrics, error) {
	if cfg.Mix == nil {
		cfg.Mix = StandardMix()
	}
	maxRetries := retryBudget(cfg)
	picker, err := newPicker(app, cfg)
	if err != nil {
		return Metrics{}, err
	}

	var committed, aborted, exhausted, retries atomic.Uint64
	// Latency source: the run's own Obs when set (on a cluster run that
	// is the coordinator, whose spans cover the whole global
	// transaction); otherwise whatever is attached to the app's DB.
	o := cfg.Obs
	if o == nil {
		o = app.DB.Obs()
	}
	latBefore := o.Spans.LatencySnap()
	start := time.Now()
	var wg sync.WaitGroup
	// Every non-retryable client failure is collected (not just the
	// first): multi-client runs fail on several fronts at once, and a
	// single-error report hides all but one of them.
	var errMu sync.Mutex
	var clientErrs []error
	for c := 0; c < cfg.Clients; c++ {
		wg.Add(1)
		go func(client int) {
			defer wg.Done()
			rng := rand.New(rand.NewSource(cfg.Seed + int64(client)*7919))
			for i := 0; i < cfg.TxPerClient; i++ {
				kind := picker.kind(rng)
				var lastErr error
				ok := false
				for attempt := 0; attempt <= maxRetries; attempt++ {
					lastErr = picker.execute(kind, rng)
					if lastErr == nil {
						ok = true
						break
					}
					if !isRetryable(lastErr) {
						break
					}
					// Count only attempts that actually re-run: a
					// retryable failure on the last allowed attempt is
					// exhaustion, not a retry.
					if attempt < maxRetries {
						retries.Add(1)
					}
				}
				switch {
				case ok:
					committed.Add(1)
				case isRetryable(lastErr):
					exhausted.Add(1)
				default:
					aborted.Add(1)
					errMu.Lock()
					clientErrs = append(clientErrs, fmt.Errorf("workload: client %d %s: %w", client, kind, lastErr))
					errMu.Unlock()
				}
			}
		}(c)
	}
	wg.Wait()
	elapsed := time.Since(start)

	m := Metrics{
		Config:         cfg,
		Committed:      committed.Load(),
		Aborted:        aborted.Load(),
		RetryExhausted: exhausted.Load(),
		ClientErrors:   uint64(len(clientErrs)),
		Retries:        retries.Load(),
		Elapsed:        elapsed,
		Engine:         engineStats(app),
		NetStock:       picker.netStockMap(),
	}
	if len(clientErrs) > 0 {
		return m, errors.Join(clientErrs...)
	}
	if elapsed > 0 {
		m.Throughput = float64(m.Committed) / elapsed.Seconds()
	}
	if lat := o.Spans.LatencySnap().Sub(latBefore); lat.Count() > 0 {
		m.P50Ns = lat.Quantile(0.50)
		m.P99Ns = lat.Quantile(0.99)
	}
	if cfg.Validate {
		states, err := app.Snapshot()
		if err != nil {
			return m, err
		}
		if err := orderentry.CheckConservationNet(states, cfg.InitialQOH, picker.netStockMap()); err != nil {
			return m, fmt.Errorf("workload: invariant violated after run: %w", err)
		}
	}
	return m, nil
}

// engineStats returns the run's engine statistics: the single
// engine's snapshot, or the field-wise sum over every node of a
// multi-node front.
func engineStats(app *orderentry.App) core.StatsSnapshot {
	if len(app.Peers) == 0 {
		return app.DB.Engine().Stats()
	}
	var s core.StatsSnapshot
	for _, p := range app.Peers {
		s = s.Add(p.DB.Engine().Stats())
	}
	return s
}

func isRetryable(err error) bool {
	// Deadlock victims retry; a ship that raced out of pool entries
	// retries with a different pick as well.
	return err != nil && (errors.Is(err, core.ErrDeadlock) || errors.Is(err, errPoolExhausted))
}

var errPoolExhausted = errors.New("workload: ship pool exhausted")

// picker pre-resolves the population and picks transaction targets.
type picker struct {
	app   *orderentry.App
	cfg   Config
	kinds []TxKind // cumulative pick table
	// orders[i] is item i+1's pre-created order numbers.
	orders [][]int64
	// nextShip[i] dispenses each item's next unshipped order index, so
	// no order is ever shipped twice (keeps the conservation invariant
	// checkable).
	nextShip []atomic.Int64
	// netStock[i] accumulates item i+1's committed stock delta from
	// Debit/Credit transactions (credits − debits), so the conservation
	// check can account for counter traffic next to shipping.
	netStock []atomic.Int64
	zipf     *zipfTable
}

// netStockMap converts the per-item accumulators to the map
// CheckConservationNet wants.
func (p *picker) netStockMap() map[int64]int64 {
	out := make(map[int64]int64, len(p.netStock))
	for i := range p.netStock {
		out[int64(i+1)] = p.netStock[i].Load()
	}
	return out
}

func newPicker(app *orderentry.App, cfg Config) (*picker, error) {
	p := &picker{app: app, cfg: cfg}
	total := 0
	for k := TxKind(0); int(k) < numKinds; k++ {
		total += cfg.Mix[k]
	}
	if total == 0 {
		return nil, fmt.Errorf("workload: empty mix")
	}
	for k := TxKind(0); int(k) < numKinds; k++ {
		for i := 0; i < cfg.Mix[k]; i++ {
			p.kinds = append(p.kinds, k)
		}
	}
	p.orders = make([][]int64, cfg.Items)
	p.nextShip = make([]atomic.Int64, cfg.Items)
	p.netStock = make([]atomic.Int64, cfg.Items)
	for i := 1; i <= cfg.Items; i++ {
		nos, err := app.OrderNosOf(int64(i))
		if err != nil {
			return nil, err
		}
		p.orders[i-1] = nos
	}
	if cfg.ZipfS > 1 {
		p.zipf = newZipfTable(cfg.Items, cfg.ZipfS)
	}
	return p, nil
}

func (p *picker) kind(rng *rand.Rand) TxKind {
	return p.kinds[rng.Intn(len(p.kinds))]
}

// item picks an item number in [1, Items].
func (p *picker) item(rng *rand.Rand) int64 {
	if p.zipf != nil {
		return int64(p.zipf.pick(rng) + 1)
	}
	return int64(rng.Intn(p.cfg.Items) + 1)
}

// twoItems picks two distinct items (paper: "two different items").
func (p *picker) twoItems(rng *rand.Rand) (int64, int64) {
	if p.cfg.Items == 1 {
		return 1, 1
	}
	a := p.item(rng)
	b := p.item(rng)
	for b == a {
		b = p.item(rng)
	}
	return a, b
}

// anyOrder picks a random pre-created order of an item.
func (p *picker) anyOrder(rng *rand.Rand, item int64) orderentry.OrderRef {
	nos := p.orders[item-1]
	return orderentry.OrderRef{ItemNo: item, OrderNo: nos[rng.Intn(len(nos))]}
}

// shipTarget dispenses an unshipped order of an item.
func (p *picker) shipTarget(item int64) (orderentry.OrderRef, error) {
	idx := p.nextShip[item-1].Add(1) - 1
	nos := p.orders[item-1]
	if int(idx) >= len(nos) {
		return orderentry.OrderRef{}, errPoolExhausted
	}
	return orderentry.OrderRef{ItemNo: item, OrderNo: nos[idx]}, nil
}

// execute runs one transaction of the given kind.
func (p *picker) execute(kind TxKind, rng *rand.Rand) error {
	switch kind {
	case KindT1:
		i1, i2 := p.twoItems(rng)
		r1, err := p.shipTarget(i1)
		if err != nil {
			return err
		}
		r2, err := p.shipTarget(i2)
		if err != nil {
			return err
		}
		return p.app.T1(r1, r2)
	case KindT2:
		i1, i2 := p.twoItems(rng)
		return p.app.T2(p.anyOrder(rng, i1), p.anyOrder(rng, i2))
	case KindT3:
		i1, i2 := p.twoItems(rng)
		_, _, err := p.app.T3(p.anyOrder(rng, i1), p.anyOrder(rng, i2))
		return err
	case KindT4:
		i1, i2 := p.twoItems(rng)
		_, _, err := p.app.T4(p.anyOrder(rng, i1), p.anyOrder(rng, i2))
		return err
	case KindT5:
		_, err := p.app.T5(p.item(rng))
		return err
	case KindNewOrder:
		_, err := p.app.NewOrderTx(p.item(rng), rng.Int63n(1000), 1)
		return err
	case KindBypassRead:
		i1, i2 := p.twoItems(rng)
		_, err := p.app.BypassAudit(p.anyOrder(rng, i1), p.anyOrder(rng, i2))
		return err
	case KindBypassWrite:
		return p.bypassWrite(rng)
	case KindDebit:
		item := p.item(rng)
		amt := rng.Int63n(3) + 1
		if err := p.app.DebitTx(item, amt); err != nil {
			return err
		}
		p.netStock[item-1].Add(-amt)
		return nil
	case KindCredit:
		item := p.item(rng)
		amt := rng.Int63n(3) + 1
		if err := p.app.CreditTx(item, amt); err != nil {
			return err
		}
		p.netStock[item-1].Add(amt)
		return nil
	default:
		return fmt.Errorf("workload: unknown kind %d", int(kind))
	}
}

// bypassWrite updates an order's CustomerNo with raw Get/Put — a pure
// conventional read-modify-write transaction.
func (p *picker) bypassWrite(rng *rand.Rand) error {
	ref := p.anyOrder(rng, p.item(rng))
	order, err := p.app.Order(ref.ItemNo, ref.OrderNo)
	if err != nil {
		return err
	}
	custAtom, err := p.app.Component(order, orderentry.CompCustomer)
	if err != nil {
		return err
	}
	tx, err := p.app.Begin()
	if err != nil {
		return err
	}
	v, err := tx.Get(custAtom)
	if err != nil {
		_ = tx.Abort()
		return err
	}
	if err := tx.Put(custAtom, val.OfInt(v.Int()+1)); err != nil {
		_ = tx.Abort()
		return err
	}
	return tx.Commit()
}

// zipfTable is a precomputed Zipf CDF over ranks 0..n-1.
type zipfTable struct {
	cdf []float64
}

func newZipfTable(n int, s float64) *zipfTable {
	z := &zipfTable{cdf: make([]float64, n)}
	sum := 0.0
	for i := 0; i < n; i++ {
		sum += 1 / math.Pow(float64(i+1), s)
		z.cdf[i] = sum
	}
	for i := range z.cdf {
		z.cdf[i] /= sum
	}
	return z
}

func (z *zipfTable) pick(rng *rand.Rand) int {
	x := rng.Float64()
	lo, hi := 0, len(z.cdf)-1
	for lo < hi {
		mid := (lo + hi) / 2
		if z.cdf[mid] < x {
			lo = mid + 1
		} else {
			hi = mid
		}
	}
	return lo
}
