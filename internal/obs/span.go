package obs

import (
	"encoding/json"
	"io"
	"sync"
	"sync/atomic"
	"time"
)

// Outcome is the terminal state of a span.
type Outcome uint8

const (
	// OutcomeActive: the span has begun and not yet finished.
	OutcomeActive Outcome = iota
	// OutcomeCommitted: the (sub)transaction committed (for a
	// subtransaction: subcommitted, locks retained by the parent).
	OutcomeCommitted
	// OutcomeAborted: the (sub)transaction aborted; committed children
	// were compensated.
	OutcomeAborted
)

// String returns the outcome name.
func (o Outcome) String() string {
	switch o {
	case OutcomeCommitted:
		return "committed"
	case OutcomeAborted:
		return "aborted"
	default:
		return "active"
	}
}

// WaitCause classifies a lock wait by the Fig. 9 outcome that caused
// it: the one cause enum of the engine, its spans and its events.
type WaitCause uint8

const (
	// WaitOther: a wait with no Fig. 9 classification (baseline
	// protocols, unclassified edges).
	WaitOther WaitCause = iota
	// WaitCase2: Fig. 9 case 2 — bounded by a commutative ancestor's
	// subcommit.
	WaitCase2
	// WaitRoot: the worst case — bounded by a top-level commit.
	WaitRoot
	numWaitCauses
)

// String returns the wait-cause name.
func (c WaitCause) String() string {
	switch c {
	case WaitCase2:
		return "case2"
	case WaitRoot:
		return "root-wait"
	default:
		return "other"
	}
}

// MarshalText renders the cause by name in the JSON export.
func (c WaitCause) MarshalText() ([]byte, error) { return []byte(c.String()), nil }

// WaitStat accumulates lock waits of one cause.
type WaitStat struct {
	Count uint64 `json:"count"`
	Nanos uint64 `json:"ns"`
}

// Span is one node of an open-nested invocation tree: a root
// transaction or one (sub)transaction beneath it. The engine drives a
// transaction tree from a single goroutine, so span trees are built
// without locks; a tree becomes visible to concurrent readers only
// when its root finishes (published through the SpanRecorder), at
// which point it is immutable. All mutating methods are nil-safe so
// instrumentation sites can call them unconditionally on the
// (possibly nil) span of the acting transaction.
type Span struct {
	ID      uint64
	Label   string
	Begin   time.Time
	End     time.Time
	Outcome Outcome

	// Waits accumulates lock-wait time by Fig. 9 case.
	Waits [numWaitCauses]WaitStat
	// WALAppends/WALNanos: journal records appended by this node and
	// the wall-clock time spent appending them.
	WALAppends uint64
	WALNanos   uint64
	// StoreOps/StoreNanos: generic storage operations (get/put/
	// insert/remove/select/scan) executed by this node and their
	// wall-clock time, which includes buffer-pool faults taken on this
	// node's behalf.
	StoreOps   uint64
	StoreNanos uint64
	// CompSteps: compensating inverse invocations run while aborting
	// this node.
	CompSteps uint64

	Children []*Span
}

// NewChild appends and returns a child span, or nil if s is nil.
func (s *Span) NewChild(id uint64, label string) *Span {
	if s == nil {
		return nil
	}
	c := &Span{ID: id, Label: label, Begin: time.Now()}
	s.Children = append(s.Children, c)
	return c
}

// AddLockWait charges one lock wait of the given cause and duration.
func (s *Span) AddLockWait(c WaitCause, nanos uint64) {
	if s == nil {
		return
	}
	w := &s.Waits[c%numWaitCauses]
	w.Count++
	w.Nanos += nanos
}

// AddWAL charges one journal append of the given duration.
func (s *Span) AddWAL(nanos uint64) {
	if s == nil {
		return
	}
	s.WALAppends++
	s.WALNanos += nanos
}

// AddStore charges ops storage operations taking nanos in total.
func (s *Span) AddStore(nanos, ops uint64) {
	if s == nil {
		return
	}
	s.StoreOps += ops
	s.StoreNanos += nanos
}

// AddComp charges n compensating invocations.
func (s *Span) AddComp(n uint64) {
	if s == nil {
		return
	}
	s.CompSteps += n
}

// Finish stamps the end time and outcome. Root spans must go through
// SpanRecorder.FinishRoot instead, which also publishes the tree.
func (s *Span) Finish(out Outcome) {
	if s == nil {
		return
	}
	s.End = time.Now()
	s.Outcome = out
}

// DurNanos returns the span duration, 0 while still active.
func (s *Span) DurNanos() uint64 {
	if s == nil || s.End.IsZero() {
		return 0
	}
	return uint64(s.End.Sub(s.Begin))
}

// MarshalJSON renders the span tree with symbolic outcomes and only
// the cost fields that are non-zero.
func (s *Span) MarshalJSON() ([]byte, error) {
	out := struct {
		ID          uint64              `json:"id"`
		Label       string              `json:"label,omitempty"`
		Outcome     string              `json:"outcome"`
		BeginUnixNs int64               `json:"begin_unix_ns"`
		DurNs       uint64              `json:"dur_ns"`
		Waits       map[string]WaitStat `json:"lock_waits,omitempty"`
		WALAppends  uint64              `json:"wal_appends,omitempty"`
		WALNs       uint64              `json:"wal_ns,omitempty"`
		StoreOps    uint64              `json:"store_ops,omitempty"`
		StoreNs     uint64              `json:"store_ns,omitempty"`
		CompSteps   uint64              `json:"compensations,omitempty"`
		Children    []*Span             `json:"children,omitempty"`
	}{
		ID: s.ID, Label: s.Label, Outcome: s.Outcome.String(),
		BeginUnixNs: s.Begin.UnixNano(), DurNs: s.DurNanos(),
		WALAppends: s.WALAppends, WALNs: s.WALNanos,
		StoreOps: s.StoreOps, StoreNs: s.StoreNanos,
		CompSteps: s.CompSteps, Children: s.Children,
	}
	for c := WaitCause(0); c < numWaitCauses; c++ {
		if s.Waits[c].Count == 0 {
			continue
		}
		if out.Waits == nil {
			out.Waits = make(map[string]WaitStat, int(numWaitCauses))
		}
		out.Waits[c.String()] = s.Waits[c]
	}
	return json.Marshal(out)
}

// SpanRecorder tracks root-span lifecycles for one Obs: a transaction
// latency histogram (shared with the registry), an active-roots gauge,
// a ring of recently finished trees, and the slow-transaction log
// (finished roots whose duration meets the configured threshold are
// kept in a second ring and optionally streamed as JSON trees to a
// writer). BeginRoot is the collection gate: when the Obs is disabled
// it returns nil, and every downstream span method no-ops on nil — one
// atomic load per site.
type SpanRecorder struct {
	o        *Obs
	latency  *Hist
	started  *Counter
	finished *Counter
	slow     *Counter
	active   atomic.Int64

	slowNanos uint64
	slowLog   io.Writer

	mu        sync.Mutex
	recent    []*Span // ring, oldest first once full
	recentCap int
	slowRing  []*Span
	slowCap   int
}

func newSpanRecorder(o *Obs, cfg Config) *SpanRecorder {
	r := &SpanRecorder{
		o:         o,
		latency:   o.Registry.Hist("semcc_tx_latency_ns", "Root transaction latency (begin to commit/abort), nanoseconds."),
		started:   o.Registry.Counter("semcc_tx_spans_started_total", "Root spans begun (only while span collection is enabled)."),
		finished:  o.Registry.Counter("semcc_tx_spans_finished_total", "Root spans finished."),
		slow:      o.Registry.Counter("semcc_tx_spans_slow_total", "Finished root spans at or above the slow-span threshold."),
		slowNanos: uint64(cfg.SlowSpan.Nanoseconds()),
		slowLog:   cfg.SlowLog,
		recentCap: cfg.RecentSpans,
		slowCap:   cfg.SlowSpans,
	}
	if r.recentCap <= 0 {
		r.recentCap = 64
	}
	if r.slowCap <= 0 {
		r.slowCap = 64
	}
	o.Registry.GaugeFunc("semcc_tx_spans_active", "Root spans currently in flight.", r.active.Load)
	return r
}

// BeginRoot starts a root span, or returns nil when the recorder is
// absent or its Obs is disabled (the one-atomic-load gate for the
// whole span layer).
func (r *SpanRecorder) BeginRoot(id uint64, label string) *Span {
	if r == nil || !r.o.On() {
		return nil
	}
	r.started.Inc()
	r.active.Add(1)
	return &Span{ID: id, Label: label, Begin: time.Now()}
}

// FinishRoot stamps and publishes a finished root tree. After this
// call the tree is immutable and visible to Snapshot/HTTP readers.
// Nil-safe in both receiver and span.
func (r *SpanRecorder) FinishRoot(s *Span, out Outcome) {
	if r == nil || s == nil {
		return
	}
	s.Finish(out)
	dur := s.DurNanos()
	r.finished.Inc()
	r.active.Add(-1)
	r.latency.Observe(dur)

	isSlow := r.slowNanos > 0 && dur >= r.slowNanos
	var slowJSON []byte
	if isSlow && r.slowLog != nil {
		slowJSON, _ = json.Marshal(s)
	}
	r.mu.Lock()
	r.recent = appendRing(r.recent, s, r.recentCap)
	if isSlow {
		r.slow.Inc()
		r.slowRing = appendRing(r.slowRing, s, r.slowCap)
	}
	r.mu.Unlock()
	if slowJSON != nil {
		slowJSON = append(slowJSON, '\n')
		r.slowLog.Write(slowJSON)
	}
}

func appendRing(ring []*Span, s *Span, cap_ int) []*Span {
	if len(ring) >= cap_ {
		copy(ring, ring[1:])
		ring[len(ring)-1] = s
		return ring
	}
	return append(ring, s)
}

// LatencySnap snapshots the root-latency histogram for delta quantile
// arithmetic (see HistSnap). Nil-safe.
func (r *SpanRecorder) LatencySnap() HistSnap {
	if r == nil {
		return HistSnap{}
	}
	return r.latency.Snap()
}

// SpansSnap is the JSON view of the recorder.
type SpansSnap struct {
	Started  uint64    `json:"started"`
	Finished uint64    `json:"finished"`
	Active   int64     `json:"active"`
	Latency  HistValue `json:"latency_ns"`
	Recent   []*Span   `json:"recent,omitempty"`
	Slow     []*Span   `json:"slow,omitempty"`
}

// Snapshot returns the recorder state with up to recent finished trees
// (recent <= 0 selects the full retained ring) and the slow-span ring.
// Safe concurrently with FinishRoot; the returned trees are immutable.
func (r *SpanRecorder) Snapshot(recent int) SpansSnap {
	if r == nil {
		return SpansSnap{}
	}
	lat := r.latency.Snap()
	snap := SpansSnap{
		Started:  r.started.Load(),
		Finished: r.finished.Load(),
		Active:   r.active.Load(),
		Latency: HistValue{
			Count: lat.Count(), Sum: lat.Sum,
			P50: lat.Quantile(0.50), P90: lat.Quantile(0.90), P99: lat.Quantile(0.99),
		},
	}
	r.mu.Lock()
	rec := r.recent
	if recent > 0 && len(rec) > recent {
		rec = rec[len(rec)-recent:]
	}
	snap.Recent = append([]*Span(nil), rec...)
	snap.Slow = append([]*Span(nil), r.slowRing...)
	r.mu.Unlock()
	return snap
}

// SlowSpans returns a copy of the slow-span ring (oldest first).
// Nil-safe; the trees are immutable.
func (r *SpanRecorder) SlowSpans() []*Span {
	if r == nil {
		return nil
	}
	r.mu.Lock()
	slow := append([]*Span(nil), r.slowRing...)
	r.mu.Unlock()
	return slow
}

// SlowJSON renders the slow-span ring as an indented JSON array of
// span trees (the /slow endpoint body).
func (r *SpanRecorder) SlowJSON() ([]byte, error) {
	slow := r.SlowSpans()
	if slow == nil {
		slow = []*Span{}
	}
	return json.MarshalIndent(slow, "", "  ")
}
