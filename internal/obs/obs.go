// Package obs is the process-wide observability layer: one metrics
// registry (counters, gauges, and the shared log₂ histogram) covering
// the engine, WAL, buffer pools, and object store, a span recorder
// that captures each top-level transaction's open-nested invocation
// tree with lock-wait, WAL, storage, and compensation time attributed
// to the owning (sub)transaction, and an event sink recording the lock
// manager's decisions with a per-object contention profile (events.go).
//
// Cost model: an engine built without an Obs pays a nil check per
// site; one built with a disabled Obs pays a nil check plus a single
// atomic load (Obs.On / SpanRecorder.BeginRoot) and allocates nothing —
// BenchmarkObsOverheadParallel and the AllocsPerRun test pin this.
// Metrics registered via CounterFunc/GaugeFunc read counters that the
// subsystems maintain anyway (striped engine stats, pool partition
// atomics), so they cost nothing extra even when enabled; only the
// gated extras (histograms, per-shard op counts, spans, events) switch
// with SetEnabled.
//
// Exposition: Prometheus text + JSON snapshot + net/http/pprof on an
// opt-in HTTP endpoint (Serve), a slow-transaction log of span trees,
// and named JSON sections so DB.ObservabilityJSON merges lock, WAL,
// pool, and store views without hand-assembly.
package obs

import (
	"encoding/json"
	"io"
	"sync"
	"sync/atomic"
	"time"
)

// Config parameterises an Obs.
type Config struct {
	// SlowSpan is the slow-transaction threshold: finished root spans
	// with duration >= SlowSpan are kept in the slow ring and, if
	// SlowLog is set, written to it as JSON trees. 0 disables the slow
	// log.
	SlowSpan time.Duration
	// SlowLog optionally receives one JSON line per slow span tree.
	SlowLog io.Writer
	// RecentSpans is the number of finished root trees retained for
	// snapshots (default 64).
	RecentSpans int
	// SlowSpans is the number of slow root trees retained (default 64).
	SlowSpans int
}

// Obs bundles a registry and a span recorder behind one enable switch.
// A nil *Obs is valid and permanently off. Collection starts disabled;
// call SetEnabled(true).
type Obs struct {
	enabled atomic.Bool
	// Registry holds every metric family.
	Registry *Registry
	// Spans records root transaction trees.
	Spans *SpanRecorder

	// The event sink (events.go): a sequence counter, the per-cause
	// wait histograms semcc_lock_wait_ns{cause}, and the ring stripes.
	evSeq  atomic.Uint64
	waitNs [numWaitCauses]*Hist
	evs    [evStripes]evStripe

	mu       sync.Mutex
	consts   map[string]string
	sections map[string]func(Params) any
}

// New returns a disabled Obs ready for attachment.
func New(cfg Config) *Obs {
	o := &Obs{
		Registry: NewRegistry(),
		consts:   make(map[string]string),
		sections: make(map[string]func(Params) any),
	}
	o.Spans = newSpanRecorder(o, cfg)
	for c := range o.waitNs {
		o.waitNs[c] = o.Registry.Hist("semcc_lock_wait_ns", "Time blocked lock requests waited, nanoseconds.", L("cause", WaitCause(c).String()))
	}
	return o
}

// SetEnabled switches gated collection (spans, events, latency
// histograms, per-shard op counts) on or off. Func-backed metrics are
// live either way. Concurrent with instrumentation; an in-flight site
// may complete after SetEnabled(false) returns.
func (o *Obs) SetEnabled(on bool) {
	if o != nil {
		o.enabled.Store(on)
	}
}

// On reports whether gated instrumentation should record — the single
// check every site performs. The disabled path is this nil check plus
// one atomic load.
func (o *Obs) On() bool { return o != nil && o.enabled.Load() }

// Attacher is implemented by subsystems that accept an Obs after
// construction (the WAL implements it so the facade can attach metrics
// without an import cycle: internal/wal already imports the facade's
// record types, so the facade cannot name *wal.Log).
type Attacher interface {
	AttachObs(*Obs)
}

// SetConst records a constant key/value surfaced at the top level of
// the JSON export and as a semcc_info label in the Prometheus export
// (e.g. protocol="semantic").
func (o *Obs) SetConst(key, value string) {
	if o == nil {
		return
	}
	o.mu.Lock()
	o.consts[key] = value
	o.mu.Unlock()
}

// Params parameterises snapshot-time rendering of sections.
type Params struct {
	// TopK bounds ranked lists (the hot-object table).
	TopK int
	// Recent bounds recent-item lists (events, span trees).
	Recent int
}

// Section registers (or replaces) a named JSON section rendered at
// export time. Subsystems with their own snapshot shapes (engine
// stats) register here so ObservabilityJSON is assembled by the Obs
// rather than by hand in the facade.
func (o *Obs) Section(name string, fn func(Params) any) {
	if o == nil {
		return
	}
	o.mu.Lock()
	o.sections[name] = fn
	o.mu.Unlock()
}

// snapshot builds the merged export map: consts, registered sections,
// the metric registry, the span recorder, and the event sink ("trace").
func (o *Obs) snapshot(p Params) map[string]any {
	out := map[string]any{}
	if o == nil {
		return out
	}
	o.mu.Lock()
	for k, v := range o.consts {
		out[k] = v
	}
	fns := make(map[string]func(Params) any, len(o.sections))
	for name, fn := range o.sections {
		fns[name] = fn
	}
	o.mu.Unlock()
	for name, fn := range fns {
		out[name] = fn(p)
	}
	out["enabled"] = o.On()
	out["metrics"] = o.Registry.Snapshot()
	out["spans"] = o.Spans.Snapshot(p.Recent)
	out["trace"] = o.Events(p.TopK, p.Recent)
	return out
}

// JSON renders the merged observability snapshot as indented JSON.
func (o *Obs) JSON(p Params) ([]byte, error) {
	return json.MarshalIndent(o.snapshot(p), "", "  ")
}

// constLabels returns the registered consts as sorted labels (the
// label set of the semcc_info series).
func (o *Obs) constLabels() []Label {
	if o == nil {
		return nil
	}
	o.mu.Lock()
	labels := make([]Label, 0, len(o.consts))
	for k, v := range o.consts {
		labels = append(labels, Label{Name: k, Value: v})
	}
	o.mu.Unlock()
	return sortLabels(labels)
}

// WriteProm writes the Prometheus text exposition: the registry
// families plus one semcc_info gauge carrying the registered consts as
// labels.
func (o *Obs) WriteProm(w io.Writer) error {
	if o == nil {
		return nil
	}
	if err := o.Registry.WriteProm(w); err != nil {
		return err
	}
	if labels := o.constLabels(); len(labels) > 0 {
		if _, err := io.WriteString(w, "# TYPE semcc_info gauge\nsemcc_info"+promLabels(labels, "", "")+" 1\n"); err != nil {
			return err
		}
	}
	return nil
}

// slowJSON satisfies the shared HTTP endpoint interface (see http.go).
func (o *Obs) slowJSON() ([]byte, error) {
	if o == nil {
		return []byte("[]"), nil
	}
	return o.Spans.SlowJSON()
}

func sortLabels(labels []Label) []Label {
	for i := 1; i < len(labels); i++ {
		for j := i; j > 0 && labels[j].Name < labels[j-1].Name; j-- {
			labels[j], labels[j-1] = labels[j-1], labels[j]
		}
	}
	return labels
}
