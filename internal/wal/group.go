// The group-commit pipeline: a dedicated writer goroutine coalesces
// concurrent journal appends into one batched marshal+flush, and
// commit-ACK futures park committing roots until their batch is
// durable. This removes the last process-global serialization point of
// the stack — the per-append flush of the synchronous Log — while
// keeping the write-ahead invariant at batch granularity. The
// invariant has three parts:
//
//   - a record's position in the journal order is fixed at submission
//     (Append/AppendAck return with it fixed), and the engine submits a
//     root's outcome record before the outcome becomes observable;
//   - the durable image only ever grows by whole batch frames covering
//     the next records in that order, so what is durable is always a
//     prefix of what was submitted — a root that took over a released
//     lock journals behind its predecessor's outcome and can never be
//     durable without it;
//   - an Ack resolves only after its record's covering batch frame is
//     on simulated stable storage, so a root outcome is acknowledged to
//     its caller only when durable (except in async mode, which trades
//     that guarantee for latency).
//
// Observable-before-durable is therefore allowed — the engine releases
// a committing root's locks at submission — and acknowledged-before-
// durable is not.

package wal

import (
	"fmt"
	"sync"
	"sync/atomic"
	"time"

	"semcc/internal/clock"
	"semcc/internal/core"
	"semcc/internal/obs"
)

// Mode selects a journal durability mode (the -wal ablation axis).
type Mode int

const (
	// ModeSync is the synchronous baseline: every append forces its
	// own single-record flush, so each commit pays a full flush on its
	// critical path.
	ModeSync Mode = iota
	// ModeGroup is the group-commit pipeline: a dedicated writer
	// coalesces concurrent appends into one batched flush and roots
	// park in Commit — their locks already released — until their
	// batch is durable.
	ModeGroup
	// ModeAsync is the group pipeline acknowledging before the flush:
	// Commit returns immediately and a crash may lose acknowledged
	// outcomes (throughput over durability).
	ModeAsync
)

// String returns the -wal flag spelling.
func (m Mode) String() string {
	switch m {
	case ModeSync:
		return "sync"
	case ModeGroup:
		return "group"
	case ModeAsync:
		return "async"
	}
	return fmt.Sprintf("Mode(%d)", int(m))
}

// ParseMode parses a -wal flag value.
func ParseMode(s string) (Mode, error) {
	for _, m := range Modes() {
		if m.String() == s {
			return m, nil
		}
	}
	return 0, fmt.Errorf("wal: unknown durability mode %q (want sync, group or async)", s)
}

// Modes lists all durability modes in comparison order.
func Modes() []Mode { return []Mode{ModeSync, ModeGroup, ModeAsync} }

// Defaults for the group-commit batch knobs.
const (
	DefaultMaxBatch = 64
	DefaultMaxDelay = 200 * time.Microsecond
)

// Config parameterises New.
type Config struct {
	// Mode selects the durability mode (default ModeSync).
	Mode Mode
	// MaxBatch caps records per batch: a full batch flushes
	// immediately, and the submission queue applies backpressure at
	// this depth. 0 means DefaultMaxBatch; ModeSync ignores it.
	MaxBatch int
	// MaxDelay caps how long a submitted record waits unflushed before
	// the writer flushes a partial batch. 0 means DefaultMaxDelay;
	// ModeSync ignores it.
	MaxDelay time.Duration
	// FlushDelay simulates the fixed per-flush latency of stable
	// storage — the device cost group commit exists to amortise (an
	// fsync is microseconds to milliseconds regardless of how many
	// records ride in it). The synchronous log pays it per record, the
	// group pipeline per batch. 0 (the default) models free flushes:
	// correct for crash and contract tests, meaningless for durability
	// benchmarks.
	FlushDelay time.Duration
	// DeviceSleep simulates FlushDelay by parking (time.Sleep) instead
	// of the default busy-wait. A parked flush models a device the CPU
	// is free to leave while the write is in flight: concurrent
	// transactions keep executing and queue into the next batch, which
	// is the regime group commit batches in (and the one the E8 escrow
	// study measures lock-hold cost against). The host timer's
	// granularity floors a parked flush — a millisecond or more on
	// coarse-timer hosts — so parked sweeps measure batching structure
	// and lock-hold amplification, not microsecond device accuracy. The
	// default busy-wait keeps E7's exact per-flush charging.
	DeviceSleep bool
	// Clock supplies the journal's wall-time *measurements* (append,
	// ack and flush latency metrics). Nil selects the real clock.
	// Scheduling — the writer's MaxDelay timer, the simulated device
	// busy-wait — stays on real time regardless (see internal/clock).
	Clock clock.Clock
}

// Journal is the full journal surface shared by the synchronous Log
// and the group-commit GroupLog: the engine-facing core contract plus
// inspection, durable-image access, and lifecycle. New returns one.
type Journal interface {
	core.AckJournal

	// Len, Records, RecordsFrom and Reset inspect the submitted record
	// sequence, which may run ahead of the durable image.
	Len() int
	Records() []core.JournalRecord
	RecordsFrom(i int) []core.JournalRecord
	Reset()

	// DurableBytes is the batch-framed image on simulated stable
	// storage; decode with UnmarshalDurable.
	DurableBytes() []byte
	// Sync forces everything submitted so far into the durable image
	// and returns once it is there.
	Sync()
	// Close flushes outstanding work and stops the writer (a no-op for
	// the synchronous log). The journal stays usable afterwards in a
	// degraded synchronous form; Close is idempotent.
	Close()

	// Mode reports the durability mode.
	Mode() Mode
	// Stats returns a cheap point-in-time summary.
	Stats() JournalStats
	// AttachObs registers the journal's metrics (obs.Attacher).
	AttachObs(*obs.Obs)
}

// JournalStats is a point-in-time journal summary, available without
// an attached obs registry.
type JournalStats struct {
	// Records is the number of submitted records.
	Records int
	// Durable is the number of records covered by the durable image.
	Durable int
	// Flushes counts durable-image flushes; Records/Flushes is the
	// achieved mean batch size.
	Flushes uint64
}

// New builds a journal in the requested durability mode.
func New(cfg Config) Journal {
	if cfg.Mode == ModeSync {
		l := NewLog()
		l.flushDelay = cfg.FlushDelay
		l.flushPark = cfg.DeviceSleep
		l.clk = clock.Or(cfg.Clock)
		return l
	}
	return NewGroupLog(cfg)
}

// submission is one writer-queue entry: the durability notification of
// a newly appended record, or a sync barrier.
type submission struct {
	// end is the journal length after this entry's record (recs[:end]
	// includes it); for a barrier, the length to make durable.
	end int
	// ack, when non-nil, is closed by the writer once end is durable.
	ack chan struct{}
	// at is the submit time, set only while obs is enabled (ack
	// latency metric).
	at time.Time
	// barrier marks a Sync entry: it carries no record of its own.
	barrier bool
	// urgent asks the writer to flush as soon as it has drained the
	// queue instead of waiting for MaxBatch/MaxDelay. Root outcomes
	// and barriers are urgent; that is what coalesces racing commits
	// into one shared flush.
	urgent bool
}

// GroupLog is the pipelined group-commit journal. Append fixes the
// record's position in the journal order before returning (like the
// synchronous Log) and queues a durability notification to the writer
// goroutine, which coalesces everything it has received into one batch
// frame per flush. AppendAck returns a future resolved when the
// record's batch is durable — immediately, in ModeAsync.
//
// Flushes are triggered by batch size (MaxBatch records), age
// (MaxDelay since the oldest unflushed submission), urgency (a root
// outcome or Sync barrier), and Close. In a single-goroutine run with
// a large MaxDelay this makes batch boundaries deterministic — one
// every MaxBatch records and one at every root outcome — which the
// crash-sweep tests exploit.
type GroupLog struct {
	mode       Mode
	maxBatch   int
	maxDelay   time.Duration
	flushDelay time.Duration
	flushPark  bool

	mu          sync.Mutex
	recs        []core.JournalRecord
	durable     []byte
	durableRecs int
	flushCount  uint64

	// sendMu excludes submissions from racing Close's channel close: a
	// sender holds the read side across its queue send, Close flips
	// closed under the write side before closing the channel.
	sendMu sync.RWMutex
	closed bool

	submitCh chan submission
	done     chan struct{}

	om atomic.Pointer[groupObs]
	// clk times ack/flush latency for the obs metrics (measurement
	// only; the writer's MaxDelay timer and the busy-wait device stay
	// on real time).
	clk clock.Clock
}

// NewGroupLog starts a group-commit journal and its writer goroutine.
// Callers that care about goroutine hygiene should Close it; an
// unclosed GroupLog holds one parked goroutine and nothing else.
func NewGroupLog(cfg Config) *GroupLog {
	g := &GroupLog{
		mode:       cfg.Mode,
		maxBatch:   cfg.MaxBatch,
		maxDelay:   cfg.MaxDelay,
		flushDelay: cfg.FlushDelay,
		flushPark:  cfg.DeviceSleep,
		clk:        clock.Or(cfg.Clock),
		done:       make(chan struct{}),
	}
	if g.mode != ModeAsync {
		g.mode = ModeGroup
	}
	if g.maxBatch <= 0 {
		g.maxBatch = DefaultMaxBatch
	}
	if g.maxDelay <= 0 {
		g.maxDelay = DefaultMaxDelay
	}
	g.submitCh = make(chan submission, g.maxBatch)
	go g.writer()
	return g
}

// groupObs bundles the group log's registry metrics.
type groupObs struct {
	o         *obs.Obs
	appends   *obs.Counter
	bytes     *obs.Counter
	flushes   *obs.Counter
	flushed   *obs.Counter
	batchRecs *obs.Hist
	ackNs     *obs.Hist
	flushNs   *obs.Hist
}

func (m *groupObs) on() bool { return m != nil && m.o.On() }

// AttachObs registers the group log's metrics with o (obs.Attacher).
// On top of the sync log's counters it splits commit latency into its
// two halves — ack latency (submit to durable, what a committing root
// actually waits) and flush latency (one batched marshal+write) — and
// exposes the batch-size histogram and writer queue depth.
func (g *GroupLog) AttachObs(o *obs.Obs) {
	if o == nil {
		return
	}
	m := &groupObs{
		o:         o,
		appends:   o.Registry.Counter("semcc_wal_appends_total", "Journal records appended (while obs is enabled)."),
		bytes:     o.Registry.Counter("semcc_wal_append_bytes_total", "Marshalled size of appended journal records."),
		flushes:   o.Registry.Counter("semcc_wal_flushes_total", "Durable-image flushes (one per append for the sync log, one per batch for the group log)."),
		flushed:   o.Registry.Counter("semcc_wal_flush_bytes_total", "Bytes written by durable-image flushes."),
		batchRecs: o.Registry.Hist("semcc_wal_batch_records", "Records coalesced per group-commit batch flush."),
		ackNs:     o.Registry.Hist("semcc_wal_ack_ns", "Commit-ack latency (submit to durable), nanoseconds."),
		flushNs:   o.Registry.Hist("semcc_wal_flush_ns", "Batch flush latency (marshal+write), nanoseconds."),
	}
	o.Registry.GaugeFunc("semcc_wal_records", "Journal records currently retained.", func() int64 { return int64(g.Len()) })
	o.Registry.GaugeFunc("semcc_wal_durable_records", "Journal records covered by the durable image.", func() int64 {
		g.mu.Lock()
		defer g.mu.Unlock()
		return int64(g.durableRecs)
	})
	o.Registry.GaugeFunc("semcc_wal_queue_depth", "Group-commit submissions queued to the writer.", func() int64 { return int64(len(g.submitCh)) })
	g.om.Store(m)
}

// Append implements core.Journal. The record's position in the journal
// order is fixed here, under mu, before Append returns; durability
// follows when the writer flushes the covering batch. The submission
// queue's capacity is MaxBatch, so appenders outrunning the writer
// block — backpressure, not unbounded buffering.
func (g *GroupLog) Append(rec core.JournalRecord) {
	g.append(rec, submission{})
}

// AppendAck implements core.AckJournal. Under ModeGroup the submission
// is urgent — the writer flushes once it has drained the queue, so
// commits racing here share one flush — and the Ack resolves when the
// covering batch is durable. Under ModeAsync the Ack is resolved
// before the flush: the record still flushes with its batch later, and
// a crash in between loses the acknowledged outcome.
func (g *GroupLog) AppendAck(rec core.JournalRecord) core.Ack {
	if g.mode == ModeAsync {
		g.append(rec, submission{})
		return core.Ack{}
	}
	ack := make(chan struct{})
	g.append(rec, submission{ack: ack, urgent: true})
	return core.Ack{C: ack}
}

func (g *GroupLog) append(rec core.JournalRecord, s submission) {
	m := g.om.Load()
	on := m.on()
	if on {
		s.at = g.clk.Now()
	}
	g.mu.Lock()
	var prev uint64 // the neighbour rec's ids are written relative to
	if n := len(g.recs); on && n > 0 {
		prev = g.recs[n-1].Node
	}
	g.recs = append(g.recs, rec)
	s.end = len(g.recs)
	g.mu.Unlock()
	if on {
		m.appends.Inc()
		// Sized as in the flat sequence; where the writer later cuts a
		// frame the first record is written from 0 instead.
		m.bytes.Add(recordBytes(prev, rec))
	}
	g.sendMu.RLock()
	if g.closed {
		g.sendMu.RUnlock()
		// The writer is gone: degrade to a synchronous flush so late
		// appends are never silently lost.
		g.mu.Lock()
		g.flushLocked(len(g.recs))
		g.mu.Unlock()
		if s.ack != nil {
			close(s.ack)
		}
		return
	}
	g.submitCh <- s
	g.sendMu.RUnlock()
}

// Sync implements the Journal barrier: it forces every record
// submitted before the call into the durable image and returns once
// the write is done.
func (g *GroupLog) Sync() {
	g.mu.Lock()
	end := len(g.recs)
	g.mu.Unlock()
	ack := make(chan struct{})
	g.sendMu.RLock()
	if g.closed {
		g.sendMu.RUnlock()
		g.mu.Lock()
		g.flushLocked(end)
		g.mu.Unlock()
		return
	}
	g.submitCh <- submission{end: end, ack: ack, barrier: true, urgent: true}
	g.sendMu.RUnlock()
	<-ack
}

// Close flushes outstanding submissions and stops the writer. The log
// stays readable and appendable afterwards (appends degrade to
// synchronous single-record flushes); Close is idempotent.
func (g *GroupLog) Close() {
	g.sendMu.Lock()
	if g.closed {
		g.sendMu.Unlock()
		<-g.done
		return
	}
	g.closed = true
	g.sendMu.Unlock()
	close(g.submitCh)
	<-g.done
}

// Len returns the number of submitted records.
func (g *GroupLog) Len() int {
	g.mu.Lock()
	defer g.mu.Unlock()
	return len(g.recs)
}

// Records returns a snapshot of the submitted record sequence (which
// may run ahead of the durable image).
func (g *GroupLog) Records() []core.JournalRecord {
	return g.RecordsFrom(0)
}

// RecordsFrom returns a snapshot of the submitted records at index i
// and above.
func (g *GroupLog) RecordsFrom(i int) []core.JournalRecord {
	g.mu.Lock()
	defer g.mu.Unlock()
	if i < 0 {
		i = 0
	}
	if i >= len(g.recs) {
		return nil
	}
	return append([]core.JournalRecord(nil), g.recs[i:]...)
}

// DurableBytes returns the batch-framed durable image; decode with
// UnmarshalDurable. Records submitted but not yet flushed are absent —
// that is the point.
func (g *GroupLog) DurableBytes() []byte {
	g.mu.Lock()
	defer g.mu.Unlock()
	return append([]byte(nil), g.durable...)
}

// Mode reports the configured durability mode (ModeGroup or
// ModeAsync).
func (g *GroupLog) Mode() Mode { return g.mode }

// Stats returns a point-in-time summary.
func (g *GroupLog) Stats() JournalStats {
	g.mu.Lock()
	defer g.mu.Unlock()
	return JournalStats{Records: len(g.recs), Durable: g.durableRecs, Flushes: g.flushCount}
}

// Reset truncates the log (checkpoint after successful recovery, or
// reuse across benchmark runs). Callers must be quiescent: Reset syncs
// the writer first, and submissions racing the truncation have
// undefined batch boundaries (though never lost records — a stale
// writer position is clamped to the live journal length at flush).
//
// The record and image buffers are emptied, not dropped: a journal that
// is cut epoch after epoch refills the memory it already has. Growing
// the two slices from nothing every time charged each epoch about five
// times its own journal in reallocation (append grows a large slice by
// a quarter), and how much exactly depended on the growth step the
// epoch's last record fell into — run-to-run noise that had nothing to
// do with the work done.
func (g *GroupLog) Reset() {
	g.Sync()
	g.mu.Lock()
	clear(g.recs) // drop the invocations the records point to
	g.recs = g.recs[:0]
	g.durable = g.durable[:0]
	g.durableRecs = 0
	g.flushCount = 0
	g.mu.Unlock()
}

// flushLocked extends the durable image with one batch frame covering
// recs[durableRecs:end] (mu held). A no-op when end is stale.
func (g *GroupLog) flushLocked(end int) (recs, bytes int) {
	// Clamp: after a Reset the writer's running end exceeds the
	// journal; cover what is actually there.
	if end > len(g.recs) {
		end = len(g.recs)
	}
	n := end - g.durableRecs
	if n <= 0 {
		return 0, 0
	}
	before := len(g.durable)
	g.durable = appendFrame(g.durable, g.recs[g.durableRecs:end])
	g.durableRecs = end
	g.flushCount++
	return n, len(g.durable) - before
}

// flushTo makes recs[:end] durable as one batch frame and resolves the
// given acks. Runs on the writer goroutine only.
func (g *GroupLog) flushTo(end int, acks []chan struct{}, ackAt []time.Time) {
	m := g.om.Load()
	on := m.on()
	var start time.Time
	if on {
		start = g.clk.Now()
	}
	g.mu.Lock()
	n, bytes := g.flushLocked(end)
	g.mu.Unlock()
	// The simulated device latency runs outside mu: appenders keep
	// fixing journal positions while the batch is in flight, and the
	// acks below resolve only once the device write would be complete.
	if n > 0 && g.flushDelay > 0 {
		deviceWait(g.flushDelay, g.flushPark)
	}
	if on && n > 0 {
		m.flushes.Inc()
		m.flushed.Add(uint64(bytes))
		m.batchRecs.Observe(uint64(n))
		m.flushNs.Observe(uint64(g.clk.Since(start)))
	}
	now := time.Time{}
	if on {
		now = g.clk.Now()
	}
	for i, a := range acks {
		close(a)
		if on && !ackAt[i].IsZero() {
			m.ackNs.Observe(uint64(now.Sub(ackAt[i])))
		}
	}
}

// writer is the group-commit pipeline's dedicated flusher. It absorbs
// submissions — coalescing whatever is already queued — and flushes
// when the batch is full (MaxBatch records), urgent (a root outcome or
// barrier is waiting), stale (MaxDelay since the first unflushed
// submission), or the log is closing.
func (g *GroupLog) writer() {
	defer close(g.done)
	timer := time.NewTimer(time.Hour)
	if !timer.Stop() {
		<-timer.C
	}
	defer timer.Stop()
	var (
		end   int             // highest submitted journal length received
		count int             // record notifications since the last flush
		acks  []chan struct{} // futures resolved by the next flush
		ackAt []time.Time
		armed bool // MaxDelay timer running
	)
	flush := func() {
		g.flushTo(end, acks, ackAt)
		acks, ackAt = nil, nil
		count = 0
		if armed {
			if !timer.Stop() {
				select {
				case <-timer.C:
				default:
				}
			}
			armed = false
		}
	}
	absorb := func(s submission) (urgent bool) {
		if s.end > end {
			end = s.end
		}
		if !s.barrier {
			count++
		}
		if s.ack != nil {
			acks = append(acks, s.ack)
			ackAt = append(ackAt, s.at)
		}
		return s.urgent
	}
	for {
		select {
		case s, ok := <-g.submitCh:
			if !ok {
				// Closing: cover everything ever appended, including
				// records whose notifications we will never see.
				end = g.Len()
				flush()
				return
			}
			urgent := absorb(s)
			// Coalesce whatever else is already queued (racing commits
			// share the flush below), but never beyond a full batch —
			// that keeps batch boundaries exact.
			for draining := true; draining && count < g.maxBatch; {
				select {
				case s2, ok2 := <-g.submitCh:
					if !ok2 {
						end = g.Len()
						flush()
						return
					}
					if absorb(s2) {
						urgent = true
					}
				default:
					draining = false
				}
			}
			switch {
			case urgent || count >= g.maxBatch:
				flush()
			case count > 0 && !armed:
				timer.Reset(g.maxDelay)
				armed = true
			}
		case <-timer.C:
			armed = false
			flush()
		}
	}
}
