// The journal: one type, Log, in three durability modes. With a writer
// goroutine (group, async) concurrent appends are coalesced into one
// batched marshal+flush and commit-ACK futures park committing roots
// until their batch is durable; without one (sync, a closed journal, a
// decoded image) every append frames and flushes itself before it
// returns. Either way the write-ahead invariant holds at frame
// granularity. It has three parts:
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
	"slices"
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
	// records ride in it). Sync mode pays it per record, the writer per
	// batch. 0 (the default) models free flushes: correct for crash and
	// contract tests, meaningless for durability benchmarks.
	FlushDelay time.Duration
	// DeviceSleep simulates FlushDelay by parking (time.Sleep) instead
	// of the default busy-wait. A parked flush models a device the CPU
	// is free to leave while the write is in flight: concurrent
	// transactions keep executing and queue into the next batch, which
	// is the regime group commit batches in (and the one the benchmark's
	// hot-durable and cluster-2pc workloads run on). The host timer's
	// granularity floors a parked flush — a millisecond or more on
	// coarse-timer hosts — so parked runs measure batching structure
	// and lock-hold amplification, not microsecond device accuracy. The
	// default busy-wait charges each flush exactly.
	DeviceSleep bool
	// Clock supplies the journal's wall-time *measurements* (append,
	// ack and flush latency metrics). Nil selects the real clock.
	// Scheduling — the writer's MaxDelay timer, the simulated device
	// busy-wait — stays on real time regardless (see internal/clock).
	Clock clock.Clock
}

// Journal is the full journal surface of Log: the engine-facing core
// contract plus inspection, durable-image access, and lifecycle. New
// returns one.
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
	// Close flushes outstanding work and stops the writer (a no-op in
	// sync mode, which has none). The journal stays usable afterwards,
	// flushing inline as sync mode does; Close is idempotent.
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

// New builds a journal in the requested durability mode: a NewLog with
// cfg's device and clock, plus the writer unless the mode is ModeSync.
func New(cfg Config) Journal {
	l := NewLog()
	l.mode = cfg.Mode
	l.flushDelay = cfg.FlushDelay
	l.flushPark = cfg.DeviceSleep
	l.clk = clock.Or(cfg.Clock)
	if l.mode != ModeSync {
		l.startWriter(cfg.MaxBatch, cfg.MaxDelay)
	}
	return l
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

// Log is the in-memory write-ahead log. Append fixes the record's
// position in the journal order before it returns; what makes the
// record durable depends on whether the log has a writer goroutine.
//
// With one (ModeGroup, ModeAsync) Append queues a durability
// notification and the writer coalesces everything it has received into
// one batch frame per flush. AppendAck returns a future resolved when
// the record's batch is durable — immediately, in ModeAsync. Flushes
// are triggered by batch size (MaxBatch records), age (MaxDelay since
// the oldest unflushed submission), urgency (a root outcome or Sync
// barrier), and Close. In a single-goroutine run with a large MaxDelay
// this makes batch boundaries deterministic — one every MaxBatch records
// and one at every root outcome — which the crash-sweep tests exploit.
//
// Without one (ModeSync, NewLog, a decoded image, any log after Close)
// Append frames and flushes the record itself, in the critical section
// that fixed its position: one single-record frame per append, submit ==
// durable, every commit pays its own flush, the Ack comes back resolved.
//
// Marshal/Unmarshal serialise the flat record sequence;
// DurableBytes/UnmarshalDurable expose the framed durable image.
type Log struct {
	mode       Mode
	maxBatch   int
	maxDelay   time.Duration
	flushDelay time.Duration
	flushPark  bool

	mu          sync.Mutex
	recs        []core.JournalRecord
	durable     []byte // the batch-framed image on simulated stable storage
	durableRecs int    // recs[:durableRecs] is covered by durable
	flushCount  uint64
	// body is the frame body being written, kept between flushes so
	// that encoding a batch allocates nothing once it has grown.
	body []byte

	// sendMu excludes submissions from racing Close's channel close: a
	// sender holds the read side across its queue send, Close sets
	// noWriter under the write side before closing the channel.
	// noWriter is true whenever there is no writer to send to: from
	// birth in sync mode, after Close otherwise.
	sendMu   sync.RWMutex
	noWriter bool

	submitCh chan submission
	done     chan struct{}

	om atomic.Pointer[walMetrics]
	// clk times append/ack/flush latency for the obs metrics
	// (measurement only; the writer's MaxDelay timer and the busy-wait
	// device stay on real time).
	clk clock.Clock
}

// NewLog returns an empty log without a writer: ModeSync over a free
// device. It allocates nothing but itself.
func NewLog() *Log { return &Log{noWriter: true, clk: clock.Wall{}} }

// startWriter gives a new log its writer goroutine. Callers that care
// about goroutine hygiene should Close the log; an unclosed one holds
// one parked goroutine and nothing else.
func (l *Log) startWriter(maxBatch int, maxDelay time.Duration) {
	if l.mode != ModeAsync {
		l.mode = ModeGroup
	}
	if maxBatch <= 0 {
		maxBatch = DefaultMaxBatch
	}
	if maxDelay <= 0 {
		maxDelay = DefaultMaxDelay
	}
	l.maxBatch, l.maxDelay = maxBatch, maxDelay
	l.submitCh = make(chan submission, maxBatch)
	l.done = make(chan struct{})
	l.noWriter = false
	go l.writer()
}

// walMetrics bundles the log's registry metrics.
type walMetrics struct {
	o         *obs.Obs
	appends   *obs.Counter
	bytes     *obs.Counter
	flushes   *obs.Counter
	flushed   *obs.Counter
	batchRecs *obs.Hist
	appendNs  *obs.Hist
	ackNs     *obs.Hist
	flushNs   *obs.Hist
}

func (m *walMetrics) on() bool { return m != nil && m.o.On() }

// AttachObs registers the log's metrics with o (implements
// obs.Attacher; the facade attaches the journal this way because wal
// imports oodb, so oodb cannot name *Log). Counters and histograms
// record only while o is enabled; the gauges are live always. Commit
// latency is observed where it is paid: an inline append's whole cost
// as append latency, a writer's batch as its two halves — ack latency
// (submit to durable, what a committing root actually waits) and flush
// latency (one batched marshal+write).
func (l *Log) AttachObs(o *obs.Obs) {
	if o == nil {
		return
	}
	m := &walMetrics{
		o:         o,
		appends:   o.Registry.Counter("semcc_wal_appends_total", "Journal records appended (while obs is enabled)."),
		bytes:     o.Registry.Counter("semcc_wal_append_bytes_total", "Marshalled size of appended journal records."),
		flushes:   o.Registry.Counter("semcc_wal_flushes_total", "Durable-image flushes (one per append in sync mode, one per batch with a writer)."),
		flushed:   o.Registry.Counter("semcc_wal_flush_bytes_total", "Bytes written by durable-image flushes."),
		batchRecs: o.Registry.Hist("semcc_wal_batch_records", "Records covered per durable-image flush."),
		appendNs:  o.Registry.Hist("semcc_wal_append_ns", "Inline (sync mode) append latency, flush included, nanoseconds."),
		ackNs:     o.Registry.Hist("semcc_wal_ack_ns", "Commit-ack latency (submit to durable), nanoseconds."),
		flushNs:   o.Registry.Hist("semcc_wal_flush_ns", "Batch flush latency (marshal+write), nanoseconds."),
	}
	o.Registry.GaugeFunc("semcc_wal_records", "Journal records currently retained.", func() int64 { return int64(l.Len()) })
	o.Registry.GaugeFunc("semcc_wal_durable_records", "Journal records covered by the durable image.", func() int64 { return int64(l.Stats().Durable) })
	o.Registry.GaugeFunc("semcc_wal_queue_depth", "Submissions queued to the writer.", func() int64 { return int64(len(l.submitCh)) })
	l.om.Store(m)
}

// Append implements core.Journal. The record's position in the journal
// order is fixed here, under mu, before Append returns; durability
// follows when the writer flushes the covering batch, or at once when
// there is no writer. The submission queue's capacity is MaxBatch, so
// appenders outrunning the writer block — backpressure, not unbounded
// buffering.
func (l *Log) Append(rec core.JournalRecord) {
	l.append(rec, submission{})
}

// AppendAck implements core.AckJournal. Under ModeGroup the submission
// is urgent — the writer flushes once it has drained the queue, so
// commits racing here share one flush — and the Ack resolves when the
// covering batch is durable. Under ModeSync the record is durable when
// append returns. Under ModeAsync the Ack is resolved before the flush:
// the record still flushes with its batch later, and a crash in between
// loses the acknowledged outcome.
func (l *Log) AppendAck(rec core.JournalRecord) core.Ack {
	if l.mode != ModeGroup {
		l.append(rec, submission{})
		return core.Ack{}
	}
	ack := make(chan struct{})
	l.append(rec, submission{ack: ack, urgent: true})
	return core.Ack{C: ack}
}

func (l *Log) append(rec core.JournalRecord, s submission) {
	m := l.om.Load()
	on := m.on()
	if on {
		s.at = l.clk.Now()
	}
	l.sendMu.RLock()
	if l.noWriter {
		// No writer (sync mode), or it is gone: the append flushes
		// itself, so late appends are never silently lost.
		l.sendMu.RUnlock()
		l.mu.Lock()
		l.recs = append(l.recs, rec)
		l.flushInline(len(l.recs))
		l.mu.Unlock()
		if on {
			m.appendNs.Observe(uint64(l.clk.Since(s.at)))
			m.appends.Inc()
			m.bytes.Add(recordBytes(0, rec)) // a frame of its own: no neighbour
		}
		if s.ack != nil {
			close(s.ack)
		}
		return
	}
	l.mu.Lock()
	var prev uint64 // the neighbour rec's ids are written relative to
	if n := len(l.recs); on && n > 0 {
		prev = l.recs[n-1].Node
	}
	l.recs = append(l.recs, rec)
	s.end = len(l.recs)
	l.mu.Unlock()
	if on {
		m.appends.Inc()
		// Sized as in the flat sequence; where the writer later cuts a
		// frame the first record is written from 0 instead.
		m.bytes.Add(recordBytes(prev, rec))
	}
	l.submitCh <- s
	l.sendMu.RUnlock()
}

// Sync implements the Journal barrier: it forces every record
// submitted before the call into the durable image and returns once
// the write is done. Without a writer they already are there, unless a
// Close is still draining the queue.
func (l *Log) Sync() {
	l.mu.Lock()
	end := len(l.recs)
	l.mu.Unlock()
	l.sendMu.RLock()
	if l.noWriter {
		l.sendMu.RUnlock()
		l.mu.Lock()
		l.flushInline(end)
		l.mu.Unlock()
		return
	}
	ack := make(chan struct{})
	l.submitCh <- submission{end: end, ack: ack, barrier: true, urgent: true}
	l.sendMu.RUnlock()
	<-ack
}

// Close flushes outstanding submissions and stops the writer, if there
// is one. The log stays readable and appendable afterwards (appends
// flush inline, as in sync mode); Close is idempotent.
func (l *Log) Close() {
	l.sendMu.Lock()
	if !l.noWriter {
		l.noWriter = true
		close(l.submitCh)
	}
	l.sendMu.Unlock()
	if l.done != nil {
		<-l.done
	}
}

// Len returns the number of submitted records.
func (l *Log) Len() int {
	l.mu.Lock()
	defer l.mu.Unlock()
	return len(l.recs)
}

// Records returns a snapshot of the submitted record sequence (which
// may run ahead of the durable image).
func (l *Log) Records() []core.JournalRecord {
	return l.RecordsFrom(0)
}

// RecordsFrom returns a snapshot of the submitted records at index i
// and above. Incremental readers — recovery's analysis pass, polling
// tests — use it so a repeated snapshot copies only the tail it has not
// seen instead of the whole log every time.
func (l *Log) RecordsFrom(i int) []core.JournalRecord {
	l.mu.Lock()
	defer l.mu.Unlock()
	if i < 0 {
		i = 0
	}
	if i >= len(l.recs) {
		return nil
	}
	return append([]core.JournalRecord(nil), l.recs[i:]...)
}

// Marshal serialises the log's record sequence in the flat format
// (uvarint count followed by records). This is the analysis-side
// serialisation; the crash-model bytes live in DurableBytes.
func (l *Log) Marshal() []byte {
	l.mu.Lock()
	defer l.mu.Unlock()
	return appendRecords(nil, l.recs)
}

// DurableBytes returns the batch-framed durable image; decode with
// UnmarshalDurable. Records submitted but not yet flushed are absent —
// that is the point.
func (l *Log) DurableBytes() []byte {
	l.mu.Lock()
	defer l.mu.Unlock()
	return append([]byte(nil), l.durable...)
}

// Mode reports the durability mode.
func (l *Log) Mode() Mode { return l.mode }

// Stats returns a point-in-time summary.
func (l *Log) Stats() JournalStats {
	l.mu.Lock()
	defer l.mu.Unlock()
	return JournalStats{Records: len(l.recs), Durable: l.durableRecs, Flushes: l.flushCount}
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
func (l *Log) Reset() {
	l.Sync()
	l.mu.Lock()
	// The schema records stay to head the new epoch's image, as they
	// must; the rest go, their invocations cleared with them.
	l.recs = slices.DeleteFunc(l.recs, func(r core.JournalRecord) bool { return r.Kind != core.JSchema })
	l.durable = l.durable[:0]
	l.durableRecs = 0
	l.flushCount = 0
	l.mu.Unlock()
}

// flushLocked extends the durable image with one batch frame covering
// recs[durableRecs:end] (mu held). A no-op when end is stale.
func (l *Log) flushLocked(end int) (recs, bytes int) {
	// Clamp: after a Reset the writer's running end exceeds the
	// journal; cover what is actually there.
	if end > len(l.recs) {
		end = len(l.recs)
	}
	n := end - l.durableRecs
	if n <= 0 {
		return 0, 0
	}
	before := len(l.durable)
	l.body = appendRecords(l.body[:0], l.recs[l.durableRecs:end])
	l.durable = appendFrame(l.durable, l.body)
	l.durableRecs = end
	l.flushCount++
	return n, len(l.durable) - before
}

// flushInline is the flush of a log without a writer (mu held): one
// frame, then the simulated device latency charged while still holding
// mu — inline flushes serialise on the device, which is the per-commit
// cost group commit amortises.
func (l *Log) flushInline(end int) {
	n, bytes := l.flushLocked(end)
	if n == 0 {
		return
	}
	if l.flushDelay > 0 {
		deviceWait(l.flushDelay, l.flushPark)
	}
	if m := l.om.Load(); m.on() {
		m.countFlush(n, bytes)
	}
}

// countFlush records one flush of n records and the given frame size.
func (m *walMetrics) countFlush(n, bytes int) {
	m.flushes.Inc()
	m.flushed.Add(uint64(bytes))
	m.batchRecs.Observe(uint64(n))
}

// busyWait burns CPU for d. The simulated device has to charge tens of
// microseconds accurately; time.Sleep cannot — its granularity on
// coarse-timer hosts is a millisecond or more, which would flatten
// every FlushDelay setting to the same cost.
func busyWait(d time.Duration) {
	for end := time.Now().Add(d); time.Now().Before(end); {
	}
}

// deviceWait charges one simulated device flush: busy (exact cost, CPU
// burned) or parked (Config.DeviceSleep — the CPU is free while the
// flush is in flight, at the host timer's granularity).
func deviceWait(d time.Duration, park bool) {
	if park {
		time.Sleep(d)
		return
	}
	busyWait(d)
}

// flushTo makes recs[:end] durable as one batch frame and resolves the
// given acks. Runs on the writer goroutine only.
func (l *Log) flushTo(end int, acks []chan struct{}, ackAt []time.Time) {
	m := l.om.Load()
	on := m.on()
	var start time.Time
	if on {
		start = l.clk.Now()
	}
	l.mu.Lock()
	n, bytes := l.flushLocked(end)
	l.mu.Unlock()
	// The simulated device latency runs outside mu: appenders keep
	// fixing journal positions while the batch is in flight, and the
	// acks below resolve only once the device write would be complete.
	if n > 0 && l.flushDelay > 0 {
		deviceWait(l.flushDelay, l.flushPark)
	}
	if on && n > 0 {
		m.countFlush(n, bytes)
		m.flushNs.Observe(uint64(l.clk.Since(start)))
	}
	now := time.Time{}
	if on {
		now = l.clk.Now()
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
func (l *Log) writer() {
	defer close(l.done)
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
		l.flushTo(end, acks, ackAt)
		// Reused, not regrown: every urgent submission lands here.
		clear(acks)
		acks, ackAt = acks[:0], ackAt[:0]
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
		case s, ok := <-l.submitCh:
			if !ok {
				// Closing: cover everything ever appended, including
				// records whose notifications we will never see.
				end = l.Len()
				flush()
				return
			}
			urgent := absorb(s)
			// Coalesce whatever else is already queued (racing commits
			// share the flush below), but never beyond a full batch —
			// that keeps batch boundaries exact.
			for draining := true; draining && count < l.maxBatch; {
				select {
				case s2, ok2 := <-l.submitCh:
					if !ok2 {
						end = l.Len()
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
			case urgent || count >= l.maxBatch:
				flush()
			case count > 0 && !armed:
				timer.Reset(l.maxDelay)
				armed = true
			}
		case <-timer.C:
			armed = false
			flush()
		}
	}
}
