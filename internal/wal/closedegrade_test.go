package wal

import (
	"sync"
	"testing"
	"time"

	"semcc/internal/core"
	"semcc/internal/obs"
)

// These tests pin the journal's writerless path under the race
// detector, in every mode: appends racing Close must land in the
// durable image before their acks resolve, and Sync on a closed log
// must cover inline appends racing it. Under ModeSync there never was a
// writer, so Close is a no-op racing inline flushes — the same code a
// closed group journal runs. Run with -race; the interesting failures
// are sendMu/closed interleavings, not assertion misses.

// TestAppendsRacingClose hammers Close with concurrent
// AppendAcks in every mode. Every ack must resolve (no deadlock, no
// lost record), and once the dust settles every submitted record must
// be durable — whether it went through the writer or flushed inline.
func TestAppendsRacingClose(t *testing.T) {
	for _, mode := range Modes() {
		t.Run(mode.String(), func(t *testing.T) {
			g := New(Config{Mode: mode, MaxBatch: 4})
			const clients = 8
			const perClient = 50
			var wg sync.WaitGroup
			start := make(chan struct{})
			for c := 0; c < clients; c++ {
				wg.Add(1)
				go func(c int) {
					defer wg.Done()
					<-start
					for i := 0; i < perClient; i++ {
						g.AppendAck(core.JournalRecord{Kind: core.JRootCommit, Node: uint64(c*perClient + i + 1)}).Wait()
					}
				}(c)
			}
			wg.Add(1)
			go func() {
				defer wg.Done()
				<-start
				g.Close()
			}()
			close(start)
			wg.Wait()
			// Everything acked; Sync must now be a cheap no-op that
			// still works on a closed log.
			g.Sync()

			total := clients * perClient
			if n := g.Len(); n != total {
				t.Fatalf("submitted %d records, log has %d", total, n)
			}
			if s := g.Stats(); s.Durable != total {
				t.Fatalf("durable %d of %d records after Close+Sync", s.Durable, total)
			}
			rec, _, err := UnmarshalDurable(g.DurableBytes())
			if err != nil {
				t.Fatalf("durable image corrupt: %v", err)
			}
			if n := rec.Len(); n != total {
				t.Fatalf("durable image decodes %d records, want %d", n, total)
			}
		})
	}
}

// TestSyncOnClosedCoversInlineAppends closes the log first,
// then races plain Appends (fire-and-forget, inline flushes) against
// Syncs. Sync's contract — everything submitted before the call is
// durable on return — must hold without a writer too, and an inline
// append is durable when it returns: one frame per record.
func TestSyncOnClosedCoversInlineAppends(t *testing.T) {
	for _, mode := range Modes() {
		t.Run(mode.String(), func(t *testing.T) {
			g := New(Config{Mode: mode, MaxBatch: 4})
			g.Close()

			const clients = 8
			const perClient = 50
			var wg sync.WaitGroup
			start := make(chan struct{})
			for c := 0; c < clients; c++ {
				wg.Add(1)
				go func(c int) {
					defer wg.Done()
					<-start
					for i := 0; i < perClient; i++ {
						g.Append(core.JournalRecord{Kind: core.JBeginRoot, Node: uint64(c*perClient + i + 1)})
						// Submit == durable: the append's own flush
						// covers it before Append returns.
						if s := g.Stats(); s.Durable < 1 {
							t.Errorf("inline append not flushed: %+v", s)
							return
						}
					}
				}(c)
			}
			syncers := make(chan struct{})
			go func() {
				defer close(syncers)
				<-start
				for i := 0; i < 20; i++ {
					g.Sync()
				}
			}()
			close(start)
			wg.Wait()
			<-syncers
			g.Sync()

			total := clients * perClient
			if s := g.Stats(); s.Records != total || s.Durable != total || s.Flushes != uint64(total) {
				t.Fatalf("after inline appends: %+v, want %d records durable in as many frames", s, total)
			}
			if _, _, err := UnmarshalDurable(g.DurableBytes()); err != nil {
				t.Fatalf("durable image corrupt: %v", err)
			}
			// Close stays idempotent after inline traffic.
			g.Close()
		})
	}
}

// TestClosedJournalChargesDeviceAndCounters is the regression for the
// closed group journal that flushed for free and off the books: its
// inline flushes advanced Stats().Flushes but neither the registry's
// flush counters nor the simulated device. Every flush, on every path,
// is charged to both.
func TestClosedJournalChargesDeviceAndCounters(t *testing.T) {
	const n = 5
	const delay = 2 * time.Millisecond
	o := obs.New(obs.Config{})
	o.SetEnabled(true)
	g := New(Config{Mode: ModeGroup, FlushDelay: delay, DeviceSleep: true})
	g.AttachObs(o)
	g.Append(core.JournalRecord{Kind: core.JBeginRoot, Node: 1})
	g.Close()

	counter := func(name string) uint64 { return o.Registry.Counter(name, "").Load() }
	flushes, bytes, image := counter("semcc_wal_flushes_total"), counter("semcc_wal_flush_bytes_total"), len(g.DurableBytes())
	before := g.Stats()
	if before.Flushes != flushes {
		t.Fatalf("before the closed appends: %d flushes in Stats, %d in the registry", before.Flushes, flushes)
	}
	start := time.Now()
	for i := 0; i < n; i++ {
		g.AppendAck(core.JournalRecord{Kind: core.JRootCommit, Node: uint64(i + 2)}).Wait()
	}
	elapsed := time.Since(start)
	after := g.Stats()
	if d := after.Flushes - before.Flushes; d != n {
		t.Fatalf("%d closed appends made %d flushes", n, d)
	}
	if d := counter("semcc_wal_flushes_total") - flushes; d != n {
		t.Errorf("semcc_wal_flushes_total moved by %d over %d closed appends", d, n)
	}
	if d, want := counter("semcc_wal_flush_bytes_total")-bytes, uint64(len(g.DurableBytes())-image); d != want {
		t.Errorf("semcc_wal_flush_bytes_total moved by %d, the image grew by %d", d, want)
	}
	if got := o.Registry.Hist("semcc_wal_batch_records", "").Count(); got != after.Flushes {
		t.Errorf("semcc_wal_batch_records holds %d flushes, Stats %d", got, after.Flushes)
	}
	if elapsed < n*delay {
		t.Errorf("%d closed flushes on a %v device took %v", n, delay, elapsed)
	}
}
