package main

import (
	"fmt"
	"runtime"
	"runtime/debug"
	"syscall"
	"time"

	"semcc/internal/orderentry"
	"semcc/internal/wal"
)

// options are one run's inputs.
type options struct {
	sp      spec
	seed    int64
	seconds float64
	traced  bool
	quick   bool
	outDir  string
}

// measured accumulates the untraced, measured phase over its segments.
type measured struct {
	total      phaseResult
	segRate    []float64 // committed roots/s, one per segment
	segP50     []float64 // latency percentiles in µs over the segment's roots
	segP95     []float64
	segRecover []float64 // decode+analyse µs per committed root, one per segment
	mallocs    uint64
	allocBytes uint64
	gcCycles   uint32
	gcPauseNs  uint64
	cpuNs      uint64
	// ctr0 and ctr1 are the layer counters before the first and after
	// the last segment; nothing touches the engine between segments.
	ctr0, ctr1 counters
	journal    journalCounts
	liveHeap   uint64
	// byKind are the clients' latencies pooled and sorted per kind,
	// sorted all of them together.
	byKind [numKinds][]int64
	sorted []int64
}

// cpuNanos is the process's user+system CPU time.
func cpuNanos() uint64 {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return uint64(ru.Utime.Nano() + ru.Stime.Nano())
}

// run executes one workload once: set-up, warm-up, the measured
// segments, the traced phase when asked for, then crash and restart.
// Any failed check is an error; the caller prints no metrics then.
func run(o options) (*report, error) {
	sp := o.sp
	items, orders := fullItems, fullOrders
	segs, segment := segments, phase{dur: time.Duration(o.seconds*float64(time.Second)) / segments, record: true}
	if o.quick {
		sp, items, orders = sp.quick(), quickItems, quickOrders
		segs, segment = 1, phase{roots: quickRoots, record: true}
	}

	// Set-up, several times back to back: a single build is a
	// sub-two-second, page-fault-bound timing that spreads too far to
	// carry a bound. The last build is the one the run uses.
	var s *sut
	var setups []float64
	for i := 0; i < setupRepeats; i++ {
		if s != nil {
			s.close()
			s = nil
			runtime.GC()
		}
		t0 := time.Now()
		var err error
		if s, err = openSUT(sp, items, orders); err != nil {
			return nil, fmt.Errorf("set-up: %w", err)
		}
		setups = append(setups, time.Since(t0).Seconds())
	}
	defer s.close()

	clients := make([]*client, sp.clients)
	shared := make([]*orderentry.App, sp.clients)
	for i := range clients {
		clients[i] = &client{gen: newGenerator(sp, items, orders, o.seed, i), net: make([]int64, items)}
		shared[i] = s.app
	}
	segment.apps = shared
	var all phaseResult

	// Warm-up, discarded.
	warm, err := runPhase(clients, phase{roots: int64(sp.warmup), apps: shared})
	if err != nil {
		return nil, fmt.Errorf("warm-up: %w", err)
	}
	all.add(warm)
	// Live heap: what the process holds after a fixed number of roots,
	// once their garbage is gone and before their journal is. (After the
	// measured phase it would grow with the throughput.)
	var ms0, ms1 runtime.MemStats
	runtime.GC()
	runtime.ReadMemStats(&ms0)
	s.cutJournals()
	runtime.GC()

	// Measured phase.
	m := measured{ctr0: s.counters(), liveHeap: ms0.HeapAlloc}
	for seg := 0; seg < segs; seg++ {
		runtime.ReadMemStats(&ms0)
		cpu0 := cpuNanos()
		res, err := runPhase(clients, segment)
		cpu1 := cpuNanos()
		runtime.ReadMemStats(&ms1)
		if err != nil {
			return nil, fmt.Errorf("segment %d: %w", seg, err)
		}
		if res.committed == 0 {
			return nil, fmt.Errorf("segment %d committed no root", seg)
		}
		m.total.add(res)
		m.segRate = append(m.segRate, res.rootsPerSec())
		var fresh [][]int64
		for _, cl := range clients {
			fresh = append(fresh, cl.segment()...)
		}
		lat := pool(fresh...)
		m.segP50 = append(m.segP50, float64(percentile(lat, 0.50))/1e3)
		m.segP95 = append(m.segP95, float64(percentile(lat, 0.95))/1e3)
		m.mallocs += ms1.Mallocs - ms0.Mallocs
		m.allocBytes += ms1.TotalAlloc - ms0.TotalAlloc
		m.gcCycles += ms1.NumGC - ms0.NumGC
		m.gcPauseNs += ms1.PauseTotalNs - ms0.PauseTotalNs
		m.cpuNs += cpu1 - cpu0
		m.ctr1 = s.counters()

		images, jc := s.cutJournals()
		m.journal.add(jc)
		// Collect first, so that the timed passes allocate from memory
		// the segment has already touched, not from fresh pages.
		runtime.GC()
		rec, err := timeRecovery(images, res.committed)
		if err != nil {
			return nil, fmt.Errorf("segment %d: %w", seg, err)
		}
		m.segRecover = append(m.segRecover, rec)
		images = nil
		runtime.GC()
	}
	all.add(m.total)
	for k := range m.byKind {
		var parts [][]int64
		for _, cl := range clients {
			parts = append(parts, cl.lat[k])
		}
		m.byKind[k] = pool(parts...)
	}
	m.sorted = pool(m.byKind[:]...)

	if err := checkConservation(s.app, clients); err != nil {
		return nil, fmt.Errorf("after the measured phase: %w", err)
	}

	rep := &report{e2e: m.endToEnd(median(setups))}
	if o.traced {
		tp, err := runTraced(s, clients, o)
		if err != nil {
			return nil, err
		}
		all.add(tp.res)
		rep.layer = layerValues(&m, warm, tp)
	}

	crash, err := crashAndRestart(s, clients)
	if err != nil {
		return nil, fmt.Errorf("crash and restart: %w", err)
	}
	all.add(crash.res)
	if rep.layer != nil {
		crash.into(rep.layer)
	}
	rep.attempted, rep.failed = all.attempted, all.failed
	return rep, nil
}

// checkConservation verifies, at quiescence, that every item's stock
// equals its initial stock minus what was shipped plus the driver's own
// tally of committed debits and credits.
func checkConservation(app *orderentry.App, clients []*client) error {
	states, err := app.Snapshot()
	if err != nil {
		return err
	}
	return orderentry.CheckConservationNet(states, initialQOH, netStock(clients))
}

// timeRecovery times what a restart does before it can undo anything —
// decoding the durable image and analysing it into winners and losers —
// on one segment's images (one per node), and returns µs per committed
// root. The first pass reads the whole images and checks them: the
// segment ended at quiescence, so every acknowledged commit must be a
// winner on every node and nothing may be in flight. The timed passes
// read at most the first recoverPrefix bytes of each image (decoding
// stops at the last whole frame, as after a torn write), so that every
// workload times about the same amount of journal, and the fastest pass
// counts: the work is a function of the bytes alone, and whatever else
// the machine does can only add to it.
func timeRecovery(images [][]byte, committed uint64) (float64, error) {
	const (
		recoverPrefix = 1 << 20
		passes        = 5
	)
	// No collection inside the timing either: whether one of this
	// process's large-heap cycles falls into it would decide the reading.
	defer debug.SetGCPercent(debug.SetGCPercent(-1))
	best := 0.0
	for pass := 0; pass <= passes; pass++ {
		roots := 0
		t0 := time.Now()
		for node, img := range images {
			if pass > 0 && len(img) > recoverPrefix {
				img = img[:recoverPrefix]
			}
			log, _, err := wal.UnmarshalDurable(img)
			if err != nil {
				return 0, fmt.Errorf("node %d: durable image: %w", node, err)
			}
			a, err := wal.Analyze(log)
			if err != nil {
				return 0, fmt.Errorf("node %d: analysis: %w", node, err)
			}
			if pass == 0 && (uint64(len(a.Committed)) != committed || len(a.Losers) != 0 || len(a.InDoubt) != 0) {
				return 0, fmt.Errorf("node %d: journal shows %d winners, %d losers, %d in doubt; clients saw %d commits",
					node, len(a.Committed), len(a.Losers), len(a.InDoubt), committed)
			}
			if node == 0 {
				roots = len(a.Committed)
			}
		}
		if pass == 0 {
			continue
		}
		// A global root has one branch on every node, so node 0's
		// winners count the roots of all the images.
		if us := float64(time.Since(t0).Nanoseconds()) / 1e3 / float64(roots); best == 0 || us < best {
			best = us
		}
	}
	return best, nil
}

func (m *measured) endToEnd(setupS float64) values {
	roots := float64(m.total.committed)
	return values{
		"roots_per_s":            median(m.segRate),
		"root_p50_us":            median(m.segP50),
		"allocs_per_root":        float64(m.mallocs) / roots,
		"alloc_bytes_per_root":   float64(m.allocBytes) / roots,
		"journal_bytes_per_root": float64(m.journal.bytes) / roots,
		"live_heap_mb":           float64(m.liveHeap) / (1 << 20),
		"setup_s":                setupS,
	}
}
