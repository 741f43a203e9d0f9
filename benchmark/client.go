package main

import (
	"errors"
	"fmt"
	"sync"
	"sync/atomic"
	"time"

	"semcc/internal/core"
	"semcc/internal/orderentry"
)

// client is one closed-loop caller: it draws its next call from its own
// generator the moment the previous one has committed (no think time).
type client struct {
	gen *generator
	// net is the client's tally of committed stock-counter traffic
	// (credits − debits per item), the driver's side of the
	// conservation check.
	net []int64
	// lat holds the latency in ns of every committed root of the
	// measured phase, by kind.
	lat [numKinds][]int64
	// cut[k] is how many of lat[k] earlier segments hold.
	cut [numKinds]int
	// lastRoot is set by a begin hook (traced phase and crash epoch) to
	// the id of the root just begun; ids collects the ids of committed
	// roots during the crash epoch.
	lastRoot uint64
	ids      []uint64
}

// segment returns the latencies recorded since the last call, by kind.
func (cl *client) segment() [][]int64 {
	out := make([][]int64, 0, numKinds)
	for k := range cl.lat {
		out = append(out, cl.lat[k][cl.cut[k]:])
		cl.cut[k] = len(cl.lat[k])
	}
	return out
}

// phase is one stretch of closed-loop load. Exactly one of roots (a
// total the clients share) and dur bounds it.
type phase struct {
	roots int64
	dur   time.Duration
	// apps[i] is the app client i calls; the traced phase and the crash
	// epoch give each client a front of its own.
	apps []*orderentry.App
	// record keeps latencies; keepIDs keeps committed root ids.
	record, keepIDs bool
	// traces, when set, receive one root span per root.
	traces []*clientTrace
}

type phaseResult struct {
	attempted, committed, failed, retries uint64
	elapsed                               time.Duration
}

func (r *phaseResult) add(o phaseResult) {
	r.attempted += o.attempted
	r.committed += o.committed
	r.failed += o.failed
	r.retries += o.retries
	r.elapsed += o.elapsed
}

func (r phaseResult) rootsPerSec() float64 {
	return float64(r.committed) / r.elapsed.Seconds()
}

// runPhase drives every client through p and returns at quiescence. A
// root that exhausts its retry budget or fails on a non-retryable error
// counts as failed and leaves no effect (App aborts it); only a
// generator error ends the phase early.
func runPhase(clients []*client, p phase) (phaseResult, error) {
	var (
		total    phaseResult
		mu       sync.Mutex
		firstErr error
		wg       sync.WaitGroup
		left     atomic.Int64
	)
	left.Store(p.roots)
	start := time.Now()
	deadline := start.Add(p.dur)
	for i, cl := range clients {
		wg.Add(1)
		go func(i int, cl *client) {
			defer wg.Done()
			var res phaseResult
			var err error
			app := p.apps[i]
			var tr *clientTrace
			if p.traces != nil {
				tr = p.traces[i]
			}
			for {
				if p.roots > 0 {
					if left.Add(-1) < 0 {
						break
					}
				} else if !time.Now().Before(deadline) {
					break
				}
				var c call
				if c, err = cl.gen.next(); err != nil {
					break
				}
				res.attempted++
				tr.beginRoot()
				t0 := time.Now()
				var cerr error
				for attempt := 0; ; attempt++ {
					cerr = c.do(app)
					if cerr == nil || attempt == retryBudget || !errors.Is(cerr, core.ErrDeadlock) {
						break
					}
					res.retries++
				}
				t1 := time.Now()
				tr.endRoot(c.kind, t0, t1)
				if cerr != nil {
					res.failed++
					fmt.Fprintf(stderr, "client %d: %s failed: %v\n", i, c.kind, cerr)
					continue
				}
				res.committed++
				switch c.kind {
				case kDebit:
					cl.net[c.a.ItemNo-1] -= c.n
				case kCredit:
					cl.net[c.a.ItemNo-1] += c.n
				}
				if p.record {
					cl.lat[c.kind] = append(cl.lat[c.kind], int64(t1.Sub(t0)))
				}
				if p.keepIDs {
					cl.ids = append(cl.ids, cl.lastRoot)
				}
			}
			mu.Lock()
			total.add(res)
			if err != nil && firstErr == nil {
				firstErr = fmt.Errorf("client %d: %w", i, err)
			}
			mu.Unlock()
		}(i, cl)
	}
	wg.Wait()
	total.elapsed = time.Since(start)
	return total, firstErr
}

// netStock merges the clients' tallies into the map
// orderentry.CheckConservationNet wants.
func netStock(clients []*client) map[int64]int64 {
	out := make(map[int64]int64)
	for _, cl := range clients {
		for i, n := range cl.net {
			if n != 0 {
				out[int64(i+1)] += n
			}
		}
	}
	return out
}
