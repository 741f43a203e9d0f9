package obs

import (
	"cmp"
	"fmt"
	"slices"
	"strings"
	"sync"
	"time"

	"semcc/internal/oid"
)

// EventKind tags a decision event: what the lock manager decided about
// a request that did not simply go through. Requests, immediate grants
// and retains are traffic — core.Stats counts them and nothing records
// them one by one (DESIGN.md §3.10).
type EventKind uint8

// The kinds up to EvEscrowDeny belong to a request that blocked (Emit
// relies on the order); those after EvBlock end its wait, with Nanos.
const (
	EvBlock      EventKind = iota // started waiting; Peer is a node it waits for
	EvGrant                       // granted after the wait
	EvForce                       // force-granted: the all-compensator cycle backstop
	EvDeadlock                    // aborted as a deadlock victim
	EvAborted                     // its root was aborted while it was queued
	EvEscrowDeny                  // refused by the escrow bounds after having waited
	EvCase1                       // Fig. 9 case 1 overruled the conflict with Peer's lock
	EvEscrow                      // two escrow reservations overruled the conflict with Peer's lock
	EvComp                        // one compensating invocation ran during an abort
)

var eventKindNames = [...]string{"block", "grant", "force-grant", "deadlock", "aborted", "escrow-deny", "case1", "escrow-admit", "compensate"}

// String returns the event kind name.
func (k EventKind) String() string { return eventKindNames[k] }

// MarshalText renders the kind by name in the JSON export.
func (k EventKind) MarshalText() ([]byte, error) { return []byte(k.String()), nil }

// Event is one decision record. Seq is assigned at emission and totally
// orders events across stripes.
type Event struct {
	Seq  uint64    `json:"seq"`
	Kind EventKind `json:"kind"`
	// Cause classifies the wait, for EvBlock and the kinds that end one
	// (the export leaves out "other", the zero value).
	Cause WaitCause `json:"cause,omitempty"`
	Node  uint64    `json:"node"` // acting transaction node
	Root  uint64    `json:"root"` // its top-level transaction
	Obj   oid.OID   `json:"obj"`
	Peer  uint64    `json:"peer,omitempty"`    // blocker or overruled holder
	Nanos uint64    `json:"wait_ns,omitempty"` // blocked time, for the kinds that end a wait
}

// evStripes matches the engine's stats striping (Emit masks the lock
// shard index down to it); a stripe retains evRing events, so the sink
// holds about 1 MiB once every stripe has been hit.
const evStripes, evRing = 64, 256

// objCounts is the cumulative contention profile of one object; it
// survives ring wrap-around.
type objCounts struct{ blocks, waitNanos uint64 }

// evStripe is one independently locked partition of the event sink. Its
// ring and profile are built by its first event, so an Obs that is
// never enabled holds neither. The mutex is a leaf in the lock order:
// the engine emits while holding a lock-table shard mutex.
type evStripe struct {
	mu   sync.Mutex
	ring []Event
	n    uint64 // events ever written to this stripe
	objs map[oid.OID]objCounts
	_    [16]byte // pad to a cache line
}

// Emit records ev on the stripe of the given lock-table shard. EvBlock
// bumps the object's block count; a kind that ends a wait adds its
// blocked time to the object and to semcc_lock_wait_ns{cause}. Callers
// guard with On(); Emit re-checks and is nil-safe.
func (o *Obs) Emit(shard int, ev Event) {
	if !o.On() {
		return
	}
	ev.Seq = o.evSeq.Add(1)
	blocked := ev.Kind <= EvEscrowDeny
	if blocked && ev.Kind != EvBlock {
		o.waitNs[ev.Cause%numWaitCauses].Observe(ev.Nanos)
	}
	s := &o.evs[uint(shard)%evStripes]
	s.mu.Lock()
	if s.ring == nil {
		s.ring = make([]Event, evRing)
		s.objs = make(map[oid.OID]objCounts)
	}
	if blocked {
		c := s.objs[ev.Obj]
		if ev.Kind == EvBlock {
			c.blocks++
		}
		c.waitNanos += ev.Nanos
		s.objs[ev.Obj] = c
	}
	s.ring[s.n%evRing] = ev
	s.n++
	s.mu.Unlock()
}

// ObjProfile is one entry of the hot-object table.
type ObjProfile struct {
	Obj       oid.OID `json:"obj"`
	Blocks    uint64  `json:"blocks"`
	WaitNanos uint64  `json:"wait_ns"`
}

// EventsSnap is a copyable view of the event sink, the "trace" section
// of the JSON export.
type EventsSnap struct {
	Emitted uint64       `json:"events_emitted"`
	Hot     []ObjProfile `json:"hot_objects,omitempty"`
	Recent  []Event      `json:"recent_events,omitempty"`
}

// Events captures the sink: the topK hottest objects (by block count,
// then blocked time; topK <= 0 selects all) and the last `recent`
// events in sequence order. Safe concurrently with emission; nil-safe.
func (o *Obs) Events(topK, recent int) EventsSnap {
	if o == nil {
		return EventsSnap{}
	}
	snap := EventsSnap{Emitted: o.evSeq.Load()}
	for i := range o.evs {
		s := &o.evs[i]
		s.mu.Lock()
		for obj, c := range s.objs {
			snap.Hot = append(snap.Hot, ObjProfile{Obj: obj, Blocks: c.blocks, WaitNanos: c.waitNanos})
		}
		if recent > 0 {
			snap.Recent = append(snap.Recent, s.ring[:min(s.n, evRing)]...)
		}
		s.mu.Unlock()
	}
	slices.SortFunc(snap.Hot, func(a, b ObjProfile) int {
		return cmp.Or(cmp.Compare(b.Blocks, a.Blocks), cmp.Compare(b.WaitNanos, a.WaitNanos), cmp.Compare(a.Obj.K, b.Obj.K), cmp.Compare(a.Obj.N, b.Obj.N))
	})
	if topK > 0 && len(snap.Hot) > topK {
		snap.Hot = snap.Hot[:topK]
	}
	slices.SortFunc(snap.Recent, func(a, b Event) int { return cmp.Compare(a.Seq, b.Seq) })
	if len(snap.Recent) > recent {
		snap.Recent = snap.Recent[len(snap.Recent)-recent:]
	}
	return snap
}

// fmtNanos renders a nanosecond count to three significant digits.
func fmtNanos(ns uint64) string {
	d, unit := time.Duration(ns), time.Duration(1)
	for d/unit >= 1000 {
		unit *= 10
	}
	return d.Round(unit).String()
}

// ContentionReport renders the body of the profile `semcc-bench -hot`
// prints: the hot-object table, the per-cause wait-time histograms and
// the last `recent` events.
func (o *Obs) ContentionReport(topK, recent int) string {
	var b strings.Builder
	snap := o.Events(topK, recent)
	fmt.Fprintf(&b, "events emitted: %d\ntop contended objects:\n  %-16s %8s %12s %10s\n", snap.Emitted, "object", "blocks", "wait", "avg")
	for _, h := range snap.Hot {
		fmt.Fprintf(&b, "  %-16s %8d %12s %10s\n", h.Obj, h.Blocks, fmtNanos(h.WaitNanos), fmtNanos(h.WaitNanos/max(h.Blocks, 1)))
	}
	for c := range o.waitNs {
		hist := o.waitNs[c].Snap()
		if hist.Count() == 0 {
			continue
		}
		fmt.Fprintf(&b, "wait-time histogram — %s (%d waits):\n", WaitCause(c), hist.Count())
		top := slices.Max(hist.B[:])
		for i, n := range hist.B {
			if lo, hi := bucketBounds(i); n > 0 {
				fmt.Fprintf(&b, "  [%8s, %8s) %8d %s\n", fmtNanos(lo), fmtNanos(hi), n, strings.Repeat("#", int(1+n*39/top)))
			}
		}
	}
	if len(snap.Recent) > 0 {
		fmt.Fprintf(&b, "last %d events:\n", len(snap.Recent))
	}
	for _, e := range snap.Recent {
		fmt.Fprintf(&b, "  #%d %s tx%d(root %d) obj=%s", e.Seq, e.Kind, e.Node, e.Root, e.Obj)
		if e.Cause != WaitOther {
			fmt.Fprintf(&b, " cause=%s", e.Cause)
		}
		if e.Peer != 0 {
			fmt.Fprintf(&b, " peer=tx%d", e.Peer)
		}
		if e.Nanos > 0 {
			fmt.Fprintf(&b, " waited=%s", fmtNanos(e.Nanos))
		}
		b.WriteByte('\n')
	}
	return b.String()
}
