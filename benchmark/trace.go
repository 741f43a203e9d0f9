package main

import (
	"bufio"
	"fmt"
	"os"
	"path/filepath"
	"time"

	"semcc/internal/obs"
	"semcc/internal/oid"
	"semcc/internal/oodb"
	"semcc/internal/orderentry"
	"semcc/internal/val"
)

// The benchmark's own spans, recorded around its calls into the Session
// boundary: one root span per generated call (first begin to successful
// commit, retries inside) and, beneath it, one span per Begin, per Call,
// per Commit and per Abort.
type spanName uint8

const (
	spRoot spanName = iota
	spBegin
	spCall
	spCommit
	spAbort
	numSpanNames
)

var spanNames = [numSpanNames]string{"root", "begin", "call", "commit", "abort"}

type bspan struct {
	name spanName
	kind kind // root spans: the call's kind
	// parent is the index of the root span in the client's list (-1 for
	// a root span itself).
	parent     int32
	start, end int64 // ns since the trace epoch
}

// engineSums adds up what the engine's own span trees attribute: lock
// wait by Fig. 9 case, journal and store time. inCalls is the part of
// it charged to nodes below the root transaction, that is, inside the
// Session's Call spans.
type engineSums struct {
	wait     [3]uint64 // indexed by obs.WaitCause
	walNs    uint64
	storeNs  uint64
	storeOps uint64
	inCalls  uint64
}

// addTree folds one finished span tree in. callDepth is the depth at
// which call-level nodes start: 1 under an engine root, 3 under a
// coordinator's global span (global → phase → grafted branch root →
// calls).
func (e *engineSums) addTree(s *obs.Span, depth, callDepth int) {
	if s == nil {
		return
	}
	own := s.WALNanos + s.StoreNanos
	for c := range s.Waits {
		e.wait[c] += s.Waits[c].Nanos
		own += s.Waits[c].Nanos
	}
	e.walNs += s.WALNanos
	e.storeNs += s.StoreNanos
	e.storeOps += s.StoreOps
	if depth >= callDepth {
		e.inCalls += own
	}
	for _, c := range s.Children {
		e.addTree(c, depth+1, callDepth)
	}
}

func (e *engineSums) add(o engineSums) {
	for c := range e.wait {
		e.wait[c] += o.wait[c]
	}
	e.walNs += o.walNs
	e.storeNs += o.storeNs
	e.storeOps += o.storeOps
	e.inCalls += o.inCalls
}

// clientTrace is one client's share of the traced phase. It is written
// by that client's goroutine only. A nil *clientTrace records nothing,
// so the untraced loop calls it unconditionally.
type clientTrace struct {
	epoch time.Time
	spans []bspan
	cur   int32 // index of the open root span
	ns    [numSpanNames]uint64
	count [numSpanNames]uint64
	eng   engineSums
}

func (t *clientTrace) beginRoot() {
	if t == nil {
		return
	}
	t.cur = int32(len(t.spans))
	t.spans = append(t.spans, bspan{name: spRoot, parent: -1})
}

func (t *clientTrace) endRoot(k kind, t0, t1 time.Time) {
	if t == nil {
		return
	}
	s := &t.spans[t.cur]
	s.kind, s.start, s.end = k, int64(t0.Sub(t.epoch)), int64(t1.Sub(t.epoch))
	t.ns[spRoot] += uint64(t1.Sub(t0))
	t.count[spRoot]++
}

func (t *clientTrace) span(n spanName, t0, t1 time.Time) {
	t.spans = append(t.spans, bspan{name: n, parent: t.cur, start: int64(t0.Sub(t.epoch)), end: int64(t1.Sub(t.epoch))})
	t.ns[n] += uint64(t1.Sub(t0))
	t.count[n]++
}

// tracedSession times the operations of the Session it wraps that the
// generated calls use: Call, Commit and Abort (Get, Put and Scan pass
// through).
type tracedSession struct {
	orderentry.Session
	tr *clientTrace
}

func (s *tracedSession) Call(obj oid.OID, method string, args ...val.V) (val.V, error) {
	t0 := time.Now()
	v, err := s.Session.Call(obj, method, args...)
	s.tr.span(spCall, t0, time.Now())
	return v, err
}

func (s *tracedSession) Commit() error {
	t0 := time.Now()
	err := s.Session.Commit()
	s.tr.span(spCommit, t0, time.Now())
	s.harvest()
	return err
}

func (s *tracedSession) Abort() error {
	t0 := time.Now()
	err := s.Session.Abort()
	s.tr.span(spAbort, t0, time.Now())
	s.harvest()
	return err
}

// harvest reads the engine's span tree off a settled direct-engine
// transaction (the tree is immutable once the root has finished). A
// coordinator transaction does not expose its tree; those are read from
// the coordinator's recorder after the phase.
func (s *tracedSession) harvest() {
	if tx, ok := s.Session.(*oodb.Tx); ok {
		s.tr.eng.addTree(tx.Root().Span(), 0, 1)
	}
}

// writeTrace writes the benchmark's spans as one JSON document: every
// span has an id, the id of the span that caused it (0 for a root span)
// and the id of its root, which the spans of one root share.
func writeTrace(dir string, sp spec, seed int64, traces []*clientTrace) error {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return err
	}
	f, err := os.Create(filepath.Join(dir, sp.name+".trace.json"))
	if err != nil {
		return err
	}
	w := bufio.NewWriter(f)
	fmt.Fprintf(w, "{\"workload\":%q,\"seed\":%d,\"time_unit\":\"ns\",\"spans\":[", sp.name, seed)
	base, first := 1, true
	for c, t := range traces {
		for i, s := range t.spans {
			if !first {
				w.WriteByte(',')
			}
			first = false
			root := base + i
			parent := 0
			if s.parent >= 0 {
				root = base + int(s.parent)
				parent = root
			}
			fmt.Fprintf(w, "\n{\"id\":%d,\"parent\":%d,\"root\":%d,\"client\":%d,\"name\":%q,", base+i, parent, root, c, spanNames[s.name])
			if s.name == spRoot {
				fmt.Fprintf(w, "\"kind\":%q,", s.kind)
			}
			fmt.Fprintf(w, "\"start\":%d,\"end\":%d}", s.start, s.end)
		}
		base += len(t.spans)
	}
	w.WriteString("\n]}\n")
	if err := w.Flush(); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}
