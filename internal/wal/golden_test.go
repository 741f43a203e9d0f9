package wal

import (
	"bytes"
	"os"
	"path/filepath"
	"reflect"
	"runtime"
	"testing"
	"time"

	"semcc/internal/compat"
	"semcc/internal/core"
	"semcc/internal/orderentry"
	"semcc/internal/val"
)

// golden reads one of the frozen images of testdata/golden. They were
// written at commit 220ec06 from the dryRun order-entry scenario:
// sync.image is DurableBytes of a sync journal fed the scenario,
// flat.bin its Marshal, group-b3.image DurableBytes of the scenario run
// on a ModeGroup journal with MaxBatch 3 and MaxDelay 1h. They hold
// the codec and the framing still: a change that moves the bytes of
// these records changes the on-disk format; regenerate them only with
// that intent. What the engine emits has moved on since (it no longer
// journals read leaves or JBegin's invocation), so they are fed their
// own frozen records, not today's dryRun; TestParentImageRecoversAlike
// holds today's emission to what the frozen one recovers to.
func golden(t testing.TB, name string) []byte {
	t.Helper()
	b, err := os.ReadFile(filepath.Join("testdata", "golden", name))
	if err != nil {
		t.Fatal(err)
	}
	return b
}

// goldenRecords decodes the frozen record sequence of flat.bin.
func goldenRecords(t testing.TB) []core.JournalRecord {
	t.Helper()
	flat, err := Unmarshal(golden(t, "flat.bin"))
	if err != nil {
		t.Fatal(err)
	}
	return flat.Records()
}

func TestGoldenImages(t *testing.T) {
	recs := goldenRecords(t)

	s := New(Config{Mode: ModeSync})
	for i, r := range recs {
		s.Append(r)
		if st := s.Stats(); st.Records != i+1 || st.Durable != st.Records || st.Flushes != uint64(st.Records) {
			t.Fatalf("sync journal after append %d: %+v, want durable == records == flushes", i+1, st)
		}
	}
	if !bytes.Equal(s.DurableBytes(), golden(t, "sync.image")) {
		t.Error("sync-mode durable image differs from golden/sync.image")
	}
	if !bytes.Equal(s.(*Log).Marshal(), golden(t, "flat.bin")) {
		t.Error("flat serialisation differs from golden/flat.bin")
	}
	flat, err := Unmarshal(golden(t, "flat.bin"))
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(flat.DurableBytes(), golden(t, "sync.image")) {
		t.Error("Unmarshal(flat.bin) does not rebuild golden/sync.image")
	}

	// The group image holds the same records in batches of at most 3,
	// cut early at each root outcome. Re-framed batch by batch it must
	// come back byte for byte, and so must the writer's own image when
	// the frozen records are submitted as the engine submits them: root
	// outcomes through AppendAck, waited for.
	img := golden(t, "group-b3.image")
	g, batches, err := UnmarshalDurable(img)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(g.Records(), recs) {
		t.Fatal("golden/group-b3.image and golden/flat.bin hold different records")
	}
	var reframed []byte
	at := 0
	for _, b := range batches {
		reframed = appendFrame(reframed, appendRecords(nil, recs[at:b.End]))
		at = b.End
	}
	if !bytes.Equal(reframed, img) {
		t.Error("golden/group-b3.image re-framed batch by batch differs from itself")
	}
	w := New(Config{Mode: ModeGroup, MaxBatch: 3, MaxDelay: time.Hour})
	roots := map[uint64]bool{}
	for _, r := range recs {
		switch {
		case r.Kind == core.JBeginRoot:
			roots[r.Node] = true
			w.Append(r)
		case r.Kind == core.JRootCommit || r.Kind == core.JNodeAborted && roots[r.Node]:
			w.AppendAck(r).Wait()
		default:
			w.Append(r)
		}
	}
	w.Close()
	if !bytes.Equal(w.DurableBytes(), img) {
		t.Error("group-mode (MaxBatch 3) image of the frozen records differs from golden/group-b3.image")
	}
}

// TestParentImageRecoversAlike holds what the engine journals today to
// what it journaled when the golden images were written: the same
// scenario must recover to the same outcome at every crash point.
// Today's journal is the frozen one with two things left out, each
// something Analyze never read: the invocation on JBegin, and every
// record of a generic read leaf (Get, Select, Scan). Cut after any
// record of the frozen journal, and after the last record of today's
// journal that survives in that prefix, the two must analyse to the
// same winners, the same losers with the same pending compensations,
// and the same in-doubt roots. Only journal positions (Last) may
// differ.
//
// One workload change is bridged as well. An order's status used to
// change by a Get and a Put of its atom; today it changes by one Add
// (orderentry's packed status counts). The Get was a read leaf, so the
// frozen and today's journals still match record for record, but every
// node id after the first status change moved, and the status leaf's
// inverse is the negated delta instead of the before-image. So records
// are matched by position and kind, node ids by a bijection that must
// hold across the whole journal (sameIDs), and invocations exactly,
// except that a status leaf's Put of an event multiset may stand
// opposite an Add of one event's unit on the same atom (sameInv).
func TestParentImageRecoversAlike(t *testing.T) {
	parent, _, err := UnmarshalDurable(golden(t, "sync.image"))
	if err != nil {
		t.Fatal(err)
	}
	old := parent.Records()
	now, _ := dryRun(t, orderentry.DefaultConfig())

	readLeaves := map[uint64]bool{}
	for _, r := range old {
		if r.Kind == core.JBegin && r.Inv != nil && compat.IsReadOp(r.Inv.Method) {
			readLeaves[r.Node] = true
		}
	}
	if len(readLeaves) == 0 {
		t.Fatal("the frozen journal has no read leaf: the comparison below would check nothing")
	}
	for i, r := range now {
		if r.Kind == core.JBegin && r.Inv != nil {
			t.Errorf("record %d: JBegin of %d carries an invocation (%s)", i, r.Node, r.Inv)
		}
	}

	// kept[p] is how many of today's records the frozen prefix old[:p]
	// contains: today's journal must be exactly the frozen one with the
	// read leaves dropped and JBegin stripped, in the same order. A
	// journaled read leaf of today's would have no frozen counterpart.
	kept := make([]int, len(old)+1)
	var want []core.JournalRecord
	for p, r := range old {
		if !readLeaves[r.Node] {
			if r.Kind == core.JBegin {
				r.Inv = nil
			}
			want = append(want, r)
		}
		kept[p+1] = len(want)
	}
	ids := sameIDs{old: map[uint64]uint64{}, now: map[uint64]uint64{}}
	same := len(now) == len(want)
	for i := 0; same && i < len(now); i++ {
		o, n := want[i], now[i]
		parentOK := ids.match(o.Parent, n.Parent)
		if o.Kind == core.JPrepare || o.Kind == core.JDecide {
			parentOK = o.Parent == n.Parent // a gid, not a node id
		}
		same = o.Kind == n.Kind && o.Splice == n.Splice && ids.match(o.Node, n.Node) && parentOK && sameInv(o.Inv, n.Inv)
	}
	if !same {
		t.Fatalf("today's journal is not the frozen one without read leaves and JBegin invocations:\n got %v\nwant %v", now, want)
	}

	analyse := func(recs []core.JournalRecord) *Analysis {
		t.Helper()
		l := NewLog()
		l.recs = recs
		a, err := Analyze(l)
		if err != nil {
			t.Fatal(err)
		}
		return a
	}
	losers := 0
	for p := 0; p <= len(old); p++ {
		a, b := analyse(old[:p]), analyse(now[:kept[p]])
		if !ids.sameAnalysis(a, b) {
			t.Errorf("cut after frozen record %d (today's %d): analyses differ\nfrozen %+v\ntoday  %+v", p, kept[p], a, b)
		}
		for _, l := range a.Losers {
			losers += len(l.Pending)
		}
	}
	if losers == 0 {
		t.Error("no cut left a loser with pending compensations: the sweep compared only trivial analyses")
	}
}

// sameIDs pairs the frozen journal's node ids with today's, one to one:
// the first pairing of an id fixes it, and every later one must agree
// in both directions. 0 (no parent) pairs only with itself.
type sameIDs struct{ old, now map[uint64]uint64 }

func (m sameIDs) match(o, n uint64) bool {
	if o == 0 || n == 0 {
		return o == n
	}
	if x, ok := m.old[o]; ok {
		return x == n
	}
	if _, ok := m.now[n]; ok {
		return false
	}
	m.old[o], m.now[n] = n, o
	return true
}

// sameAnalysis compares two analyses field by field, ids through m and
// invocations by sameInv, ignoring journal positions (Last).
func (m sameIDs) sameAnalysis(a, b *Analysis) bool {
	if len(a.Committed) != len(b.Committed) || len(a.Losers) != len(b.Losers) || len(a.InDoubt) != len(b.InDoubt) {
		return false
	}
	for i := range a.Committed {
		if !m.match(a.Committed[i], b.Committed[i]) {
			return false
		}
	}
	for i, l := range a.Losers {
		if !m.match(l.Root, b.Losers[i].Root) || !samePending(l.Pending, b.Losers[i].Pending) {
			return false
		}
	}
	for i, d := range a.InDoubt {
		e := b.InDoubt[i]
		if !m.match(d.Root, e.Root) || d.GID != e.GID || !samePending(d.Pending, e.Pending) {
			return false
		}
	}
	return true
}

func samePending(a, b []compat.Invocation) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if !sameInv(&a[i], &b[i]) {
			return false
		}
	}
	return true
}

// sameInv reports whether two journaled invocations are equal, or are
// the frozen and today's inverse of one status leaf: a Put of an event
// multiset (the before-image) and an Add of one event's unit, ±1 for
// paid or ±1<<32 for shipped, on the same atom.
func sameInv(o, n *compat.Invocation) bool {
	if o == nil || n == nil {
		return o == n
	}
	if reflect.DeepEqual(*o, *n) {
		return true
	}
	if o.Method != compat.OpPut || n.Method != compat.OpAdd || o.Object != n.Object || len(o.Args) != 1 || len(n.Args) != 1 {
		return false
	}
	switch d := n.Args[0].Int(); {
	case o.Args[0].T != val.Events:
		return false
	case d == 1, d == -1, d == 1<<32, d == -1<<32:
		return true
	}
	return false
}

// TestWriterlessJournalIsJustMemory holds a journal without a writer —
// NewLog, a decoded image — to what recovery and the benchmark's
// per-segment decode rely on: no goroutine, no channel, no timer, one
// allocation.
func TestWriterlessJournalIsJustMemory(t *testing.T) {
	if n := testing.AllocsPerRun(100, func() { NewLog() }); n > 1 {
		t.Errorf("NewLog allocates %v times, want the Log alone", n)
	}
	img := golden(t, "group-b3.image")
	before := runtime.NumGoroutine()
	for i := 0; i < 1000; i++ {
		l, _, err := UnmarshalDurable(img)
		if err != nil {
			t.Fatal(err)
		}
		if l.submitCh != nil || l.done != nil || !l.noWriter || l.Mode() != ModeSync {
			t.Fatalf("decoded log has a writer: mode %s", l.Mode())
		}
	}
	if after := runtime.NumGoroutine(); after > before {
		t.Errorf("1000 UnmarshalDurable calls left %d goroutines behind", after-before)
	}
}
