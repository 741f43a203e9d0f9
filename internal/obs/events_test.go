package obs

import (
	"encoding/json"
	"strings"
	"sync"
	"testing"

	"semcc/internal/oid"
)

func tuple(n uint64) oid.OID { return oid.OID{K: oid.Tuple, N: n} }

func enabledObs() *Obs {
	o := New(Config{})
	o.SetEnabled(true)
	return o
}

// TestDisabledAndNilObsEmitNothing: a nil or never-enabled Obs records
// no event and builds no ring or profile; enabling builds them for the
// stripes that are hit, one event at a time.
func TestDisabledAndNilObsEmitNothing(t *testing.T) {
	var nilObs *Obs
	nilObs.Emit(0, Event{Kind: EvBlock}) // must not panic
	if s := nilObs.Events(5, 5); s.Emitted != 0 {
		t.Errorf("nil Obs snapshot = %+v", s)
	}

	o := New(Config{})
	o.Emit(0, Event{Kind: EvBlock, Obj: tuple(1)})
	if s := o.Events(5, 5); s.Emitted != 0 || len(s.Hot) != 0 || len(s.Recent) != 0 {
		t.Errorf("disabled Obs collected: %+v", s)
	}
	for i := range o.evs {
		if o.evs[i].ring != nil || o.evs[i].objs != nil {
			t.Fatalf("never-enabled Obs built stripe %d", i)
		}
	}

	o.SetEnabled(true)
	o.Emit(3, Event{Kind: EvBlock, Obj: tuple(1)})
	for i := range o.evs {
		if built := o.evs[i].ring != nil; built != (i == 3) {
			t.Errorf("stripe %d built = %v after one event on stripe 3", i, built)
		}
	}
	o.SetEnabled(false)
	o.Emit(3, Event{Kind: EvBlock, Obj: tuple(1)})
	if s := o.Events(0, 0); s.Emitted != 1 {
		t.Errorf("Emitted = %d after disabling, want 1", s.Emitted)
	}
}

func TestRingOverwritesOldestAndKeepsOrder(t *testing.T) {
	o := enabledObs()
	const n = evRing + 6
	for i := uint64(1); i <= n; i++ {
		o.Emit(0, Event{Kind: EvCase1, Node: i})
	}
	s := o.Events(0, n)
	if s.Emitted != n {
		t.Fatalf("Emitted = %d, want %d", s.Emitted, n)
	}
	if len(s.Recent) != evRing {
		t.Fatalf("recent = %d events, want the ring size %d", len(s.Recent), evRing)
	}
	for i, ev := range s.Recent {
		if want := uint64(7 + i); ev.Seq != want || ev.Node != want {
			t.Fatalf("recent[%d] = seq %d node %d, want %d", i, ev.Seq, ev.Node, want)
		}
	}
	if last := o.Events(0, 4).Recent; len(last) != 4 || last[0].Seq != n-3 {
		t.Errorf("last 4 = %+v, want seq %d..%d", last, n-3, n)
	}
}

func TestHotObjectsRankByBlocksThenWait(t *testing.T) {
	o := enabledObs()
	// Object 1: 3 blocks, little wait. Object 2: 1 block, huge wait.
	// Object 3: 3 blocks, more wait than object 1.
	for i := 0; i < 3; i++ {
		o.Emit(1, Event{Kind: EvBlock, Obj: tuple(1)})
		o.Emit(1, Event{Kind: EvGrant, Cause: WaitCase2, Obj: tuple(1), Nanos: 10})
		o.Emit(3, Event{Kind: EvBlock, Obj: tuple(3)})
		o.Emit(3, Event{Kind: EvDeadlock, Cause: WaitRoot, Obj: tuple(3), Nanos: 1000})
	}
	o.Emit(2, Event{Kind: EvBlock, Obj: tuple(2)})
	o.Emit(2, Event{Kind: EvGrant, Cause: WaitRoot, Obj: tuple(2), Nanos: 1 << 30})
	// Admissions and compensation steps are no part of the profile.
	o.Emit(2, Event{Kind: EvCase1, Obj: tuple(9), Peer: 4})
	o.Emit(2, Event{Kind: EvComp, Obj: tuple(9)})

	s := o.Events(2, 0)
	if len(s.Hot) != 2 {
		t.Fatalf("hot = %+v, want top-2", s.Hot)
	}
	if s.Hot[0].Obj != tuple(3) || s.Hot[0].Blocks != 3 || s.Hot[0].WaitNanos != 3000 {
		t.Errorf("hot[0] = %+v, want tuple:3 with 3 blocks / 3000ns", s.Hot[0])
	}
	if s.Hot[1].Obj != tuple(1) || s.Hot[1].Blocks != 3 {
		t.Errorf("hot[1] = %+v, want tuple:1", s.Hot[1])
	}
	if all := o.Events(0, 0).Hot; len(all) != 3 {
		t.Errorf("full profile = %+v, want the three objects that blocked", all)
	}
}

// TestHistogramBucketsByCause reads the per-cause wait histograms back
// the way every other consumer does: as the registry family
// semcc_lock_wait_ns{cause}.
func TestHistogramBucketsByCause(t *testing.T) {
	o := enabledObs()
	// 100ns and 120ns share the [64,128) bucket; 1<<20 ns is elsewhere.
	o.Emit(0, Event{Kind: EvGrant, Cause: WaitCase2, Obj: tuple(1), Nanos: 100})
	o.Emit(0, Event{Kind: EvAborted, Cause: WaitCase2, Obj: tuple(1), Nanos: 120})
	o.Emit(0, Event{Kind: EvForce, Cause: WaitRoot, Obj: tuple(1), Nanos: 1 << 20})
	// Only the kinds that end a wait enter a histogram.
	o.Emit(0, Event{Kind: EvBlock, Cause: WaitRoot, Obj: tuple(1)})
	o.Emit(0, Event{Kind: EvEscrow, Obj: tuple(1), Peer: 2})

	byCause := map[string]HistValue{}
	for _, m := range o.Registry.Snapshot() {
		if m.Name == "semcc_lock_wait_ns" {
			byCause[m.Labels["cause"]] = m.Value.(HistValue)
		}
	}
	if len(byCause) != int(numWaitCauses) {
		t.Fatalf("semcc_lock_wait_ns has series %v, want one per cause", byCause)
	}
	c2 := byCause["case2"]
	if c2.Count != 2 || c2.Sum != 220 || len(c2.Buckets) != 1 {
		t.Fatalf("case2 hist = %+v", c2)
	}
	if b := c2.Buckets[0]; b.Lo != 64 || b.Hi != 128 || b.Count != 2 {
		t.Errorf("case2 bucket = %+v, want [64,128)=2", b)
	}
	rw := byCause["root-wait"]
	if rw.Count != 1 {
		t.Fatalf("root-wait hist = %+v", rw)
	}
	if b := rw.Buckets[0]; !(b.Lo <= 1<<20 && 1<<20 < b.Hi) {
		t.Errorf("root-wait bucket %+v does not cover 2^20", b)
	}
	if other := byCause["other"]; other.Count != 0 {
		t.Errorf("other hist = %+v, want empty", other)
	}
}

func TestEventsJSONShape(t *testing.T) {
	o := enabledObs()
	o.SetConst("protocol", "semantic")
	o.Emit(0, Event{Kind: EvBlock, Cause: WaitRoot, Node: 2, Root: 1, Obj: tuple(7), Peer: 3})
	o.Emit(0, Event{Kind: EvGrant, Cause: WaitRoot, Node: 2, Root: 1, Obj: tuple(7), Nanos: 500})
	o.Emit(0, Event{Kind: EvCase1, Node: 5, Root: 4, Obj: tuple(8), Peer: 2})

	raw, err := o.JSON(Params{TopK: 5, Recent: 5})
	if err != nil {
		t.Fatal(err)
	}
	var doc struct {
		Protocol string                     `json:"protocol"`
		Trace    map[string]json.RawMessage `json:"trace"`
	}
	if err := json.Unmarshal(raw, &doc); err != nil {
		t.Fatalf("JSON export is not valid JSON: %v\n%s", err, raw)
	}
	if doc.Protocol != "semantic" {
		t.Errorf("protocol = %q", doc.Protocol)
	}
	for _, key := range []string{"events_emitted", "hot_objects", "recent_events"} {
		if _, ok := doc.Trace[key]; !ok {
			t.Errorf("trace section missing %q:\n%s", key, raw)
		}
	}
	text := string(raw)
	for _, want := range []string{`"kind": "block"`, `"cause": "root-wait"`, `"obj": "tuple:7"`, `"peer": 3`, `"wait_ns": 500`, `"kind": "case1"`} {
		if !strings.Contains(text, want) {
			t.Errorf("JSON export missing %s:\n%s", want, text)
		}
	}
	if n := strings.Count(string(doc.Trace["recent_events"]), `"cause"`); n != 2 {
		t.Errorf("%d events carry a cause, want the block and the grant only:\n%s", n, text)
	}
}

func TestContentionReport(t *testing.T) {
	o := enabledObs()
	o.Emit(0, Event{Kind: EvBlock, Cause: WaitCase2, Node: 2, Root: 1, Obj: tuple(7), Peer: 3})
	o.Emit(0, Event{Kind: EvGrant, Cause: WaitCase2, Node: 2, Root: 1, Obj: tuple(7), Nanos: 12345})
	out := o.ContentionReport(5, 5)
	for _, want := range []string{
		"events emitted: 2", "tuple:7", "12.3µs",
		"wait-time histogram — case2 (1 waits)", "[  8.19µs,   16.4µs)",
		"#1 block tx2(root 1) obj=tuple:7 cause=case2 peer=tx3",
		"#2 grant tx2(root 1) obj=tuple:7 cause=case2 waited=12.3µs",
	} {
		if !strings.Contains(out, want) {
			t.Errorf("report missing %q:\n%s", want, out)
		}
	}
	if strings.Contains(out, "root-wait") {
		t.Errorf("report shows a histogram for a cause that never waited:\n%s", out)
	}
}

// TestConcurrentEmission exercises the stripe mutexes and atomic
// counters under -race.
func TestConcurrentEmission(t *testing.T) {
	o := enabledObs()
	var wg sync.WaitGroup
	const workers, per = 8, 500
	for w := 0; w < workers; w++ {
		w := w
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < per; i++ {
				o.Emit(w+i, Event{Kind: EvBlock, Node: uint64(w), Obj: tuple(uint64(i % 10))})
				o.Emit(w+i, Event{Kind: EvGrant, Cause: WaitCase2, Node: uint64(w), Obj: tuple(uint64(i % 10)), Nanos: uint64(i + 1)})
			}
		}()
	}
	done := make(chan struct{})
	go func() {
		for i := 0; i < 50; i++ {
			o.Events(5, 20)
			o.ContentionReport(5, 20)
		}
		close(done)
	}()
	wg.Wait()
	<-done
	s := o.Events(0, 0)
	if want := uint64(workers * per * 2); s.Emitted != want {
		t.Errorf("Emitted = %d, want %d", s.Emitted, want)
	}
	var blocks uint64
	for _, h := range s.Hot {
		blocks += h.Blocks
	}
	if want := uint64(workers * per); blocks != want {
		t.Errorf("total blocks = %d, want %d", blocks, want)
	}
	if got := o.waitNs[WaitCase2].Count(); got != workers*per {
		t.Errorf("case2 waits = %d, want %d", got, workers*per)
	}
}
