package semcc_test

import (
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"strings"
	"sync"
	"testing"
	"time"

	"semcc"
	"semcc/internal/wal"
)

// TestPublicAPISchemaDefinition builds a complete encapsulated type
// through the public façade only.
func TestPublicAPISchemaDefinition(t *testing.T) {
	db := semcc.Open(semcc.Options{Protocol: semcc.Semantic})

	m := semcc.NewMatrix("Logbook", "Append", "Count", "Unappend")
	m.Set("Append", "Append", semcc.Always)
	m.Set("Unappend", "Append", semcc.Always)
	m.Set("Unappend", "Unappend", semcc.Always)
	m.Set("Count", "Count", semcc.Always)

	typ, err := semcc.NewType("Logbook", m,
		&semcc.Method{
			Name: "Append",
			Body: func(ctx *semcc.Ctx, recv semcc.OID, args []semcc.Value) (semcc.Value, error) {
				entries, err := ctx.Component(recv, "Entries")
				if err != nil {
					return semcc.Null, err
				}
				seqAtom, err := ctx.Component(recv, "Seq")
				if err != nil {
					return semcc.Null, err
				}
				seq, err := ctx.Get(seqAtom)
				if err != nil {
					return semcc.Null, err
				}
				if err := ctx.Put(seqAtom, semcc.Int(seq.Int()+1)); err != nil {
					return semcc.Null, err
				}
				cell, err := ctx.NewAtomic(args[0])
				if err != nil {
					return semcc.Null, err
				}
				if err := ctx.Insert(entries, semcc.Int(seq.Int()), cell); err != nil {
					return semcc.Null, err
				}
				return semcc.Int(seq.Int()), nil
			},
			Inverse: func(inv semcc.Invocation, result semcc.Value) *semcc.Invocation {
				unappend, _ := m.ID("Unappend")
				c := semcc.Invocation{Object: inv.Object, Method: unappend, Args: []semcc.Value{result}}
				return &c
			},
		},
		&semcc.Method{
			Name: "Unappend",
			Body: func(ctx *semcc.Ctx, recv semcc.OID, args []semcc.Value) (semcc.Value, error) {
				entries, err := ctx.Component(recv, "Entries")
				if err != nil {
					return semcc.Null, err
				}
				return semcc.Null, ctx.Remove(entries, args[0])
			},
		},
		&semcc.Method{
			Name: "Count", ReadOnly: true,
			Body: func(ctx *semcc.Ctx, recv semcc.OID, args []semcc.Value) (semcc.Value, error) {
				entries, err := ctx.Component(recv, "Entries")
				if err != nil {
					return semcc.Null, err
				}
				es, err := ctx.Scan(entries)
				if err != nil {
					return semcc.Null, err
				}
				return semcc.Int(int64(len(es))), nil
			},
		},
	)
	if err != nil {
		t.Fatal(err)
	}
	if err := db.RegisterType(typ); err != nil {
		t.Fatal(err)
	}

	// Instantiate.
	store := db.Store()
	seq, _ := store.NewAtomic(semcc.Int(0))
	entries, _ := store.NewSet()
	log, err := store.NewTuple([]string{"Seq", "Entries"}, map[string]semcc.OID{"Seq": seq, "Entries": entries})
	if err != nil {
		t.Fatal(err)
	}
	if err := db.BindInstance(log, "Logbook"); err != nil {
		t.Fatal(err)
	}

	tx := db.Begin()
	if _, err := tx.Call(log, "Append", semcc.Str("hello")); err != nil {
		t.Fatal(err)
	}
	if _, err := tx.Call(log, "Append", semcc.Str("world")); err != nil {
		t.Fatal(err)
	}
	n, err := tx.Call(log, "Count")
	if err != nil {
		t.Fatal(err)
	}
	if n.Int() != 2 {
		t.Fatalf("count = %d, want 2", n.Int())
	}
	if err := tx.Commit(); err != nil {
		t.Fatal(err)
	}

	// Abort path exercises the registered inverse.
	tx = db.Begin()
	if _, err := tx.Call(log, "Append", semcc.Str("oops")); err != nil {
		t.Fatal(err)
	}
	if err := tx.Abort(); err != nil {
		t.Fatal(err)
	}
	tx = db.Begin()
	n, _ = tx.Call(log, "Count")
	_ = tx.Commit()
	if n.Int() != 2 {
		t.Fatalf("after abort count = %d, want 2", n.Int())
	}

	if got := db.Engine().Stats(); got.Compensations != 1 {
		t.Errorf("compensations = %d, want 1", got.Compensations)
	}
}

func TestPublicValueConstructors(t *testing.T) {
	if semcc.Int(5).Int() != 5 || semcc.Str("x").Str() != "x" || !semcc.Bool(true).Bool() {
		t.Error("constructor mismatch")
	}
	if semcc.Float(1.5).Float() != 1.5 {
		t.Error("float mismatch")
	}
	if !semcc.Null.IsNull() {
		t.Error("Null is not null")
	}
	if len(semcc.Protocols()) != 5 {
		t.Error("protocol list wrong")
	}
	if semcc.ArgsDiffer(0)(semcc.Invocation{Args: []semcc.Value{semcc.Int(1)}},
		semcc.Invocation{Args: []semcc.Value{semcc.Int(1)}}) {
		t.Error("ArgsDiffer(same) = true")
	}
	if !semcc.Always(semcc.Invocation{}, semcc.Invocation{}) || semcc.Never(semcc.Invocation{}, semcc.Invocation{}) {
		t.Error("Always/Never wrong")
	}
}

// TestObservabilityThroughFacade drives an Obs-attached database
// through the public façade only: Options.Obs wiring, the decision
// events of one real lock conflict (an uncontended root leaves none),
// the DB.ObservabilityJSON snapshot, the per-cause wait histogram in
// the Prometheus export, and disabling.
func TestObservabilityThroughFacade(t *testing.T) {
	o := semcc.NewObs(semcc.ObsConfig{})
	o.SetEnabled(true)
	db := semcc.Open(semcc.Options{Protocol: semcc.Semantic, Obs: o})

	a, err := db.Store().NewAtomic(semcc.Int(0))
	if err != nil {
		t.Fatal(err)
	}
	// contend makes one root wait for another's commit on a: the
	// holder writes a, a second root's write blocks (seen on the
	// engine's block counter), the holder commits, the waiter follows.
	contend := func(blocks uint64) {
		t.Helper()
		holder := db.Begin()
		if err := holder.Put(a, semcc.Int(1)); err != nil {
			t.Fatal(err)
		}
		done := make(chan error, 1)
		go func() {
			tx := db.Begin()
			err := tx.Put(a, semcc.Int(2))
			if err == nil {
				err = tx.Commit()
			}
			done <- err
		}()
		for deadline := time.Now().Add(10 * time.Second); db.Engine().Stats().Blocks < blocks; time.Sleep(time.Millisecond) {
			if time.Now().After(deadline) {
				t.Fatal("the second writer never blocked")
			}
		}
		if err := holder.Commit(); err != nil {
			t.Fatal(err)
		}
		if err := <-done; err != nil {
			t.Fatal(err)
		}
	}

	tx := db.Begin()
	if err := tx.Put(a, semcc.Int(0)); err != nil {
		t.Fatal(err)
	}
	if err := tx.Commit(); err != nil {
		t.Fatal(err)
	}
	if n := o.Events(0, 0).Emitted; n != 0 {
		t.Fatalf("an uncontended root emitted %d events, want none", n)
	}

	contend(1)
	snap := o.Events(5, 10)
	if snap.Emitted != 2 || len(snap.Recent) != 2 || len(snap.Hot) != 1 || snap.Hot[0].Blocks != 1 {
		t.Fatalf("one conflict left %+v, want a block and a grant on one hot object", snap)
	}
	raw, err := db.ObservabilityJSON(5, 10)
	if err != nil {
		t.Fatal(err)
	}
	for _, want := range []string{`"kind": "block"`, `"kind": "grant"`, `"cause": "root-wait"`} {
		if !strings.Contains(string(raw), want) {
			t.Errorf("observability JSON is missing %s:\n%s", want, raw)
		}
	}
	// The trace section uses symbolic names (write-only diagnostics),
	// so decode it loosely.
	var doc struct {
		Protocol string      `json:"protocol"`
		Stats    semcc.Stats `json:"stats"`
		Trace    *struct {
			Emitted uint64 `json:"events_emitted"`
		} `json:"trace"`
	}
	if err := json.Unmarshal(raw, &doc); err != nil {
		t.Fatalf("ObservabilityJSON is not valid JSON: %v\n%s", err, raw)
	}
	if doc.Protocol != "semantic" {
		t.Errorf("protocol = %q, want semantic", doc.Protocol)
	}
	if doc.Stats.RootsCommitted != 3 || doc.Stats.Blocks != 1 {
		t.Errorf("stats = %d roots committed, %d blocks; want 3 and 1", doc.Stats.RootsCommitted, doc.Stats.Blocks)
	}
	if doc.Trace == nil || doc.Trace.Emitted != snap.Emitted {
		t.Errorf("trace section missing or stale in ObservabilityJSON: %+v", doc.Trace)
	}
	var prom strings.Builder
	if err := o.WriteProm(&prom); err != nil {
		t.Fatal(err)
	}
	if want := `semcc_lock_wait_ns_count{cause="root-wait"} 1`; !strings.Contains(prom.String(), want) {
		t.Errorf("Prometheus export is missing %s", want)
	}

	// Disabling stops collection without detaching.
	o.SetEnabled(false)
	contend(2)
	if after := o.Events(0, 0).Emitted; after != snap.Emitted {
		t.Errorf("disabled Obs still collecting: %d -> %d events", snap.Emitted, after)
	}
}

// TestServeObservabilityLive drives an Obs-attached database through
// the public façade and scrapes the live endpoint while transactions
// run: Options.Obs wiring, span collection, the Prometheus and JSON
// expositions covering every layer, and the pprof mount.
func TestServeObservabilityLive(t *testing.T) {
	o := semcc.NewObs(semcc.ObsConfig{SlowSpan: time.Nanosecond})
	db := semcc.Open(semcc.Options{Protocol: semcc.Semantic, Obs: o})
	srv, err := db.ServeObservability("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()
	if !o.On() {
		t.Fatal("ServeObservability did not enable collection")
	}

	a, err := db.Store().NewAtomic(semcc.Int(0))
	if err != nil {
		t.Fatal(err)
	}
	var wg sync.WaitGroup
	for w := 0; w < 4; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := int64(0); i < 25; i++ {
				tx := db.Begin()
				if err := tx.Put(a, semcc.Int(int64(w)*100+i)); err != nil {
					t.Error(err)
					_ = tx.Abort()
					return
				}
				if err := tx.Commit(); err != nil {
					t.Error(err)
					return
				}
			}
		}(w)
	}
	wg.Wait()

	get := func(path string) string {
		t.Helper()
		resp, err := http.Get("http://" + srv.Addr() + path)
		if err != nil {
			t.Fatal(err)
		}
		defer resp.Body.Close()
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("GET %s: %s", path, resp.Status)
		}
		body, _ := io.ReadAll(resp.Body)
		return string(body)
	}

	metrics := get("/metrics")
	for _, want := range []string{
		"semcc_engine_roots_committed_total", // engine layer
		"semcc_pool_hits_total",              // buffer pool layer
		"semcc_store_shard_ops_total",        // object store layer
		"semcc_tx_latency_ns_count",          // span recorder
		`semcc_info{protocol="semantic"}`,
	} {
		if !strings.Contains(metrics, want) {
			t.Errorf("/metrics missing %s", want)
		}
	}

	var snap struct {
		Protocol string `json:"protocol"`
		Enabled  bool   `json:"enabled"`
		Spans    struct {
			Finished uint64 `json:"finished"`
		} `json:"spans"`
	}
	if err := json.Unmarshal([]byte(get("/json")), &snap); err != nil {
		t.Fatalf("/json invalid: %v", err)
	}
	if snap.Protocol != "semantic" || !snap.Enabled {
		t.Errorf("/json header = %+v", snap)
	}
	if snap.Spans.Finished < 100 {
		t.Errorf("spans.finished = %d, want >= 100", snap.Spans.Finished)
	}
	if body := get("/debug/pprof/cmdline"); len(body) == 0 {
		t.Error("/debug/pprof/cmdline empty")
	}
}

// TestWALMetricsThroughFacade checks that a journal-backed database
// surfaces WAL metrics in the unified registry (the obs.Attacher path)
// and that spans charge WAL time.
func TestWALMetricsThroughFacade(t *testing.T) {
	o := semcc.NewObs(semcc.ObsConfig{})
	o.SetEnabled(true)
	log := wal.NewLog()
	db := semcc.Open(semcc.Options{Protocol: semcc.Semantic, Journal: log, Obs: o})

	a, err := db.Store().NewAtomic(semcc.Int(0))
	if err != nil {
		t.Fatal(err)
	}
	tx := db.Begin()
	if err := tx.Put(a, semcc.Int(7)); err != nil {
		t.Fatal(err)
	}
	if err := tx.Commit(); err != nil {
		t.Fatal(err)
	}

	var buf strings.Builder
	if err := o.WriteProm(&buf); err != nil {
		t.Fatal(err)
	}
	out := buf.String()
	if !strings.Contains(out, "semcc_wal_appends_total") {
		t.Errorf("exposition missing WAL metrics:\n%s", out)
	}
	// The begin/complete/commit records of the transaction above must
	// have been counted.
	var appends uint64
	for _, line := range strings.Split(out, "\n") {
		if n, err := fmt.Sscanf(line, "semcc_wal_appends_total %d", &appends); n == 1 && err == nil {
			break
		}
	}
	if appends == 0 {
		t.Errorf("semcc_wal_appends_total = 0, want > 0:\n%s", out)
	}

	snap := o.Spans.Snapshot(1)
	if len(snap.Recent) == 0 {
		t.Fatal("no span tree recorded")
	}
	root := snap.Recent[0]
	if root.WALAppends == 0 {
		t.Errorf("root span charged no WAL appends: %+v", root)
	}
}
