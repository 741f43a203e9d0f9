package dist_test

import (
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"regexp"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"semcc/internal/core"
	"semcc/internal/dist"
	"semcc/internal/obs"
	"semcc/internal/oid"
	"semcc/internal/oodb"
	"semcc/internal/val"
	"semcc/internal/wal"
)

// obsCluster opens an n-node cluster with a fresh enabled Obs on every
// engine node and an enabled coordinator Obs attached to the cluster,
// plus one atom per node initialised to 0.
func obsCluster(t *testing.T, n int) (*dist.Cluster, *obs.Obs, []oid.OID) {
	t.Helper()
	c := dist.OpenCluster(n, func(i int) oodb.Options {
		no := obs.New(obs.Config{})
		no.SetEnabled(true)
		return oodb.Options{Protocol: core.Semantic, Journal: wal.NewLog(), Obs: no}
	})
	co := obs.New(obs.Config{})
	co.SetEnabled(true)
	c.AttachObs(co)
	atoms := make([]oid.OID, n)
	for i := range atoms {
		a, err := c.Node(i).DB().Store().NewAtomic(val.OfInt(0))
		if err != nil {
			t.Fatal(err)
		}
		atoms[i] = a
	}
	return c, co, atoms
}

// commitCross runs one root that touches every given atom and commits
// it, returning the global transaction id.
func commitCross(t *testing.T, c *dist.Cluster, atoms []oid.OID) uint64 {
	t.Helper()
	tx, err := c.Begin()
	if err != nil {
		t.Fatal(err)
	}
	for _, a := range atoms {
		if _, err := tx.Add(a, 1); err != nil {
			t.Fatal(err)
		}
	}
	if err := tx.Commit(); err != nil {
		t.Fatal(err)
	}
	return tx.GID()
}

var promNameRe = regexp.MustCompile(`^[a-zA-Z_:][a-zA-Z0-9_:]*$`)

// lintProm validates body against the Prometheus 0.0.4 text format the
// way promtool's lint does structurally: legal metric names, at most
// one TYPE line per family (emitted before the family's samples),
// histogram sample suffixes only under histogram families, and no
// duplicate name+labelset.
func lintProm(t *testing.T, body string) {
	t.Helper()
	typed := map[string]string{} // family name → kind
	seen := map[string]bool{}    // full sample line identity
	for ln, line := range strings.Split(body, "\n") {
		if line == "" {
			continue
		}
		if strings.HasPrefix(line, "# HELP ") {
			continue
		}
		if strings.HasPrefix(line, "# TYPE ") {
			f := strings.Fields(line)
			if len(f) != 4 {
				t.Fatalf("line %d: malformed TYPE: %q", ln+1, line)
			}
			name, kind := f[2], f[3]
			if !promNameRe.MatchString(name) {
				t.Fatalf("line %d: illegal family name %q", ln+1, name)
			}
			if prev, dup := typed[name]; dup {
				t.Fatalf("line %d: duplicate TYPE for %s (was %s, now %s)", ln+1, name, prev, kind)
			}
			typed[name] = kind
			continue
		}
		if strings.HasPrefix(line, "#") {
			t.Fatalf("line %d: unknown comment %q", ln+1, line)
		}
		name := line
		if i := strings.IndexAny(line, "{ "); i >= 0 {
			name = line[:i]
		}
		if !promNameRe.MatchString(name) {
			t.Fatalf("line %d: illegal sample name %q", ln+1, name)
		}
		family := name
		for _, suf := range []string{"_bucket", "_sum", "_count"} {
			base := strings.TrimSuffix(name, suf)
			if base != name && typed[base] == "histogram" {
				family = base
				break
			}
		}
		if _, ok := typed[family]; !ok {
			t.Fatalf("line %d: sample %q outside any typed family", ln+1, name)
		}
		key := line[:strings.LastIndex(line, " ")]
		if seen[key] {
			t.Fatalf("line %d: duplicate series %q", ln+1, key)
		}
		seen[key] = true
	}
	if len(typed) == 0 {
		t.Fatal("no metric families in exposition")
	}
}

// TestClusterMergedScrape scrapes a live two-node cluster endpoint over
// HTTP after one cross-node commit: the merged exposition must carry
// the coordinator's dist metrics, both engines' metrics distinguished
// by node labels, and stay lint-valid Prometheus 0.0.4 text.
func TestClusterMergedScrape(t *testing.T) {
	c, _, atoms := obsCluster(t, 2)
	defer c.Close()
	commitCross(t, c, atoms)

	srv := httptest.NewServer(c.MergedObs().Handler())
	defer srv.Close()
	resp, err := http.Get(srv.URL + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	body, err := io.ReadAll(resp.Body)
	resp.Body.Close()
	if err != nil {
		t.Fatal(err)
	}
	s := string(body)
	lintProm(t, s)
	for _, want := range []string{
		`semcc_dist_commits_total{path="2pc"} 1`,
		`semcc_dist_hop_ns_count{op="prepare"} 2`,
		`semcc_dist_prepare_ns_count{node="0"} 1`,
		`semcc_dist_decide_ns_count{node="1"} 1`,
		`semcc_cluster_roots_committed_total 2`,
		`semcc_engine_roots_committed_total{node="0"} 1`,
		`semcc_engine_roots_committed_total{node="1"} 1`,
		`semcc_info{cluster_nodes="2"} 1`,
		`semcc_info{protocol="semantic",node="0"} 1`,
	} {
		if !strings.Contains(s, want) {
			t.Errorf("merged scrape missing %q", want)
		}
	}
	// The JSON view must also answer, with one part per node.
	jresp, err := http.Get(srv.URL + "/json")
	if err != nil {
		t.Fatal(err)
	}
	jbody, _ := io.ReadAll(jresp.Body)
	jresp.Body.Close()
	for _, want := range []string{`"merged": true`, `"node": "1"`} {
		if !strings.Contains(string(jbody), want) {
			t.Errorf("merged JSON missing %q:\n%.400s", want, jbody)
		}
	}
}

// findChild returns the first child of s whose label is exactly label.
func findChild(s *obs.Span, label string) *obs.Span {
	for _, ch := range s.Children {
		if ch.Label == label {
			return ch
		}
	}
	return nil
}

// TestDistSpanTree: one cross-node commit yields one GID-correlated
// span tree on the coordinator — the root labelled "global" with the
// prepare fan-out, the decision-log point, and the decide fan-out as
// children, the decide children carrying both nodes' branch trees, and
// the phase timings nonzero.
func TestDistSpanTree(t *testing.T) {
	c, co, atoms := obsCluster(t, 2)
	defer c.Close()
	gid := commitCross(t, c, atoms)

	snap := co.Spans.Snapshot(1)
	if len(snap.Recent) != 1 {
		t.Fatalf("coordinator retains %d trees, want 1", len(snap.Recent))
	}
	root := snap.Recent[0]
	if root.Label != "global" || root.ID != gid {
		t.Fatalf("root = %s id=%d, want global id=%d", root.Label, root.ID, gid)
	}
	if root.Outcome != obs.OutcomeCommitted {
		t.Fatalf("root outcome = %v", root.Outcome)
	}
	for _, label := range []string{"prepare:node0", "prepare:node1", "decision-log", "decide:node0", "decide:node1"} {
		ch := findChild(root, label)
		if ch == nil {
			t.Fatalf("root has no %s child (children: %v)", label, labelsOf(root))
		}
		if strings.HasPrefix(label, "prepare") || strings.HasPrefix(label, "decide") {
			if ch.DurNanos() == 0 {
				t.Errorf("%s phase recorded zero duration", label)
			}
		}
	}
	// The settling hop grafts each node's branch tree beneath its
	// decide child: the branch is the node-local root span (local ids,
	// not the GID — the GID correlation lives on the coordinator side)
	// and it recorded the node-local work, here the decide's journal
	// appends.
	for i := 0; i < 2; i++ {
		dec := findChild(root, fmt.Sprintf("decide:node%d", i))
		if len(dec.Children) != 1 {
			t.Fatalf("decide:node%d grafted %d branch trees, want 1", i, len(dec.Children))
		}
		branch := dec.Children[0]
		if branch.Label != "root" {
			t.Errorf("node %d branch span label = %q, want the engine root", i, branch.Label)
		}
		if branch.WALAppends == 0 {
			t.Errorf("node %d branch recorded no journal appends", i)
		}
	}
}

func labelsOf(s *obs.Span) []string {
	var out []string
	for _, ch := range s.Children {
		out = append(out, ch.Label)
	}
	return out
}

// TestDistSpanFastPath: a root that worked on a single node commits
// without 2PC — the span shows the direct commit child (no prepare, no
// decision-log) and the stats count it on the fast path.
func TestDistSpanFastPath(t *testing.T) {
	c, co, atoms := obsCluster(t, 2)
	defer c.Close()
	gid := commitCross(t, c, atoms[:1])

	st := c.DistStats()
	if st.SingleCommits != 1 || st.Commits2PC != 0 {
		t.Fatalf("stats = %+v, want one single-participant commit", st)
	}
	root := co.Spans.Snapshot(1).Recent[0]
	if root.ID != gid {
		t.Fatalf("root id = %d, want %d", root.ID, gid)
	}
	if findChild(root, "commit:node0") == nil {
		t.Fatalf("fast path has no commit:node0 child (children: %v)", labelsOf(root))
	}
	for _, absent := range []string{"prepare:node0", "decision-log"} {
		if findChild(root, absent) != nil {
			t.Errorf("fast path grew a %s child", absent)
		}
	}
}

// TestDistSpanReadOnlyVote: a read-only voter settles at prepare, so
// its finished branch tree comes back with the vote and hangs under
// prepare:nodeI, and it gets no decide child. With one voter read-only
// and one prepared the decision is still logged (path 2pc); with both
// read-only there is no decision-log child and the root counts on the
// single path.
func TestDistSpanReadOnlyVote(t *testing.T) {
	c, co, atoms := obsCluster(t, 2)
	defer c.Close()
	run := func(write1 bool) *obs.Span {
		t.Helper()
		tx, err := c.Begin()
		if err != nil {
			t.Fatal(err)
		}
		if _, err := tx.Get(atoms[0]); err != nil {
			t.Fatal(err)
		}
		if write1 {
			_, err = tx.Add(atoms[1], 1)
		} else {
			_, err = tx.Get(atoms[1])
		}
		if err != nil {
			t.Fatal(err)
		}
		if err := tx.Commit(); err != nil {
			t.Fatal(err)
		}
		root := co.Spans.Snapshot(1).Recent[0]
		if root.ID != tx.GID() {
			t.Fatalf("most recent root id = %d, want %d", root.ID, tx.GID())
		}
		return root
	}
	voted := func(root *obs.Span, node int) {
		t.Helper()
		prep := findChild(root, fmt.Sprintf("prepare:node%d", node))
		if prep == nil {
			t.Fatalf("no prepare:node%d child (children: %v)", node, labelsOf(root))
		}
		if len(prep.Children) != 1 || prep.Children[0].Label != "root" {
			t.Errorf("prepare:node%d carries %d branch trees, want the read-only voter's", node, len(prep.Children))
		}
		if findChild(root, fmt.Sprintf("decide:node%d", node)) != nil {
			t.Errorf("read-only voter on node %d was sent a decide", node)
		}
	}

	root := run(true)
	voted(root, 0)
	if findChild(root, "decision-log") == nil || findChild(root, "decide:node1") == nil {
		t.Errorf("mixed vote: children %v, want a decision-log and decide:node1", labelsOf(root))
	}
	if p := findChild(root, "prepare:node1"); p == nil || len(p.Children) != 0 {
		t.Errorf("prepare:node1 of a prepared branch carries a branch tree")
	}
	if st := c.DistStats(); st.Commits2PC != 1 || st.SingleCommits != 0 {
		t.Errorf("mixed vote: stats = %+v, want one 2pc commit", st)
	}

	root = run(false)
	voted(root, 0)
	voted(root, 1)
	if findChild(root, "decision-log") != nil {
		t.Errorf("all voters read-only, yet a decision was logged (children: %v)", labelsOf(root))
	}
	if st := c.DistStats(); st.Commits2PC != 1 || st.SingleCommits != 1 {
		t.Errorf("all read-only: stats = %+v, want the root on the single path", st)
	}
}

// TestDistAbortAndRecoverObs: voluntary aborts, node-down hops, and
// recovery resolutions all land in the coordinator counters.
func TestDistAbortAndRecoverObs(t *testing.T) {
	logs := []*wal.Log{wal.NewLog(), wal.NewLog()}
	c := dist.OpenCluster(2, func(i int) oodb.Options {
		return oodb.Options{Protocol: core.Semantic, Journal: logs[i]}
	})
	defer c.Close()
	co := obs.New(obs.Config{})
	co.SetEnabled(true)
	c.AttachObs(co)
	a, err := c.Node(0).DB().Store().NewAtomic(val.OfInt(0))
	if err != nil {
		t.Fatal(err)
	}
	b, err := c.Node(1).DB().Store().NewAtomic(val.OfInt(0))
	if err != nil {
		t.Fatal(err)
	}

	tx, err := c.Begin()
	if err != nil {
		t.Fatal(err)
	}
	if _, err := tx.Add(a, 1); err != nil {
		t.Fatal(err)
	}
	if err := tx.Abort(); err != nil {
		t.Fatal(err)
	}

	// Begin is eager across nodes, so open the root first, then take
	// the node down under it: the routed hop counts node-down, and the
	// abort compensates the reachable branch while the dead one is
	// recovery's problem.
	tx2, err := c.Begin()
	if err != nil {
		t.Fatal(err)
	}
	c.Node(1).Kill()
	if _, err := tx2.Add(b, 1); err == nil {
		t.Fatal("add on killed node succeeded")
	}
	if err := tx2.Abort(); err != nil {
		t.Fatal(err)
	}
	if _, err := c.RecoverNode(1, oodb.Options{Protocol: core.Semantic, Journal: wal.NewLog()}, logs[1]); err != nil {
		t.Fatal(err)
	}

	st := c.DistStats()
	if st.Aborts != 2 {
		t.Errorf("aborts = %d, want 2", st.Aborts)
	}
	if st.NodeDown == 0 {
		t.Error("no node-down hops counted")
	}
	if st.Recoveries != 1 {
		t.Errorf("recoveries = %d, want 1", st.Recoveries)
	}
}

// TestDisabledPathAllocs extends the obs layer's zero-alloc contract
// to the transport hop: with a coordinator Obs attached but disabled,
// a routed invocation must allocate exactly what it allocates with no
// Obs attached at all.
func TestDisabledPathAllocs(t *testing.T) {
	c := dist.OpenCluster(2, func(i int) oodb.Options {
		return oodb.Options{Protocol: core.Semantic, Journal: wal.NewLog()}
	})
	defer c.Close()
	a, err := c.Node(0).DB().Store().NewAtomic(val.OfInt(0))
	if err != nil {
		t.Fatal(err)
	}
	tx, err := c.Begin()
	if err != nil {
		t.Fatal(err)
	}
	defer tx.Abort()
	hop := func() {
		if _, err := tx.Get(a); err != nil {
			t.Fatal(err)
		}
	}
	base := testing.AllocsPerRun(500, hop)
	co := obs.New(obs.Config{})
	c.AttachObs(co) // attached, collection disabled
	withObs := testing.AllocsPerRun(500, hop)
	if withObs > base {
		t.Errorf("disabled hop allocates %.1f objects/op, bare transport %.1f — instrumentation must add none", withObs, base)
	}
}

// TestObsScrapeRace drives concurrent committers, merged scrapes, and
// SetEnabled toggles against a two-node cluster; run under -race this
// pins that collection, exposition, and the enable gate are safe
// together. The final scrape must still be lint-valid.
func TestObsScrapeRace(t *testing.T) {
	c, co, atoms := obsCluster(t, 2)
	defer c.Close()
	merged := c.MergedObs()

	var stop atomic.Bool
	var wg sync.WaitGroup
	for w := 0; w < 4; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for !stop.Load() {
				tx, err := c.Begin()
				if err != nil {
					t.Error(err)
					return
				}
				for _, a := range atoms {
					if _, err := tx.Add(a, 1); err != nil {
						t.Error(err)
						return
					}
				}
				if err := tx.Commit(); err != nil {
					t.Error(err)
					return
				}
			}
		}()
	}
	wg.Add(2)
	go func() {
		defer wg.Done()
		for !stop.Load() {
			if err := merged.WriteProm(io.Discard); err != nil {
				t.Error(err)
				return
			}
			co.Spans.Snapshot(4)
		}
	}()
	go func() {
		defer wg.Done()
		on := false
		for !stop.Load() {
			merged.SetEnabled(on)
			co.SetEnabled(on)
			on = !on
			time.Sleep(100 * time.Microsecond)
		}
		merged.SetEnabled(true)
		co.SetEnabled(true)
	}()
	time.Sleep(50 * time.Millisecond)
	stop.Store(true)
	wg.Wait()

	var buf strings.Builder
	if err := merged.WriteProm(&buf); err != nil {
		t.Fatal(err)
	}
	lintProm(t, buf.String())
}

// closeProbe counts Close calls (Cluster.Own satellite).
type closeProbe struct{ n atomic.Int32 }

func (p *closeProbe) Close() { p.n.Add(1) }

// TestClusterClose: Close stops running detectors and closes owned
// resources exactly once; the detector's stop stays safe both called
// twice and called after Close; Close itself is idempotent.
func TestClusterClose(t *testing.T) {
	c, _, atoms := obsCluster(t, 2)
	probe := &closeProbe{}
	c.Own(probe)
	stop := c.StartDetector(time.Millisecond)
	commitCross(t, c, atoms)

	c.Close()
	c.Close() // idempotent
	if got := probe.n.Load(); got != 1 {
		t.Fatalf("owned closer closed %d times, want 1", got)
	}
	stop() // after Close: the detector is already stopped; must not hang or panic
	stop() // and twice
}

// TestDetectorStopIdempotent: stop() returned by StartDetector is safe
// to call repeatedly before any Close.
func TestDetectorStopIdempotent(t *testing.T) {
	c, _, _ := obsCluster(t, 2)
	defer c.Close()
	stop := c.StartDetector(time.Millisecond)
	// Wait for a sweep rather than for a time: under -race on a loaded
	// box the first tick can be many milliseconds late.
	for deadline := time.Now().Add(10 * time.Second); c.DistStats().DeadlockSweeps == 0; time.Sleep(time.Millisecond) {
		if time.Now().After(deadline) {
			t.Fatal("detector ran no sweeps in 10s")
		}
	}
	stop()
	stop()
}

// BenchmarkDistHop measures the transport hop under the three
// observability states the cost contract names: no Obs attached,
// attached but disabled (must match bare), and fully enabled.
func BenchmarkDistHop(b *testing.B) {
	run := func(b *testing.B, attach, enable bool) {
		c := dist.OpenCluster(2, func(i int) oodb.Options {
			o := obs.New(obs.Config{})
			o.SetEnabled(enable)
			opts := oodb.Options{Protocol: core.Semantic, Journal: wal.NewLog()}
			if attach {
				opts.Obs = o
			}
			return opts
		})
		defer c.Close()
		if attach {
			co := obs.New(obs.Config{})
			co.SetEnabled(enable)
			c.AttachObs(co)
		}
		a, err := c.Node(1).DB().Store().NewAtomic(val.OfInt(0))
		if err != nil {
			b.Fatal(err)
		}
		tx, err := c.Begin()
		if err != nil {
			b.Fatal(err)
		}
		defer tx.Abort()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			if _, err := tx.Get(a); err != nil {
				b.Fatal(err)
			}
		}
	}
	b.Run("none", func(b *testing.B) { run(b, false, false) })
	b.Run("disabled", func(b *testing.B) { run(b, true, false) })
	b.Run("enabled", func(b *testing.B) { run(b, true, true) })
}
