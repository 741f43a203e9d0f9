package dist_test

import (
	"strings"
	"sync"
	"testing"
	"time"

	"semcc/internal/compat"
	"semcc/internal/core"
	"semcc/internal/dist"
	"semcc/internal/obs"
	"semcc/internal/oid"
	"semcc/internal/oodb"
	"semcc/internal/val"
	"semcc/internal/wal"
)

// gatedJournal is a node's AckJournal whose durability the test owns
// (the dist-side twin of core's): Append only records; AppendAck
// records, announces the record on submitted and returns a future the
// test resolves with durable(), oldest first — the only order a
// prefix-durable log can resolve them in.
type gatedJournal struct {
	mu        sync.Mutex
	recs      []core.JournalRecord
	acks      []chan struct{}
	open      bool // release() ran: futures resolve at once
	submitted chan core.JournalRecord
}

func newGatedJournal() *gatedJournal {
	// Room for every awaited record of one stepped root, so a failing
	// test never strands a node on the send.
	return &gatedJournal{submitted: make(chan core.JournalRecord, 8)}
}

func (j *gatedJournal) Append(r core.JournalRecord) {
	j.mu.Lock()
	j.recs = append(j.recs, r)
	j.mu.Unlock()
}

func (j *gatedJournal) AppendAck(r core.JournalRecord) core.Ack {
	ack := make(chan struct{})
	j.mu.Lock()
	j.recs = append(j.recs, r)
	if j.open {
		close(ack)
	} else {
		j.acks = append(j.acks, ack)
	}
	j.mu.Unlock()
	j.submitted <- r
	return core.Ack{C: ack}
}

// release opens the gate for good, so that a test that failed half-way
// leaves no node parked on a future and the cluster can close.
func (j *gatedJournal) release() {
	j.mu.Lock()
	j.open = true
	for _, ack := range j.acks {
		close(ack)
	}
	j.acks = nil
	j.mu.Unlock()
}

// durable resolves the oldest outstanding future.
func (j *gatedJournal) durable() {
	j.mu.Lock()
	ack := j.acks[0]
	j.acks = j.acks[1:]
	j.mu.Unlock()
	close(ack)
}

// outstanding is the number of futures handed out and not yet resolved.
func (j *gatedJournal) outstanding() int {
	j.mu.Lock()
	defer j.mu.Unlock()
	return len(j.acks)
}

func (j *gatedJournal) count(k core.JournalKind) int {
	j.mu.Lock()
	defer j.mu.Unlock()
	n := 0
	for _, r := range j.recs {
		if r.Kind == k {
			n++
		}
	}
	return n
}

// awaitSubmitted receives the next awaited record of j and checks its
// kind; a record that never comes fails the test instead of hanging it.
func awaitSubmitted(t *testing.T, j *gatedJournal, node int, want core.JournalKind) {
	t.Helper()
	select {
	case r := <-j.submitted:
		if r.Kind != want {
			t.Fatalf("node %d submitted an awaited record of kind %v, want %v", node, r.Kind, want)
		}
	case <-time.After(5 * time.Second):
		t.Fatalf("node %d never submitted its %v while the other node's future was outstanding", node, want)
	}
}

// TestCommitWaitsForTheDeviceOnce steps Tx.Commit through one gated
// journal per node, for the three shapes a two-node root can take:
//
//   - update2: both JPrepare futures are outstanding before either is
//     resolved (the fan-out is overlapped, not serial); Commit does not
//     return while one is; once both are resolved it returns with no
//     further future ever handed out — JDecide and JRootCommit went
//     through plain Append.
//   - single: the working node's JRootCommit is the one awaited record;
//     the node that did nothing journals its JRootCommit without a
//     future, so Commit returns with nothing outstanding there.
//   - readonly2: both voters commit at prepare and are waited for
//     together; neither journal holds a JPrepare or JDecide and the
//     decision log has no entry.
func TestCommitWaitsForTheDeviceOnce(t *testing.T) {
	for _, tc := range []struct {
		name    string
		work    func(tx *dist.Tx, a, b oid.OID) error
		awaited [2]bool // which nodes hand out a future: the awaited records
		kind    core.JournalKind
		decided bool
	}{
		{"update2", func(tx *dist.Tx, a, b oid.OID) error {
			if err := tx.Put(a, val.OfInt(1)); err != nil {
				return err
			}
			return tx.Put(b, val.OfInt(2))
		}, [2]bool{true, true}, core.JPrepare, true},
		{"single", func(tx *dist.Tx, a, b oid.OID) error {
			return tx.Put(a, val.OfInt(1))
		}, [2]bool{true, false}, core.JRootCommit, false},
		{"readonly2", func(tx *dist.Tx, a, b oid.OID) error {
			if _, err := tx.Get(a); err != nil {
				return err
			}
			_, err := tx.Get(b)
			return err
		}, [2]bool{true, true}, core.JRootCommit, false},
	} {
		t.Run(tc.name, func(t *testing.T) {
			journals := []*gatedJournal{newGatedJournal(), newGatedJournal()}
			c := dist.OpenCluster(2, func(i int) oodb.Options {
				return oodb.Options{Protocol: core.Semantic, Journal: journals[i]}
			})
			a, b := sweepAtoms(t, c)
			tx, err := c.Begin()
			if err != nil {
				t.Fatal(err)
			}
			if err := tc.work(tx, a, b); err != nil {
				t.Fatal(err)
			}
			var commitErr error
			done := make(chan struct{}) // closed when Commit has returned
			go func() {
				defer close(done)
				commitErr = tx.Commit()
			}()
			// However the steps below end, let Commit run to its end before
			// the cluster closes under it.
			defer func() {
				journals[0].release()
				journals[1].release()
				<-done
				c.Close()
			}()

			// Every awaited record is submitted with none resolved.
			for i, j := range journals {
				if tc.awaited[i] {
					awaitSubmitted(t, j, i, tc.kind)
				}
			}
			for i, j := range journals {
				if !tc.awaited[i] {
					continue
				}
				select {
				case <-done:
					t.Fatalf("Commit returned (%v) with node %d's %v not durable", commitErr, i, tc.kind)
				default:
				}
				j.durable()
			}
			select {
			case <-done:
				if commitErr != nil {
					t.Fatal(commitErr)
				}
			case <-time.After(5 * time.Second):
				t.Fatal("Commit still waits after every awaited record was made durable: an unforced record was submitted with AppendAck")
			}

			for i, j := range journals {
				if n := j.outstanding() + len(j.submitted); n != 0 {
					t.Errorf("node %d: %d futures outstanding after Commit returned", i, n)
				}
				if n := j.count(core.JRootCommit); n != 1 {
					t.Errorf("node %d journals %d JRootCommit records, want 1", i, n)
				}
				want2PC := 0
				if tc.decided {
					want2PC = 1
				}
				if p, d := j.count(core.JPrepare), j.count(core.JDecide); p != want2PC || d != want2PC {
					t.Errorf("node %d journals %d JPrepare and %d JDecide records, want %d of each", i, p, d, want2PC)
				}
			}
			if got := c.DecisionLog().Committed(tx.GID()); got != tc.decided {
				t.Errorf("decision log entry = %v, want %v", got, tc.decided)
			}
		})
	}
}

// TestBeginTwiceKeepsTheFirstBranch: a second OpBegin for a gid that
// already has a branch on the node is refused. It used to replace the
// directory entry, leaving the first branch's root — and the locks it
// holds — unreachable for good.
func TestBeginTwiceKeepsTheFirstBranch(t *testing.T) {
	c, _, a, _ := twoNodeCluster(t)
	defer c.Close()
	n := c.Node(0)
	const gid = 77
	if resp := n.Handle(dist.Request{Op: dist.OpBegin, GID: gid}); resp.Err != nil {
		t.Fatal(resp.Err)
	}
	if resp := n.Handle(dist.Request{Op: dist.OpInvoke, GID: gid, Inv: compat.Inv(a, compat.OpPut, val.OfInt(5))}); resp.Err != nil {
		t.Fatal(resp.Err)
	}
	if resp := n.Handle(dist.Request{Op: dist.OpBegin, GID: gid}); resp.Err == nil || !strings.Contains(resp.Err.Error(), "already has a branch") {
		t.Fatalf("second begin answered %v, want an already-has-a-branch error", resp.Err)
	}
	// The first branch is still the one the gid names: committing it
	// applies its write and frees the atom for the next root.
	if resp := n.Handle(dist.Request{Op: dist.OpCommit, GID: gid}); resp.Err != nil {
		t.Fatal(resp.Err)
	}
	if got := readAtom(t, c, a); got != 5 {
		t.Fatalf("a = %d, want the first branch's 5", got)
	}
	tx, err := c.Begin()
	if err != nil {
		t.Fatal(err)
	}
	if err := tx.Put(a, val.OfInt(6)); err != nil {
		t.Fatal(err)
	}
	if err := tx.Commit(); err != nil {
		t.Fatal(err)
	}
}

// TestReadOnlyVoterLeavesTheProtocol: a branch that only read answers
// prepare with the read-only vote and is gone from the node — a decide
// or abort for its gid gets the ordinary "no branch" answer — and a
// coordinator whose other voter then fails its prepare sends it neither:
// the abort-after-failed-prepare fan-out skips read-only voters.
func TestReadOnlyVoterLeavesTheProtocol(t *testing.T) {
	t.Run("node", func(t *testing.T) {
		c, _, a, _ := twoNodeCluster(t)
		defer c.Close()
		n := c.Node(0)
		const gid = 78
		if resp := n.Handle(dist.Request{Op: dist.OpBegin, GID: gid}); resp.Err != nil {
			t.Fatal(resp.Err)
		}
		if resp := n.Handle(dist.Request{Op: dist.OpInvoke, GID: gid, Inv: compat.Inv(a, compat.OpGet)}); resp.Err != nil {
			t.Fatal(resp.Err)
		}
		if resp := n.Handle(dist.Request{Op: dist.OpPrepare, GID: gid}); resp.Err != nil || !resp.ReadOnly {
			t.Fatalf("prepare of a branch that only read answered (readOnly=%v, err=%v), want the read-only vote", resp.ReadOnly, resp.Err)
		}
		for _, req := range []dist.Request{{Op: dist.OpDecide, GID: gid, Commit: true}, {Op: dist.OpAbort, GID: gid}} {
			if resp := n.Handle(req); resp.Err == nil || !strings.Contains(resp.Err.Error(), "has no branch") {
				t.Errorf("%v after a read-only vote answered %v, want the no-branch error", req.Op, resp.Err)
			}
		}
	})

	t.Run("coordinator", func(t *testing.T) {
		// Node 1 dies as its JPrepare lands (4th append: JBeginRoot,
		// JBegin, JSubCommit, JPrepare); node 0 only reads.
		journals := []*crashJournal{{}, {limit: 4}}
		c := dist.OpenCluster(2, func(i int) oodb.Options {
			return oodb.Options{Protocol: core.Semantic, Journal: journals[i]}
		})
		defer c.Close()
		co := obs.New(obs.Config{})
		co.SetEnabled(true)
		c.AttachObs(co)
		a, b := sweepAtoms(t, c)
		tx, err := c.Begin()
		if err != nil {
			t.Fatal(err)
		}
		if _, err := tx.Get(a); err != nil {
			t.Fatal(err)
		}
		if err := tx.Put(b, val.OfInt(9)); err != nil {
			t.Fatal(err)
		}
		if err := tx.Commit(); err == nil {
			t.Fatal("Commit succeeded although node 1 crashed in its prepare")
		}
		hops := func(op dist.OpKind) uint64 {
			return co.Registry.Hist("semcc_dist_hop_ns", "", obs.L("op", op.String())).Count()
		}
		// One abort, to the failed node; nothing to the read-only voter.
		if p, d, ab := hops(dist.OpPrepare), hops(dist.OpDecide), hops(dist.OpAbort); p != 2 || d != 0 || ab != 1 {
			t.Errorf("hops: %d prepare, %d decide, %d abort; want 2, 0, 1", p, d, ab)
		}
		if c.Node(0).Down() {
			t.Error("the read-only voter's node went down")
		}
		if st := c.DistStats(); st.Aborts != 1 || st.Commits2PC+st.SingleCommits != 0 {
			t.Errorf("stats = %+v, want one abort", st)
		}
	})
}

// commitAllocBudget is the allocation count of one two-node update root
// — begin, one Add per node, two-phase commit — over free-flush group
// journals with no Obs attached. The parent of the fan-out change
// (4454d71) counted 101: it allocated a reply channel per hop where a
// root now reuses one per node. 76 while every subtransaction's
// invocation was copied for its JBegin record and every journaled
// argument marshalled into a slice of its own; 52 while every lock
// grant allocated a fresh lock-table head; 48 measured since. The
// repository benchmark bounds allocs_per_root at +2% on cluster-2pc;
// this fails first.
const commitAllocBudget = 50

func TestCommitAllocBudget(t *testing.T) {
	c, a, b := commitCluster(t)
	defer c.Close()
	root := func() {
		if err := update2Root(c, a, b); err != nil {
			t.Fatal(err)
		}
	}
	if n := testing.AllocsPerRun(300, root); n > commitAllocBudget {
		t.Errorf("one two-node update root: %v allocs, budget %d", n, commitAllocBudget)
	} else {
		t.Logf("one two-node update root: %v allocs (budget %d)", n, commitAllocBudget)
	}
}

// commitCluster opens a two-node cluster over free-flush group journals
// (the journal kind the repository benchmark runs, minus the device)
// with one atom per node.
func commitCluster(tb testing.TB) (c *dist.Cluster, a, b oid.OID) {
	tb.Helper()
	c = dist.OpenCluster(2, func(int) oodb.Options {
		j := wal.New(wal.Config{Mode: wal.ModeGroup})
		tb.Cleanup(j.Close)
		return oodb.Options{Protocol: core.Semantic, Journal: j}
	})
	a, b = sweepAtoms(tb, c)
	return c, a, b
}

// The three commit paths of a two-node root, each as one whole root:
// one working branch and one empty; two read-only voters; two prepared
// branches and a logged decision.
func singleRoot(c *dist.Cluster, a, _ oid.OID) error {
	tx, err := c.Begin()
	if err != nil {
		return err
	}
	if _, err := tx.Add(a, 1); err != nil {
		return err
	}
	return tx.Commit()
}

func readOnly2Root(c *dist.Cluster, a, b oid.OID) error {
	tx, err := c.Begin()
	if err != nil {
		return err
	}
	if _, err := tx.Get(a); err != nil {
		return err
	}
	if _, err := tx.Get(b); err != nil {
		return err
	}
	return tx.Commit()
}

func update2Root(c *dist.Cluster, a, b oid.OID) error {
	tx, err := c.Begin()
	if err != nil {
		return err
	}
	if _, err := tx.Add(a, 1); err != nil {
		return err
	}
	if _, err := tx.Add(b, 1); err != nil {
		return err
	}
	return tx.Commit()
}

// BenchmarkClusterCommit measures one whole two-node root per commit
// path, single-threaded over free-flush journals: what the coordinator
// and the engines spend on a root when the device costs nothing
// (benchstat-comparable across commits; run with -benchmem).
func BenchmarkClusterCommit(b *testing.B) {
	for _, sh := range []struct {
		name string
		root func(c *dist.Cluster, a, b oid.OID) error
	}{{"single", singleRoot}, {"readonly2", readOnly2Root}, {"update2", update2Root}} {
		b.Run(sh.name, func(b *testing.B) {
			c, x, y := commitCluster(b)
			defer c.Close()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if err := sh.root(c, x, y); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}
