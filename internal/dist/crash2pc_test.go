package dist_test

import (
	"errors"
	"fmt"
	"testing"
	"time"

	"semcc/internal/core"
	"semcc/internal/dist"
	"semcc/internal/oid"
	"semcc/internal/oodb"
	"semcc/internal/val"
	"semcc/internal/wal"
)

// errCrash is the sentinel the crash journal panics with; Node.Handle
// absorbs the panic as a node crash.
var errCrash = errors.New("dist: injected crash")

// crashJournal records appends like a real synchronous log and
// simulates a node crash by panicking at the limit-th crash point:
// nothing after it runs. Every record is a crash point once it is
// durable — the record IS in the log. With before set, the moment an
// Append is entered is a crash point too — the record is not in the
// log — unless the record makes a store change undoable (crashBefore).
// points counts the crash points passed. limit 0 never crashes.
type crashJournal struct {
	limit  int
	before bool
	points int
	recs   []core.JournalRecord
}

func (j *crashJournal) Append(r core.JournalRecord) {
	if j.before && crashBefore(r) {
		j.point()
	}
	j.recs = append(j.recs, r)
	j.point()
}

func (j *crashJournal) point() {
	j.points++
	if j.limit > 0 && j.points == j.limit {
		panic(errCrash)
	}
}

// crashBefore reports whether a crash just before r is in the log is
// one the sweep models. The node keeps its store across the crash, so
// the store already holds the change a JSubCommit (a leaf's effect) or
// a JCompensated (an applied inverse) records; a real node could not
// have written that change out ahead of its record.
func crashBefore(r core.JournalRecord) bool {
	return r.Kind != core.JSubCommit && r.Kind != core.JCompensated
}

func (j *crashJournal) asLog(t *testing.T) *wal.Log {
	t.Helper()
	l := wal.NewLog()
	for _, r := range j.recs {
		l.Append(r)
	}
	// Round-trip through the serialised form, as restart would.
	recovered, err := wal.Unmarshal(l.Marshal())
	if err != nil {
		t.Fatal(err)
	}
	return recovered
}

// sweepShape says what each root of the sweep scenario does to node 0's
// atom a and node 1's atom b: write it, or only read it. A node whose
// atom is only read is a read-only voter.
type sweepShape struct {
	name           string
	writeA, writeB bool
}

var (
	shapeUpdateUpdate = sweepShape{"update+update", true, true}
	shapeReadUpdate   = sweepShape{"read+update", false, true}
	shapeReadRead     = sweepShape{"read+read", false, false}
)

// logsDecision reports whether a root of this shape that commits does
// so through a logged decision: it does when some branch has work to
// prepare; a root whose voters are all read-only has nothing to decide.
func (sh sweepShape) logsDecision() bool { return sh.writeA || sh.writeB }

// writes reports whether the shape's roots write the atom on node.
func (sh sweepShape) writes(node int) bool { return [2]bool{sh.writeA, sh.writeB}[node] }

// sweepSteps are the values the scenario's two roots write.
var sweepSteps = []struct{ va, vb int64 }{{1, 2}, {10, 20}}

// sweepScenario runs the first roots steps as cross-node roots, each
// touching one atom per node as the shape says, so crash cuts land
// inside separate two-phase commits. Each root's outcome is reported; a root whose
// commit fails (node crash before the decision) counts as aborted, one
// that returns nil as committed. The scenario stops early once the
// cluster cannot make progress (a node is down).
type sweepOutcome struct {
	gid       uint64
	committed bool
}

func sweepScenario(c *dist.Cluster, sh sweepShape, roots int, a, b oid.OID) []sweepOutcome {
	touch := func(tx *dist.Tx, obj oid.OID, write bool, v int64) error {
		if write {
			return tx.Put(obj, val.OfInt(v))
		}
		_, err := tx.Get(obj)
		return err
	}
	var outcomes []sweepOutcome
	for _, s := range sweepSteps[:roots] {
		tx, err := c.Begin()
		if err != nil {
			return outcomes
		}
		if err := touch(tx, a, sh.writeA, s.va); err != nil {
			_ = tx.Abort()
			outcomes = append(outcomes, sweepOutcome{tx.GID(), false})
			continue
		}
		if err := touch(tx, b, sh.writeB, s.vb); err != nil {
			_ = tx.Abort()
			outcomes = append(outcomes, sweepOutcome{tx.GID(), false})
			continue
		}
		err = tx.Commit()
		outcomes = append(outcomes, sweepOutcome{tx.GID(), err == nil})
	}
	return outcomes
}

// sweepAtoms allocates the scenario's two atoms, one per node, at 0.
func sweepAtoms(t testing.TB, c *dist.Cluster) (a, b oid.OID) {
	t.Helper()
	var err error
	if a, err = c.Node(0).DB().Store().NewAtomic(val.OfInt(0)); err != nil {
		t.Fatal(err)
	}
	if b, err = c.Node(1).DB().Store().NewAtomic(val.OfInt(0)); err != nil {
		t.Fatal(err)
	}
	return a, b
}

// checkSweepState asserts that both atoms reflect the same prefix of
// committed roots, the prefix the decision log defines (gids are 1 and
// 2, applied in that order); an atom the shape only reads stays 0.
func checkSweepState(t *testing.T, c *dist.Cluster, sh sweepShape, a, b oid.OID) {
	t.Helper()
	wantA, wantB := int64(0), int64(0)
	for i, s := range sweepSteps {
		if c.DecisionLog().Committed(uint64(i + 1)) {
			wantA, wantB = s.va, s.vb
		}
	}
	if !sh.writeA {
		wantA = 0
	}
	if !sh.writeB {
		wantB = 0
	}
	gotA, err := c.OwnerDB(a).ReadAtom(a)
	if err != nil {
		t.Fatal(err)
	}
	gotB, err := c.OwnerDB(b).ReadAtom(b)
	if err != nil {
		t.Fatal(err)
	}
	if gotA.Int() != wantA || gotB.Int() != wantB {
		t.Errorf("recovered state (a=%d, b=%d) diverges from decision log (want a=%d, b=%d)",
			gotA.Int(), gotB.Int(), wantA, wantB)
	}
}

// runSweepCut opens a fresh two-node cluster whose crashNode runs on a
// journal that panics at crash point cut, runs the scenario, then
// recovers every node from its own journal and the coordinator's
// decision log. It returns the cluster and whether the crash fired.
// The crash points include the moments before appends: one differs
// from the point after the previous record in what the node did in
// between — the reads a read-only voter serves journal nothing, so only
// the point before its vote kills it after serving them.
func runSweepCut(t *testing.T, sh sweepShape, crashNode, cut int) (c *dist.Cluster, a, b oid.OID, crashed bool) {
	t.Helper()
	journals := []*crashJournal{{}, {}}
	journals[crashNode].limit = cut
	journals[crashNode].before = true
	c = dist.OpenCluster(2, func(i int) oodb.Options {
		return oodb.Options{Protocol: core.Semantic, Journal: journals[i]}
	})
	a, b = sweepAtoms(t, c)

	outcomes := sweepScenario(c, sh, len(sweepSteps), a, b)
	crashed = c.Node(crashNode).Down()

	// The coordinator's view of each root must agree with its decision
	// log: a root it reported committed has a logged decision (unless
	// every voter was read-only, which logs none), one it reported
	// aborted has none.
	for _, o := range outcomes {
		if want := o.committed && sh.logsDecision(); want != c.DecisionLog().Committed(o.gid) {
			t.Fatalf("node %d cut %d: root %d reported committed=%v but decision log says %v",
				crashNode, cut, o.gid, o.committed, c.DecisionLog().Committed(o.gid))
		}
	}

	// Restart every node from its own journal. The live node's journal
	// ends in a consistent state too (the coordinator aborted or
	// decided every branch it could reach), so recovery is a no-op
	// there; the crashed node's in-doubt and in-flight branches resolve
	// against the decision log.
	for i := 0; i < 2; i++ {
		if _, err := c.RecoverNode(i, oodb.Options{Protocol: core.Semantic}, journals[i].asLog(t)); err != nil {
			t.Fatalf("node %d cut %d: recover node %d: %v", crashNode, cut, i, err)
		}
	}
	return c, a, b, crashed
}

// totalPoints dry-runs the scenario and returns each node's count of
// crash points.
func totalPoints(t *testing.T, sh sweepShape) [2]int {
	t.Helper()
	journals := []*crashJournal{{before: true}, {before: true}}
	c := dist.OpenCluster(2, func(i int) oodb.Options {
		return oodb.Options{Protocol: core.Semantic, Journal: journals[i]}
	})
	defer c.Close()
	a, b := sweepAtoms(t, c)
	for _, o := range sweepScenario(c, sh, len(sweepSteps), a, b) {
		if !o.committed {
			t.Fatalf("dry run: root %d did not commit", o.gid)
		}
	}
	return [2]int{journals[0].points, journals[1].points}
}

// crashSweep kills one node at every crash point of the shape's
// scenario — after every journal append, and before every append but
// the ones crashBefore excludes — and asserts the all-or-nothing
// outcome after recovery.
func crashSweep(t *testing.T, sh sweepShape) {
	totals := totalPoints(t, sh)
	for crashNode := 0; crashNode < 2; crashNode++ {
		for cut := 1; cut <= totals[crashNode]; cut++ {
			t.Run(fmt.Sprintf("node%d/cut%d", crashNode, cut), func(t *testing.T) {
				c, a, b, crashed := runSweepCut(t, sh, crashNode, cut)
				defer c.Close()
				if !crashed && cut < totals[crashNode] {
					t.Fatalf("crash point %d never reached", cut)
				}
				checkSweepState(t, c, sh, a, b)
			})
		}
	}
}

// TestTwoPhaseCommitCrashSweep kills one node at every crash point
// (crashSweep) of a two-root cross-node scenario — which covers every
// prepare and decide boundary on each node — and asserts that after
// recovery every root is all-or-nothing across the cluster: both atoms
// reflect the same prefix of committed roots, the prefix the decision
// log defines. In-doubt branches (prepared, undecided locally) must
// land exactly where the coordinator's decision log says.
func TestTwoPhaseCommitCrashSweep(t *testing.T) { crashSweep(t, shapeUpdateUpdate) }

// TestTwoPhaseCommitCrashSweepReadOnlyVote runs the same crash-point
// sweep over the two shapes with read-only voters. In read+update node
// 0 votes read-only — its cuts kill a voter before its vote (before or
// after the reads it serves, which journal nothing) and at it (the
// forced JRootCommit; the coordinator then sees a failed
// prepare and decides abort, harmlessly, since the voter changed
// nothing) — while node 1 prepares alone and is decided by a logged
// decision. In read+read both vote read-only, no decision is logged,
// and recovery must find nothing to undo or resolve at any cut.
func TestTwoPhaseCommitCrashSweepReadOnlyVote(t *testing.T) {
	for _, sh := range []sweepShape{shapeReadUpdate, shapeReadRead} {
		t.Run(sh.name, func(t *testing.T) { crashSweep(t, sh) })
	}
}

// TestAcknowledgedCommitSurvivesUnflushedTail is the crash the crash-
// point sweep cannot produce: Commit has returned nil, and the records
// it no longer waits for — a decided branch's JDecide and JRootCommit —
// are still in the group writer's open batch when a node dies. Per
// shape, MaxBatch (MaxDelay an hour, so only a full batch or an awaited
// record flushes), root count and victim node, the victim's image is
// cut at every frame boundary from the last record a Commit did wait
// for (the branch's JPrepare, or its JRootCommit where it voted
// read-only) to the end, each cut once clean and once with a torn frame
// behind it. The dropped frames hold outcome records only, so the store
// the node kept is the store of every such cut, and since every root
// must come back committed no recovery moves it: one run serves all its
// cuts. Every acknowledged root must recover committed on both nodes,
// through RecoverNode and the decision log.
func TestAcknowledgedCommitSurvivesUnflushedTail(t *testing.T) {
	for _, sh := range []sweepShape{shapeUpdateUpdate, shapeReadUpdate} {
		for _, maxBatch := range []int{1, 2, 3, 5} {
			for roots := 1; roots <= len(sweepSteps); roots++ {
				t.Run(fmt.Sprintf("%s/batch%d/roots%d", sh.name, maxBatch, roots), func(t *testing.T) {
					unflushedTailSweep(t, sh, maxBatch, roots)
				})
			}
		}
	}
}

func unflushedTailSweep(t *testing.T, sh sweepShape, maxBatch, roots int) {
	journals := make([]wal.Journal, 2)
	c := dist.OpenCluster(2, func(i int) oodb.Options {
		journals[i] = wal.New(wal.Config{Mode: wal.ModeGroup, MaxBatch: maxBatch, MaxDelay: time.Hour})
		return oodb.Options{Protocol: core.Semantic, Journal: journals[i]}
	})
	defer c.Close()
	c.Own(journals[0], journals[1])
	a, b := sweepAtoms(t, c)
	for _, o := range sweepScenario(c, sh, roots, a, b) {
		if !o.committed {
			t.Fatalf("root %d did not commit", o.gid)
		}
	}
	// What each device held when the last Commit returned, then all of
	// what the journals were handed.
	var acked [2]int
	var images [2][]byte
	for i, j := range journals {
		acked[i] = len(j.DurableBytes())
	}
	for i, j := range journals {
		j.Sync()
		images[i] = j.DurableBytes()
	}

	recoverWith := func(node int, img []byte) *wal.Analysis {
		t.Helper()
		log, _, err := wal.UnmarshalDurable(img)
		if err != nil {
			t.Fatal(err)
		}
		an, err := c.RecoverNode(node, oodb.Options{Protocol: core.Semantic}, log)
		if err != nil {
			t.Fatalf("recover node %d: %v", node, err)
		}
		return an
	}
	for victim := 0; victim < 2; victim++ {
		full, batches, err := wal.UnmarshalDurable(images[victim])
		if err != nil {
			t.Fatal(err)
		}
		// The last record a Commit waited for, and the frame holding it.
		awaited := -1
		for i, r := range full.Records() {
			if r.Kind == core.JPrepare || (r.Kind == core.JRootCommit && !sh.writes(victim)) {
				awaited = i
			}
		}
		first := 0
		for first < len(batches) && batches[first].End <= awaited {
			first++
		}
		if awaited < 0 || first == len(batches) {
			t.Fatalf("node %d: no awaited record in its durable image", victim)
		}
		if acked[victim] < batches[first].EndOff {
			t.Fatalf("node %d: Commit returned with %d bytes durable, the record it waited for ends at %d",
				victim, acked[victim], batches[first].EndOff)
		}
		for k := first; k < len(batches); k++ {
			clean := images[victim][:batches[k].EndOff]
			// Torn: half of the next frame, or the start of a frame that
			// never got further.
			torn := append(append([]byte(nil), clean...), 0xFF, 0x7F)
			if k+1 < len(batches) {
				torn = images[victim][:(batches[k].EndOff+batches[k+1].EndOff)/2]
			}
			for _, img := range [][]byte{clean, torn} {
				c.Node(victim).Kill()
				an := recoverWith(victim, img)
				recoverWith(1-victim, images[1-victim])
				if len(an.Losers) != 0 {
					t.Errorf("node %d cut at frame %d/%d (%d bytes): %d acknowledged roots recovered as losers",
						victim, k+1, len(batches), len(img), len(an.Losers))
				}
				checkSweepState(t, c, sh, a, b)
			}
		}
	}
}
