package serial

import (
	"fmt"
	"testing"

	"semcc/internal/compat"
	"semcc/internal/history"
	"semcc/internal/oid"
)

// modelEnv is a tiny two-register machine: each "transaction program"
// is a function transforming state and producing an observation.
type modelEnv struct {
	x, y  int
	progs []func(e *modelEnv) string
}

func (e *modelEnv) RunTx(i int) (string, error) { return e.progs[i](e), nil }
func (e *modelEnv) FinalState() (string, error) { return fmt.Sprintf("x=%d y=%d", e.x, e.y), nil }

func freshFor(progs []func(e *modelEnv) string) func() (Env, error) {
	return func() (Env, error) { return &modelEnv{progs: progs}, nil }
}

func TestCheckAcceptsSerializable(t *testing.T) {
	progs := []func(e *modelEnv) string{
		func(e *modelEnv) string { e.x++; return "" },
		func(e *modelEnv) string { e.y++; return fmt.Sprint(e.x) },
	}
	// Concurrent outcome equal to serial order [1,0]: T2 saw x=0.
	res, err := Check(freshFor(progs),
		[]Observation{{Name: "T1"}, {Name: "T2", Obs: "0"}}, "x=1 y=1")
	if err != nil {
		t.Fatal(err)
	}
	if !res.Serializable {
		t.Fatalf("not serializable: %v", res.Mismatches)
	}
	if len(res.Order) != 2 || res.Order[0] != 1 {
		t.Errorf("witness order = %v, want [1 0]", res.Order)
	}
}

func TestCheckRejectsNonSerializable(t *testing.T) {
	// Classic lost-update style observation: both read 0 then write.
	progs := []func(e *modelEnv) string{
		func(e *modelEnv) string { v := e.x; e.x = v + 1; return fmt.Sprint(v) },
		func(e *modelEnv) string { v := e.x; e.x = v + 1; return fmt.Sprint(v) },
	}
	// Concurrent anomaly: both observed 0, final x=1.
	res, err := Check(freshFor(progs),
		[]Observation{{Name: "T1", Obs: "0"}, {Name: "T2", Obs: "0"}}, "x=1 y=0")
	if err != nil {
		t.Fatal(err)
	}
	if res.Serializable {
		t.Fatal("accepted a non-serializable execution")
	}
	if res.Tried != 2 {
		t.Errorf("tried %d orders, want 2", res.Tried)
	}
	if len(res.Mismatches) == 0 {
		t.Error("no mismatch diagnostics recorded")
	}
}

func TestCheckThreeTransactions(t *testing.T) {
	progs := []func(e *modelEnv) string{
		func(e *modelEnv) string { e.x += 1; return "" },
		func(e *modelEnv) string { e.x *= 2; return "" },
		func(e *modelEnv) string { return fmt.Sprint(e.x) },
	}
	// Outcome matching serial [0,2,1]: reader saw 1, final x=2.
	res, err := Check(freshFor(progs),
		[]Observation{{Name: "A"}, {Name: "B"}, {Name: "R", Obs: "1"}}, "x=2 y=0")
	if err != nil {
		t.Fatal(err)
	}
	if !res.Serializable {
		t.Fatalf("not serializable: %v", res.Mismatches)
	}
}

// --- conflict graph ---------------------------------------------------

func leafNode(id uint64, object oid.OID, op compat.Method, end int64) *history.Node {
	return &history.Node{ID: id, Inv: compat.Inv(object, op), Begin: end - 1, End: end, Committed: true}
}

func rootWith(id uint64, children ...*history.Node) *history.Node {
	r := &history.Node{ID: id, Inv: compat.Inv(oid.DB, compat.OpRoot), Begin: 0, End: 1000 + int64(id), Committed: true}
	r.Children = children
	return r
}

func TestConflictGraphAcyclic(t *testing.T) {
	x := oid.OID{K: oid.Atomic, N: 1}
	y := oid.OID{K: oid.Atomic, N: 2}
	// T1 writes x then y; T2 reads x and y strictly after.
	t1 := rootWith(1,
		leafNode(11, x, compat.OpPut, 10),
		leafNode(12, y, compat.OpPut, 20))
	t2 := rootWith(2,
		leafNode(21, x, compat.OpGet, 30),
		leafNode(22, y, compat.OpGet, 40))
	res := ConflictGraph(&history.Forest{Roots: []*history.Node{t1, t2}})
	if !res.Serializable {
		t.Fatalf("acyclic graph reported cyclic: %s", res.Cycle)
	}
	if res.Edges != 1 { // deduplicated per transaction pair
		t.Errorf("edges = %d, want 1", res.Edges)
	}
	if len(res.Order) != 2 || res.Order[0] != 1 {
		t.Errorf("order = %v, want [1 2]", res.Order)
	}
}

func TestConflictGraphCycle(t *testing.T) {
	x := oid.OID{K: oid.Atomic, N: 1}
	y := oid.OID{K: oid.Atomic, N: 2}
	// T1: W(x)@10, W(y)@40; T2: W(y)@20, W(x)@30 → cycle.
	t1 := rootWith(1,
		leafNode(11, x, compat.OpPut, 10),
		leafNode(12, y, compat.OpPut, 40))
	t2 := rootWith(2,
		leafNode(21, y, compat.OpPut, 20),
		leafNode(22, x, compat.OpPut, 30))
	res := ConflictGraph(&history.Forest{Roots: []*history.Node{t1, t2}})
	if res.Serializable {
		t.Fatal("cyclic graph reported serializable")
	}
	if res.Cycle == "" {
		t.Error("no cycle description")
	}
}

func TestConflictGraphIgnoresReads(t *testing.T) {
	x := oid.OID{K: oid.Atomic, N: 1}
	t1 := rootWith(1, leafNode(11, x, compat.OpGet, 10))
	t2 := rootWith(2, leafNode(21, x, compat.OpGet, 20))
	res := ConflictGraph(&history.Forest{Roots: []*history.Node{t1, t2}})
	if !res.Serializable || res.Edges != 0 {
		t.Errorf("R/R created edges: %+v", res)
	}
}

func TestConflictGraphSkipsAbortedAndMethods(t *testing.T) {
	x := oid.OID{K: oid.Atomic, N: 1}
	aborted := rootWith(1, leafNode(11, x, compat.OpPut, 10))
	aborted.Committed = false
	// Method nodes (non-generic op) never appear as leaves of the
	// conventional test.
	m := &history.Node{ID: 22, Inv: compat.Inv(oid.OID{K: oid.Tuple, N: 9}, compat.FirstMethod), Begin: 19, End: 21, Committed: true}
	t2 := rootWith(2, m, leafNode(23, x, compat.OpPut, 30))
	res := ConflictGraph(&history.Forest{Roots: []*history.Node{aborted, t2}})
	if !res.Serializable || res.Edges != 0 {
		t.Errorf("aborted/method leaves created edges: %+v", res)
	}
}
