package history

import (
	"strings"
	"testing"

	"semcc/internal/compat"
	"semcc/internal/oid"
)

// ship is the one method of a type the tests invoke.
const ship = compat.FirstMethod

func node(id uint64, method compat.Method, begin, end int64, committed bool, children ...*Node) *Node {
	name := method.String()
	if method == ship {
		name = "Ship"
	}
	return &Node{
		ID: id, Inv: compat.Inv(oid.OID{K: oid.Tuple, N: id}, method), Name: name,
		Begin: begin, End: end, Committed: committed, Children: children,
	}
}

func TestIntervalAndWalk(t *testing.T) {
	leaf := node(3, compat.OpGet, 5, 6, true)
	mid := node(2, ship, 2, 7, true, leaf)
	root := node(1, compat.OpRoot, 1, 9, true, mid)
	lo, hi := root.Interval()
	if lo != 1 || hi != 9 {
		t.Errorf("interval = [%d,%d]", lo, hi)
	}
	// A child extending beyond the parent's own stamps widens the
	// envelope.
	weird := node(4, compat.OpRoot, 5, 6, true, node(5, compat.OpGet, 1, 9, true))
	lo, hi = weird.Interval()
	if lo != 1 || hi != 9 {
		t.Errorf("envelope = [%d,%d]", lo, hi)
	}
	var visited []uint64
	root.Walk(func(n *Node) { visited = append(visited, n.ID) })
	if len(visited) != 3 || visited[0] != 1 || visited[2] != 3 {
		t.Errorf("walk = %v", visited)
	}
}

func TestCloneIsDeep(t *testing.T) {
	root := node(1, compat.OpRoot, 1, 4, true, node(2, compat.OpGet, 2, 3, true))
	cp := root.Clone()
	cp.Children[0].Committed = false
	if !root.Children[0].Committed {
		t.Error("clone shares children")
	}
}

func TestForestLeavesAndString(t *testing.T) {
	f := &Forest{Roots: []*Node{
		node(1, compat.OpRoot, 1, 10, true,
			node(2, ship, 2, 7, true, node(3, compat.OpPut, 3, 4, true)),
			node(4, compat.OpGet, 8, 9, true)),
		node(5, compat.OpRoot, 5, 6, false),
	}}
	leaves := f.Leaves()
	if len(leaves) != 3 {
		t.Fatalf("leaves = %d, want 3", len(leaves))
	}
	for i := 1; i < len(leaves); i++ {
		if leaves[i-1].End > leaves[i].End {
			t.Error("leaves not in completion order")
		}
	}
	if got := len(f.CommittedRoots()); got != 1 {
		t.Errorf("committed roots = %d", got)
	}
	s := f.String()
	if !strings.Contains(s, "aborted") || !strings.Contains(s, "committed") || !strings.Contains(s, "  Ship(tuple:2) [2,7] committed\n    Put(tuple:3) [3,4]") {
		t.Errorf("String() missing status or method name:\n%s", s)
	}
}
