// Package history defines immutable snapshots of executed open nested
// transaction forests. The engine records, for every invocation node,
// its logical begin/end timestamps and final state; the semantic
// serializability checker (internal/serial) consumes these snapshots.
package history

import (
	"fmt"
	"sort"
	"strings"

	"semcc/internal/compat"
)

// Node is one invocation node of an executed transaction tree.
type Node struct {
	// ID is the engine-assigned node id.
	ID uint64
	// Inv is the invocation the node executed, and Name its method's
	// name (for rendering).
	Inv  compat.Invocation
	Name string
	// Begin and End are logical timestamps from the engine's global
	// clock: Begin is assigned when the node is created, End when it
	// completes. For any two nodes, Begin/End values are unique, so
	// they induce a total order on events.
	Begin, End int64
	// Committed is false for aborted nodes.
	Committed bool
	// Children in invocation order.
	Children []*Node
}

// IsLeaf reports whether the node has no children.
func (n *Node) IsLeaf() bool { return len(n.Children) == 0 }

// Interval returns the [min begin, max end] envelope of the subtree.
func (n *Node) Interval() (lo, hi int64) {
	lo, hi = n.Begin, n.End
	for _, c := range n.Children {
		clo, chi := c.Interval()
		if clo < lo {
			lo = clo
		}
		if chi > hi {
			hi = chi
		}
	}
	return lo, hi
}

// Walk visits the node and its descendants depth-first, pre-order.
func (n *Node) Walk(f func(*Node)) {
	f(n)
	for _, c := range n.Children {
		c.Walk(f)
	}
}

// Clone returns a deep copy of the subtree.
func (n *Node) Clone() *Node {
	cp := *n
	cp.Children = make([]*Node, len(n.Children))
	for i, c := range n.Children {
		cp.Children[i] = c.Clone()
	}
	return &cp
}

// Forest is a set of executed top-level transactions.
type Forest struct {
	Roots []*Node
}

// CommittedRoots returns the committed top-level transactions.
func (f *Forest) CommittedRoots() []*Node {
	var out []*Node
	for _, r := range f.Roots {
		if r.Committed {
			out = append(out, r)
		}
	}
	return out
}

// Leaves returns every leaf node of the forest in global execution
// order (by End timestamp — for leaves, execution is indivisible, so
// End order is the serialization order of the physical operations).
func (f *Forest) Leaves() []*Node {
	var out []*Node
	for _, r := range f.Roots {
		r.Walk(func(n *Node) {
			if n.IsLeaf() {
				out = append(out, n)
			}
		})
	}
	sort.Slice(out, func(i, j int) bool { return out[i].End < out[j].End })
	return out
}

// String renders the forest as an indented tree listing, ordered by
// root begin time.
func (f *Forest) String() string {
	roots := append([]*Node(nil), f.Roots...)
	sort.Slice(roots, func(i, j int) bool { return roots[i].Begin < roots[j].Begin })
	var b strings.Builder
	for _, r := range roots {
		renderNode(&b, r, 0)
	}
	return b.String()
}

func renderNode(b *strings.Builder, n *Node, depth int) {
	status := "committed"
	if !n.Committed {
		status = "aborted"
	}
	fmt.Fprintf(b, "%s%s [%d,%d] %s\n", strings.Repeat("  ", depth), n.Inv.Format(n.Name), n.Begin, n.End, status)
	for _, c := range n.Children {
		renderNode(b, c, depth+1)
	}
}
