package core

import (
	"fmt"

	"semcc/internal/compat"
	"semcc/internal/oid"
)

// ProtocolKind selects the concurrency control protocol an Engine
// runs. The semantic protocol is the paper's contribution; the others
// are the comparison points discussed in §1 and §3 (see DESIGN.md §2,
// P1–P5).
type ProtocolKind uint8

const (
	// Semantic is the full protocol of paper §4: semantic locks at
	// every level, retained locks at subtransaction commit, and the
	// commutative-ancestor conflict test of Fig. 9.
	Semantic ProtocolKind = iota
	// OpenNoRetain is the plain open nested protocol of paper §3:
	// subtransaction locks are released at subcommit. It is correct
	// only when encapsulation is never bypassed; Fig. 5 shows the
	// anomaly it admits otherwise. Included to reproduce that figure.
	OpenNoRetain
	// ClosedNested is Moss-style closed nesting [Mo85]: read/write
	// locks at the leaves, inherited by the parent at subcommit,
	// released at top-level end.
	ClosedNested
	// TwoPLObject is conventional strict 2PL with read/write locks on
	// storage atoms and object structures ("record-oriented", §1.1).
	TwoPLObject
	// TwoPLPage is conventional strict 2PL with read/write locks on
	// pages ("page-oriented", §1.1): atomic-object accesses lock the
	// page holding the atom.
	TwoPLPage
)

// String returns the protocol's short name used in experiment tables.
func (p ProtocolKind) String() string {
	switch p {
	case Semantic:
		return "semantic"
	case OpenNoRetain:
		return "open-noretain"
	case ClosedNested:
		return "closed-nested"
	case TwoPLObject:
		return "2pl-object"
	case TwoPLPage:
		return "2pl-page"
	default:
		return fmt.Sprintf("protocol(%d)", uint8(p))
	}
}

// Protocols lists all implemented protocols in comparison order.
func Protocols() []ProtocolKind {
	return []ProtocolKind{Semantic, OpenNoRetain, ClosedNested, TwoPLObject, TwoPLPage}
}

// IsSemanticFamily reports whether the protocol takes semantic locks
// at every level of the invocation hierarchy (as opposed to read/write
// locks at the leaves only).
func (p ProtocolKind) IsSemanticFamily() bool {
	return p == Semantic || p == OpenNoRetain
}

// LockFor maps an invocation to the lock the protocol acquires for it.
// It returns ok=false when the protocol takes no lock for this
// invocation (e.g. method invocations under the read/write baselines).
// pageOf translates an atomic object to its page for TwoPLPage; it is
// only consulted for atoms.
func (m *lockMgr) LockFor(inv compat.Invocation) (compat.Invocation, bool) {
	if inv.Method == compat.OpRoot {
		// Roots hold no lock; they only anchor the tree.
		return compat.Invocation{}, false
	}
	switch m.kind {
	case Semantic, OpenNoRetain:
		// Semantic lock in the invocation's own mode, on the receiver.
		return inv, true
	case ClosedNested, TwoPLObject, TwoPLPage:
		if !compat.IsGenericOp(inv.Method) {
			// Conventional protocols are oblivious to methods: only
			// the underlying reads and writes are locked.
			return compat.Invocation{}, false
		}
		target := inv.Object
		if m.kind == TwoPLPage && target.K == oid.Atomic && m.pageOf != nil {
			if pg, err := m.pageOf(target); err == nil {
				target = pg
			}
		}
		mode := compat.OpGet
		if compat.IsWriteOp(inv.Method) {
			mode = compat.OpPut
		}
		// Args are dropped: conventional read/write locks are not
		// parameter-dependent.
		return compat.Invocation{Object: target, Method: mode}, true
	default:
		return inv, true
	}
}

// compatible consults the compatibility table for two lock
// invocations on the same object. Under the read/write baselines lock
// modes are already collapsed to Get/Put, which the generic matrix
// handles.
func (m *lockMgr) compatible(a, b compat.Invocation) bool {
	return m.table.Compatible(a, b)
}
