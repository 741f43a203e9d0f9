// Package compat defines method invocations and the commutativity
// based compatibility relation between them (paper §2.2, §3).
//
// Each lock in the semantic protocol is associated with an invocation
// — a method name, the receiver object, and the actual parameters. Two
// invocations *on the same object* are compatible iff the specified
// semantics of the two operations commute: the two sequential
// executions are behaviourally indistinguishable to the callers and to
// every possible subsequent method invocation (state-independent
// commutativity, optionally conditioned on the actual parameters).
//
// Invocations on different objects never conflict; the lock manager
// only ever compares invocations with equal receivers.
package compat

import (
	"fmt"
	"strings"

	"semcc/internal/oid"
	"semcc/internal/val"
)

// Generic operation names (paper §2.2: operations provided for the
// generic type constructors set and tuple and for atomic objects).
const (
	// OpGet reads an atomic object's value.
	OpGet = "Get"
	// OpPut replaces an atomic object's value.
	OpPut = "Put"
	// OpSelect looks up a set member by primary key.
	OpSelect = "Select"
	// OpInsert adds a member to a set under a key.
	OpInsert = "Insert"
	// OpRemove deletes the member under a key from a set.
	OpRemove = "Remove"
	// OpScan enumerates all members of a set.
	OpScan = "Scan"
	// OpAdd adds a signed delta to an atomic integer — a blind
	// read-modify-write that commutes with itself (addition is
	// commutative) but conflicts with Get and Put. It is the leaf
	// operation escrow-admitted methods decrement counters with: the
	// floor is guaranteed by the method-level escrow reservation, so
	// the leaf needs no observing Get.
	OpAdd = "Add"
	// OpRoot labels transaction roots (actions on the database
	// pseudo-object). Roots never commute with each other.
	OpRoot = "Tx"
)

// Invocation identifies one action of an open nested transaction: a
// method (or generic operation) applied to an object with actual
// parameters.
type Invocation struct {
	Object oid.OID
	Method string
	Args   []val.V
}

// Inv is a convenience constructor.
func Inv(object oid.OID, method string, args ...val.V) Invocation {
	return Invocation{Object: object, Method: method, Args: args}
}

// String renders the invocation like "ShipOrder(tuple:3, 7)".
func (in Invocation) String() string {
	parts := make([]string, 0, len(in.Args)+1)
	parts = append(parts, in.Object.String())
	for _, a := range in.Args {
		parts = append(parts, a.String())
	}
	return fmt.Sprintf("%s(%s)", in.Method, strings.Join(parts, ", "))
}

// Rule decides compatibility of two invocations on the same object,
// possibly depending on the actual parameters.
type Rule func(a, b Invocation) bool

// Always is the Rule for unconditionally compatible method pairs.
func Always(a, b Invocation) bool { return true }

// Never is the Rule for unconditionally conflicting method pairs.
func Never(a, b Invocation) bool { return false }

// ArgsDiffer(i) returns a Rule that declares two invocations
// compatible iff their i-th arguments differ — e.g. TestStatus(o, e)
// commutes with ChangeStatus(o, e') iff e ≠ e' (paper Fig. 3), and
// Select(k) commutes with Insert(k') iff k ≠ k'.
func ArgsDiffer(i int) Rule {
	return func(a, b Invocation) bool {
		if i >= len(a.Args) || i >= len(b.Args) {
			return false
		}
		return !a.Args[i].Equal(b.Args[i])
	}
}

// Matrix is a symmetric compatibility matrix over method names with
// per-entry rules. Missing entries default to conflict, the safe
// direction.
type Matrix struct {
	typeName string
	methods  []string
	rules    map[[2]string]Rule
	escrow   *EscrowSpec
}

// NewMatrix returns an empty matrix for the named object type, with
// the given method universe (used for printing and validation).
func NewMatrix(typeName string, methods ...string) *Matrix {
	return &Matrix{
		typeName: typeName,
		methods:  append([]string(nil), methods...),
		rules:    make(map[[2]string]Rule),
	}
}

// TypeName returns the object type the matrix describes.
func (m *Matrix) TypeName() string { return m.typeName }

// Methods returns the method universe in declaration order.
func (m *Matrix) Methods() []string { return append([]string(nil), m.methods...) }

func pairKey(a, b string) [2]string {
	if a <= b {
		return [2]string{a, b}
	}
	return [2]string{b, a}
}

// Set installs a rule for the (symmetric) method pair.
func (m *Matrix) Set(a, b string, r Rule) *Matrix {
	m.rules[pairKey(a, b)] = r
	return m
}

// Compatible applies the matrix to two invocations (which must carry
// methods from this matrix's universe; unknown pairs conflict).
func (m *Matrix) Compatible(a, b Invocation) bool {
	r, ok := m.rules[pairKey(a.Method, b.Method)]
	if !ok {
		return false
	}
	return r(a, b)
}

// Entry reports the static classification of a method pair for
// rendering: "ok", "conflict", or "param" for parameter-dependent
// rules.
func (m *Matrix) Entry(a, b string) string {
	r, ok := m.rules[pairKey(a, b)]
	if !ok {
		return "conflict"
	}
	// Probe the rule with distinguishable argument vectors to
	// classify it. Rules must be pure.
	x := Invocation{Method: a, Args: []val.V{val.OfStr("α"), val.OfStr("α")}}
	y := Invocation{Method: b, Args: []val.V{val.OfStr("α"), val.OfStr("α")}}
	z := Invocation{Method: b, Args: []val.V{val.OfStr("β"), val.OfStr("β")}}
	same, diff := r(x, y), r(x, z)
	switch {
	case same && diff:
		return "ok"
	case !same && !diff:
		return "conflict"
	default:
		return "param"
	}
}

// Render prints the matrix as an aligned table, one row per method.
func (m *Matrix) Render() string {
	width := 0
	for _, name := range m.methods {
		if len(name) > width {
			width = len(name)
		}
	}
	if width < len("conflict") {
		width = len("conflict")
	}
	var b strings.Builder
	fmt.Fprintf(&b, "%-*s", width+2, m.typeName)
	for _, c := range m.methods {
		fmt.Fprintf(&b, "%-*s", width+2, c)
	}
	b.WriteByte('\n')
	for _, r := range m.methods {
		fmt.Fprintf(&b, "%-*s", width+2, r)
		for _, c := range m.methods {
			fmt.Fprintf(&b, "%-*s", width+2, m.Entry(r, c))
		}
		b.WriteByte('\n')
	}
	return b.String()
}

// GenericMatrix returns the compatibility matrix of the generic
// operations on atomic and set objects:
//
//   - Get/Get compatible; Get/Put and Put/Put conflict (classic R/W).
//   - Select(k)/Select(k') compatible; Select(k) conflicts with
//     Insert(k)/Remove(k) on the same key only.
//   - Insert(k)/Insert(k') and Remove/Insert commute on distinct keys.
//   - Scan conflicts with Insert and Remove (phantom protection) and
//     commutes with Select and Scan.
//   - Add/Add compatible (addition commutes); Add conflicts with Get
//     and Put (the observing operations).
func GenericMatrix() *Matrix {
	m := NewMatrix("generic", OpGet, OpPut, OpAdd, OpSelect, OpInsert, OpRemove, OpScan)
	m.Set(OpGet, OpGet, Always)
	m.Set(OpAdd, OpAdd, Always)
	m.Set(OpSelect, OpSelect, Always)
	m.Set(OpScan, OpScan, Always)
	m.Set(OpSelect, OpScan, Always)
	m.Set(OpSelect, OpInsert, ArgsDiffer(0))
	m.Set(OpSelect, OpRemove, ArgsDiffer(0))
	m.Set(OpInsert, OpInsert, ArgsDiffer(0))
	m.Set(OpInsert, OpRemove, ArgsDiffer(0))
	m.Set(OpRemove, OpRemove, ArgsDiffer(0))
	// Get/Put, Put/Put, Get/Add, Put/Add, Scan/Insert, Scan/Remove:
	// default conflict.
	return m
}

// writeOps classifies the generic writes for the read/write baseline
// protocols.
var writeOps = map[string]bool{OpPut: true, OpAdd: true, OpInsert: true, OpRemove: true}

// IsGenericOp reports whether method is one of the generic leaf
// operations (Get/Put/Add/Select/Insert/Remove/Scan).
func IsGenericOp(method string) bool { return IsReadOp(method) || writeOps[method] }

// IsReadOp reports whether method is a generic read (Get/Select/Scan).
// A switch, not a map: the engine asks once per subtransaction begin
// and end.
func IsReadOp(method string) bool {
	switch method {
	case OpGet, OpSelect, OpScan:
		return true
	}
	return false
}

// IsWriteOp reports whether method is a generic write
// (Put/Add/Insert/Remove).
func IsWriteOp(method string) bool { return writeOps[method] }

// Table maps object OIDs (or object types) to compatibility rules. The
// engine registers one Compat per encapsulated type plus the generic
// matrix for atoms and sets; the lock manager consults it through the
// Compatible method.
type Table interface {
	// Compatible reports whether invocations a and b — guaranteed to
	// have the same receiver object — commute.
	Compatible(a, b Invocation) bool
}
