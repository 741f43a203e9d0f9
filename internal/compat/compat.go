// Package compat defines method invocations and the commutativity
// based compatibility relation between them (paper §2.2, §3).
//
// Each lock in the semantic protocol is associated with an invocation
// — a method, the receiver object, and the actual parameters. Two
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
	"slices"
	"strings"

	"semcc/internal/oid"
	"semcc/internal/val"
)

// Method identifies a method from registration to the journal; names
// survive only at the edges (the DML, figure output, observability
// labels, error text). The generic operations have fixed ids; a type's
// methods are numbered from FirstMethod in its matrix's declaration
// order, so only the receiver's type names them (Table.Name).
type Method uint8

// Generic operation ids (paper §2.2: operations provided for the
// generic type constructors set and tuple and for atomic objects).
const (
	// OpGet reads an atomic object's value.
	OpGet Method = iota
	// OpPut replaces an atomic object's value.
	OpPut
	// OpAdd adds a signed delta to an atomic integer — a blind
	// read-modify-write that commutes with itself (addition is
	// commutative) but conflicts with Get and Put. Counters and the
	// order status atom update through it, so two updates that their
	// matrix declares commuting also commute at the leaves.
	OpAdd
	// OpSelect looks up a set member by primary key.
	OpSelect
	// OpInsert adds a member to a set under a key.
	OpInsert
	// OpRemove deletes the member under a key from a set.
	OpRemove
	// OpScan enumerates all members of a set.
	OpScan
	// OpRoot labels transaction roots (actions on the database
	// pseudo-object). Roots never commute with each other.
	OpRoot
	// FirstMethod is the id of a type's first declared method.
	FirstMethod
)

var opNames = [FirstMethod]string{"Get", "Put", "Add", "Select", "Insert", "Remove", "Scan", "Tx"}

// String names a generic operation, and a type's method by its id
// ("#8").
func (m Method) String() string {
	if m < FirstMethod {
		return opNames[m]
	}
	return fmt.Sprintf("#%d", m)
}

// Invocation identifies one action of an open nested transaction: a
// method (or generic operation) applied to an object with actual
// parameters.
type Invocation struct {
	Object oid.OID
	Method Method
	Args   []val.V
}

// Inv is a convenience constructor.
func Inv(object oid.OID, method Method, args ...val.V) Invocation {
	return Invocation{Object: object, Method: method, Args: args}
}

// String renders the invocation with Method.String's name.
func (in Invocation) String() string { return in.Format(in.Method.String()) }

// Format renders the invocation under the method name given, like
// "ShipOrder(tuple:3, 7)".
func (in Invocation) Format(name string) string {
	parts := make([]string, 0, len(in.Args)+1)
	parts = append(parts, in.Object.String())
	for _, a := range in.Args {
		parts = append(parts, a.String())
	}
	return fmt.Sprintf("%s(%s)", name, strings.Join(parts, ", "))
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

// Matrix is a symmetric compatibility matrix over one type's methods:
// a dense table of rules indexed by method id, filled by Set. A nil
// entry conflicts, the safe direction.
type Matrix struct {
	typeName string
	first    Method
	methods  []string
	rules    []Rule // len(methods)², row-major by id − first
}

// NewMatrix returns an empty matrix for the named object type. Its
// methods get the ids FirstMethod, FirstMethod+1, … in the order given.
func NewMatrix(typeName string, methods ...string) *Matrix {
	if int(FirstMethod)+len(methods) > 1<<8 {
		panic(fmt.Sprintf("compat: type %s declares more methods than ids", typeName))
	}
	return &Matrix{
		typeName: typeName,
		first:    FirstMethod,
		methods:  append([]string(nil), methods...),
		rules:    make([]Rule, len(methods)*len(methods)),
	}
}

// TypeName returns the object type the matrix describes.
func (m *Matrix) TypeName() string { return m.typeName }

// Methods returns the method names in id order.
func (m *Matrix) Methods() []string { return append([]string(nil), m.methods...) }

// ID returns the id of the named method.
func (m *Matrix) ID(name string) (Method, bool) {
	i := slices.Index(m.methods, name)
	return m.first + Method(i), i >= 0
}

// Name returns the name of method id (Method.String's outside the
// matrix).
func (m *Matrix) Name(id Method) string {
	if i := int(id) - int(m.first); i >= 0 && i < len(m.methods) {
		return m.methods[i]
	}
	return id.String()
}

// Set installs a rule for the (symmetric) pair of declared methods.
func (m *Matrix) Set(a, b string, r Rule) *Matrix {
	i, j, n := slices.Index(m.methods, a), slices.Index(m.methods, b), len(m.methods)
	if i < 0 || j < 0 {
		panic(fmt.Sprintf("compat: matrix %s has no method pair %s/%s", m.typeName, a, b))
	}
	m.rules[i*n+j], m.rules[j*n+i] = r, r
	return m
}

// Rule returns the rule Set for the named pair, nil if none was.
func (m *Matrix) Rule(a, b string) Rule {
	i, j := slices.Index(m.methods, a), slices.Index(m.methods, b)
	if i < 0 || j < 0 {
		return nil
	}
	return m.rules[i*len(m.methods)+j]
}

// Compatible applies the matrix to two invocations, indexing the table
// by their ids (no string is hashed or compared); a method outside the
// matrix conflicts.
func (m *Matrix) Compatible(a, b Invocation) bool {
	n, i, j := len(m.methods), int(a.Method)-int(m.first), int(b.Method)-int(m.first)
	if i < 0 || j < 0 || i >= n || j >= n {
		return false
	}
	r := m.rules[i*n+j]
	return r != nil && r(a, b)
}

// Entry reports the static classification of a method pair for
// rendering: "ok", "conflict", or "param" for parameter-dependent
// rules.
func (m *Matrix) Entry(a, b string) string {
	r := m.Rule(a, b)
	if r == nil {
		return "conflict"
	}
	// Probe the rule with distinguishable argument vectors to
	// classify it. Rules must be pure.
	ia, _ := m.ID(a)
	ib, _ := m.ID(b)
	x := Invocation{Method: ia, Args: []val.V{val.OfStr("α"), val.OfStr("α")}}
	y := Invocation{Method: ib, Args: []val.V{val.OfStr("α"), val.OfStr("α")}}
	z := Invocation{Method: ib, Args: []val.V{val.OfStr("β"), val.OfStr("β")}}
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
	m := NewMatrix("generic", opNames[:OpRoot]...)
	m.first = OpGet
	m.Set("Get", "Get", Always)
	m.Set("Add", "Add", Always)
	m.Set("Select", "Select", Always)
	m.Set("Scan", "Scan", Always)
	m.Set("Select", "Scan", Always)
	m.Set("Select", "Insert", ArgsDiffer(0))
	m.Set("Select", "Remove", ArgsDiffer(0))
	m.Set("Insert", "Insert", ArgsDiffer(0))
	m.Set("Insert", "Remove", ArgsDiffer(0))
	m.Set("Remove", "Remove", ArgsDiffer(0))
	// Get/Put, Put/Put, Get/Add, Put/Add, Scan/Insert, Scan/Remove:
	// default conflict.
	return m
}

// IsGenericOp reports whether method is one of the generic leaf
// operations (Get/Put/Add/Select/Insert/Remove/Scan).
func IsGenericOp(method Method) bool { return method < OpRoot }

// IsReadOp reports whether method is a generic read (Get/Select/Scan).
func IsReadOp(method Method) bool { return method == OpGet || method == OpSelect || method == OpScan }

// IsWriteOp reports whether method is a generic write
// (Put/Add/Insert/Remove).
func IsWriteOp(method Method) bool { return IsGenericOp(method) && !IsReadOp(method) }

// Table maps object OIDs (or object types) to compatibility rules. The
// engine registers one Compat per encapsulated type plus the generic
// matrix for atoms and sets; the lock manager consults it through the
// Compatible method.
type Table interface {
	// Compatible reports whether invocations a and b — guaranteed to
	// have the same receiver object — commute.
	Compatible(a, b Invocation) bool
	// Name returns the name of inv's method.
	Name(inv Invocation) string
}
