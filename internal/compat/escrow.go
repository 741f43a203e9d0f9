// State-dependent commutativity (escrow locking). The matrices in
// compat.go are *state-independent*: Rule sees only the two
// invocations, never the object's state, so two decrements of a
// bounded counter must conflict — either one could hit the floor
// depending on how much stock is left. Escrow locking (O'Neil;
// Malta & Martinez's state-dependent commutativity) recovers the lost
// parallelism: the engine keeps, per counter object, the interval of
// values the committed state can still take given every uncommitted
// increment and decrement. A decrement of x is admitted next to
// uncommitted decrements whenever low − x ≥ floor — then no possible
// outcome of the concurrent transactions can make the floor check
// observable, so the operations commute *in this state*.
//
// This file defines the declarative side: a per-matrix EscrowSpec
// naming which methods move the counter and by how much, the Mode
// knob that switches the engine between the static matrices and the
// escrow extension, and the EscrowTable interface the engine uses to
// resolve an invocation to its escrow delta. The interval bookkeeping
// itself lives in internal/core (it must run under the lock manager's
// shard locks).
package compat

import "fmt"

// Mode selects the compatibility regime: the paper's static matrices
// alone, or the matrices extended with state-dependent escrow
// admission. It is an ablation axis (E8) — the admitted histories
// differ, but both regimes are semantically serializable.
type Mode int

const (
	// CompatStatic uses only the state-independent matrices
	// (parameter-dependent rules like ArgsDiffer included).
	CompatStatic Mode = iota
	// CompatEscrow additionally admits method pairs whose escrow
	// deltas fit the object's current bounds interval.
	CompatEscrow
)

// String names the mode like the -compat flag spells it.
func (m Mode) String() string {
	switch m {
	case CompatStatic:
		return "static"
	case CompatEscrow:
		return "escrow"
	default:
		return fmt.Sprintf("Mode(%d)", int(m))
	}
}

// ParseMode parses a -compat flag value.
func ParseMode(s string) (Mode, error) {
	switch s {
	case "", "static":
		return CompatStatic, nil
	case "escrow":
		return CompatEscrow, nil
	default:
		return CompatStatic, fmt.Errorf("compat: unknown mode %q (want static or escrow)", s)
	}
}

// Modes lists the selectable modes.
func Modes() []Mode { return []Mode{CompatStatic, CompatEscrow} }

// EscrowSpec declares that instances of a type embed one escrow
// counter: an atomic integer component whose updates the engine may
// admit concurrently as long as the bounds interval stays inside
// [Floor, Ceil]. The spec is attached to the type's Matrix
// (Matrix.SetEscrow) and consulted only when the engine runs in
// CompatEscrow mode.
type EscrowSpec struct {
	// Component names the tuple component holding the counter atom
	// ("" means the receiver object itself is the counter atom).
	Component string
	// Floor is the smallest value the counter may take (the
	// insufficient-stock / insufficient-funds bound).
	Floor int64
	// Ceil is the largest value the counter may take; 0 means
	// unbounded above (the common case for stock and balances).
	Ceil int64
	// Delta maps a method invocation to its effect on the counter.
	// ok=false means the method does not move the counter (it is then
	// judged by the static matrix alone). Delta must be pure.
	Delta func(inv Invocation) (delta int64, ok bool)
}

// SetEscrow attaches an escrow spec to the matrix (one counter per
// type; nil detaches).
func (m *Matrix) SetEscrow(spec *EscrowSpec) *Matrix {
	m.escrow = spec
	return m
}

// Escrow returns the matrix's escrow spec, or nil.
func (m *Matrix) Escrow() *EscrowSpec { return m.escrow }

// EscrowTable extends Table with escrow resolution: the engine asks
// it, per method invocation, whether the invocation moves an escrow
// counter and by how much. Implemented by the oodb type registry
// (instance → type → matrix → spec).
type EscrowTable interface {
	Table
	// EscrowOf resolves inv to its escrow delta. ok=false when inv's
	// receiver has no escrow spec or the method does not move the
	// counter.
	EscrowOf(inv Invocation) (delta int64, spec *EscrowSpec, ok bool)
}
