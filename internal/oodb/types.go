// Package oodb implements the object-oriented database engine on top
// of the object store and the concurrency control core: encapsulated
// object types with user-defined methods, transactions that invoke
// methods (building open nested transaction trees dynamically), and
// direct "bypass" access to implementation objects through the generic
// operations — the coexistence the paper's §4 is about.
package oodb

import (
	"fmt"
	"sync"
	"sync/atomic"

	"semcc/internal/compat"
	"semcc/internal/objstore"
	"semcc/internal/oid"
	"semcc/internal/val"
)

// MethodFunc is the body of a user-defined method. It runs inside the
// method's subtransaction; every database access must go through ctx
// so it is locked and recorded as a child action.
type MethodFunc func(ctx *Ctx, recv oid.OID, args []val.V) (val.V, error)

// InverseFunc derives the compensating invocation for a committed
// method execution from the forward invocation and its result.
// Returning nil means "compensate by my children's inverses instead"
// (correct for read-only methods; a safe fallback otherwise).
type InverseFunc func(inv compat.Invocation, result val.V) *compat.Invocation

// Method is a user-defined method of an encapsulated type.
type Method struct {
	// Name is the method name, unique within its type.
	Name string
	// Body executes the method.
	Body MethodFunc
	// ReadOnly marks methods with no database effects.
	ReadOnly bool
	// Inverse produces the compensation for abort handling. Nil for
	// read-only methods.
	Inverse InverseFunc
}

// Type is an encapsulated object type: a set of methods plus the
// commutativity-based compatibility matrix over them (paper §2.2).
type Type struct {
	// Name is the type name, unique within a DB.
	Name string
	// Methods by name.
	Methods map[string]*Method
	// Matrix is the type's compatibility matrix. Every method must
	// appear in it; absent pairs conflict.
	Matrix *compat.Matrix
}

// NewType builds a Type from a matrix and methods. It validates that
// each method appears in the matrix universe.
func NewType(name string, matrix *compat.Matrix, methods ...*Method) (*Type, error) {
	universe := make(map[string]bool)
	for _, m := range matrix.Methods() {
		universe[m] = true
	}
	t := &Type{Name: name, Methods: make(map[string]*Method, len(methods)), Matrix: matrix}
	for _, m := range methods {
		if m.Name == "" || m.Body == nil {
			return nil, fmt.Errorf("oodb: type %s: method needs name and body", name)
		}
		if compat.IsGenericOp(m.Name) || m.Name == compat.OpRoot {
			// Generic operation names are reserved: invocation dispatch
			// routes them to the object store, so a method of the same
			// name could never be called.
			return nil, fmt.Errorf("oodb: type %s: method name %s is a reserved generic operation", name, m.Name)
		}
		if !universe[m.Name] {
			return nil, fmt.Errorf("oodb: type %s: method %s missing from compatibility matrix", name, m.Name)
		}
		if _, dup := t.Methods[m.Name]; dup {
			return nil, fmt.Errorf("oodb: type %s: duplicate method %s", name, m.Name)
		}
		t.Methods[m.Name] = m
	}
	return t, nil
}

// MustType is NewType that panics on error; for static schema setup.
func MustType(name string, matrix *compat.Matrix, methods ...*Method) *Type {
	t, err := NewType(name, matrix, methods...)
	if err != nil {
		panic(err)
	}
	return t
}

// typeRegistry maps encapsulated object instances to their types and
// answers the engine's compatibility queries (compat.Table). A type's
// tag is its index in types; an instance's binding is that tag, kept in
// the object's store directory entry, so resolving an object's type
// takes no registry-wide lock: types is immutable and replaced on
// register.
type typeRegistry struct {
	store   *objstore.Store
	mu      sync.RWMutex      // guards tags; serialises register
	tags    map[string]uint32 // type name -> tag
	types   atomic.Pointer[[]*Type]
	generic *compat.Matrix
}

func newTypeRegistry(store *objstore.Store) *typeRegistry {
	r := &typeRegistry{
		store:   store,
		tags:    make(map[string]uint32),
		generic: compat.GenericMatrix(),
	}
	r.types.Store(&[]*Type{nil}) // tag 0: no type
	return r
}

func (r *typeRegistry) register(t *Type) error {
	r.mu.Lock()
	defer r.mu.Unlock()
	if _, dup := r.tags[t.Name]; dup {
		return fmt.Errorf("oodb: duplicate type %s", t.Name)
	}
	old := *r.types.Load()
	types := append(old[:len(old):len(old)], t)
	r.tags[t.Name] = uint32(len(old))
	r.types.Store(&types)
	return nil
}

func (r *typeRegistry) typeByName(name string) (*Type, bool) {
	r.mu.RLock()
	tag, ok := r.tags[name]
	r.mu.RUnlock()
	return (*r.types.Load())[tag], ok
}

func (r *typeRegistry) bindInstance(obj oid.OID, typeName string) error {
	r.mu.RLock()
	tag, ok := r.tags[typeName]
	r.mu.RUnlock()
	if !ok {
		return fmt.Errorf("oodb: unknown type %s", typeName)
	}
	return r.store.SetTag(obj, tag)
}

func (r *typeRegistry) typeOf(obj oid.OID) (*Type, bool) {
	t := (*r.types.Load())[r.store.Tag(obj)]
	return t, t != nil
}

func (r *typeRegistry) methodOf(obj oid.OID, name string) (*Method, bool) {
	t, ok := r.typeOf(obj)
	if !ok {
		return nil, false
	}
	m, ok := t.Methods[name]
	return m, ok
}

// Compatible implements compat.Table. Both invocations address the
// same object (the lock manager guarantees it); dispatch is:
// encapsulated methods through the instance's type matrix, generic
// operations through the generic matrix, anything else conflicts.
func (r *typeRegistry) Compatible(a, b compat.Invocation) bool {
	aGen, bGen := compat.IsGenericOp(a.Method), compat.IsGenericOp(b.Method)
	if aGen && bGen {
		return r.generic.Compatible(a, b)
	}
	if aGen != bGen {
		// A method and a generic operation on the same object (e.g. a
		// DML program doing raw Puts against an encapsulated object's
		// own OID): no commutativity is known — conflict.
		return false
	}
	if t, ok := r.typeOf(a.Object); ok {
		return t.Matrix.Compatible(a, b)
	}
	return false
}
