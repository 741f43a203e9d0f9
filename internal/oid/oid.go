// Package oid defines object identifiers for the semcc object store.
//
// Every database object — atomic, tuple, or set — is addressed by a
// unique OID. OIDs carry a kind tag so that diagnostic output and the
// lock manager can tell object classes apart without a store lookup,
// and a sequence number that is unique per store.
package oid

import (
	"fmt"
	"sync/atomic"
)

// Kind classifies the object an OID refers to.
type Kind uint8

const (
	// Invalid is the zero Kind; the zero OID is "no object".
	Invalid Kind = iota
	// Atomic objects hold a single value accessed with Get/Put.
	Atomic
	// Tuple objects map component names to sub-object OIDs.
	Tuple
	// Set objects map primary keys to member OIDs.
	Set
	// Database is the pseudo-object on which transaction roots operate.
	Database
	// Page identifies a storage page; used by the page-level locking
	// baseline, never stored in the object graph itself.
	Page
)

// String returns a short human-readable kind tag.
func (k Kind) String() string {
	switch k {
	case Atomic:
		return "atom"
	case Tuple:
		return "tuple"
	case Set:
		return "set"
	case Database:
		return "db"
	case Page:
		return "page"
	default:
		return "invalid"
	}
}

// OID identifies a database object. The zero value is "no object".
type OID struct {
	K Kind
	N uint64
}

// Nil is the zero OID.
var Nil OID

// IsNil reports whether o is the zero OID.
func (o OID) IsNil() bool { return o == Nil }

// String renders the OID as kind:number, e.g. "tuple:17".
func (o OID) String() string {
	if o.IsNil() {
		return "nil"
	}
	return fmt.Sprintf("%s:%d", o.K, o.N)
}

// MarshalText renders the OID in its diagnostic form (JSON exports).
func (o OID) MarshalText() ([]byte, error) { return []byte(o.String()), nil }

// DB is the OID of the database pseudo-object; transaction roots are
// modelled as actions on it (paper §3, footnote 2).
var DB = OID{K: Database, N: 0}

// Generator hands out fresh OIDs. It is safe for concurrent use.
type Generator struct {
	next atomic.Uint64
}

// NewGenerator returns a Generator whose first OID has sequence 1.
func NewGenerator() *Generator { return &Generator{} }

// New returns a fresh OID of the given kind.
func (g *Generator) New(k Kind) OID {
	return OID{K: k, N: g.next.Add(1)}
}

// PageOID returns the OID naming storage page p.
func PageOID(p uint64) OID { return OID{K: Page, N: p} }
