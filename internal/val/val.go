// Package val defines the tagged value union stored in atomic objects
// and passed as method arguments and results.
//
// Values are immutable by convention: the engine copies event sets on
// write so that histories and before-images can share values safely.
package val

import (
	"encoding/binary"
	"fmt"
	"math"
	"math/bits"
	"sort"
	"strings"

	"semcc/internal/oid"
)

// Type enumerates the value types of the object model.
type Type uint8

const (
	// Null is the zero value type.
	Null Type = iota
	// Int is a signed 64-bit integer.
	Int
	// Float is a 64-bit float.
	Float
	// Str is a string.
	Str
	// Bool is a boolean.
	Bool
	// Ref is an object reference (an OID).
	Ref
	// Events is a multiset of status events (paper §2.2: the Status
	// of an Order records which events have occurred, e.g. shipped,
	// paid). Occurrences are counted rather than merely recorded so
	// that the inverse operation "remove one occurrence" commutes
	// exactly like "add one occurrence" — the property compensation
	// needs (DESIGN.md §3.3).
	Events
)

// String returns the type name.
func (t Type) String() string {
	switch t {
	case Int:
		return "int"
	case Float:
		return "float"
	case Str:
		return "string"
	case Bool:
		return "bool"
	case Ref:
		return "ref"
	case Events:
		return "events"
	default:
		return "null"
	}
}

// Event is a status event recorded on an order-like object.
type Event string

// V is a value of the object model. The zero V is Null.
type V struct {
	T  Type
	i  int64
	f  float64
	s  string
	b  bool
	r  oid.OID
	ev []Event // sorted; duplicates = occurrence counts (multiset)
}

// NullV is the null value.
var NullV V

// OfInt returns an Int value.
func OfInt(v int64) V { return V{T: Int, i: v} }

// OfFloat returns a Float value.
func OfFloat(v float64) V { return V{T: Float, f: v} }

// OfStr returns a Str value.
func OfStr(v string) V { return V{T: Str, s: v} }

// OfBool returns a Bool value.
func OfBool(v bool) V { return V{T: Bool, b: v} }

// OfRef returns a Ref value.
func OfRef(v oid.OID) V { return V{T: Ref, r: v} }

// OfEvents returns an Events value holding the given event
// occurrences (order-insensitive; duplicates are counted).
func OfEvents(evs ...Event) V {
	out := append([]Event(nil), evs...)
	sort.Slice(out, func(i, j int) bool { return out[i] < out[j] })
	return V{T: Events, ev: out}
}

// Int returns the integer payload (zero unless T==Int).
func (v V) Int() int64 { return v.i }

// Float returns the float payload (zero unless T==Float).
func (v V) Float() float64 { return v.f }

// Str returns the string payload (empty unless T==Str).
func (v V) Str() string { return v.s }

// Bool returns the bool payload (false unless T==Bool).
func (v V) Bool() bool { return v.b }

// Ref returns the OID payload (nil OID unless T==Ref).
func (v V) Ref() oid.OID { return v.r }

// EventList returns a copy of the event set, sorted.
func (v V) EventList() []Event {
	out := make([]Event, len(v.ev))
	copy(out, v.ev)
	return out
}

// HasEvent reports whether at least one occurrence of e is recorded.
func (v V) HasEvent(e Event) bool { return v.EventCount(e) > 0 }

// EventCount returns the number of recorded occurrences of e.
func (v V) EventCount(e Event) int {
	n := 0
	for _, x := range v.ev {
		if x == e {
			n++
		}
	}
	return n
}

// WithEvent returns a new Events value with one more occurrence of e.
func (v V) WithEvent(e Event) V {
	return OfEvents(append(v.EventList(), e)...)
}

// WithoutEvent returns a new Events value with one occurrence of e
// removed (no-op when none is recorded).
func (v V) WithoutEvent(e Event) V {
	if !v.HasEvent(e) {
		return v
	}
	evs := v.EventList()
	for i, x := range evs {
		if x == e {
			evs = append(evs[:i], evs[i+1:]...)
			break
		}
	}
	return OfEvents(evs...)
}

// IsNull reports whether v is the null value.
func (v V) IsNull() bool { return v.T == Null }

// Equal reports deep value equality.
func (v V) Equal(w V) bool {
	if v.T != w.T {
		return false
	}
	switch v.T {
	case Int:
		return v.i == w.i
	case Float:
		return v.f == w.f
	case Str:
		return v.s == w.s
	case Bool:
		return v.b == w.b
	case Ref:
		return v.r == w.r
	case Events:
		if len(v.ev) != len(w.ev) {
			return false
		}
		for i := range v.ev {
			if v.ev[i] != w.ev[i] {
				return false
			}
		}
		return true
	default:
		return true
	}
}

// String renders the value for diagnostics.
func (v V) String() string {
	switch v.T {
	case Int:
		return fmt.Sprintf("%d", v.i)
	case Float:
		return fmt.Sprintf("%g", v.f)
	case Str:
		return fmt.Sprintf("%q", v.s)
	case Bool:
		return fmt.Sprintf("%t", v.b)
	case Ref:
		return v.r.String()
	case Events:
		parts := make([]string, len(v.ev))
		for i, e := range v.ev {
			parts[i] = string(e)
		}
		return "{" + strings.Join(parts, ",") + "}"
	default:
		return "null"
	}
}

// Marshal serialises v into a compact binary form for the storage
// layer. The format is: 1 type byte followed by a type-specific
// payload.
func (v V) Marshal() []byte { return v.AppendTo(nil) }

// Size is len(v.Marshal()), computed without encoding.
func (v V) Size() int {
	n := 1
	switch v.T {
	case Int:
		n += varintLen(v.i)
	case Float:
		n += 8
	case Str:
		n += uvarintLen(uint64(len(v.s))) + len(v.s)
	case Bool:
		n++
	case Ref:
		n += 1 + uvarintLen(v.r.N)
	case Events:
		n += uvarintLen(uint64(len(v.ev)))
		for _, e := range v.ev {
			n += uvarintLen(uint64(len(e))) + len(e)
		}
	}
	return n
}

// uvarintLen and varintLen are the sizes binary.AppendUvarint and
// binary.AppendVarint would write.
func uvarintLen(x uint64) int { return (bits.Len64(x|1) + 6) / 7 }
func varintLen(x int64) int   { return uvarintLen(uint64(x<<1) ^ uint64(x>>63)) }

// AppendTo appends v's Marshal encoding to buf.
func (v V) AppendTo(buf []byte) []byte {
	buf = append(buf, byte(v.T))
	switch v.T {
	case Int:
		buf = binary.AppendVarint(buf, v.i)
	case Float:
		buf = binary.BigEndian.AppendUint64(buf, math.Float64bits(v.f))
	case Str:
		buf = binary.AppendUvarint(buf, uint64(len(v.s)))
		buf = append(buf, v.s...)
	case Bool:
		if v.b {
			buf = append(buf, 1)
		} else {
			buf = append(buf, 0)
		}
	case Ref:
		buf = append(buf, byte(v.r.K))
		buf = binary.AppendUvarint(buf, v.r.N)
	case Events:
		buf = binary.AppendUvarint(buf, uint64(len(v.ev)))
		for _, e := range v.ev {
			buf = binary.AppendUvarint(buf, uint64(len(e)))
			buf = append(buf, e...)
		}
	}
	return buf
}

// Unmarshal decodes a value previously produced by Marshal. It returns
// the decoded value and the number of bytes consumed.
func Unmarshal(b []byte) (V, int, error) {
	if len(b) == 0 {
		return NullV, 0, fmt.Errorf("val: empty buffer")
	}
	t := Type(b[0])
	p := 1
	switch t {
	case Null:
		return NullV, p, nil
	case Int:
		x, n := binary.Varint(b[p:])
		if n <= 0 {
			return NullV, 0, fmt.Errorf("val: bad int encoding")
		}
		return OfInt(x), p + n, nil
	case Float:
		if len(b) < p+8 {
			return NullV, 0, fmt.Errorf("val: short float encoding")
		}
		f := math.Float64frombits(binary.BigEndian.Uint64(b[p : p+8]))
		return OfFloat(f), p + 8, nil
	case Str:
		l, n := binary.Uvarint(b[p:])
		// The length check runs in uint64 space: converting a huge l to
		// int first could overflow negative and slip past a p+n+int(l)
		// comparison into a bad slice bound.
		if n <= 0 || l > uint64(len(b)-p-n) {
			return NullV, 0, fmt.Errorf("val: bad string encoding")
		}
		p += n
		return OfStr(string(b[p : p+int(l)])), p + int(l), nil
	case Bool:
		if len(b) < p+1 {
			return NullV, 0, fmt.Errorf("val: short bool encoding")
		}
		return OfBool(b[p] == 1), p + 1, nil
	case Ref:
		if len(b) < p+1 {
			return NullV, 0, fmt.Errorf("val: short ref encoding")
		}
		k := oid.Kind(b[p])
		p++
		nn, n := binary.Uvarint(b[p:])
		if n <= 0 {
			return NullV, 0, fmt.Errorf("val: bad ref encoding")
		}
		return OfRef(oid.OID{K: k, N: nn}), p + n, nil
	case Events:
		cnt, n := binary.Uvarint(b[p:])
		// Each event needs at least 1 length byte, so a count beyond
		// the remaining input is corrupt; checking before the make
		// bounds the preallocation by len(b).
		if n <= 0 || cnt > uint64(len(b)-p-n) {
			return NullV, 0, fmt.Errorf("val: bad events encoding")
		}
		p += n
		evs := make([]Event, 0, cnt)
		for i := uint64(0); i < cnt; i++ {
			l, n := binary.Uvarint(b[p:])
			if n <= 0 || l > uint64(len(b)-p-n) {
				return NullV, 0, fmt.Errorf("val: bad event encoding")
			}
			p += n
			evs = append(evs, Event(b[p:p+int(l)]))
			p += int(l)
		}
		return OfEvents(evs...), p, nil
	default:
		return NullV, 0, fmt.Errorf("val: unknown type tag %d", t)
	}
}
