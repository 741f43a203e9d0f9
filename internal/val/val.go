// Package val defines the tagged value union stored in atomic objects
// and passed as method arguments and results: the paper's basic values
// (§2), read and written by Get and Put.
//
// A V is a plain value whose only pointer is its immutable string, so
// histories, before-images and arguments copy it freely.
package val

import (
	"encoding/binary"
	"fmt"
	"math"
	"math/bits"

	"semcc/internal/oid"
)

// Type enumerates the value types of the object model. It is also the
// first byte of a value's encoding; tag 6 is retired (it encoded an
// event multiset, which no method stores any more) and is never reused,
// so Unmarshal rejects it as unknown.
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
	default:
		return "null"
	}
}

// V is a value of the object model. The zero V is Null.
type V struct {
	T Type
	k oid.Kind // Ref: the OID's kind
	w uint64   // Int, the Float's bits, Bool (0 or 1), or Ref's N
	s string   // Str
}

// NullV is the null value.
var NullV V

// OfInt returns an Int value.
func OfInt(v int64) V { return V{T: Int, w: uint64(v)} }

// OfFloat returns a Float value.
func OfFloat(v float64) V { return V{T: Float, w: math.Float64bits(v)} }

// OfStr returns a Str value.
func OfStr(v string) V { return V{T: Str, s: v} }

// OfBool returns a Bool value.
func OfBool(v bool) V {
	if v {
		return V{T: Bool, w: 1}
	}
	return V{T: Bool}
}

// OfRef returns a Ref value.
func OfRef(v oid.OID) V { return V{T: Ref, k: v.K, w: v.N} }

// Int returns the integer payload (zero unless T==Int).
func (v V) Int() int64 {
	if v.T != Int {
		return 0
	}
	return int64(v.w)
}

// Float returns the float payload (zero unless T==Float).
func (v V) Float() float64 {
	if v.T != Float {
		return 0
	}
	return math.Float64frombits(v.w)
}

// Str returns the string payload (empty unless T==Str).
func (v V) Str() string { return v.s }

// Bool returns the bool payload (false unless T==Bool).
func (v V) Bool() bool { return v.T == Bool && v.w != 0 }

// Ref returns the OID payload (nil OID unless T==Ref).
func (v V) Ref() oid.OID {
	if v.T != Ref {
		return oid.Nil
	}
	return oid.OID{K: v.k, N: v.w}
}

// IsNull reports whether v is the null value.
func (v V) IsNull() bool { return v.T == Null }

// Equal reports value equality. Floats compare as IEEE numbers (NaN is
// unequal to itself, −0 equals +0); every other type by its payload.
func (v V) Equal(w V) bool {
	if v.T == Float && w.T == Float {
		return v.Float() == w.Float()
	}
	return v == w
}

// String renders the value for diagnostics.
func (v V) String() string {
	switch v.T {
	case Int:
		return fmt.Sprintf("%d", v.Int())
	case Float:
		return fmt.Sprintf("%g", v.Float())
	case Str:
		return fmt.Sprintf("%q", v.s)
	case Bool:
		return fmt.Sprintf("%t", v.Bool())
	case Ref:
		return v.Ref().String()
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
		n += varintLen(v.Int())
	case Float:
		n += 8
	case Str:
		n += uvarintLen(uint64(len(v.s))) + len(v.s)
	case Bool:
		n++
	case Ref:
		n += 1 + uvarintLen(v.w)
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
		buf = binary.AppendVarint(buf, v.Int())
	case Float:
		buf = binary.BigEndian.AppendUint64(buf, v.w)
	case Str:
		buf = binary.AppendUvarint(buf, uint64(len(v.s)))
		buf = append(buf, v.s...)
	case Bool:
		buf = append(buf, byte(v.w))
	case Ref:
		buf = append(buf, byte(v.k))
		buf = binary.AppendUvarint(buf, v.w)
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
		return V{T: Float, w: binary.BigEndian.Uint64(b[p : p+8])}, p + 8, nil
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
	default:
		return NullV, 0, fmt.Errorf("val: unknown type tag %d", t)
	}
}
