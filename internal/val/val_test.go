package val

import (
	"bytes"
	"encoding/binary"
	"math"
	"math/rand"
	"reflect"
	"strings"
	"testing"
	"testing/quick"
	"unsafe"

	"semcc/internal/oid"
)

// Generate implements quick.Generator, producing arbitrary values of
// every type.
func (V) Generate(r *rand.Rand, size int) reflect.Value {
	var v V
	switch r.Intn(6) {
	case 0:
		v = NullV
	case 1:
		v = OfInt(r.Int63() - r.Int63())
	case 2:
		v = OfFloat(r.NormFloat64())
	case 3:
		b := make([]byte, r.Intn(32))
		r.Read(b)
		v = OfStr(string(b))
	case 4:
		v = OfBool(r.Intn(2) == 0)
	default:
		v = OfRef(oid.OID{K: oid.Kind(1 + r.Intn(4)), N: r.Uint64()})
	}
	return reflect.ValueOf(v)
}

// Property: Marshal/Unmarshal round-trips every value.
func TestMarshalRoundTrip(t *testing.T) {
	f := func(v V) bool {
		got, n, err := Unmarshal(v.Marshal())
		return err == nil && n == len(v.Marshal()) && got.Equal(v)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 2000}); err != nil {
		t.Fatal(err)
	}
}

// marshalRef is the encoder Marshal was before AppendTo and Size
// existed, kept as the reference both are held to (reading the payload
// through the accessors): the journal and the store write these bytes,
// so they must not move.
func marshalRef(v V) []byte {
	buf := []byte{byte(v.T)}
	switch v.T {
	case Int:
		buf = binary.AppendVarint(buf, v.Int())
	case Float:
		var b [8]byte
		binary.BigEndian.PutUint64(b[:], math.Float64bits(v.Float()))
		buf = append(buf, b[:]...)
	case Str:
		buf = binary.AppendUvarint(buf, uint64(len(v.Str())))
		buf = append(buf, v.Str()...)
	case Bool:
		if v.Bool() {
			buf = append(buf, 1)
		} else {
			buf = append(buf, 0)
		}
	case Ref:
		buf = append(buf, byte(v.Ref().K))
		buf = binary.AppendUvarint(buf, v.Ref().N)
	}
	return buf
}

// Property: AppendTo(nil) writes exactly the reference encoding, Size
// is its length, and AppendTo leaves what buf already held alone. The
// fixed cases cover every Type at the edges of its varint widths; the
// quick check the rest.
func TestAppendToMatchesMarshal(t *testing.T) {
	check := func(v V) bool {
		want := marshalRef(v)
		prefix := []byte{0xAA, 0xBB}
		got := v.AppendTo(prefix[:2:2])
		return bytes.Equal(v.AppendTo(nil), want) && bytes.Equal(v.Marshal(), want) &&
			v.Size() == len(want) && bytes.Equal(got[:2], prefix) && bytes.Equal(got[2:], want)
	}
	long := strings.Repeat("x", 200)
	fixed := []V{
		NullV,
		OfInt(0), OfInt(1), OfInt(-1), OfInt(63), OfInt(64), OfInt(-64), OfInt(-65),
		OfInt(math.MaxInt64), OfInt(math.MinInt64),
		OfFloat(0), OfFloat(-2.5), OfFloat(math.Inf(1)), OfFloat(math.NaN()),
		OfStr(""), OfStr("a"), OfStr(long),
		OfBool(false), OfBool(true),
		OfRef(oid.Nil), OfRef(oid.DB), OfRef(oid.OID{K: oid.Set, N: 1 << 40}),
	}
	seen := map[Type]bool{}
	for _, v := range fixed {
		seen[v.T] = true
		if !check(v) {
			t.Errorf("%s (%s): AppendTo % x, Size %d; reference % x", v, v.T, v.AppendTo(nil), v.Size(), marshalRef(v))
		}
	}
	for ty := Null; ty <= Ref; ty++ {
		if !seen[ty] {
			t.Errorf("no fixed case of type %s", ty)
		}
	}
	if err := quick.Check(check, &quick.Config{MaxCount: 5000}); err != nil {
		t.Fatal(err)
	}
}

// Property: Equal is reflexive and symmetric.
func TestEqualProperties(t *testing.T) {
	refl := func(v V) bool { return v.Equal(v) }
	if err := quick.Check(refl, nil); err != nil {
		t.Fatal("reflexivity:", err)
	}
	sym := func(a, b V) bool { return a.Equal(b) == b.Equal(a) }
	if err := quick.Check(sym, nil); err != nil {
		t.Fatal("symmetry:", err)
	}
}

func TestAccessorsAndString(t *testing.T) {
	cases := []struct {
		v    V
		want string
	}{
		{OfInt(-7), "-7"},
		{OfFloat(2.5), "2.5"},
		{OfStr("hi"), `"hi"`},
		{OfBool(true), "true"},
		{OfRef(oid.OID{K: oid.Tuple, N: 3}), "tuple:3"},
		{NullV, "null"},
	}
	for _, c := range cases {
		if got := c.v.String(); got != c.want {
			t.Errorf("String() = %q, want %q", got, c.want)
		}
	}
	if OfInt(5).Int() != 5 || OfFloat(1.5).Float() != 1.5 || OfStr("x").Str() != "x" ||
		!OfBool(true).Bool() || OfRef(oid.DB).Ref() != oid.DB {
		t.Error("accessor mismatch")
	}
	if !NullV.IsNull() || OfInt(0).IsNull() {
		t.Error("IsNull wrong")
	}
}

// TestLayout pins V to one tag, one payload word and a string: every
// argument, undo entry, store read and result copies it.
func TestLayout(t *testing.T) {
	if n := unsafe.Sizeof(V{}); n != 32 {
		t.Errorf("unsafe.Sizeof(V{}) = %d, want 32", n)
	}
}

// TestAccessorsPerType holds every accessor to its contract on every
// type: the payload when T matches, zero otherwise, although Int,
// Float, Bool and Ref share one payload word. Equal compares floats as
// IEEE numbers and everything else by type and payload. Tag 6, the
// retired event multiset, decodes as an unknown tag.
func TestAccessorsPerType(t *testing.T) {
	ref := oid.OID{K: oid.Tuple, N: 1<<63 + 5}
	for _, v := range []V{NullV, OfInt(-1), OfFloat(-2.5), OfStr("x"), OfBool(true), OfRef(ref)} {
		want := struct {
			i int64
			f float64
			s string
			b bool
			r oid.OID
		}{}
		switch v.T {
		case Int:
			want.i = -1
		case Float:
			want.f = -2.5
		case Str:
			want.s = "x"
		case Bool:
			want.b = true
		case Ref:
			want.r = ref
		}
		if v.Int() != want.i || v.Float() != want.f || v.Str() != want.s || v.Bool() != want.b || v.Ref() != want.r {
			t.Errorf("%s value %s: Int %d Float %g Str %q Bool %t Ref %s, want %+v",
				v.T, v, v.Int(), v.Float(), v.Str(), v.Bool(), v.Ref(), want)
		}
		if v.IsNull() != (v.T == Null) {
			t.Errorf("%s value %s: IsNull = %t", v.T, v, v.IsNull())
		}
	}
	if OfBool(false).Bool() || OfBool(false).Int() != 0 {
		t.Error("OfBool(false) reads as true or as a non-zero Int")
	}

	nan := OfFloat(math.NaN())
	unequal := [][2]V{
		{nan, nan},
		{OfInt(1), OfBool(true)},
		{OfInt(0), NullV},
		{OfFloat(0), OfInt(0)},
		{OfRef(oid.OID{K: oid.Tuple, N: 5}), OfRef(oid.OID{K: oid.Set, N: 5})},
		{OfRef(oid.OID{K: oid.Tuple, N: 5}), OfInt(5)},
		{OfStr(""), NullV},
	}
	for _, p := range unequal {
		if p[0].Equal(p[1]) || p[1].Equal(p[0]) {
			t.Errorf("%s (%s) and %s (%s) compare equal", p[0], p[0].T, p[1], p[1].T)
		}
	}
	if !OfFloat(math.Copysign(0, -1)).Equal(OfFloat(0)) {
		t.Error("-0 and +0 compare unequal")
	}

	for _, b := range [][]byte{{6, 0}, {6, 1, 4, 'p', 'a', 'i', 'd'}} {
		if v, n, err := Unmarshal(b); err == nil {
			t.Errorf("Unmarshal(% x) = %s, %d: the retired tag 6 decoded", b, v, n)
		}
	}
}

func TestUnmarshalErrors(t *testing.T) {
	bad := [][]byte{
		nil,
		{byte(Int)},         // missing payload
		{byte(Float), 1, 2}, // short float
		{byte(Str), 200},    // length beyond buffer
		{byte(Bool)},        // missing payload
		{byte(Ref)},         // missing payload
		{99},                // unknown tag
	}
	for _, b := range bad {
		if _, _, err := Unmarshal(b); err == nil {
			t.Errorf("Unmarshal(%v): expected error", b)
		}
	}
}

func TestTypeNames(t *testing.T) {
	names := map[Type]string{
		Null: "null", Int: "int", Float: "float", Str: "string",
		Bool: "bool", Ref: "ref",
	}
	for ty, want := range names {
		if got := ty.String(); got != want {
			t.Errorf("%d.String() = %q, want %q", ty, got, want)
		}
	}
}
