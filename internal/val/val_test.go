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

	"semcc/internal/oid"
)

// Generate implements quick.Generator, producing arbitrary values of
// every type.
func (V) Generate(r *rand.Rand, size int) reflect.Value {
	var v V
	switch r.Intn(7) {
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
	case 5:
		v = OfRef(oid.OID{K: oid.Kind(1 + r.Intn(4)), N: r.Uint64()})
	default:
		evs := make([]Event, r.Intn(5))
		names := []Event{"shipped", "paid", "billed"}
		for i := range evs {
			evs[i] = names[r.Intn(len(names))]
		}
		v = OfEvents(evs...)
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
// existed, kept verbatim as the reference both are held to: the journal
// and the store write these bytes, so they must not move.
func marshalRef(v V) []byte {
	buf := []byte{byte(v.T)}
	switch v.T {
	case Int:
		buf = binary.AppendVarint(buf, v.i)
	case Float:
		var b [8]byte
		binary.BigEndian.PutUint64(b[:], math.Float64bits(v.f))
		buf = append(buf, b[:]...)
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
		OfEvents(), OfEvents(""), OfEvents("paid", "shipped", "paid"), OfEvents(Event(long)),
	}
	seen := map[Type]bool{}
	for _, v := range fixed {
		seen[v.T] = true
		if !check(v) {
			t.Errorf("%s (%s): AppendTo % x, Size %d; reference % x", v, v.T, v.AppendTo(nil), v.Size(), marshalRef(v))
		}
	}
	for ty := Null; ty <= Events; ty++ {
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

// Property: event multiset add/remove are exact inverses, and adds
// commute with each other in any order.
func TestEventMultisetProperties(t *testing.T) {
	addRemove := func(v V, e byte) bool {
		if v.T != Events {
			v = OfEvents()
		}
		ev := Event([]byte{'a' + e%3})
		return v.WithEvent(ev).WithoutEvent(ev).Equal(v)
	}
	if err := quick.Check(addRemove, &quick.Config{MaxCount: 2000}); err != nil {
		t.Fatal("add/remove inverse:", err)
	}
	commute := func(order []bool) bool {
		// Apply the same multiset of adds in two different orders.
		a, b := OfEvents(), OfEvents()
		var evs []Event
		for i, x := range order {
			ev := Event([]byte{'a' + byte(i%3)})
			if x {
				evs = append(evs, ev)
			}
		}
		for _, e := range evs {
			a = a.WithEvent(e)
		}
		for i := len(evs) - 1; i >= 0; i-- {
			b = b.WithEvent(evs[i])
		}
		return a.Equal(b)
	}
	if err := quick.Check(commute, nil); err != nil {
		t.Fatal("add commutativity:", err)
	}
}

func TestEventCounts(t *testing.T) {
	v := OfEvents("shipped", "shipped", "paid")
	if got := v.EventCount("shipped"); got != 2 {
		t.Errorf("count(shipped) = %d, want 2", got)
	}
	if !v.HasEvent("paid") || v.HasEvent("billed") {
		t.Error("HasEvent wrong")
	}
	v = v.WithoutEvent("shipped")
	if got := v.EventCount("shipped"); got != 1 {
		t.Errorf("after remove, count = %d, want 1", got)
	}
	if !v.WithoutEvent("billed").Equal(v) {
		t.Error("removing absent event must be a no-op")
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
		{OfEvents("paid", "shipped"), "{paid,shipped}"},
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

func TestUnmarshalErrors(t *testing.T) {
	bad := [][]byte{
		nil,
		{byte(Int)},           // missing payload
		{byte(Float), 1, 2},   // short float
		{byte(Str), 200},      // length beyond buffer
		{byte(Bool)},          // missing payload
		{byte(Ref)},           // missing payload
		{byte(Events), 3, 10}, // truncated events
		{99},                  // unknown tag
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
		Bool: "bool", Ref: "ref", Events: "events",
	}
	for ty, want := range names {
		if got := ty.String(); got != want {
			t.Errorf("%d.String() = %q, want %q", ty, got, want)
		}
	}
}
