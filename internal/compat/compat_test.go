package compat

import (
	"strings"
	"testing"
	"testing/quick"

	"semcc/internal/oid"
	"semcc/internal/val"
)

var o = oid.OID{K: oid.Set, N: 1}

func TestGenericMatrix(t *testing.T) {
	m := GenericMatrix()
	k1, k2 := val.OfInt(1), val.OfInt(2)
	cases := []struct {
		a, b Invocation
		want bool
	}{
		{Inv(o, OpGet), Inv(o, OpGet), true},
		{Inv(o, OpGet), Inv(o, OpPut, k1), false},
		{Inv(o, OpPut, k1), Inv(o, OpPut, k1), false},
		{Inv(o, OpSelect, k1), Inv(o, OpSelect, k2), true},
		{Inv(o, OpSelect, k1), Inv(o, OpSelect, k1), true},
		{Inv(o, OpSelect, k1), Inv(o, OpInsert, k1), false},
		{Inv(o, OpSelect, k1), Inv(o, OpInsert, k2), true},
		{Inv(o, OpSelect, k1), Inv(o, OpRemove, k2), true},
		{Inv(o, OpInsert, k1), Inv(o, OpInsert, k2), true},
		{Inv(o, OpInsert, k1), Inv(o, OpInsert, k1), false},
		{Inv(o, OpInsert, k1), Inv(o, OpRemove, k1), false},
		{Inv(o, OpScan), Inv(o, OpInsert, k1), false},
		{Inv(o, OpScan), Inv(o, OpRemove, k1), false},
		{Inv(o, OpScan), Inv(o, OpScan), true},
		{Inv(o, OpScan), Inv(o, OpSelect, k1), true},
	}
	for _, c := range cases {
		if got := m.Compatible(c.a, c.b); got != c.want {
			t.Errorf("compat(%s, %s) = %t, want %t", c.a, c.b, got, c.want)
		}
		if got := m.Compatible(c.b, c.a); got != c.want {
			t.Errorf("compat(%s, %s) = %t, want %t (symmetry)", c.b, c.a, got, c.want)
		}
	}
}

// Property: every matrix is symmetric by construction — checked over
// the generic matrix with arbitrary single-int argument vectors.
func TestMatrixSymmetryProperty(t *testing.T) {
	m := GenericMatrix()
	n := len(m.Methods())
	f := func(i, j uint8, x, y int64) bool {
		a := Inv(o, Method(int(i)%n), val.OfInt(x))
		b := Inv(o, Method(int(j)%n), val.OfInt(y))
		return m.Compatible(a, b) == m.Compatible(b, a)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 2000}); err != nil {
		t.Fatal(err)
	}
}

func TestMatrixDefaultsToConflict(t *testing.T) {
	m := NewMatrix("T", "X", "Y")
	x, y := FirstMethod, FirstMethod+1
	if m.Compatible(Inv(o, x), Inv(o, y)) {
		t.Error("missing entry must conflict")
	}
	m.Set("X", "X", Always)
	if m.Compatible(Inv(o, x), Inv(o, FirstMethod+2)) || m.Compatible(Inv(o, OpGet), Inv(o, x)) {
		t.Error("a method outside the matrix must conflict")
	}
}

func TestEntryClassification(t *testing.T) {
	m := NewMatrix("T", "A", "B", "P")
	m.Set("A", "A", Always)
	m.Set("A", "B", Never)
	m.Set("P", "P", ArgsDiffer(0))
	if got := m.Entry("A", "A"); got != "ok" {
		t.Errorf("A/A = %s", got)
	}
	if got := m.Entry("A", "B"); got != "conflict" {
		t.Errorf("A/B = %s", got)
	}
	if got := m.Entry("P", "P"); got != "param" {
		t.Errorf("P/P = %s", got)
	}
	if got := m.Entry("A", "P"); got != "conflict" {
		t.Errorf("A/P (absent) = %s", got)
	}
}

func TestRender(t *testing.T) {
	m := NewMatrix("T", "A", "B")
	m.Set("A", "A", Always)
	out := m.Render()
	if !strings.Contains(out, "ok") || !strings.Contains(out, "conflict") {
		t.Errorf("render missing entries:\n%s", out)
	}
	lines := strings.Split(strings.TrimRight(out, "\n"), "\n")
	if len(lines) != 3 { // header + 2 rows
		t.Errorf("render has %d lines, want 3", len(lines))
	}
}

func TestArgsDifferBounds(t *testing.T) {
	r := ArgsDiffer(1)
	a := Inv(o, FirstMethod, val.OfInt(1))
	b := Inv(o, FirstMethod, val.OfInt(2))
	if r(a, b) {
		t.Error("missing argument index must conflict")
	}
	a = Inv(o, FirstMethod, val.OfInt(0), val.OfStr("x"))
	b = Inv(o, FirstMethod, val.OfInt(0), val.OfStr("y"))
	if !r(a, b) {
		t.Error("different second arguments must commute")
	}
}

func TestInvocationString(t *testing.T) {
	in := Inv(o, FirstMethod, val.OfInt(7), val.OfStr("x"))
	if got := in.Format("Ship"); got != `Ship(set:1, 7, "x")` {
		t.Errorf("Format() = %q", got)
	}
	if got := in.String(); got != `#8(set:1, 7, "x")` {
		t.Errorf("String() = %q", got)
	}
	if got := Inv(o, OpSelect, val.OfInt(7)).String(); got != `Select(set:1, 7)` {
		t.Errorf("String() = %q", got)
	}
}

func TestOpClassifiers(t *testing.T) {
	for _, op := range []Method{OpGet, OpSelect, OpScan} {
		if !IsGenericOp(op) || !IsReadOp(op) || IsWriteOp(op) {
			t.Errorf("%s misclassified", op)
		}
	}
	for _, op := range []Method{OpPut, OpAdd, OpInsert, OpRemove} {
		if !IsGenericOp(op) || IsReadOp(op) || !IsWriteOp(op) {
			t.Errorf("%s misclassified", op)
		}
	}
	if IsGenericOp(FirstMethod) || IsGenericOp(OpRoot) {
		t.Error("methods/roots are not generic ops")
	}
}

func TestMethodIDs(t *testing.T) {
	m := NewMatrix("T", "A", "B")
	if id, ok := m.ID("B"); !ok || id != FirstMethod+1 || m.Name(id) != "B" {
		t.Errorf("ID(B) = %d, %t; want %d named B", id, ok, FirstMethod+1)
	}
	if _, ok := m.ID("Get"); ok {
		t.Error("a type matrix numbers only its own methods")
	}
	if m.Name(OpPut) != "Put" || m.Name(FirstMethod+2) != "#10" {
		t.Errorf("ids outside the matrix render as %q, %q", m.Name(OpPut), m.Name(FirstMethod+2))
	}
	g := GenericMatrix()
	for op := OpGet; op < OpRoot; op++ {
		if id, ok := g.ID(op.String()); !ok || id != op || g.Name(op) != op.String() {
			t.Errorf("generic ID(%s) = %d, %t", op, id, ok)
		}
	}
	if _, ok := g.ID(OpRoot.String()); ok {
		t.Error("roots are not a generic operation")
	}
	defer func() {
		if recover() == nil {
			t.Error("Set of an undeclared method must panic, not leave the pair silently conflicting")
		}
	}()
	m.Set("A", "C", Always)
}

// compatPairs are one unconditional pair (Get/Get) and one
// parameter-dependent pair (Insert/Insert on distinct keys) of the
// generic matrix.
func compatPairs() [2][2]Invocation {
	k1, k2 := val.OfInt(1), val.OfInt(2)
	return [2][2]Invocation{
		{Inv(o, OpGet), Inv(o, OpGet)},
		{Inv(o, OpInsert, k1, k1), Inv(o, OpInsert, k2, k2)},
	}
}

// TestCompatibleAllocs holds the grant path's compatibility test to no
// allocation.
func TestCompatibleAllocs(t *testing.T) {
	m, pairs := GenericMatrix(), compatPairs()
	if n := testing.AllocsPerRun(1000, func() {
		for _, p := range pairs {
			if !m.Compatible(p[0], p[1]) {
				t.Fatal("probe pair conflicts")
			}
		}
	}); n != 0 {
		t.Errorf("Compatible allocates %v times per two probes, want 0", n)
	}
}

func BenchmarkCompatible(b *testing.B) {
	m, pairs := GenericMatrix(), compatPairs()
	for i, name := range []string{"always", "argsdiffer"} {
		p := pairs[i]
		b.Run(name, func(b *testing.B) {
			b.ReportAllocs()
			for range b.N {
				if !m.Compatible(p[0], p[1]) {
					b.Fatal("probe pair conflicts")
				}
			}
		})
	}
}
