package types

import (
	"math/rand"
	"testing"
	"testing/quick"
)

func TestCompareNumericCrossKind(t *testing.T) {
	cases := []struct {
		a, b Value
		want int
	}{
		{Int(1), Int(2), -1},
		{Int(2), Int(2), 0},
		{Int(3), Int(2), 1},
		{Int(2), Float(2.0), 0},
		{Float(1.5), Int(2), -1},
		{Date(10), Int(10), 0},
		{Date(9), Date(10), -1},
		{Str("a"), Str("b"), -1},
		{Str("b"), Str("b"), 0},
		{Bool(false), Bool(true), -1},
		{Null(), Int(0), -1},
		{Int(0), Null(), 1},
		{Null(), Null(), 0},
	}
	for _, c := range cases {
		if got := Compare(c.a, c.b); got != c.want {
			t.Errorf("Compare(%v, %v) = %d, want %d", c.a, c.b, got, c.want)
		}
	}
}

func TestCompareAntisymmetry(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	vals := func() Value {
		switch rng.Intn(5) {
		case 0:
			return Int(rng.Int63n(100) - 50)
		case 1:
			return Float(rng.Float64()*100 - 50)
		case 2:
			return Str(string(rune('a' + rng.Intn(26))))
		case 3:
			return Bool(rng.Intn(2) == 0)
		default:
			return Null()
		}
	}
	for i := 0; i < 2000; i++ {
		a, b := vals(), vals()
		if Compare(a, b) != -Compare(b, a) {
			t.Fatalf("Compare not antisymmetric for %v, %v", a, b)
		}
	}
}

func TestCompareTransitivityProperty(t *testing.T) {
	f := func(a, b, c int64) bool {
		va, vb, vc := Int(a), Float(float64(b)), Date(c)
		tri := []Value{va, vb, vc}
		for _, x := range tri {
			for _, y := range tri {
				for _, z := range tri {
					if Compare(x, y) <= 0 && Compare(y, z) <= 0 && Compare(x, z) > 0 {
						return false
					}
				}
			}
		}
		return true
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func TestHashEqualityConsistency(t *testing.T) {
	// numeric equality across kinds must imply hash equality
	pairs := [][2]Value{
		{Int(42), Float(42.0)},
		{Int(7), Date(7)},
		{Float(3.0), Date(3)},
	}
	for _, p := range pairs {
		if !Equal(p[0], p[1]) {
			t.Fatalf("expected %v == %v", p[0], p[1])
		}
		if p[0].Hash() != p[1].Hash() {
			t.Errorf("hash mismatch for equal values %v, %v", p[0], p[1])
		}
	}
	if Int(1).Hash() == Int(2).Hash() {
		t.Error("distinct ints should (almost surely) hash differently")
	}
}

func TestHashRowOrderSensitive(t *testing.T) {
	a := []Value{Int(1), Int(2)}
	b := []Value{Int(2), Int(1)}
	if HashRow(a) == HashRow(b) {
		t.Error("HashRow should be order sensitive")
	}
	if HashRow(a) != HashRow([]Value{Int(1), Int(2)}) {
		t.Error("HashRow should be deterministic")
	}
}

func TestKindFromName(t *testing.T) {
	cases := map[string]Kind{
		"int": KindInt, "INTEGER": KindInt, "BigInt": KindInt,
		"varchar": KindString, "TEXT": KindString,
		"float": KindFloat, "DOUBLE": KindFloat,
		"bool": KindBool, "date": KindDate,
	}
	for name, want := range cases {
		got, ok := KindFromName(name)
		if !ok || got != want {
			t.Errorf("KindFromName(%q) = %v, %v; want %v", name, got, ok, want)
		}
	}
	if _, ok := KindFromName("blob"); ok {
		t.Error("unexpected kind for blob")
	}
}

func TestValueStringAndAccessors(t *testing.T) {
	if Int(5).String() != "5" || Str("x").String() != "'x'" || Null().String() != "NULL" {
		t.Error("String rendering wrong")
	}
	if !Bool(true).IsTrue() || Bool(false).IsTrue() || Null().IsTrue() {
		t.Error("IsTrue wrong")
	}
	if Float(2.9).AsInt() != 2 || Int(3).AsFloat() != 3.0 {
		t.Error("conversions wrong")
	}
}

func TestSchemaColIndex(t *testing.T) {
	s := Schema{
		{Table: "t", Name: "a", Kind: KindInt},
		{Table: "t", Name: "b", Kind: KindInt},
		{Table: "u", Name: "a", Kind: KindInt},
	}
	if s.ColIndex("t", "a") != 0 {
		t.Error("qualified lookup failed")
	}
	if s.ColIndex("", "b") != 1 {
		t.Error("unqualified unique lookup failed")
	}
	if s.ColIndex("", "a") != -2 {
		t.Error("ambiguous lookup should return -2")
	}
	if s.ColIndex("t", "z") != -1 {
		t.Error("missing lookup should return -1")
	}
	if s.ColIndex("U", "A") != 2 {
		t.Error("lookup should be case-insensitive")
	}
}

func TestRowCloneAndConcat(t *testing.T) {
	r := Row{Int(1), Str("x")}
	c := r.Clone()
	c[0] = Int(9)
	if r[0].I != 1 {
		t.Error("Clone must not alias")
	}
	j := Schema{{Name: "a"}}.Concat(Schema{{Name: "b"}, {Name: "c"}})
	if len(j) != 3 || j[2].Name != "c" {
		t.Errorf("Concat wrong: %v", j)
	}
}

func TestSchemaWithTableAndNames(t *testing.T) {
	s := Schema{{Name: "a", Kind: KindInt}, {Name: "b", Kind: KindString}}
	q := s.WithTable("t")
	if q[0].Table != "t" || s[0].Table != "" {
		t.Error("WithTable must copy")
	}
	if a, b := q[0].QualifiedName(), q[1].QualifiedName(); a != "t.a" || b != "t.b" {
		t.Errorf("qualified names wrong: %s %s", a, b)
	}
}
