package expr

import (
	"testing"

	"rqp/internal/types"
)

func col(i int, k types.Kind) *Col { return &Col{Index: i, Name: "c", Typ: k} }
func lit(v types.Value) *Const     { return &Const{V: v} }
func bin(op Op, l, r Expr) *Bin    { return &Bin{Op: op, L: l, R: r} }
func evalB(t *testing.T, e Expr, row types.Row) types.Value {
	t.Helper()
	v, err := e.Eval(row, nil)
	if err != nil {
		t.Fatalf("eval %s: %v", e, err)
	}
	return v
}

func TestComparisons(t *testing.T) {
	row := types.Row{types.Int(5), types.Str("abc"), types.Null()}
	cases := []struct {
		e    Expr
		want types.Value
	}{
		{bin(OpEQ, col(0, types.KindInt), lit(types.Int(5))), types.Bool(true)},
		{bin(OpNE, col(0, types.KindInt), lit(types.Int(5))), types.Bool(false)},
		{bin(OpLT, col(0, types.KindInt), lit(types.Int(6))), types.Bool(true)},
		{bin(OpGE, col(0, types.KindInt), lit(types.Float(5.0))), types.Bool(true)},
		{bin(OpEQ, col(1, types.KindString), lit(types.Str("abc"))), types.Bool(true)},
		{bin(OpEQ, col(2, types.KindInt), lit(types.Int(1))), types.Null()},
	}
	for _, c := range cases {
		got := evalB(t, c.e, row)
		if got != c.want {
			t.Errorf("%s = %v, want %v", c.e, got, c.want)
		}
	}
}

func TestThreeValuedLogic(t *testing.T) {
	tr, fa, nu := lit(types.Bool(true)), lit(types.Bool(false)), lit(types.Null())
	cases := []struct {
		e    Expr
		want types.Value
	}{
		{bin(OpAnd, tr, tr), types.Bool(true)},
		{bin(OpAnd, tr, fa), types.Bool(false)},
		{bin(OpAnd, fa, nu), types.Bool(false)},
		{bin(OpAnd, nu, fa), types.Bool(false)},
		{bin(OpAnd, tr, nu), types.Null()},
		{bin(OpAnd, nu, nu), types.Null()},
		{bin(OpOr, fa, fa), types.Bool(false)},
		{bin(OpOr, fa, tr), types.Bool(true)},
		{bin(OpOr, nu, tr), types.Bool(true)},
		{bin(OpOr, nu, fa), types.Null()},
		{bin(OpOr, nu, nu), types.Null()},
		{&Un{Op: OpNot, E: nu}, types.Null()},
		{&Un{Op: OpNot, E: tr}, types.Bool(false)},
	}
	for _, c := range cases {
		got := evalB(t, c.e, nil)
		if got != c.want {
			t.Errorf("%s = %v, want %v", c.e, got, c.want)
		}
	}
}

func TestArithmetic(t *testing.T) {
	cases := []struct {
		e    Expr
		want types.Value
	}{
		{bin(OpAdd, lit(types.Int(2)), lit(types.Int(3))), types.Int(5)},
		{bin(OpSub, lit(types.Int(2)), lit(types.Int(3))), types.Int(-1)},
		{bin(OpMul, lit(types.Int(4)), lit(types.Float(0.5))), types.Float(2)},
		{bin(OpDiv, lit(types.Int(1)), lit(types.Int(2))), types.Float(0.5)},
		{bin(OpDiv, lit(types.Int(1)), lit(types.Int(0))), types.Null()},
		{bin(OpMod, lit(types.Int(7)), lit(types.Int(3))), types.Int(1)},
		{&Un{Op: OpNeg, E: lit(types.Int(9))}, types.Int(-9)},
		{&Un{Op: OpNeg, E: lit(types.Float(1.5))}, types.Float(-1.5)},
	}
	for _, c := range cases {
		got := evalB(t, c.e, nil)
		if got != c.want {
			t.Errorf("%s = %v, want %v", c.e, got, c.want)
		}
	}
}

func TestInList(t *testing.T) {
	row := types.Row{types.Int(4)}
	in := &In{E: col(0, types.KindInt), List: []Expr{lit(types.Int(4)), lit(types.Int(7))}}
	if !evalB(t, in, row).IsTrue() {
		t.Error("4 IN (4,7) should be true")
	}
	notIn := &In{E: col(0, types.KindInt), List: []Expr{lit(types.Int(1))}, Neg: true}
	if !evalB(t, notIn, row).IsTrue() {
		t.Error("4 NOT IN (1) should be true")
	}
	withNull := &In{E: col(0, types.KindInt), List: []Expr{lit(types.Int(1)), lit(types.Null())}}
	if !evalB(t, withNull, row).IsNull() {
		t.Error("4 IN (1, NULL) should be NULL")
	}
}

func TestIsNullAndLike(t *testing.T) {
	row := types.Row{types.Null(), types.Str("hello world")}
	if !evalB(t, &IsNull{E: col(0, types.KindInt)}, row).IsTrue() {
		t.Error("IS NULL failed")
	}
	if evalB(t, &IsNull{E: col(1, types.KindString)}, row).IsTrue() {
		t.Error("IS NULL on non-null should be false")
	}
	if !evalB(t, &IsNull{E: col(1, types.KindString), Neg: true}, row).IsTrue() {
		t.Error("IS NOT NULL failed")
	}
	likes := []struct {
		pat  string
		want bool
	}{
		{"hello%", true}, {"%world", true}, {"%lo wo%", true},
		{"h_llo world", true}, {"hello", false}, {"%", true}, {"_", false},
	}
	for _, l := range likes {
		got := evalB(t, &Like{E: col(1, types.KindString), Pattern: l.pat}, row)
		if got.IsTrue() != l.want {
			t.Errorf("LIKE %q = %v, want %v", l.pat, got, l.want)
		}
	}
}

func TestBuiltins(t *testing.T) {
	cases := []struct {
		e    Expr
		want types.Value
	}{
		{&Func{Name: "ABS", Args: []Expr{lit(types.Int(-5))}}, types.Int(5)},
		{&Func{Name: "ABS", Args: []Expr{lit(types.Float(-2.5))}}, types.Float(2.5)},
		{&Func{Name: "LOWER", Args: []Expr{lit(types.Str("AbC"))}}, types.Str("abc")},
		{&Func{Name: "UPPER", Args: []Expr{lit(types.Str("AbC"))}}, types.Str("ABC")},
		{&Func{Name: "LENGTH", Args: []Expr{lit(types.Str("abcd"))}}, types.Int(4)},
		{&Func{Name: "COALESCE", Args: []Expr{lit(types.Null()), lit(types.Int(3))}}, types.Int(3)},
		{&Func{Name: "SUBSTR", Args: []Expr{lit(types.Str("abcdef")), lit(types.Int(2)), lit(types.Int(3))}}, types.Str("bcd")},
	}
	for _, c := range cases {
		got := evalB(t, c.e, nil)
		if got != c.want {
			t.Errorf("%s = %v, want %v", c.e, got, c.want)
		}
	}
	if _, err := (&Func{Name: "NOPE"}).Eval(nil, nil); err == nil {
		t.Error("unknown function should error")
	}
}

func TestParams(t *testing.T) {
	p := &Param{Index: 0}
	v, err := p.Eval(nil, []types.Value{types.Int(42)})
	if err != nil || v.I != 42 {
		t.Fatalf("param eval: %v %v", v, err)
	}
	if _, err := p.Eval(nil, nil); err == nil {
		t.Error("unbound param should error")
	}
}

func TestConjunctsAndAndAll(t *testing.T) {
	a := bin(OpEQ, col(0, types.KindInt), lit(types.Int(1)))
	b := bin(OpGT, col(1, types.KindInt), lit(types.Int(2)))
	c := bin(OpLT, col(2, types.KindInt), lit(types.Int(3)))
	tree := bin(OpAnd, bin(OpAnd, a, b), c)
	cj := Conjuncts(tree)
	if len(cj) != 3 {
		t.Fatalf("want 3 conjuncts, got %d", len(cj))
	}
	back := AndAll(cj)
	row := types.Row{types.Int(1), types.Int(5), types.Int(0)}
	if !evalB(t, back, row).IsTrue() {
		t.Error("AndAll(Conjuncts(p)) should be equivalent")
	}
	if AndAll(nil) != nil {
		t.Error("AndAll(nil) should be nil")
	}
	if len(Conjuncts(nil)) != 0 {
		t.Error("Conjuncts(nil) should be empty")
	}
}

func TestExtractInterval(t *testing.T) {
	e := bin(OpGE, col(3, types.KindInt), lit(types.Int(10)))
	iv, ok := ExtractInterval(e, nil)
	if !ok || iv.Col != 3 || !iv.HasLo || iv.Lo != 10 || !iv.LoIncl || iv.HasHi {
		t.Fatalf("interval wrong: %+v ok=%v", iv, ok)
	}
	// flipped orientation: 10 > col  means col < 10
	e2 := bin(OpGT, lit(types.Int(10)), col(3, types.KindInt))
	iv2, ok := ExtractInterval(e2, nil)
	if !ok || iv2.HasLo || !iv2.HasHi || iv2.Hi != 10 || iv2.HiIncl {
		t.Fatalf("flipped interval wrong: %+v", iv2)
	}
	// equality
	e3 := bin(OpEQ, col(1, types.KindString), lit(types.Str("x")))
	iv3, ok := ExtractInterval(e3, nil)
	if !ok || !iv3.HasEq || iv3.Eq.S != "x" {
		t.Fatalf("eq interval wrong: %+v", iv3)
	}
	// parameter with binding
	e4 := bin(OpLE, col(0, types.KindInt), &Param{Index: 0})
	if _, ok := ExtractInterval(e4, nil); ok {
		t.Error("param interval without bindings should fail")
	}
	iv4, ok := ExtractInterval(e4, []types.Value{types.Int(7)})
	if !ok || iv4.Hi != 7 || !iv4.HiIncl {
		t.Fatalf("param interval wrong: %+v", iv4)
	}
}

// emptyInterval reports whether iv admits no values.
func emptyInterval(iv Interval) bool {
	if !iv.HasLo || !iv.HasHi {
		return false
	}
	if iv.Lo > iv.Hi {
		return true
	}
	return iv.Lo == iv.Hi && !(iv.LoIncl && iv.HiIncl)
}

func TestIntersectAndEmpty(t *testing.T) {
	a, _ := ExtractInterval(bin(OpGE, col(0, types.KindInt), lit(types.Int(5))), nil)
	b, _ := ExtractInterval(bin(OpLT, col(0, types.KindInt), lit(types.Int(10))), nil)
	m := Intersect(a, b)
	if m.Lo != 5 || m.Hi != 10 || !m.LoIncl || m.HiIncl {
		t.Fatalf("intersect wrong: %+v", m)
	}
	c, _ := ExtractInterval(bin(OpLT, col(0, types.KindInt), lit(types.Int(5))), nil)
	if !emptyInterval(Intersect(a, c)) {
		t.Error("x>=5 AND x<5 should be empty")
	}
	d, _ := ExtractInterval(bin(OpLE, col(0, types.KindInt), lit(types.Int(5))), nil)
	if emptyInterval(Intersect(a, d)) {
		t.Error("x>=5 AND x<=5 should not be empty")
	}
}

func TestColumnsUsedAndShift(t *testing.T) {
	e := bin(OpAnd,
		bin(OpEQ, col(2, types.KindInt), lit(types.Int(1))),
		bin(OpGT, col(5, types.KindInt), col(2, types.KindInt)))
	used := ColumnsUsed(e)
	if !used[2] || !used[5] || len(used) != 2 {
		t.Fatalf("ColumnsUsed wrong: %v", used)
	}
	shifted := ShiftColumns(e, -2)
	used = ColumnsUsed(shifted)
	if !used[0] || !used[3] || len(used) != 2 {
		t.Fatalf("ShiftColumns wrong: %v", used)
	}
	remapped := RemapColumns(e, map[int]int{2: 7})
	used = ColumnsUsed(remapped)
	if !used[7] || !used[5] {
		t.Fatalf("RemapColumns wrong: %v", used)
	}
}

func TestEvalPredicateNullAsFalse(t *testing.T) {
	e := bin(OpEQ, col(0, types.KindInt), lit(types.Int(1)))
	ok, err := EvalPredicate(e, types.Row{types.Null()}, nil)
	if err != nil || ok {
		t.Error("NULL predicate must filter out")
	}
	ok, _ = EvalPredicate(e, types.Row{types.Int(1)}, nil)
	if !ok {
		t.Error("true predicate must pass")
	}
}

func TestHasParams(t *testing.T) {
	if HasParams(bin(OpEQ, col(0, types.KindInt), lit(types.Int(1)))) {
		t.Error("no params expected")
	}
	if !HasParams(bin(OpEQ, col(0, types.KindInt), &Param{Index: 0})) {
		t.Error("params expected")
	}
}
