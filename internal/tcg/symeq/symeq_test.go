package symeq

import "testing"

const minI64 = uint64(1) << 63

func neg(v int64) uint64 { return uint64(-v) }

func TestConstantFolding(t *testing.T) {
	b := NewBuilder()
	cases := []struct {
		op   Op
		x, y uint64
		want uint64
	}{
		{Add, 3, 4, 7},
		{Add, ^uint64(0), 1, 0},
		{Sub, 3, 4, ^uint64(0)},
		{Mul, 1 << 32, 1 << 32, 0},
		{Div, 7, 0, ^uint64(0)},
		{Div, minI64, ^uint64(0), minI64},
		{Div, neg(7), 2, neg(3)},
		{DivU, 7, 0, ^uint64(0)},
		{Rem, 7, 0, 7},
		{Rem, minI64, ^uint64(0), 0},
		{RemU, 7, 0, 7},
		{Shl, 1, 65, 2}, // amount mod 64
		{Shr, 1 << 8, 72, 1},
		{Sar, neg(8), 2, neg(2)},
		{Eq, 5, 5, 1},
		{LtS, ^uint64(0), 0, 1}, // -1 < 0 signed
		{LtU, ^uint64(0), 0, 0},
	}
	for _, c := range cases {
		got := b.Bin(c.op, b.Const(c.x), b.Const(c.y))
		v, ok := got.IsConst()
		if !ok || v != c.want {
			t.Errorf("%v(%#x, %#x) = %v, want const %#x", c.op, c.x, c.y, got, c.want)
		}
	}
}

func TestNormalizationUnifies(t *testing.T) {
	b := NewBuilder()
	x := b.Var("x")

	// (x + 3) + 4 interns identically to x + 7.
	if b.Bin(Add, b.Bin(Add, x, b.Const(3)), b.Const(4)) != b.Bin(Add, x, b.Const(7)) {
		t.Error("addi chain did not reassociate")
	}
	// x + 0 is x; (x + 0) + 0 too (the mv-bounce shape).
	if b.Bin(Add, b.Bin(Add, x, b.Const(0)), b.Const(0)) != x {
		t.Error("add-zero chain did not collapse")
	}
	// Commutative ops canonicalize operand order: a+c and c+a are one node.
	a, c := b.Var("a"), b.Var("c")
	for _, op := range []Op{Add, Mul, And, Or, Xor, Eq} {
		if b.Bin(op, a, c) != b.Bin(op, c, a) {
			t.Errorf("%v(a, c) and %v(c, a) did not intern together", op, op)
		}
	}
	// Self-operations.
	if v, _ := b.Bin(Xor, x, x).IsConst(); v != 0 {
		t.Error("x^x != 0")
	}
	if v, _ := b.Bin(Sub, x, x).IsConst(); v != 0 {
		t.Error("x-x != 0")
	}
	if b.Bin(And, x, x) != x || b.Bin(Or, x, x) != x {
		t.Error("x&x / x|x did not collapse")
	}
	if v, _ := b.Bin(And, x, b.Const(0)).IsConst(); v != 0 {
		t.Error("x&0 != 0")
	}
	// Sub by const folds into the Add chain.
	if b.Bin(Sub, b.Bin(Add, x, b.Const(10)), b.Const(4)) != b.Bin(Add, x, b.Const(6)) {
		t.Error("sub-const did not fold into add chain")
	}
	// Shift amount normalization: x << 65 == x << 1.
	if b.Bin(Shl, x, b.Const(65)) != b.Bin(Shl, x, b.Const(1)) {
		t.Error("shift amount not normalized mod 64")
	}
}

// TestEqualVerdicts pins the proof rule: two sides are proved equal exactly
// when they intern to one node. Sides that agree on every input but
// normalize differently are not proved.
func TestEqualVerdicts(t *testing.T) {
	b := NewBuilder()
	x := b.Var("x")
	y := b.Var("y")
	c := func(v uint64) *Expr { return b.Const(v) }

	cases := []struct {
		name   string
		l, r   *Expr
		proved bool
	}{
		{"reassociated adds", b.Bin(Add, b.Bin(Add, x, c(1)), c(2)), b.Bin(Add, x, c(3)), true},
		{"x+1 vs x+2", b.Bin(Add, x, c(1)), b.Bin(Add, x, c(2)), false},
		{"x+y vs x-y", b.Bin(Add, x, y), b.Bin(Sub, x, y), false},
		// Equal for every x, but no rewrite unifies them.
		{"x*2 vs x+x", b.Bin(Mul, x, c(2)), b.Bin(Add, x, x), false},
		{"(x&0xff) <u 256 vs 1", b.Bin(LtU, b.Bin(And, x, c(0xff)), c(256)), c(1), false},
	}
	for _, tc := range cases {
		if got := tc.l == tc.r; got != tc.proved {
			t.Errorf("%s: proved = %v, want %v", tc.name, got, tc.proved)
		}
	}
}

func TestUninterpretedCongruence(t *testing.T) {
	b := NewBuilder()
	x := b.Var("x")
	y := b.Var("y")

	// Same tag, same args: identical node.
	if b.Fun("fadd", x, y) != b.Fun("fadd", x, y) {
		t.Error("congruent applications did not intern together")
	}
	// Different args or tags: distinct nodes.
	if b.Fun("fadd", x, y) == b.Fun("fadd", y, x) {
		t.Error("fadd(x,y) and fadd(y,x) must stay distinct (FP is not commutative here)")
	}
	if b.Fun("fadd", x, y) == b.Fun("fsub", x, y) {
		t.Error("fadd(x,y) and fsub(x,y) must stay distinct")
	}
}
