// Package symeq is a small symbolic bit-vector engine used for translation
// validation of the micro-op translator. Expressions are hash-consed DAGs
// over 64-bit values with normalizing constructors (constant folding,
// identity and self-operation elimination, constant reassociation,
// canonical operand order), so two expressions built from semantically
// identical computations intern to the same node. That is the whole proof
// rule: two sides are equal when they are the same *Expr. Sides that are
// equal but normalize differently (x*2 and x+x) are not proved; a sound
// client treats them as a failed proof.
//
// The operator semantics mirror the guest ALU exactly: shifts take their
// amount mod 64, signed division is total (x/0 = -1, MinInt64/-1 =
// MinInt64), remainders follow the same totalization, and unsigned division
// by zero yields all-ones. Floating-point results are modeled as
// uninterpreted function applications: equal tags applied to equal
// arguments intern to the same node, which is exactly the congruence the
// translator's rewrites are allowed to rely on.
package symeq

import "math"

// Op enumerates expression node kinds.
type Op uint8

const (
	Const Op = iota
	Var
	Fun // uninterpreted function application

	Add
	Sub
	Mul
	Div  // signed, total: b==0 -> -1, MinInt64/-1 -> MinInt64
	DivU // unsigned, total: b==0 -> all ones
	Rem  // signed, total: b==0 -> a, MinInt64/-1 -> 0
	RemU // unsigned, total: b==0 -> a
	And
	Or
	Xor
	Shl // shift amount taken mod 64
	Shr
	Sar
	Eq  // 0/1
	LtS // signed <, 0/1
	LtU // unsigned <, 0/1
)

var opNames = [...]string{
	Const: "const", Var: "var", Fun: "fun",
	Add: "add", Sub: "sub", Mul: "mul", Div: "div", DivU: "divu",
	Rem: "rem", RemU: "remu", And: "and", Or: "or", Xor: "xor",
	Shl: "shl", Shr: "shr", Sar: "sar", Eq: "eq", LtS: "lts", LtU: "ltu",
}

func (o Op) String() string {
	if int(o) < len(opNames) {
		return opNames[o]
	}
	return "op?"
}

// Expr is one interned DAG node. Nodes are immutable after construction and
// unique within their Builder: structural equality is pointer equality.
type Expr struct {
	Op   Op
	X, Y *Expr   // binary operands
	Args []*Expr // Fun arguments
	Val  uint64  // Const value
	Name string  // Var name / Fun tag

	id uint64 // creation sequence number; canonical operand order
}

// IsConst reports whether e folded to a constant, returning its value.
func (e *Expr) IsConst() (uint64, bool) {
	if e.Op == Const {
		return e.Val, true
	}
	return 0, false
}

// Builder interns expressions. One equivalence query must build both
// sides through the same Builder so shared subterms unify.
type Builder struct {
	tab    map[string]*Expr
	nextID uint64
}

// NewBuilder returns an empty interning context.
func NewBuilder() *Builder {
	return &Builder{tab: make(map[string]*Expr)}
}

func (b *Builder) intern(key string, mk func() *Expr) *Expr {
	if e, ok := b.tab[key]; ok {
		return e
	}
	e := mk()
	e.id = b.nextID
	b.nextID++
	b.tab[key] = e
	return e
}

// Const interns the constant v.
func (b *Builder) Const(v uint64) *Expr {
	key := string([]byte{byte(Const)}) + u64key(v)
	return b.intern(key, func() *Expr {
		return &Expr{Op: Const, Val: v}
	})
}

// Var mints a fresh variable. Every call creates a new variable; name is
// for diagnostics only.
func (b *Builder) Var(name string) *Expr {
	e := &Expr{Op: Var, Name: name, id: b.nextID}
	b.nextID++
	return e
}

// Fun interns the application of the uninterpreted function tag to args.
func (b *Builder) Fun(tag string, args ...*Expr) *Expr {
	key := string([]byte{byte(Fun)}) + tag
	for _, a := range args {
		key += u64key(a.id)
	}
	return b.intern(key, func() *Expr {
		return &Expr{Op: Fun, Name: tag, Args: append([]*Expr(nil), args...)}
	})
}

func u64key(v uint64) string {
	var k [8]byte
	for i := 0; i < 8; i++ {
		k[i] = byte(v >> (8 * i))
	}
	return string(k[:])
}

func isCommutative(op Op) bool {
	switch op {
	case Add, Mul, And, Or, Xor, Eq:
		return true
	}
	return false
}

// evalOp applies op to concrete operands with guest semantics.
func evalOp(op Op, a, c uint64) uint64 {
	switch op {
	case Add:
		return a + c
	case Sub:
		return a - c
	case Mul:
		return a * c
	case Div:
		switch {
		case c == 0:
			return ^uint64(0) // -1
		case int64(a) == math.MinInt64 && int64(c) == -1:
			return a
		default:
			return uint64(int64(a) / int64(c))
		}
	case DivU:
		if c == 0 {
			return ^uint64(0)
		}
		return a / c
	case Rem:
		switch {
		case c == 0:
			return a
		case int64(a) == math.MinInt64 && int64(c) == -1:
			return 0
		default:
			return uint64(int64(a) % int64(c))
		}
	case RemU:
		if c == 0 {
			return a
		}
		return a % c
	case And:
		return a & c
	case Or:
		return a | c
	case Xor:
		return a ^ c
	case Shl:
		return a << (c & 63)
	case Shr:
		return a >> (c & 63)
	case Sar:
		return uint64(int64(a) >> (c & 63))
	case Eq:
		if a == c {
			return 1
		}
		return 0
	case LtS:
		if int64(a) < int64(c) {
			return 1
		}
		return 0
	case LtU:
		if a < c {
			return 1
		}
		return 0
	}
	return 0
}

// Bin builds op(x, y), normalizing and interning. The rewrites here are the
// exact algebra the translator's fold and fusion passes rely on; anything
// beyond it is provable only when both sides normalize identically.
func (b *Builder) Bin(op Op, x, y *Expr) *Expr {
	if xv, xok := x.IsConst(); xok {
		if yv, yok := y.IsConst(); yok {
			return b.Const(evalOp(op, xv, yv))
		}
	}

	// Canonical operand order for commutative ops: constants to the right,
	// otherwise older node first.
	if isCommutative(op) {
		if _, xok := x.IsConst(); xok {
			x, y = y, x
		} else if _, yok := y.IsConst(); !yok && y.id < x.id {
			x, y = y, x
		}
	}

	yv, yconst := y.IsConst()
	switch op {
	case Add:
		if yconst && yv == 0 {
			return x
		}
		// (x + c1) + c2 -> x + (c1 + c2)
		if yconst && x.Op == Add {
			if c1, ok := x.Y.IsConst(); ok {
				return b.Bin(Add, x.X, b.Const(c1+yv))
			}
		}
	case Sub:
		if x == y {
			return b.Const(0)
		}
		if yconst {
			// x - c -> x + (-c), unifying with the Add chains above.
			return b.Bin(Add, x, b.Const(-yv))
		}
	case Mul:
		if yconst {
			switch yv {
			case 0:
				return b.Const(0)
			case 1:
				return x
			}
			if x.Op == Mul {
				if c1, ok := x.Y.IsConst(); ok {
					return b.Bin(Mul, x.X, b.Const(c1*yv))
				}
			}
		}
	case And:
		if x == y {
			return x
		}
		if yconst {
			switch yv {
			case 0:
				return b.Const(0)
			case ^uint64(0):
				return x
			}
			// (x & c1) & c2 -> x & (c1 & c2)
			if x.Op == And {
				if c1, ok := x.Y.IsConst(); ok {
					return b.Bin(And, x.X, b.Const(c1&yv))
				}
			}
		}
	case Or:
		if x == y {
			return x
		}
		if yconst {
			switch yv {
			case 0:
				return x
			case ^uint64(0):
				return b.Const(^uint64(0))
			}
			if x.Op == Or {
				if c1, ok := x.Y.IsConst(); ok {
					return b.Bin(Or, x.X, b.Const(c1|yv))
				}
			}
		}
	case Xor:
		if x == y {
			return b.Const(0)
		}
		if yconst {
			if yv == 0 {
				return x
			}
			if x.Op == Xor {
				if c1, ok := x.Y.IsConst(); ok {
					return b.Bin(Xor, x.X, b.Const(c1^yv))
				}
			}
		}
	case Shl, Shr, Sar:
		if yconst {
			if yv&63 == 0 {
				return x
			}
			if yv != yv&63 {
				// Normalize the amount so equal shifts intern together.
				return b.Bin(op, x, b.Const(yv&63))
			}
		}
	case Eq:
		if x == y {
			return b.Const(1)
		}
	case LtS:
		if x == y {
			return b.Const(0)
		}
	case LtU:
		if x == y {
			return b.Const(0)
		}
		if yconst && yv == 0 {
			return b.Const(0) // nothing is unsigned-below zero
		}
	}

	key := string([]byte{byte(op)}) + u64key(x.id) + u64key(y.id)
	return b.intern(key, func() *Expr { return &Expr{Op: op, X: x, Y: y} })
}

// Not inverts a 0/1 expression.
func (b *Builder) Not(x *Expr) *Expr { return b.Bin(Xor, x, b.Const(1)) }
