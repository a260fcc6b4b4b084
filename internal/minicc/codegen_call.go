package minicc

import (
	"dqemu/internal/asm"
	"dqemu/internal/isa"
)

// builtinOps are the built-in functions compiled to one instruction each
// rather than to calls.
var builtinOps = map[string]*asm.Template{
	"sqrt": asm.Op("fsqrt"), "exp": asm.Op("fexp"), "log": asm.Op("fln"), "fabs": asm.Op("fabs"),
	"fmin": asm.Op("fmin"), "fmax": asm.Op("fmax"), "__amoadd": asm.Op("amoadd"), "__amoswap": asm.Op("amoswap"),
}

func (g *codegen) genCall(v *call) (*Type, error) {
	switch v.name {
	case "sqrt", "exp", "log", "fabs":
		if len(v.args) != 1 {
			return nil, g.errf(v.line, "%s takes 1 argument", v.name)
		}
		ty, err := g.genExpr(v.args[0])
		if err != nil {
			return nil, err
		}
		if err := g.convert(ty, tyDouble, v.line); err != nil {
			return nil, err
		}
		g.ins(builtinOps[v.name], f0, f0)
		return tyDouble, nil

	case "fmin", "fmax":
		if len(v.args) != 2 {
			return nil, g.errf(v.line, "%s takes 2 arguments", v.name)
		}
		ty, err := g.genExpr(v.args[0])
		if err != nil {
			return nil, err
		}
		if err := g.convert(ty, tyDouble, v.line); err != nil {
			return nil, err
		}
		g.push(true)
		ty, err = g.genExpr(v.args[1])
		if err != nil {
			return nil, err
		}
		if err := g.convert(ty, tyDouble, v.line); err != nil {
			return nil, err
		}
		g.popF(f1)
		g.ins(builtinOps[v.name], f0, f1, f0)
		return tyDouble, nil

	case "__fence":
		if len(v.args) != 0 {
			return nil, g.errf(v.line, "__fence takes no arguments")
		}
		g.ins(opFence)
		g.ins(opLi, a0, asm.Int(0))
		return tyLong, nil

	case "hint":
		if len(v.args) != 1 {
			return nil, g.errf(v.line, "hint takes 1 constant argument")
		}
		lit, ok := v.args[0].(*intLit)
		if !ok {
			return nil, g.errf(v.line, "hint argument must be an integer literal (use dq_hint for dynamic groups)")
		}
		g.ins(opHint, asm.Int(lit.val))
		g.ins(opLi, a0, asm.Int(0))
		return tyLong, nil

	case "__cas":
		// __cas(p, expected, new) -> previous value at p.
		if err := g.evalIntArgs(v, 3); err != nil {
			return nil, err
		}
		g.popI(a2)
		g.popI(a1)
		g.popI(a0)
		g.ins(opCas, a1, a2, asm.Mem(0, a0))
		g.ins(opMv, a0, a1)
		return tyLong, nil

	case "__amoadd", "__amoswap":
		if err := g.evalIntArgs(v, 2); err != nil {
			return nil, err
		}
		g.popI(a1)
		g.popI(a0)
		g.ins(builtinOps[v.name], t0, a1, asm.Mem(0, a0))
		g.ins(opMv, a0, t0)
		return tyLong, nil

	case "__ll":
		if err := g.evalIntArgs(v, 1); err != nil {
			return nil, err
		}
		g.popI(a0)
		g.ins(opLl, a0, asm.Mem(0, a0))
		return tyLong, nil

	case "__sc":
		// __sc(p, v) -> 0 on success, 1 on failure.
		if err := g.evalIntArgs(v, 2); err != nil {
			return nil, err
		}
		g.popI(a1)
		g.popI(a0)
		g.ins(opSc, t0, a1, asm.Mem(0, a0))
		g.ins(opMv, a0, t0)
		return tyLong, nil
	}

	sig, ok := g.funcs[v.name]
	if !ok {
		return nil, g.errf(v.line, "call to undeclared function %q (declare it extern)", v.name)
	}
	if len(v.args) > 8 {
		return nil, g.errf(v.line, "at most 8 arguments supported")
	}
	if sig.known && len(v.args) != len(sig.params) {
		return nil, g.errf(v.line, "%s takes %d arguments, got %d", v.name, len(sig.params), len(v.args))
	}
	// Evaluate left to right, pushing each argument.
	kinds := make([]bool, len(v.args)) // true = float
	for i, a := range v.args {
		ty, err := g.genExpr(a)
		if err != nil {
			return nil, err
		}
		if sig.known {
			if err := g.convert(ty, sig.params[i], v.line); err != nil {
				return nil, err
			}
			ty = sig.params[i]
		}
		kinds[i] = ty.isFloat()
		g.push(kinds[i])
	}
	// Pop into argument registers, last first. Register index = position.
	for i := len(v.args) - 1; i >= 0; i-- {
		if kinds[i] {
			g.popF(fArg(i))
		} else {
			g.popI(aArg(i))
		}
	}
	g.e.Line(v.line)
	g.ins(opCall, asm.Sym(v.name))
	return sig.ret, nil
}

// evalIntArgs evaluates exactly n integer/pointer arguments, pushing each.
func (g *codegen) evalIntArgs(v *call, n int) error {
	if len(v.args) != n {
		return g.errf(v.line, "%s takes %d arguments", v.name, n)
	}
	for _, a := range v.args {
		ty, err := g.genExpr(a)
		if err != nil {
			return err
		}
		if ty.isFloat() {
			return g.errf(v.line, "%s needs integer/pointer arguments", v.name)
		}
		g.push(false)
	}
	return nil
}

// aArg and fArg are the registers of argument i: a0..a7, f10..f17.
func aArg(i int) asm.Operand { return asm.R(isa.RegA0 + uint8(i)) }
func fArg(i int) asm.Operand { return asm.R(10 + uint8(i)) }
