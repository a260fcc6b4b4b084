package minicc

import "dqemu/internal/asm"

// ---- Value stack helpers. Values are spilled to the guest stack between
// the two operands of a binary operation; sp is restored by the function
// epilogue even if codegen leaves it moved (it cannot, but belt and braces).

// push spills the current value, f0 if float else a0.
func (g *codegen) push(float bool) {
	store, reg := opSd, a0
	if float {
		store, reg = opFsd, f0
	}
	g.ins(opAddi, sp, sp, asm.Int(-8))
	g.ins(store, reg, asm.Mem(0, sp))
}

func (g *codegen) popI(reg asm.Operand) {
	g.ins(opLd, reg, asm.Mem(0, sp))
	g.ins(opAddi, sp, sp, asm.Int(8))
}

func (g *codegen) popF(reg asm.Operand) {
	g.ins(opFld, reg, asm.Mem(0, sp))
	g.ins(opAddi, sp, sp, asm.Int(8))
}

// convert coerces the current value (in a0/f0 per `from`) to type `to`.
func (g *codegen) convert(from, to *Type, line int) error {
	if from.isFloat() == to.isFloat() {
		if to.Kind == KindChar && from.Kind != KindChar {
			g.ins(opAndi, a0, a0, asm.Int(255))
		}
		if to.Kind == KindVoid || from.Kind == KindVoid {
			if to.Kind != from.Kind {
				return g.errf(line, "cannot convert %s to %s", from, to)
			}
		}
		return nil
	}
	if to.isFloat() {
		g.ins(opFcvtDL, f0, a0)
		return nil
	}
	g.ins(opFcvtLD, a0, f0)
	if to.Kind == KindChar {
		g.ins(opAndi, a0, a0, asm.Int(255))
	}
	return nil
}

// loadValue loads the value of type ty from the address in a0.
func (g *codegen) loadValue(ty *Type) {
	switch ty.Kind {
	case KindChar:
		g.ins(opLbu, a0, asm.Mem(0, a0))
	case KindDouble:
		g.ins(opFld, f0, asm.Mem(0, a0))
	default:
		g.ins(opLd, a0, asm.Mem(0, a0))
	}
}

// storeValue stores the current value (a0/f0 per ty) to the address in reg.
func (g *codegen) storeValue(ty *Type, reg asm.Operand) {
	switch ty.Kind {
	case KindChar:
		g.ins(opSb, a0, asm.Mem(0, reg))
	case KindDouble:
		g.ins(opFsd, f0, asm.Mem(0, reg))
	default:
		g.ins(opSd, a0, asm.Mem(0, reg))
	}
}

// genAddr leaves the address of an lvalue in a0 and returns the type of the
// value stored there (for arrays, the element type).
func (g *codegen) genAddr(e expr) (*Type, error) {
	switch v := e.(type) {
	case *varRef:
		if li := g.lookupLocal(v.name); li != nil {
			g.addrOfSlot(li.off, a0)
			return li.ty, nil
		}
		if gi, ok := g.globals[v.name]; ok {
			g.ins(opLa, a0, asm.Sym(v.name))
			return gi.ty, nil
		}
		return nil, g.errf(v.line, "undefined variable %q", v.name)
	case *unary:
		if v.op != "*" {
			return nil, g.errf(v.line, "not an lvalue")
		}
		ty, err := g.genExpr(v.x)
		if err != nil {
			return nil, err
		}
		if !ty.isPtr() {
			return nil, g.errf(v.line, "cannot dereference %s", ty)
		}
		return ty.Elem, nil
	case *index:
		bty, err := g.genExpr(v.base)
		if err != nil {
			return nil, err
		}
		if !bty.isPtr() {
			return nil, g.errf(v.line, "cannot index %s", bty)
		}
		g.push(false)
		ity, err := g.genExpr(v.idx)
		if err != nil {
			return nil, err
		}
		if !ity.isInt() {
			return nil, g.errf(v.line, "index must be integer, got %s", ity)
		}
		g.popI(a1)
		if size := bty.Elem.size(); size > 1 {
			g.ins(opLi, t0, asm.Int(size))
			g.ins(opMul, a0, a0, t0)
		}
		g.ins(opAdd, a0, a1, a0)
		return bty.Elem, nil
	}
	return nil, g.errf(0, "expression is not an lvalue")
}

// genExpr generates code leaving the value in a0 (integers, pointers) or f0
// (doubles) and returns its type. Array-typed names decay to pointers.
func (g *codegen) genExpr(e expr) (*Type, error) {
	switch v := e.(type) {
	case *intLit:
		g.ins(opLi, a0, asm.Int(v.val))
		return tyLong, nil
	case *floatLit:
		g.ins(opFli, f0, asm.Float(v.val))
		return tyDouble, nil
	case *strLit:
		g.ins(opLa, a0, asm.Sym(g.strLabel(v.val)))
		return ptrTo(tyChar), nil
	case *varRef:
		return g.genVarRef(v)
	case *unary:
		return g.genUnary(v)
	case *binary:
		return g.genBinary(v)
	case *assign:
		return g.genAssign(v)
	case *incDec:
		return g.genIncDec(v)
	case *cond:
		return g.genCondExpr(v)
	case *call:
		return g.genCall(v)
	case *index:
		ty, err := g.genAddr(v)
		if err != nil {
			return nil, err
		}
		g.loadValue(ty)
		return g.decay(ty), nil
	case *cast:
		ty, err := g.genExpr(v.x)
		if err != nil {
			return nil, err
		}
		if err := g.convert(ty, v.to, v.line); err != nil {
			return nil, err
		}
		return v.to, nil
	}
	return nil, g.errf(0, "unknown expression %T", e)
}

// decay widens char values to long (they are already zero-extended in a0).
func (g *codegen) decay(ty *Type) *Type {
	if ty.Kind == KindChar {
		return tyLong
	}
	return ty
}

func (g *codegen) genVarRef(v *varRef) (*Type, error) {
	if li := g.lookupLocal(v.name); li != nil {
		if li.arrayLen >= 0 {
			g.addrOfSlot(li.off, a0)
			return ptrTo(li.ty), nil
		}
		g.addrOfSlot(li.off, a0)
		g.loadValue(li.ty)
		return g.decay(li.ty), nil
	}
	if gi, ok := g.globals[v.name]; ok {
		g.ins(opLa, a0, asm.Sym(v.name))
		if gi.arrayLen >= 0 {
			return ptrTo(gi.ty), nil
		}
		g.loadValue(gi.ty)
		return g.decay(gi.ty), nil
	}
	if _, ok := g.funcs[v.name]; ok {
		g.e.Line(v.line) // an extern may be defined nowhere
		g.ins(opLa, a0, asm.Sym(v.name))
		return ptrTo(tyVoid), nil
	}
	return nil, g.errf(v.line, "undefined identifier %q", v.name)
}

func (g *codegen) genUnary(v *unary) (*Type, error) {
	switch v.op {
	case "&":
		ty, err := g.genAddr(v.x)
		if err != nil {
			return nil, err
		}
		return ptrTo(ty), nil
	case "*":
		ty, err := g.genExpr(v.x)
		if err != nil {
			return nil, err
		}
		if !ty.isPtr() {
			return nil, g.errf(v.line, "cannot dereference %s", ty)
		}
		g.loadValue(ty.Elem)
		return g.decay(ty.Elem), nil
	}
	ty, err := g.genExpr(v.x)
	if err != nil {
		return nil, err
	}
	switch v.op {
	case "-":
		if ty.isFloat() {
			g.ins(opFneg, f0, f0)
		} else {
			g.ins(opNeg, a0, a0)
		}
		return ty, nil
	case "!":
		if ty.isFloat() {
			g.ins(opFli, f1, asm.Float(0))
			g.ins(opFeq, a0, f0, f1)
			return tyLong, nil
		}
		g.ins(opSeqz, a0, a0)
		return tyLong, nil
	case "~":
		if ty.isFloat() {
			return nil, g.errf(v.line, "~ needs an integer")
		}
		g.ins(opNot, a0, a0)
		return ty, nil
	}
	return nil, g.errf(v.line, "unknown unary %q", v.op)
}

func (g *codegen) genBinary(v *binary) (*Type, error) {
	if v.op == "&&" || v.op == "||" {
		return g.genLogical(v)
	}
	lty, err := g.genExpr(v.l)
	if err != nil {
		return nil, err
	}
	g.push(lty.isFloat())
	rty, err := g.genExpr(v.r)
	if err != nil {
		return nil, err
	}
	return g.combine(v.op, lty, rty, v.line)
}

// intOps and fpOps are the operators that are one instruction, the left
// operand in a1 or f1 and the right in a0 or f0.
var (
	intOps = map[string]*asm.Template{"+": opAdd, "-": opSub, "*": opMul, "/": opDiv, "%": asm.Op("rem"),
		"&": asm.Op("and"), "|": asm.Op("or"), "^": asm.Op("xor"), "<<": asm.Op("sll"), ">>": asm.Op("sra")}
	fpOps = map[string]*asm.Template{"+": asm.Op("fadd"), "-": asm.Op("fsub"), "*": asm.Op("fmul"), "/": asm.Op("fdiv")}
)

// combine pops the left operand (pushed by the caller) and applies op with
// the right operand in a0/f0, leaving the result in a0/f0.
func (g *codegen) combine(op string, lty, rty *Type, line int) (*Type, error) {
	// Pointer arithmetic.
	if lty.isPtr() || rty.isPtr() {
		return g.combinePtr(op, lty, rty, line)
	}
	if lty.isFloat() || rty.isFloat() {
		// Promote both to double: right first (in registers), then left.
		if !rty.isFloat() {
			g.ins(opFcvtDL, f0, a0)
		}
		if lty.isFloat() {
			g.popF(f1)
		} else {
			g.popI(a1)
			g.ins(opFcvtDL, f1, a1)
		}
		if t, ok := fpOps[op]; ok {
			g.ins(t, f0, f1, f0)
			return tyDouble, nil
		}
		switch op {
		case "<":
			g.ins(opFlt, a0, f1, f0)
			return tyLong, nil
		case ">":
			g.ins(opFlt, a0, f0, f1)
			return tyLong, nil
		case "<=":
			g.ins(opFle, a0, f1, f0)
			return tyLong, nil
		case ">=":
			g.ins(opFle, a0, f0, f1)
			return tyLong, nil
		case "==":
			g.ins(opFeq, a0, f1, f0)
			return tyLong, nil
		case "!=":
			g.ins(opFeq, a0, f1, f0)
			g.ins(opXori, a0, a0, asm.Int(1))
			return tyLong, nil
		}
		return nil, g.errf(line, "operator %q not defined on double", op)
	}
	// Integer operands.
	g.popI(a1)
	if t, ok := intOps[op]; ok {
		g.ins(t, a0, a1, a0)
		return tyLong, nil
	}
	switch op {
	case "<":
		g.ins(opSlt, a0, a1, a0)
	case ">":
		g.ins(opSlt, a0, a0, a1)
	case "<=":
		g.ins(opSlt, a0, a0, a1)
		g.ins(opXori, a0, a0, asm.Int(1))
	case ">=":
		g.ins(opSlt, a0, a1, a0)
		g.ins(opXori, a0, a0, asm.Int(1))
	case "==":
		g.ins(opSub, a0, a1, a0)
		g.ins(opSeqz, a0, a0)
	case "!=":
		g.ins(opSub, a0, a1, a0)
		g.ins(opSnez, a0, a0)
	default:
		return nil, g.errf(line, "unknown operator %q", op)
	}
	return tyLong, nil
}

func (g *codegen) combinePtr(op string, lty, rty *Type, line int) (*Type, error) {
	switch {
	case lty.isPtr() && rty.isInt():
		g.popI(a1)
		size := lty.Elem.size()
		switch op {
		case "+", "-":
			if size > 1 {
				g.ins(opLi, t0, asm.Int(size))
				g.ins(opMul, a0, a0, t0)
			}
			if op == "+" {
				g.ins(opAdd, a0, a1, a0)
			} else {
				g.ins(opSub, a0, a1, a0)
			}
			return lty, nil
		case "==", "!=", "<", ">", "<=", ">=":
			return g.ptrCompareRegs(op)
		}
	case lty.isInt() && rty.isPtr():
		switch op {
		case "+":
			g.popI(a1)
			if size := rty.Elem.size(); size > 1 {
				g.ins(opLi, t0, asm.Int(size))
				g.ins(opMul, a1, a1, t0)
			}
			g.ins(opAdd, a0, a1, a0)
			return rty, nil
		case "==", "!=", "<", ">", "<=", ">=":
			g.popI(a1)
			return g.ptrCompareRegs(op)
		}
	case lty.isPtr() && rty.isPtr():
		switch op {
		case "-":
			g.popI(a1)
			g.ins(opSub, a0, a1, a0)
			if size := lty.Elem.size(); size > 1 {
				g.ins(opLi, t0, asm.Int(size))
				g.ins(opDiv, a0, a0, t0)
			}
			return tyLong, nil
		case "==", "!=", "<", ">", "<=", ">=":
			return g.ptrCompare(op)
		}
	}
	return nil, g.errf(line, "invalid pointer operation %s %q %s", lty, op, rty)
}

// ptrCompare pops the left operand into a1 and emits an unsigned compare
// against a0.
func (g *codegen) ptrCompare(op string) (*Type, error) {
	g.popI(a1)
	return g.ptrCompareRegs(op)
}

// ptrCompareRegs compares a1 (left) with a0 (right), unsigned.
func (g *codegen) ptrCompareRegs(op string) (*Type, error) {
	switch op {
	case "==":
		g.ins(opSub, a0, a1, a0)
		g.ins(opSeqz, a0, a0)
	case "!=":
		g.ins(opSub, a0, a1, a0)
		g.ins(opSnez, a0, a0)
	case "<":
		g.ins(opSltu, a0, a1, a0)
	case ">":
		g.ins(opSltu, a0, a0, a1)
	case "<=":
		g.ins(opSltu, a0, a0, a1)
		g.ins(opXori, a0, a0, asm.Int(1))
	case ">=":
		g.ins(opSltu, a0, a1, a0)
		g.ins(opXori, a0, a0, asm.Int(1))
	}
	return tyLong, nil
}

func (g *codegen) genLogical(v *binary) (*Type, error) {
	end := g.newLabel("logend")
	short := g.newLabel("logshort")
	lty, err := g.genExpr(v.l)
	if err != nil {
		return nil, err
	}
	g.boolify(lty)
	if v.op == "&&" {
		g.ins(opBeqz, a0, asm.Sym(short))
	} else {
		g.ins(opBnez, a0, asm.Sym(short))
	}
	rty, err := g.genExpr(v.r)
	if err != nil {
		return nil, err
	}
	g.boolify(rty)
	g.ins(opSnez, a0, a0)
	g.jump(end)
	g.label(short)
	if v.op == "&&" {
		g.ins(opLi, a0, asm.Int(0))
	} else {
		g.ins(opLi, a0, asm.Int(1))
	}
	g.label(end)
	return tyLong, nil
}

func (g *codegen) genAssign(v *assign) (*Type, error) {
	aty, err := g.genAddr(v.l)
	if err != nil {
		return nil, err
	}
	g.push(false) // address
	if v.op == "=" {
		rty, err := g.genExpr(v.r)
		if err != nil {
			return nil, err
		}
		if err := g.convert(rty, aty, v.line); err != nil {
			return nil, err
		}
		g.popI(a1)
		g.storeValue(aty, a1)
		return g.decay(aty), nil
	}
	// Compound assignment: load current value, keeping the address pushed.
	g.ins(opLd, a1, asm.Mem(0, sp))
	g.ins(opMv, a0, a1)
	g.loadValue(aty)
	vty := g.decay(aty)
	g.push(vty.isFloat())
	rty, err := g.genExpr(v.r)
	if err != nil {
		return nil, err
	}
	resTy, err := g.combine(v.op, vty, rty, v.line)
	if err != nil {
		return nil, err
	}
	if err := g.convert(resTy, aty, v.line); err != nil {
		return nil, err
	}
	g.popI(a1)
	g.storeValue(aty, a1)
	return g.decay(aty), nil
}

func (g *codegen) genIncDec(v *incDec) (*Type, error) {
	aty, err := g.genAddr(v.l)
	if err != nil {
		return nil, err
	}
	if aty.isFloat() {
		return nil, g.errf(v.line, "%s needs an integer or pointer", v.op)
	}
	delta := int64(1)
	if aty.isPtr() {
		delta = aty.Elem.size()
	}
	if v.op == "--" {
		delta = -delta
	}
	g.ins(opMv, t2, a0)
	g.ins(opMv, a0, t2)
	g.loadValue(aty)
	g.ins(opAddi, a0, a0, asm.Int(delta))
	g.storeValue(aty, t2)
	return g.decay(aty), nil
}

func (g *codegen) genCondExpr(v *cond) (*Type, error) {
	elseL := g.newLabel("celse")
	endL := g.newLabel("cend")
	cty, err := g.genExpr(v.c)
	if err != nil {
		return nil, err
	}
	g.boolify(cty)
	g.ins(opBeqz, a0, asm.Sym(elseL))
	tty, err := g.genExpr(v.t)
	if err != nil {
		return nil, err
	}
	g.jump(endL)
	g.label(elseL)
	fty, err := g.genExpr(v.f)
	if err != nil {
		return nil, err
	}
	g.label(endL)
	if tty.isFloat() != fty.isFloat() {
		return nil, g.errf(v.line, "ternary branches have mismatched classes (%s vs %s); add a cast", tty, fty)
	}
	return tty, nil
}
