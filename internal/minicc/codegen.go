package minicc

import (
	"fmt"
	"strconv"
	"strings"

	"dqemu/internal/asm"
	"dqemu/internal/isa"
)

// Compile translates a mini-C translation unit to GA64 assembly text
// acceptable to internal/asm. The runtime symbols it references (externs)
// are resolved when the output is assembled together with the guest runtime.
func Compile(file, src string) (string, error) {
	return CompileWithPrelude(file, "", src)
}

// CompileWithPrelude is Compile of prelude+src, where prelude is whole
// declarations every unit shares (grt.Prelude): the output is the same, and
// a diagnostic counts lines from src's first line, not the prelude's. The
// text is what Generate hands an asm.Printer.
func CompileWithPrelude(file, prelude, src string) (string, error) {
	var p asm.Printer
	p.Grow(outBytesPerSrcByte * min(len(src), sizedSrcBytes))
	if err := Generate(file, prelude, src, &p); err != nil {
		return "", err
	}
	return p.String(), nil
}

// Generate compiles prelude+src as CompileWithPrelude does, handing the
// program to e item by item: an asm.Builder encodes it with no text in
// between. The items carry the mini-C line of each function, global and
// call, so the assembler's diagnostics name what the user wrote.
func Generate(file, prelude, src string, e asm.Emitter) error {
	pre, err := preludeTokens(file, prelude)
	if err != nil {
		return err
	}
	toks, err := tokenize(file, src)
	if err != nil {
		return err
	}
	// The prelude is lexed once per process and parsed from where it is
	// kept: a declaration does not run on from it into src.
	prog := &program{}
	for _, ts := range [...][]token{pre, toks} {
		if err := (&parser{file: file, toks: ts}).parseProgram(prog); err != nil {
			return err
		}
	}
	g := &codegen{file: file, unit: sanitize(file), prog: prog, e: e,
		funcs: map[string]*funcSig{}, globals: map[string]*globalInfo{}, strIdx: map[string]int{}}
	return g.generate()
}

// The registers the generated code names.
var (
	ra, sp, s0 = asm.R(isa.RegRA), asm.R(isa.RegSP), asm.R(isa.RegS0)
	a0, a1, a2 = asm.R(isa.RegA0), asm.R(isa.RegA1), asm.R(isa.RegA2)
	t0, t1, t2 = asm.R(isa.RegT0), asm.R(isa.RegT0 + 1), asm.R(isa.RegT0 + 2)
	f0, f1     = asm.R(0), asm.R(1)
)

// The instructions it writes, each looked up in the assembler's table once.
var (
	opLi, opLa, opMv, opJ, opCall, opRet  = asm.Op("li"), asm.Op("la"), asm.Op("mv"), asm.Op("j"), asm.Op("call"), asm.Op("ret")
	opBeqz, opBnez, opSeqz, opSnez        = asm.Op("beqz"), asm.Op("bnez"), asm.Op("seqz"), asm.Op("snez")
	opAdd, opAddi, opSub, opMul, opDiv    = asm.Op("add"), asm.Op("addi"), asm.Op("sub"), asm.Op("mul"), asm.Op("div")
	opSlt, opSltu, opAndi, opXori         = asm.Op("slt"), asm.Op("sltu"), asm.Op("andi"), asm.Op("xori")
	opNeg, opNot                          = asm.Op("neg"), asm.Op("not")
	opLd, opSd, opLbu, opSb, opFld, opFsd = asm.Op("ld"), asm.Op("sd"), asm.Op("lbu"), asm.Op("sb"), asm.Op("fld"), asm.Op("fsd")
	opFli, opFeq, opFlt, opFle, opFneg    = asm.Op("fli"), asm.Op("feq"), asm.Op("flt"), asm.Op("fle"), asm.Op("fneg")
	opFcvtDL, opFcvtLD                    = asm.Op("fcvt.d.l"), asm.Op("fcvt.l.d")
	opFence, opHint, opCas, opLl, opSc    = asm.Op("fence"), asm.Op("hint"), asm.Op("cas"), asm.Op("ll"), asm.Op("sc")
)

// outBytesPerSrcByte sizes the output up front: straight-line mini-C
// compiles to 10–13 bytes of assembly per byte, so the buffer is written
// once instead of being copied as it doubles. Declarations, the prelude's
// included, compile to almost nothing and are not counted.
const outBytesPerSrcByte = 14

// sizedSrcBytes is as much source as the up-front sizes of the tokens and
// the output count (over four times the benchmark's largest program): past it
// they grow as they fill, so a job of megabytes of blanks or comments is
// not answered with allocations in proportion to its length.
const sizedSrcBytes = 512 << 10

type globalInfo struct {
	ty       *Type
	arrayLen int64
}

// funcSig records what the code generator knows about a callable symbol.
// Externs have known=false: their argument list is passed as written.
type funcSig struct {
	ret    *Type
	params []*Type
	known  bool
}

type localInfo struct {
	ty       *Type
	arrayLen int64
	off      int64 // slot address = s0 - off
}

type codegen struct {
	file    string
	unit    string // the file name as labels spell it
	prog    *program
	e       asm.Emitter
	funcs   map[string]*funcSig
	globals map[string]*globalInfo
	strs    []string       // string literals, in order of first use
	strIdx  map[string]int // a literal's index in strs
	labelN  int

	// Per-function state.
	fn       *funcDecl
	scopes   []map[string]*localInfo
	retLbl   string
	brk      []string
	cont     []string
	paramOff []int64
}

func (g *codegen) errf(line int, format string, args ...interface{}) error {
	return &compileError{file: g.file, line: line, msg: fmt.Sprintf(format, args...)}
}

// ins hands one instruction to the emitter.
func (g *codegen) ins(t *asm.Template, ops ...asm.Operand) {
	var o [3]asm.Operand
	for i, op := range ops {
		o[i] = op
	}
	g.e.Ins(t, o)
}

func (g *codegen) label(l string) { g.e.Label(l) }

// newLabel returns a label unique within the whole link (the file name is
// folded in so separately compiled units can be assembled together).
func (g *codegen) newLabel(hint string) string {
	g.labelN++
	return ".L" + g.unit + "_" + hint + "_" + strconv.Itoa(g.labelN)
}

func (g *codegen) generate() error {
	// Register functions and externs.
	for _, ex := range g.prog.externs {
		g.funcs[ex.name] = &funcSig{ret: ex.ret}
	}
	for _, fn := range g.prog.funcs {
		if sig, dup := g.funcs[fn.name]; dup && sig.known {
			return g.errf(fn.line, "function %q redefined", fn.name)
		}
		sig := &funcSig{ret: fn.ret, known: true}
		for _, prm := range fn.params {
			sig.params = append(sig.params, prm.ty)
		}
		g.funcs[fn.name] = sig
	}
	for _, gd := range g.prog.globals {
		if _, dup := g.globals[gd.name]; dup {
			return g.errf(gd.line, "global %q redefined", gd.name)
		}
		g.globals[gd.name] = &globalInfo{ty: gd.ty, arrayLen: gd.arrayLen}
	}

	g.e.Section(asm.Text)
	for _, fn := range g.prog.funcs {
		if err := g.genFunc(fn); err != nil {
			return err
		}
	}
	if err := g.genGlobals(); err != nil {
		return err
	}
	// String literals.
	if len(g.strs) > 0 {
		g.e.Section(asm.Rodata)
		for i, s := range g.strs {
			g.label(g.strLabelName(i))
			g.e.Data(asm.Asciz, asm.Str(s))
		}
	}
	return nil
}

func sanitize(s string) string {
	var sb strings.Builder
	for _, c := range s {
		if c == '_' || c >= 'a' && c <= 'z' || c >= 'A' && c <= 'Z' || c >= '0' && c <= '9' {
			sb.WriteRune(c)
		}
	}
	return sb.String()
}

// strLabel interns a string literal: equal literals share one label.
func (g *codegen) strLabel(s string) string {
	i, ok := g.strIdx[s]
	if !ok {
		i = len(g.strs)
		g.strs = append(g.strs, s)
		g.strIdx[s] = i
	}
	return g.strLabelName(i)
}

func (g *codegen) strLabelName(i int) string { return ".Lstr_" + g.unit + "_" + strconv.Itoa(i) }

func (g *codegen) genGlobals() error {
	var data, bss []*globalDecl
	for _, gd := range g.prog.globals {
		hasInit := gd.initI != nil || gd.initF != nil || gd.initS != nil || len(gd.initList) > 0
		if hasInit {
			data = append(data, gd)
		} else {
			bss = append(bss, gd)
		}
	}
	if len(data) > 0 {
		g.e.Section(asm.Data)
		for _, gd := range data {
			g.globalLabel(gd)
			if err := g.emitGlobalInit(gd); err != nil {
				return err
			}
		}
	}
	if len(bss) > 0 {
		g.e.Section(asm.Bss)
		for _, gd := range bss {
			g.globalLabel(gd)
			n := gd.ty.size()
			if gd.arrayLen >= 0 {
				n *= gd.arrayLen
			}
			g.e.Data(asm.Space, asm.Int(n))
		}
	}
	return nil
}

func (g *codegen) globalLabel(gd *globalDecl) {
	g.e.Line(gd.line)
	g.e.Data(asm.Align, asm.Int(8))
	g.label(gd.name)
}

func (g *codegen) emitGlobalInit(gd *globalDecl) error {
	if gd.arrayLen >= 0 {
		for _, e := range gd.initList {
			switch v := e.(type) {
			case *intLit:
				g.emitInt(gd.ty, v.val)
			case *floatLit:
				if gd.ty.Kind != KindDouble {
					return g.errf(gd.line, "float initializer for %s array", gd.ty)
				}
				g.e.Data(asm.Double, asm.Float(v.val))
			default:
				return g.errf(gd.line, "array initializers must be literals")
			}
		}
		rest := (gd.arrayLen - int64(len(gd.initList))) * gd.ty.size()
		if rest > 0 {
			g.e.Data(asm.Space, asm.Int(rest))
		}
		return nil
	}
	switch {
	case gd.initS != nil:
		if !gd.ty.isPtr() || gd.ty.Elem.Kind != KindChar {
			return g.errf(gd.line, "string initializer needs char*")
		}
		g.e.Data(asm.Quad, asm.Sym(g.strLabel(*gd.initS)))
	case gd.initF != nil:
		if gd.ty.Kind != KindDouble {
			return g.errf(gd.line, "float initializer for %s", gd.ty)
		}
		g.e.Data(asm.Double, asm.Float(*gd.initF))
	case gd.initI != nil:
		g.emitInt(gd.ty, *gd.initI)
	}
	return nil
}

// emitInt emits an integer initializer as a value of type ty.
func (g *codegen) emitInt(ty *Type, v int64) {
	switch ty.Kind {
	case KindChar:
		g.e.Data(asm.Byte, asm.Int(v&0xff))
	case KindDouble:
		g.e.Data(asm.Double, asm.Float(float64(v)))
	default:
		g.e.Data(asm.Quad, asm.Int(v))
	}
}

// ---- Functions ----

// prescan assigns frame offsets to every declaration in the function and
// returns the frame size (16 bytes of saved ra/s0 plus locals).
func (g *codegen) prescan(fn *funcDecl) int64 {
	off := int64(16)
	alloc := func(size int64) int64 {
		size = (size + 7) &^ 7
		off += size
		return off
	}
	// Parameters get slots first.
	g.paramOff = g.paramOff[:0]
	for range fn.params {
		g.paramOff = append(g.paramOff, alloc(8))
	}
	var walk func(s stmt)
	walk = func(s stmt) {
		switch v := s.(type) {
		case *block:
			for _, c := range v.stmts {
				walk(c)
			}
		case *declStmt:
			size := int64(8)
			if v.arrayLen >= 0 {
				size = v.arrayLen * v.ty.size()
			}
			v.frameOff = alloc(size)
		case *ifStmt:
			walk(v.then)
			if v.els != nil {
				walk(v.els)
			}
		case *whileStmt:
			walk(v.body)
		case *forStmt:
			if v.init != nil {
				walk(v.init)
			}
			walk(v.body)
		}
	}
	walk(fn.body)
	return (off + 15) &^ 15
}

func (g *codegen) genFunc(fn *funcDecl) error {
	g.fn = fn
	g.scopes = []map[string]*localInfo{{}}
	g.retLbl = g.newLabel("ret_" + fn.name)
	frame := g.prescan(fn)

	g.e.Line(fn.line)
	g.label(fn.name)
	if frame <= 8184 {
		g.ins(opAddi, sp, sp, asm.Int(-frame))
		g.ins(opSd, ra, asm.Mem(frame-8, sp))
		g.ins(opSd, s0, asm.Mem(frame-16, sp))
		g.ins(opAddi, s0, sp, asm.Int(frame))
	} else {
		g.ins(opLi, t0, asm.Int(frame))
		g.ins(opSub, sp, sp, t0)
		g.ins(opAdd, t1, sp, t0)
		g.ins(opSd, ra, asm.Mem(-8, t1))
		g.ins(opSd, s0, asm.Mem(-16, t1))
		g.ins(opMv, s0, t1)
	}
	// Spill parameters into their slots.
	for i, prm := range fn.params {
		li := &localInfo{ty: prm.ty, arrayLen: -1, off: g.paramOff[i]}
		g.scopes[0][prm.name] = li
		reg := aArg(i)
		if prm.ty.isFloat() {
			reg = fArg(i)
		}
		g.storeSlot(prm.ty.isFloat(), li.off, reg)
	}
	if err := g.genBlock(fn.body); err != nil {
		return err
	}
	// Implicit return (value 0 for non-void falls out naturally).
	g.ins(opLi, a0, asm.Int(0))
	g.label(g.retLbl)
	g.ins(opLd, ra, asm.Mem(-8, s0))
	g.ins(opMv, sp, s0)
	g.ins(opLd, s0, asm.Mem(-16, s0))
	g.ins(opRet)
	return nil
}

// storeSlot stores register reg, an FP one if float, to the slot at s0-off.
func (g *codegen) storeSlot(float bool, off int64, reg asm.Operand) {
	store := opSd
	if float {
		store = opFsd
	}
	if off <= 8191 {
		g.ins(store, reg, asm.Mem(-off, s0))
		return
	}
	g.ins(opLi, t1, asm.Int(off))
	g.ins(opSub, t1, s0, t1)
	g.ins(store, reg, asm.Mem(0, t1))
}

// addrOfSlot materialises s0-off into reg.
func (g *codegen) addrOfSlot(off int64, reg asm.Operand) {
	if off <= 8191 {
		g.ins(opAddi, reg, s0, asm.Int(-off))
		return
	}
	g.ins(opLi, reg, asm.Int(off))
	g.ins(opSub, reg, s0, reg)
}

// ---- Scope helpers ----

func (g *codegen) pushScope() { g.scopes = append(g.scopes, map[string]*localInfo{}) }
func (g *codegen) popScope()  { g.scopes = g.scopes[:len(g.scopes)-1] }

func (g *codegen) lookupLocal(name string) *localInfo {
	for i := len(g.scopes) - 1; i >= 0; i-- {
		if li, ok := g.scopes[i][name]; ok {
			return li
		}
	}
	return nil
}

// ---- Statements ----

func (g *codegen) genBlock(b *block) error {
	g.pushScope()
	defer g.popScope()
	for _, s := range b.stmts {
		if err := g.genStmt(s); err != nil {
			return err
		}
	}
	return nil
}

func (g *codegen) genStmt(s stmt) error {
	switch v := s.(type) {
	case *block:
		return g.genBlock(v)
	case *declStmt:
		li := &localInfo{ty: v.ty, arrayLen: v.arrayLen, off: v.frameOff}
		g.scopes[len(g.scopes)-1][v.name] = li
		if v.init != nil {
			ty, err := g.genExpr(v.init)
			if err != nil {
				return err
			}
			if err := g.convert(ty, v.ty, v.line); err != nil {
				return err
			}
			reg := a0
			if v.ty.isFloat() {
				reg = f0
			}
			g.storeSlot(v.ty.isFloat(), li.off, reg)
		}
		return nil
	case *exprStmt:
		_, err := g.genExpr(v.x)
		return err
	case *ifStmt:
		elseLbl := g.newLabel("else")
		endLbl := g.newLabel("endif")
		if err := g.genCond(v.c, elseLbl); err != nil {
			return err
		}
		if err := g.genStmt(v.then); err != nil {
			return err
		}
		if v.els != nil {
			g.jump(endLbl)
		}
		g.label(elseLbl)
		if v.els != nil {
			if err := g.genStmt(v.els); err != nil {
				return err
			}
			g.label(endLbl)
		}
		return nil
	case *whileStmt:
		top := g.newLabel("while")
		end := g.newLabel("endwhile")
		g.label(top)
		if err := g.genCond(v.c, end); err != nil {
			return err
		}
		g.brk = append(g.brk, end)
		g.cont = append(g.cont, top)
		err := g.genStmt(v.body)
		g.brk = g.brk[:len(g.brk)-1]
		g.cont = g.cont[:len(g.cont)-1]
		if err != nil {
			return err
		}
		g.jump(top)
		g.label(end)
		return nil
	case *forStmt:
		g.pushScope()
		defer g.popScope()
		if v.init != nil {
			if err := g.genStmt(v.init); err != nil {
				return err
			}
		}
		top := g.newLabel("for")
		post := g.newLabel("forpost")
		end := g.newLabel("endfor")
		g.label(top)
		if v.c != nil {
			if err := g.genCond(v.c, end); err != nil {
				return err
			}
		}
		g.brk = append(g.brk, end)
		g.cont = append(g.cont, post)
		err := g.genStmt(v.body)
		g.brk = g.brk[:len(g.brk)-1]
		g.cont = g.cont[:len(g.cont)-1]
		if err != nil {
			return err
		}
		g.label(post)
		if v.post != nil {
			if _, err := g.genExpr(v.post); err != nil {
				return err
			}
		}
		g.jump(top)
		g.label(end)
		return nil
	case *returnStmt:
		if v.x != nil {
			ty, err := g.genExpr(v.x)
			if err != nil {
				return err
			}
			if err := g.convert(ty, g.fn.ret, v.line); err != nil {
				return err
			}
		}
		g.jump(g.retLbl)
		return nil
	case *breakStmt:
		if len(g.brk) == 0 {
			return g.errf(v.line, "break outside loop")
		}
		g.jump(g.brk[len(g.brk)-1])
		return nil
	case *continueStmt:
		if len(g.cont) == 0 {
			return g.errf(v.line, "continue outside loop")
		}
		g.jump(g.cont[len(g.cont)-1])
		return nil
	}
	return fmt.Errorf("minicc: unknown statement %T", s)
}

// genCond evaluates e and branches to falseLbl when it is zero.
func (g *codegen) genCond(e expr, falseLbl string) error {
	ty, err := g.genExpr(e)
	if err != nil {
		return err
	}
	g.boolify(ty)
	g.ins(opBeqz, a0, asm.Sym(falseLbl))
	return nil
}

func (g *codegen) jump(l string) { g.ins(opJ, asm.Sym(l)) }

// boolify turns the current value (a0/f0 per ty) into 0/1 in a0.
func (g *codegen) boolify(ty *Type) {
	if ty.isFloat() {
		g.ins(opFli, f1, asm.Float(0))
		g.ins(opFeq, a0, f0, f1)
		g.ins(opXori, a0, a0, asm.Int(1))
	}
}
