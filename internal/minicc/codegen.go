package minicc

import (
	"fmt"
	"strconv"
	"strings"
)

// Compile translates a mini-C translation unit to GA64 assembly text
// acceptable to internal/asm. The runtime symbols it references (externs)
// are resolved when the output is assembled together with the guest runtime.
func Compile(file, src string) (string, error) {
	return CompileWithPrelude(file, "", src)
}

// CompileWithPrelude is Compile of prelude+src, where prelude is whole lines
// of declarations every unit shares (grt.Prelude): the output is the same,
// and a diagnostic counts lines from src's first line, not the prelude's.
func CompileWithPrelude(file, prelude, src string) (string, error) {
	toks, err := tokenize(file, prelude, src)
	if err != nil {
		return "", err
	}
	p := &parser{file: file, toks: toks}
	prog, err := p.parseProgram()
	if err != nil {
		return "", err
	}
	g := &codegen{file: file, unit: sanitize(file), prog: prog,
		funcs: map[string]*funcSig{}, globals: map[string]*globalInfo{}}
	g.out.Grow(outBytesPerSrcByte * min(len(src), sizedSrcBytes))
	return g.generate()
}

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
	out     strings.Builder
	funcs   map[string]*funcSig
	globals map[string]*globalInfo
	strs    []string
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

// emit writes one instruction line. The format takes %s (a string) and %d
// (an int or int64) and nothing else: a line is written for every
// instruction of every function, and building a format string and running
// fmt for each was a fifth of Compile.
func (g *codegen) emit(format string, args ...interface{}) {
	g.out.WriteByte('\t')
	for i := strings.IndexByte(format, '%'); i >= 0; i = strings.IndexByte(format, '%') {
		g.out.WriteString(format[:i])
		var num [20]byte
		switch a := args[0].(type) {
		case string:
			g.out.WriteString(a)
		case int:
			g.out.Write(strconv.AppendInt(num[:0], int64(a), 10))
		case int64:
			g.out.Write(strconv.AppendInt(num[:0], a, 10))
		default:
			// Naming the argument here would make every argument escape,
			// and boxing it allocate.
			panic("minicc: emit(" + strconv.Quote(format) + "): argument is not a string, int or int64")
		}
		format, args = format[i+2:], args[1:]
	}
	g.out.WriteString(format)
	g.out.WriteByte('\n')
}

func (g *codegen) label(l string) {
	g.out.WriteString(l)
	g.out.WriteString(":\n")
}

// newLabel returns a label unique within the whole link (the file name is
// folded in so separately compiled units can be assembled together).
func (g *codegen) newLabel(hint string) string {
	g.labelN++
	return ".L" + g.unit + "_" + hint + "_" + strconv.Itoa(g.labelN)
}

func (g *codegen) generate() (string, error) {
	// Register functions and externs.
	for _, ex := range g.prog.externs {
		g.funcs[ex.name] = &funcSig{ret: ex.ret}
	}
	for _, fn := range g.prog.funcs {
		if sig, dup := g.funcs[fn.name]; dup && sig.known {
			return "", g.errf(fn.line, "function %q redefined", fn.name)
		}
		sig := &funcSig{ret: fn.ret, known: true}
		for _, prm := range fn.params {
			sig.params = append(sig.params, prm.ty)
		}
		g.funcs[fn.name] = sig
	}
	for _, gd := range g.prog.globals {
		if _, dup := g.globals[gd.name]; dup {
			return "", g.errf(gd.line, "global %q redefined", gd.name)
		}
		g.globals[gd.name] = &globalInfo{ty: gd.ty, arrayLen: gd.arrayLen}
	}

	g.out.WriteString("\t.text\n")
	for _, fn := range g.prog.funcs {
		if err := g.genFunc(fn); err != nil {
			return "", err
		}
	}
	if err := g.genGlobals(); err != nil {
		return "", err
	}
	// String literals.
	if len(g.strs) > 0 {
		g.out.WriteString("\t.rodata\n")
		for i, s := range g.strs {
			g.label(g.strLabelName(i))
			g.emit(".asciz %s", strconv.Quote(s))
		}
	}
	return g.out.String(), nil
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

func (g *codegen) strLabel(s string) string {
	for i, old := range g.strs {
		if old == s {
			return g.strLabelName(i)
		}
	}
	g.strs = append(g.strs, s)
	return g.strLabelName(len(g.strs) - 1)
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
		g.out.WriteString("\t.data\n")
		for _, gd := range data {
			g.emit(".align 8")
			g.label(gd.name)
			if err := g.emitGlobalInit(gd); err != nil {
				return err
			}
		}
	}
	if len(bss) > 0 {
		g.out.WriteString("\t.bss\n")
		for _, gd := range bss {
			g.emit(".align 8")
			g.label(gd.name)
			n := gd.ty.size()
			if gd.arrayLen >= 0 {
				n *= gd.arrayLen
			}
			g.emit(".space %d", n)
		}
	}
	return nil
}

func (g *codegen) emitGlobalInit(gd *globalDecl) error {
	if gd.arrayLen >= 0 {
		for _, e := range gd.initList {
			switch v := e.(type) {
			case *intLit:
				switch gd.ty.Kind {
				case KindChar:
					g.emit(".byte %d", v.val&0xff)
				case KindDouble:
					g.emit(".double %s", strconv.FormatFloat(float64(v.val), 'g', 17, 64))
				default:
					g.emit(".quad %d", v.val)
				}
			case *floatLit:
				if gd.ty.Kind != KindDouble {
					return g.errf(gd.line, "float initializer for %s array", gd.ty)
				}
				g.emit(".double %s", strconv.FormatFloat(v.val, 'g', 17, 64))
			default:
				return g.errf(gd.line, "array initializers must be literals")
			}
		}
		rest := (gd.arrayLen - int64(len(gd.initList))) * gd.ty.size()
		if rest > 0 {
			g.emit(".space %d", rest)
		}
		return nil
	}
	switch {
	case gd.initS != nil:
		if !gd.ty.isPtr() || gd.ty.Elem.Kind != KindChar {
			return g.errf(gd.line, "string initializer needs char*")
		}
		g.emit(".quad %s", g.strLabel(*gd.initS))
	case gd.initF != nil:
		if gd.ty.Kind != KindDouble {
			return g.errf(gd.line, "float initializer for %s", gd.ty)
		}
		g.emit(".double %s", strconv.FormatFloat(*gd.initF, 'g', 17, 64))
	case gd.initI != nil:
		switch gd.ty.Kind {
		case KindChar:
			g.emit(".byte %d", *gd.initI&0xff)
		case KindDouble:
			g.emit(".double %s", strconv.FormatFloat(float64(*gd.initI), 'g', 17, 64))
		default:
			g.emit(".quad %d", *gd.initI)
		}
	}
	return nil
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

	g.out.WriteString("\t.global " + fn.name + "\n")
	g.label(fn.name)
	if frame <= 8184 {
		g.emit("addi sp, sp, -%d", frame)
		g.emit("sd   ra, %d(sp)", frame-8)
		g.emit("sd   s0, %d(sp)", frame-16)
		g.emit("addi s0, sp, %d", frame)
	} else {
		g.emit("li   t0, %d", frame)
		g.emit("sub  sp, sp, t0")
		g.emit("add  t1, sp, t0")
		g.emit("sd   ra, -8(t1)")
		g.emit("sd   s0, -16(t1)")
		g.emit("mv   s0, t1")
	}
	// Spill parameters into their slots.
	for i, prm := range fn.params {
		li := &localInfo{ty: prm.ty, arrayLen: -1, off: g.paramOff[i]}
		g.scopes[0][prm.name] = li
		if prm.ty.isFloat() {
			g.storeSlotF(li.off, fmt.Sprintf("f%d", 10+i))
		} else {
			g.storeSlotI(li.off, fmt.Sprintf("a%d", i))
		}
	}
	if err := g.genBlock(fn.body); err != nil {
		return err
	}
	// Implicit return (value 0 for non-void falls out naturally).
	g.emit("li   a0, 0")
	g.label(g.retLbl)
	g.emit("ld   ra, -8(s0)")
	g.emit("mv   sp, s0")
	g.emit("ld   s0, -16(s0)")
	g.emit("ret")
	return nil
}

// storeSlotI stores integer register reg to the slot at s0-off.
func (g *codegen) storeSlotI(off int64, reg string) {
	if off <= 8191 {
		g.emit("sd   %s, -%d(s0)", reg, off)
		return
	}
	g.emit("li   t1, %d", off)
	g.emit("sub  t1, s0, t1")
	g.emit("sd   %s, 0(t1)", reg)
}

func (g *codegen) storeSlotF(off int64, reg string) {
	if off <= 8191 {
		g.emit("fsd  %s, -%d(s0)", reg, off)
		return
	}
	g.emit("li   t1, %d", off)
	g.emit("sub  t1, s0, t1")
	g.emit("fsd  %s, 0(t1)", reg)
}

// addrOfSlot materialises s0-off into reg.
func (g *codegen) addrOfSlot(off int64, reg string) {
	if off <= 8191 {
		g.emit("addi %s, s0, -%d", reg, off)
		return
	}
	g.emit("li   %s, %d", reg, off)
	g.emit("sub  %s, s0, %s", reg, reg)
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
			if v.ty.isFloat() {
				g.storeSlotF(li.off, "f0")
			} else {
				g.storeSlotI(li.off, "a0")
			}
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
			g.emit("j %s", endLbl)
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
		g.emit("j %s", top)
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
		g.emit("j %s", top)
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
		g.emit("j %s", g.retLbl)
		return nil
	case *breakStmt:
		if len(g.brk) == 0 {
			return g.errf(v.line, "break outside loop")
		}
		g.emit("j %s", g.brk[len(g.brk)-1])
		return nil
	case *continueStmt:
		if len(g.cont) == 0 {
			return g.errf(v.line, "continue outside loop")
		}
		g.emit("j %s", g.cont[len(g.cont)-1])
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
	g.emit("beqz a0, %s", falseLbl)
	return nil
}

// boolify turns the current value (a0/f0 per ty) into 0/1 in a0.
func (g *codegen) boolify(ty *Type) {
	if ty.isFloat() {
		g.emit("fli  f1, 0.0")
		g.emit("feq  a0, f0, f1")
		g.emit("xori a0, a0, 1")
	}
}
