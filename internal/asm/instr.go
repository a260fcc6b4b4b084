package asm

import (
	"errors"
	"fmt"
	"math"
	"strconv"
	"strings"

	"dqemu/internal/isa"
)

// Operand kinds: one letter of a mnemonic's args per operand, naming what
// the operand is and the instruction field it fills. The four expression
// kinds are also the forms a fixup can have.
const (
	argRd, argRs1, argRs2    = 'd', 's', 't' // integer register
	argFRd, argFRs1, argFRs2 = 'D', 'S', 'T' // FP register
	argMem                   = 'm'           // offset(base): Rs1 and an argImm offset
	argAtomic                = 'a'           // (base), no offset: Rs1
	argFloat                 = 'f'           // float64 literal, its bits in Imm
	argConst                 = 'c'           // 14-bit constant known where it stands
	argLi                    = 'l'           // li: smallest encoding if known where it stands, else argAddr
	argImm                   = 'i'           // expression, Imm as it is
	argBranch                = 'b'           // expression, Imm = (value - pc) / 4
	argJump                  = 'j'           // as argBranch, worded as a jump
	argAddr                  = 'w'           // expression that must fit 32 bits (la)
)

// mnemonic is one row of the assembler's only instruction table: the
// instruction with its fixed fields, the operand kinds that fill the rest —
// one alternative per accepted operand count — and what to say when the
// count matches none.
type mnemonic struct {
	ins   isa.Instruction
	args  []string
	needs string
}

// needs is what an operand shape's mnemonics say when the count is wrong.
var needs = map[string]string{
	"":    "takes no operands",
	"dst": "needs rd, rs1, rs2",
	"dsi": "needs rd, rs1, imm",
	"dm":  "needs rd, offset(base)",
	"Dm":  "needs rd, offset(base)",
	"tm":  "needs rs, offset(base)",
	"Tm":  "needs rs, offset(base)",
	"stb": "needs rs1, rs2, target",
	"tsb": "needs rs1, rs2, target",
	"sb":  "needs rs, target",
	"tb":  "needs rs, target",
	"DST": "needs 3 operands",
	"DS":  "needs 2 operands",
	"dST": "needs rd, fs1, fs2",
	"dta": "needs rd, rs2, (rs1)",
	"di":  "needs rd, literal",
	"Df":  "needs fd, float",
	"dS":  "needs rd, rs",
	"Ds":  "needs rd, rs",
}

// mnemonics maps every mnemonic, alias and pseudo-instruction included. The
// canonical form of each op — its name and operand shape — comes from isa's
// table; written out here are only the rows that differ from it: defaults
// for omitted operands, aliases and pseudo-instructions.
var mnemonics = func() map[string]mnemonic {
	const ra, zero = isa.RegRA, isa.RegZero
	all := map[string]mnemonic{
		"jal":  {isa.Instruction{Op: isa.OpJAL, Rd: ra}, []string{"j", "dj"}, "needs [rd,] target"},
		"j":    {isa.Instruction{Op: isa.OpJAL, Rd: zero}, []string{"j"}, "needs a target"},
		"call": {isa.Instruction{Op: isa.OpJAL, Rd: ra}, []string{"j"}, "needs a target"},
		"jalr": {isa.Instruction{Op: isa.OpJALR, Rd: ra}, []string{"s", "ds", "dsi"}, "needs rd, rs1, imm"},
		"jr":   {isa.Instruction{Op: isa.OpJALR, Rd: zero}, []string{"s"}, "needs a register"},
		"ret":  {isa.Instruction{Op: isa.OpJALR, Rd: zero, Rs1: ra}, []string{""}, "takes no operands"},
		// li of a constant picks the smallest encoding; li of a
		// label-relative expression assumes a 32-bit value (all guest
		// addresses fit); lid always uses the 64-bit form.
		"li":   {isa.Instruction{Op: isa.OpMOVIW}, []string{"dl"}, "needs rd, expr"},
		"la":   {isa.Instruction{Op: isa.OpMOVIW}, []string{"dw"}, "needs rd, expr"},
		"lid":  {isa.Instruction{Op: isa.OpMOVID}, []string{"di"}, "needs rd, expr"},
		"mv":   {isa.Instruction{Op: isa.OpADDI}, []string{"ds"}, "needs rd, rs"},
		"not":  {isa.Instruction{Op: isa.OpXORI, Imm: -1}, []string{"ds"}, "needs rd, rs"},
		"neg":  {isa.Instruction{Op: isa.OpSUB, Rs1: zero}, []string{"dt"}, "needs rd, rs"},
		"snez": {isa.Instruction{Op: isa.OpSLTU, Rs1: zero}, []string{"dt"}, "needs rd, rs"},
		"seqz": {isa.Instruction{Op: isa.OpSLTU, Rs1: zero}, []string{"dt"}, "needs rd, rs"}, // then xori rd, rd, 1
		"svc":  {isa.Instruction{Op: isa.OpSVC}, []string{"", "c"}, "needs at most one operand"},
		"hint": {isa.Instruction{Op: isa.OpHINT}, []string{"", "c"}, "needs at most one operand"},
	}
	alias := func(args string, ops map[string]isa.Op) {
		for name, op := range ops {
			all[name] = mnemonic{isa.Instruction{Op: op}, []string{args}, needs[args]}
		}
	}
	// Aliases that reverse the operand order.
	alias("tsb", map[string]isa.Op{
		"bgt": isa.OpBLT, "ble": isa.OpBGE, "bgtu": isa.OpBLTU, "bleu": isa.OpBGEU})
	// Aliases comparing against zero, the register first or second.
	alias("sb", map[string]isa.Op{
		"beqz": isa.OpBEQ, "bnez": isa.OpBNE, "bltz": isa.OpBLT, "bgez": isa.OpBGE})
	alias("tb", map[string]isa.Op{"bgtz": isa.OpBLT, "blez": isa.OpBGE})
	alias("Df", map[string]isa.Op{"fli": isa.OpFMOVD})
	for op := isa.OpInvalid + 1; op.Valid(); op++ {
		if _, written := all[op.String()]; !written {
			all[op.String()] = mnemonic{isa.Instruction{Op: op}, []string{op.Shape()}, needs[op.Shape()]}
		}
	}
	return all
}()

// A Template is an instruction before its operands fill it: a row of
// mnemonics with one of its operand lists chosen.
type Template struct {
	name string
	ins  isa.Instruction
	args string
}

// Op returns the template of the mnemonic name with its fullest operand
// list (jal rd, target; svc n). It panics if there is no such mnemonic:
// templates are looked up once, by names written in code.
func Op(name string) *Template {
	m, ok := mnemonics[name]
	if !ok {
		panic("asm: no mnemonic " + strconv.Quote(name))
	}
	return &Template{name: name, ins: m.ins, args: m.args[len(m.args)-1]}
}

// instruction reads one instruction (or pseudo-instruction) of text into a
// template and its operand values, and encodes it.
func (a *assembler) instruction(word, rest string) {
	name := strings.ToLower(word)
	var strs [3]string
	n := operands(rest, strs[:]) // may be more than strs holds, which no mnemonic accepts
	m, ok := mnemonics[name]
	if !ok {
		a.errorf("%s: unknown instruction", name)
		return
	}
	t := Template{name: name, ins: m.ins, args: m.args[0]}
	for _, alt := range m.args[1:] {
		if len(alt) == n {
			t.args = alt
		}
	}
	if len(t.args) != n {
		a.errorf("%s: %s", name, m.needs)
		return
	}
	var ops [3]Operand
	for i := 0; i < n; i++ {
		var err error
		if ops[i], err = a.operand(t.args[i], strs[i]); err != nil {
			a.errorf("%s: %v", name, err)
			return
		}
	}
	a.ins(&t, &ops)
}

// operand reads one operand of text the way its letter says. An expression
// that is not all literals stays text, to be evaluated at link time; so do
// branch, jump and la targets, whatever they are.
func (a *assembler) operand(letter byte, s string) (Operand, error) {
	switch letter {
	case argRd, argRs1, argRs2:
		r, err := intReg(s)
		return R(r), err
	case argFRd, argFRs1, argFRs2:
		r, err := fReg(s)
		return R(r), err
	case argMem, argAtomic:
		off, base, err := parseMem(s)
		if err == nil && letter == argAtomic && off != "0" {
			err = errors.New("atomic address must be (reg) with no offset")
		}
		op := literal(off)
		op.reg = base
		return op, err
	case argFloat:
		f, err := strconv.ParseFloat(s, 64)
		if err != nil {
			return Operand{}, fmt.Errorf("bad float literal %q: %v", s, err)
		}
		return Float(f), nil
	case argConst:
		v, err := a.constExpr(s)
		return Int(v), err
	case argLi:
		if v, err := a.constExpr(s); err == nil {
			return Int(v), nil
		}
	case argImm:
		return literal(s), nil
	}
	return Sym(s), nil
}

// literal is the value of an expression that is all literals, else the
// expression, to be evaluated at link time.
func literal(expr string) Operand {
	if v, err := evalExpr(expr, nil); err == nil {
		return Int(v)
	}
	return Sym(expr)
}

// ins encodes the instruction t with its operand values: now if it needs
// no symbol and fits, else as a fixup that link resolves. Text reaches it
// through instruction, a compiler's items through Builder.Ins.
func (a *assembler) ins(t *Template, ops *[3]Operand) {
	ins, kind, val := t.ins, byte(0), Operand{}
	for i := 0; i < len(t.args); i++ {
		op := &ops[i]
		switch c := t.args[i]; c {
		case argRd, argFRd:
			ins.Rd = op.reg
		case argRs1, argFRs1, argAtomic:
			ins.Rs1 = op.reg
		case argRs2, argFRs2:
			ins.Rs2 = op.reg
		case argFloat, argConst:
			if c == argConst && (op.imm < isa.ImmMin14 || op.imm > isa.ImmMax14) {
				a.errorf("%s: operand %d out of range", t.name, op.imm)
				return
			}
			ins.Imm = op.imm
		case argLi:
			if op.link {
				kind, val = argAddr, *op
				break
			}
			switch v := op.imm; {
			case v >= isa.ImmMin14 && v <= isa.ImmMax14:
				ins.Op, ins.Rs1 = isa.OpADDI, isa.RegZero
			case v < math.MinInt32 || v > math.MaxInt32:
				ins.Op = isa.OpMOVID
			}
			ins.Imm = op.imm
		case argMem:
			ins.Rs1 = op.reg
			kind, val, ins.Imm = argImm, *op, op.imm
		default: // argImm, argBranch, argJump, argAddr
			kind, val, ins.Imm = c, *op, op.imm
		}
	}

	switch {
	case kind == 0:
		a.emitIns(ins)
	case kind != argImm || val.link || !a.emitIns(ins):
		// A symbol, a pc-relative target or an immediate that does not
		// fit is for link time.
		a.addFixup(kind, ins, val, int(ins.Size()))
	}
	if t.name == "seqz" {
		a.emitIns(isa.Instruction{Op: isa.OpXORI, Rd: ins.Rd, Rs1: ins.Rd, Imm: 1})
	}
}

// emitIns encodes an instruction at the cursor, and reports whether it
// could be encoded.
func (a *assembler) emitIns(ins isa.Instruction) bool {
	var scratch [12]byte
	b, err := ins.Encode(scratch[:0])
	if err == nil {
		a.emit(b)
	}
	return err == nil
}

func intReg(s string) (uint8, error) {
	n, ok := isa.IntRegNumber(s)
	if !ok { // not in the form the compiler writes: "A0", "( sp )"
		if n, ok = isa.IntRegNumber(strings.ToLower(strings.TrimSpace(s))); !ok {
			return 0, fmt.Errorf("bad integer register %q", s)
		}
	}
	return n, nil
}

func fReg(s string) (uint8, error) {
	n, ok := isa.FRegNumber(strings.ToLower(strings.TrimSpace(s)))
	if !ok {
		return 0, fmt.Errorf("bad FP register %q", s)
	}
	return n, nil
}

// parseMem parses "offsetExpr(base)" or "(base)"; the offset defaults to 0.
func parseMem(s string) (offExpr string, base uint8, err error) {
	s = trimSpace(s)
	if !strings.HasSuffix(s, ")") {
		return "", 0, fmt.Errorf("expected offset(base), got %q", s)
	}
	open := strings.LastIndexByte(s, '(')
	if open < 0 {
		return "", 0, fmt.Errorf("expected offset(base), got %q", s)
	}
	regName := s[open+1 : len(s)-1]
	base, err = intReg(regName)
	if err != nil {
		return "", 0, err
	}
	offExpr = trimSpace(s[:open])
	if offExpr == "" {
		offExpr = "0"
	}
	return offExpr, base, nil
}
