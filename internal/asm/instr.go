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

// instruction parses and emits one instruction (or pseudo-instruction).
func (a *assembler) instruction(word, rest string) {
	name := strings.ToLower(word)
	var ops [3]string
	if err := a.encode(name, ops[:], operands(rest, ops[:])); err != nil {
		a.errorf("%s: %v", name, err)
	}
}

// encode emits the instruction name with the n operands in ops (n may be
// more than ops holds, which no mnemonic accepts).
func (a *assembler) encode(name string, ops []string, n int) error {
	m, ok := mnemonics[name]
	if !ok {
		return fmt.Errorf("unknown instruction")
	}
	args := m.args[0]
	for _, alt := range m.args[1:] {
		if len(alt) == n {
			args = alt
		}
	}
	if len(args) != n {
		return errors.New(m.needs)
	}

	ins, kind, expr := m.ins, byte(0), ""
	for i := 0; i < len(args); i++ {
		op, err := ops[i], error(nil)
		switch args[i] {
		case argRd:
			ins.Rd, err = intReg(op)
		case argRs1:
			ins.Rs1, err = intReg(op)
		case argRs2:
			ins.Rs2, err = intReg(op)
		case argFRd:
			ins.Rd, err = fReg(op)
		case argFRs1:
			ins.Rs1, err = fReg(op)
		case argFRs2:
			ins.Rs2, err = fReg(op)
		case argMem:
			kind = argImm
			expr, ins.Rs1, err = parseMem(op)
		case argAtomic:
			var off string
			if off, ins.Rs1, err = parseMem(op); err == nil && off != "0" {
				err = fmt.Errorf("atomic address must be (reg) with no offset")
			}
		case argFloat:
			var f float64
			if f, err = strconv.ParseFloat(op, 64); err != nil {
				err = fmt.Errorf("bad float literal %q: %v", op, err)
			}
			ins.Imm = int64(math.Float64bits(f))
		case argConst:
			if ins.Imm, err = a.constExpr(op); err == nil && (ins.Imm < isa.ImmMin14 || ins.Imm > isa.ImmMax14) {
				err = fmt.Errorf("operand %d out of range", ins.Imm)
			}
		case argLi:
			kind, expr = argAddr, op
			if v, cerr := a.constExpr(op); cerr == nil {
				kind, ins.Imm = 0, v
				switch {
				case v >= isa.ImmMin14 && v <= isa.ImmMax14:
					ins.Op, ins.Rs1 = isa.OpADDI, isa.RegZero
				case v < math.MinInt32 || v > math.MaxInt32:
					ins.Op = isa.OpMOVID
				}
			}
		default:
			kind, expr = args[i], op
		}
		if err != nil {
			return err
		}
	}

	switch kind {
	case 0:
		a.emitIns(ins)
	case argImm:
		// All literals: encode now. A symbol, or any failure, is for
		// link time.
		if v, err := evalExpr(expr, nil); err == nil {
			now := ins
			now.Imm = v
			if a.emitIns(now) {
				break
			}
		}
		fallthrough
	default:
		a.addFixup(kind, ins, expr, int(ins.Size()))
	}
	if name == "seqz" {
		a.emitIns(isa.Instruction{Op: isa.OpXORI, Rd: ins.Rd, Rs1: ins.Rd, Imm: 1})
	}
	return nil
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
