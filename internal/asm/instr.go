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

// mnemonics maps every mnemonic, alias and pseudo-instruction included.
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
	form := func(args, needs string, ops map[string]isa.Op) {
		for name, op := range ops {
			all[name] = mnemonic{isa.Instruction{Op: op}, []string{args}, needs}
		}
	}
	form("dst", "needs rd, rs1, rs2", map[string]isa.Op{
		"add": isa.OpADD, "sub": isa.OpSUB, "mul": isa.OpMUL,
		"div": isa.OpDIV, "divu": isa.OpDIVU, "rem": isa.OpREM, "remu": isa.OpREMU,
		"and": isa.OpAND, "or": isa.OpOR, "xor": isa.OpXOR,
		"sll": isa.OpSLL, "srl": isa.OpSRL, "sra": isa.OpSRA,
		"slt": isa.OpSLT, "sltu": isa.OpSLTU})
	form("dsi", "needs rd, rs1, imm", map[string]isa.Op{
		"addi": isa.OpADDI, "andi": isa.OpANDI, "ori": isa.OpORI, "xori": isa.OpXORI,
		"slli": isa.OpSLLI, "srli": isa.OpSRLI, "srai": isa.OpSRAI, "slti": isa.OpSLTI})
	form("dm", "needs rd, offset(base)", map[string]isa.Op{
		"lb": isa.OpLB, "lbu": isa.OpLBU, "lh": isa.OpLH, "lhu": isa.OpLHU,
		"lw": isa.OpLW, "lwu": isa.OpLWU, "ld": isa.OpLD, "ll": isa.OpLL})
	form("Dm", "needs rd, offset(base)", map[string]isa.Op{"fld": isa.OpFLD})
	form("tm", "needs rs, offset(base)", map[string]isa.Op{
		"sb": isa.OpSB, "sh": isa.OpSH, "sw": isa.OpSW, "sd": isa.OpSD})
	form("Tm", "needs rs, offset(base)", map[string]isa.Op{"fsd": isa.OpFSD})
	form("stb", "needs rs1, rs2, target", map[string]isa.Op{
		"beq": isa.OpBEQ, "bne": isa.OpBNE, "blt": isa.OpBLT,
		"bge": isa.OpBGE, "bltu": isa.OpBLTU, "bgeu": isa.OpBGEU})
	// Aliases that reverse the operand order.
	form("tsb", "needs rs1, rs2, target", map[string]isa.Op{
		"bgt": isa.OpBLT, "ble": isa.OpBGE, "bgtu": isa.OpBLTU, "bleu": isa.OpBGEU})
	// Aliases comparing against zero, the register first or second.
	form("sb", "needs rs, target", map[string]isa.Op{
		"beqz": isa.OpBEQ, "bnez": isa.OpBNE, "bltz": isa.OpBLT, "bgez": isa.OpBGE})
	form("tb", "needs rs, target", map[string]isa.Op{"bgtz": isa.OpBLT, "blez": isa.OpBGE})
	form("DST", "needs 3 operands", map[string]isa.Op{
		"fadd": isa.OpFADD, "fsub": isa.OpFSUB, "fmul": isa.OpFMUL, "fdiv": isa.OpFDIV,
		"fmin": isa.OpFMIN, "fmax": isa.OpFMAX})
	form("DS", "needs 2 operands", map[string]isa.Op{
		"fsqrt": isa.OpFSQRT, "fneg": isa.OpFNEG, "fabs": isa.OpFABS,
		"fexp": isa.OpFEXP, "fln": isa.OpFLN, "fmv": isa.OpFMV})
	form("dST", "needs rd, fs1, fs2", map[string]isa.Op{
		"feq": isa.OpFEQ, "flt": isa.OpFLT, "fle": isa.OpFLE})
	form("dta", "needs rd, rs2, (rs1)", map[string]isa.Op{
		"sc": isa.OpSC, "cas": isa.OpCAS, "amoadd": isa.OpAMOADD, "amoswap": isa.OpAMOSWAP})
	form("", "takes no operands", map[string]isa.Op{
		"fence": isa.OpFENCE, "nop": isa.OpNOP, "halt": isa.OpHALT, "ebreak": isa.OpEBREAK})
	form("di", "needs rd, literal", map[string]isa.Op{"moviw": isa.OpMOVIW, "movid": isa.OpMOVID})
	form("Df", "needs fd, float", map[string]isa.Op{"fmovd": isa.OpFMOVD, "fli": isa.OpFMOVD})
	form("dS", "needs rd, rs", map[string]isa.Op{"fmv.x.d": isa.OpFMVXD, "fcvt.l.d": isa.OpFCVTLD})
	form("Ds", "needs rd, rs", map[string]isa.Op{"fmv.d.x": isa.OpFMVDX, "fcvt.d.l": isa.OpFCVTDL})
	return all
}()

// instruction parses and emits one instruction (or pseudo-instruction).
func (a *assembler) instruction(line string) {
	word, rest := splitWord(line)
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
	s = strings.TrimSpace(s)
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
	offExpr = strings.TrimSpace(s[:open])
	if offExpr == "" {
		offExpr = "0"
	}
	return offExpr, base, nil
}
