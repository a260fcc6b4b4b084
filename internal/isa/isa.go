// Package isa defines GA64, the guest instruction set architecture emulated
// by DQEMU. GA64 is a 64-bit RISC ISA in the spirit of AArch64/RISC-V: 32
// integer registers (X0 hardwired to zero), 32 double-precision FP
// registers, load-linked/store-conditional and compare-and-swap atomics, a
// fence, a syscall instruction, and a HINT instruction whose operand carries
// thread-group scheduling hints (paper §5.3).
//
// Instructions are 32-bit words except the two long-immediate forms MOVIW
// (one trailing 32-bit literal) and MOVID/FMOVD (two trailing literal
// words); the decoder handles the variable length, much as a real DBT
// front-end handles variable-length x86.
package isa

import "fmt"

// Op identifies a GA64 operation.
type Op uint8

// Integer register-register operations (format R).
const (
	OpInvalid Op = iota

	OpADD
	OpSUB
	OpMUL
	OpDIV  // signed; divide by zero yields all-ones, INT64_MIN/-1 yields INT64_MIN
	OpDIVU // unsigned
	OpREM
	OpREMU
	OpAND
	OpOR
	OpXOR
	OpSLL
	OpSRL
	OpSRA
	OpSLT
	OpSLTU

	// Integer register-immediate operations (format I).
	OpADDI
	OpANDI
	OpORI
	OpXORI
	OpSLLI
	OpSRLI
	OpSRAI
	OpSLTI

	// Long-immediate moves (format X, variable length).
	OpMOVIW // rd = sign-extended 32-bit literal; 8 bytes total
	OpMOVID // rd = 64-bit literal; 12 bytes total

	// Loads (format I: rd = mem[rs1+imm]).
	OpLB
	OpLBU
	OpLH
	OpLHU
	OpLW
	OpLWU
	OpLD

	// Stores (format S: mem[rs1+imm] = rs2).
	OpSB
	OpSH
	OpSW
	OpSD

	// Branches (format B: compare rs1,rs2; target = pc + imm*4).
	OpBEQ
	OpBNE
	OpBLT
	OpBGE
	OpBLTU
	OpBGEU

	// Jumps.
	OpJAL  // format J: rd = pc+4; pc += imm*4
	OpJALR // format I: rd = pc+4; pc = (rs1+imm) &^ 3 (targets are word-aligned)

	// Atomics. LL/SC mirror ARM's exclusive pair; CAS mirrors ARM v8.1 CAS.
	OpLL      // format I (imm=0): rd = mem64[rs1], open monitor
	OpSC      // format R: if monitor valid, mem64[rs1]=rs2, rd=0; else rd=1
	OpCAS     // format R: old=mem64[rs1]; if old==rd { mem64[rs1]=rs2 }; rd=old
	OpAMOADD  // format R: rd = mem64[rs1]; mem64[rs1] += rs2
	OpAMOSWAP // format R: rd = mem64[rs1]; mem64[rs1] = rs2
	OpFENCE   // format R (all fields zero): full barrier

	// System.
	OpSVC  // format I: syscall; number in A7 (X17), args A0..A5, result A0
	OpHINT // format I: scheduling hint, imm = thread group id; otherwise a no-op
	OpNOP  // format R
	OpHALT // format R: stop the vCPU (used by tests; _start uses exit syscall)
	OpEBREAK

	// Floating point (double precision). F-register indices share the 5-bit
	// fields; the format tables say which fields name F registers.
	OpFADD // format R: fd = fs1 + fs2
	OpFSUB
	OpFMUL
	OpFDIV
	OpFMIN
	OpFMAX
	OpFSQRT // format R: fd = sqrt(fs1)
	OpFNEG
	OpFABS
	OpFEXP // format R: fd = exp(fs1); libm folded into the ISA (see DESIGN.md)
	OpFLN  // format R: fd = ln(fs1)

	OpFLD // format I: fd = mem64[rs1+imm] as double
	OpFSD // format S: mem64[rs1+imm] = fs2 bits

	OpFMOVD  // format X: fd = 64-bit literal (bits of a double); 12 bytes
	OpFMV    // format R: fd = fs1
	OpFMVXD  // format R: rd = bits(fs1)
	OpFMVDX  // format R: fd = bitsToDouble(rs1)
	OpFCVTDL // format R: fd = double(int64 rs1)
	OpFCVTLD // format R: rd = int64(trunc fs1)
	OpFEQ    // format R: rd = fs1 == fs2
	OpFLT    // format R: rd = fs1 < fs2
	OpFLE    // format R: rd = fs1 <= fs2

	opMax // sentinel
)

// Format describes how an instruction word's fields are laid out.
type Format uint8

const (
	FormatR Format = iota // op | rd | rs1 | rs2 | funct9(unused)
	FormatI               // op | rd | rs1 | imm14 (signed)
	FormatS               // op | rs2 | rs1 | imm14 (signed)
	FormatB               // op | rs1 | rs2 | imm14 (signed, ×4)
	FormatJ               // op | rd | imm19 (signed, ×4)
	FormatX               // op | rd, plus 1 (MOVIW) or 2 (MOVID/FMOVD) literal words
)

// Instruction is one decoded GA64 instruction.
type Instruction struct {
	Op  Op
	Rd  uint8 // destination register (integer or FP per the op)
	Rs1 uint8
	Rs2 uint8
	Imm int64 // sign-extended immediate; for X-format, the full literal
}

// info captures the per-opcode static properties used by the encoder,
// decoder, disassembler and assembler.
type info struct {
	name   string
	format Format
	// args is the operand shape: one letter per operand of the assembly
	// syntax, in the order written. d s t name Rd Rs1 Rs2 as integer
	// registers and D S T as FP registers; m is offset(base) — Imm and Rs1 —
	// and a the offset-less (base) of the atomics; i is Imm as it stands, c
	// the same where the assembler wants a constant, b and j a branch or jump
	// target (Imm counts words, the text bytes), f Imm's bits as a float64.
	args string
}

var opInfo = [opMax]info{
	OpADD:  {name: "add", format: FormatR, args: "dst"},
	OpSUB:  {name: "sub", format: FormatR, args: "dst"},
	OpMUL:  {name: "mul", format: FormatR, args: "dst"},
	OpDIV:  {name: "div", format: FormatR, args: "dst"},
	OpDIVU: {name: "divu", format: FormatR, args: "dst"},
	OpREM:  {name: "rem", format: FormatR, args: "dst"},
	OpREMU: {name: "remu", format: FormatR, args: "dst"},
	OpAND:  {name: "and", format: FormatR, args: "dst"},
	OpOR:   {name: "or", format: FormatR, args: "dst"},
	OpXOR:  {name: "xor", format: FormatR, args: "dst"},
	OpSLL:  {name: "sll", format: FormatR, args: "dst"},
	OpSRL:  {name: "srl", format: FormatR, args: "dst"},
	OpSRA:  {name: "sra", format: FormatR, args: "dst"},
	OpSLT:  {name: "slt", format: FormatR, args: "dst"},
	OpSLTU: {name: "sltu", format: FormatR, args: "dst"},

	OpADDI: {name: "addi", format: FormatI, args: "dsi"},
	OpANDI: {name: "andi", format: FormatI, args: "dsi"},
	OpORI:  {name: "ori", format: FormatI, args: "dsi"},
	OpXORI: {name: "xori", format: FormatI, args: "dsi"},
	OpSLLI: {name: "slli", format: FormatI, args: "dsi"},
	OpSRLI: {name: "srli", format: FormatI, args: "dsi"},
	OpSRAI: {name: "srai", format: FormatI, args: "dsi"},
	OpSLTI: {name: "slti", format: FormatI, args: "dsi"},

	OpMOVIW: {name: "moviw", format: FormatX, args: "di"},
	OpMOVID: {name: "movid", format: FormatX, args: "di"},

	OpLB:  {name: "lb", format: FormatI, args: "dm"},
	OpLBU: {name: "lbu", format: FormatI, args: "dm"},
	OpLH:  {name: "lh", format: FormatI, args: "dm"},
	OpLHU: {name: "lhu", format: FormatI, args: "dm"},
	OpLW:  {name: "lw", format: FormatI, args: "dm"},
	OpLWU: {name: "lwu", format: FormatI, args: "dm"},
	OpLD:  {name: "ld", format: FormatI, args: "dm"},

	OpSB: {name: "sb", format: FormatS, args: "tm"},
	OpSH: {name: "sh", format: FormatS, args: "tm"},
	OpSW: {name: "sw", format: FormatS, args: "tm"},
	OpSD: {name: "sd", format: FormatS, args: "tm"},

	OpBEQ:  {name: "beq", format: FormatB, args: "stb"},
	OpBNE:  {name: "bne", format: FormatB, args: "stb"},
	OpBLT:  {name: "blt", format: FormatB, args: "stb"},
	OpBGE:  {name: "bge", format: FormatB, args: "stb"},
	OpBLTU: {name: "bltu", format: FormatB, args: "stb"},
	OpBGEU: {name: "bgeu", format: FormatB, args: "stb"},

	OpJAL:  {name: "jal", format: FormatJ, args: "dj"},
	OpJALR: {name: "jalr", format: FormatI, args: "dsi"},

	OpLL:      {name: "ll", format: FormatI, args: "dm"},
	OpSC:      {name: "sc", format: FormatR, args: "dta"},
	OpCAS:     {name: "cas", format: FormatR, args: "dta"},
	OpAMOADD:  {name: "amoadd", format: FormatR, args: "dta"},
	OpAMOSWAP: {name: "amoswap", format: FormatR, args: "dta"},
	OpFENCE:   {name: "fence", format: FormatR},

	OpSVC:    {name: "svc", format: FormatI, args: "c"},
	OpHINT:   {name: "hint", format: FormatI, args: "c"},
	OpNOP:    {name: "nop", format: FormatR},
	OpHALT:   {name: "halt", format: FormatR},
	OpEBREAK: {name: "ebreak", format: FormatR},

	OpFADD:  {name: "fadd", format: FormatR, args: "DST"},
	OpFSUB:  {name: "fsub", format: FormatR, args: "DST"},
	OpFMUL:  {name: "fmul", format: FormatR, args: "DST"},
	OpFDIV:  {name: "fdiv", format: FormatR, args: "DST"},
	OpFMIN:  {name: "fmin", format: FormatR, args: "DST"},
	OpFMAX:  {name: "fmax", format: FormatR, args: "DST"},
	OpFSQRT: {name: "fsqrt", format: FormatR, args: "DS"},
	OpFNEG:  {name: "fneg", format: FormatR, args: "DS"},
	OpFABS:  {name: "fabs", format: FormatR, args: "DS"},
	OpFEXP:  {name: "fexp", format: FormatR, args: "DS"},
	OpFLN:   {name: "fln", format: FormatR, args: "DS"},

	OpFLD: {name: "fld", format: FormatI, args: "Dm"},
	OpFSD: {name: "fsd", format: FormatS, args: "Tm"},

	OpFMOVD:  {name: "fmovd", format: FormatX, args: "Df"},
	OpFMV:    {name: "fmv", format: FormatR, args: "DS"},
	OpFMVXD:  {name: "fmv.x.d", format: FormatR, args: "dS"},
	OpFMVDX:  {name: "fmv.d.x", format: FormatR, args: "Ds"},
	OpFCVTDL: {name: "fcvt.d.l", format: FormatR, args: "Ds"},
	OpFCVTLD: {name: "fcvt.l.d", format: FormatR, args: "dS"},
	OpFEQ:    {name: "feq", format: FormatR, args: "dST"},
	OpFLT:    {name: "flt", format: FormatR, args: "dST"},
	OpFLE:    {name: "fle", format: FormatR, args: "dST"},
}

// Valid reports whether op names a defined operation.
func (op Op) Valid() bool { return op > OpInvalid && op < opMax && opInfo[op].name != "" }

// String returns the mnemonic.
func (op Op) String() string {
	if !op.Valid() {
		return fmt.Sprintf("op(%d)", uint8(op))
	}
	return opInfo[op].name
}

// Format returns the encoding format of op.
func (op Op) Format() Format {
	return opInfo[op].format
}

// Shape returns the operand shape of op's assembly syntax, one letter per
// operand (see info.args): what Disasm prints and the assembler's canonical
// form of the mnemonic parses.
func (op Op) Shape() string {
	return opInfo[op].args
}

// Immediate field limits.
const (
	ImmMin14 = -(1 << 13)
	ImmMax14 = 1<<13 - 1
	ImmMin19 = -(1 << 18)
	ImmMax19 = 1<<18 - 1
)

// Size returns the encoded size of the instruction in bytes.
func (ins Instruction) Size() int64 {
	switch ins.Op {
	case OpMOVIW:
		return 8
	case OpMOVID, OpFMOVD:
		return 12
	default:
		return 4
	}
}

// Encode appends the encoded instruction to buf (little-endian words) and
// returns the extended slice. It returns an error when a field is out of
// range, so the assembler can report the offending line.
func (ins Instruction) Encode(buf []byte) ([]byte, error) {
	if !ins.Op.Valid() {
		return buf, fmt.Errorf("isa: encode: invalid op %d", ins.Op)
	}
	if ins.Rd > 31 || ins.Rs1 > 31 || ins.Rs2 > 31 {
		return buf, fmt.Errorf("isa: encode %s: register out of range", ins.Op)
	}
	word := uint32(ins.Op)
	switch ins.Op.Format() {
	case FormatR:
		word |= uint32(ins.Rd)<<8 | uint32(ins.Rs1)<<13 | uint32(ins.Rs2)<<18
	case FormatI:
		if ins.Imm < ImmMin14 || ins.Imm > ImmMax14 {
			return buf, fmt.Errorf("isa: encode %s: immediate %d out of 14-bit range", ins.Op, ins.Imm)
		}
		word |= uint32(ins.Rd)<<8 | uint32(ins.Rs1)<<13 | uint32(ins.Imm&0x3fff)<<18
	case FormatS:
		if ins.Imm < ImmMin14 || ins.Imm > ImmMax14 {
			return buf, fmt.Errorf("isa: encode %s: immediate %d out of 14-bit range", ins.Op, ins.Imm)
		}
		word |= uint32(ins.Rs2)<<8 | uint32(ins.Rs1)<<13 | uint32(ins.Imm&0x3fff)<<18
	case FormatB:
		if ins.Imm < ImmMin14 || ins.Imm > ImmMax14 {
			return buf, fmt.Errorf("isa: encode %s: branch offset %d out of range", ins.Op, ins.Imm)
		}
		word |= uint32(ins.Rs1)<<8 | uint32(ins.Rs2)<<13 | uint32(ins.Imm&0x3fff)<<18
	case FormatJ:
		if ins.Imm < ImmMin19 || ins.Imm > ImmMax19 {
			return buf, fmt.Errorf("isa: encode %s: jump offset %d out of range", ins.Op, ins.Imm)
		}
		word |= uint32(ins.Rd)<<8 | uint32(ins.Imm&0x7ffff)<<13
	case FormatX:
		word |= uint32(ins.Rd) << 8
	}
	buf = appendWord(buf, word)
	switch ins.Op {
	case OpMOVIW:
		if ins.Imm < -(1<<31) || ins.Imm > 1<<31-1 {
			return buf[:len(buf)-4], fmt.Errorf("isa: encode moviw: literal %d out of 32-bit range", ins.Imm)
		}
		buf = appendWord(buf, uint32(ins.Imm))
	case OpMOVID, OpFMOVD:
		buf = appendWord(buf, uint32(uint64(ins.Imm)))
		buf = appendWord(buf, uint32(uint64(ins.Imm)>>32))
	}
	return buf, nil
}

// Decode decodes one instruction starting at code[0]. It returns the
// instruction and the number of bytes consumed.
func Decode(code []byte) (Instruction, int, error) {
	if len(code) < 4 {
		return Instruction{}, 0, fmt.Errorf("isa: decode: short code (%d bytes)", len(code))
	}
	word := readWord(code)
	op := Op(word & 0xff)
	if !op.Valid() {
		return Instruction{}, 0, fmt.Errorf("isa: decode: invalid opcode %#x", word&0xff)
	}
	ins := Instruction{Op: op}
	switch op.Format() {
	case FormatR:
		ins.Rd = uint8(word >> 8 & 31)
		ins.Rs1 = uint8(word >> 13 & 31)
		ins.Rs2 = uint8(word >> 18 & 31)
	case FormatI:
		ins.Rd = uint8(word >> 8 & 31)
		ins.Rs1 = uint8(word >> 13 & 31)
		ins.Imm = signExtend(int64(word>>18&0x3fff), 14)
	case FormatS:
		ins.Rs2 = uint8(word >> 8 & 31)
		ins.Rs1 = uint8(word >> 13 & 31)
		ins.Imm = signExtend(int64(word>>18&0x3fff), 14)
	case FormatB:
		ins.Rs1 = uint8(word >> 8 & 31)
		ins.Rs2 = uint8(word >> 13 & 31)
		ins.Imm = signExtend(int64(word>>18&0x3fff), 14)
	case FormatJ:
		ins.Rd = uint8(word >> 8 & 31)
		ins.Imm = signExtend(int64(word>>13&0x7ffff), 19)
	case FormatX:
		ins.Rd = uint8(word >> 8 & 31)
		switch op {
		case OpMOVIW:
			if len(code) < 8 {
				return Instruction{}, 0, fmt.Errorf("isa: decode moviw: truncated literal")
			}
			ins.Imm = int64(int32(readWord(code[4:])))
			return ins, 8, nil
		case OpMOVID, OpFMOVD:
			if len(code) < 12 {
				return Instruction{}, 0, fmt.Errorf("isa: decode %s: truncated literal", op)
			}
			ins.Imm = int64(uint64(readWord(code[4:])) | uint64(readWord(code[8:]))<<32)
			return ins, 12, nil
		}
	}
	return ins, 4, nil
}

// IsBranch reports whether the instruction may change control flow, i.e.
// whether it terminates a translation block.
func (ins Instruction) IsBranch() bool {
	switch ins.Op {
	case OpBEQ, OpBNE, OpBLT, OpBGE, OpBLTU, OpBGEU, OpJAL, OpJALR, OpHALT, OpEBREAK, OpSVC:
		return true
	}
	return false
}

func signExtend(v int64, bits uint) int64 {
	shift := 64 - bits
	return v << shift >> shift
}

func appendWord(buf []byte, w uint32) []byte {
	return append(buf, byte(w), byte(w>>8), byte(w>>16), byte(w>>24))
}

func readWord(b []byte) uint32 {
	return uint32(b[0]) | uint32(b[1])<<8 | uint32(b[2])<<16 | uint32(b[3])<<24
}
