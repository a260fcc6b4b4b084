package isa

import (
	"fmt"
	"math"
	"strings"
)

// Disasm renders ins in the assembler's input syntax: the mnemonic and one
// operand per letter of the op's shape.
func (ins Instruction) Disasm() string {
	var sb strings.Builder
	sb.WriteString(ins.Op.String())
	for i, kind := range []byte(ins.Op.Shape()) {
		if i == 0 {
			sb.WriteByte(' ')
		} else {
			sb.WriteString(", ")
		}
		switch kind {
		case 'd':
			sb.WriteString(IntRegName(ins.Rd))
		case 's':
			sb.WriteString(IntRegName(ins.Rs1))
		case 't':
			sb.WriteString(IntRegName(ins.Rs2))
		case 'D':
			sb.WriteString(FRegName(ins.Rd))
		case 'S':
			sb.WriteString(FRegName(ins.Rs1))
		case 'T':
			sb.WriteString(FRegName(ins.Rs2))
		case 'm':
			fmt.Fprintf(&sb, "%d(%s)", ins.Imm, IntRegName(ins.Rs1))
		case 'a':
			fmt.Fprintf(&sb, "(%s)", IntRegName(ins.Rs1))
		case 'i', 'c':
			fmt.Fprintf(&sb, "%d", ins.Imm)
		case 'b', 'j':
			fmt.Fprintf(&sb, "%d", ins.Imm*4)
		case 'f':
			fmt.Fprintf(&sb, "%g", math.Float64frombits(uint64(ins.Imm)))
		}
	}
	return sb.String()
}

// DisasmCode renders a code buffer one instruction per line, prefixed with
// the given base address. Undecodable words are rendered as ".word".
func DisasmCode(base uint64, code []byte) string {
	var sb strings.Builder
	for off := 0; off < len(code); {
		ins, n, err := Decode(code[off:])
		if err != nil {
			fmt.Fprintf(&sb, "%#08x:\t.word %#x\n", base+uint64(off), readWord(code[off:]))
			off += 4
			continue
		}
		fmt.Fprintf(&sb, "%#08x:\t%s\n", base+uint64(off), ins.Disasm())
		off += n
	}
	return sb.String()
}
