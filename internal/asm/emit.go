package asm

import (
	"math"
	"strconv"
	"strings"

	"dqemu/internal/image"
	"dqemu/internal/isa"
)

// An Emitter receives a program the way a compiler describes it, one item
// at a time: an instruction template with its operands, a label, a section
// switch or a data item, each as parsed text would give it, and the source
// line the items that follow come from. A Builder encodes the items into
// an image; a Printer writes them as the text that assembles to the same
// image.
type Emitter interface {
	Line(n int)
	Section(s Section)
	Label(name string)
	Ins(t *Template, ops [3]Operand)
	Data(k DataKind, op Operand)
}

// A Section is where the items that follow it go.
type Section int

const (
	Text   Section = secText
	Rodata Section = secRodata
	Data   Section = secData
	Bss    Section = secBss
)

// A DataKind is the directive a data item stands for.
type DataKind uint8

const (
	Align  DataKind = iota // .align n
	Space                  // .space n
	Byte                   // .byte v
	Quad                   // .quad v, or the address of a symbol
	Double                 // .double f
	Asciz                  // .asciz "s", from Str
)

var dataNames = [...]string{Align: ".align", Space: ".space", Byte: ".byte", Quad: ".quad", Double: ".double", Asciz: ".asciz"}

// An Operand is the value that fills one letter of a template, or a data
// item. R is register n, integer or FP as the letter says; Int is an
// integer; Float a float64, as its bits; Sym the address of a symbol; Mem
// is off(base), or (base) for an atomic with off 0; Str the bytes of an
// Asciz.
type Operand struct {
	sym  string // the symbol, or Str's bytes; from text, any expression
	imm  int64
	reg  uint8
	link bool // the value is sym's, evaluated when the image is linked
}

func R(n uint8) Operand                   { return Operand{reg: n} }
func Int(v int64) Operand                 { return Operand{imm: v} }
func Float(f float64) Operand             { return Operand{imm: int64(math.Float64bits(f))} }
func Sym(name string) Operand             { return Operand{sym: name, link: true} }
func Mem(off int64, base Operand) Operand { return Operand{imm: off, reg: base.reg} }
func Str(s string) Operand                { return Operand{sym: s} }

// A Builder encodes the items it receives after a prefix's sources, as if
// they were one more source file, and Link makes the image.
type Builder struct{ a assembler }

// Builder starts a build that continues the prefix, with room for code
// bytes of machine code; file names the items in diagnostics, with the
// line Line last gave.
func (p *Prefix) Builder(file string, code int) *Builder {
	b := &Builder{a: p.fork(code)}
	b.a.file, b.a.cur = file, secText
	return b
}

func (b *Builder) Line(n int)                      { b.a.line = n }
func (b *Builder) Section(s Section)               { b.a.cur = int(s) }
func (b *Builder) Label(name string)               { b.a.defineLabel(name) }
func (b *Builder) Ins(t *Template, ops [3]Operand) { b.a.ins(t, &ops) }

func (b *Builder) Data(k DataKind, op Operand) {
	switch a := &b.a; k {
	case Align:
		a.align(op.imm, nil)
	case Space:
		a.space(op.imm, 0, nil)
	case Byte:
		a.data(1, op)
	case Quad:
		a.data(8, op)
	case Double:
		a.emitUint(uint64(op.imm), 8)
	case Asciz:
		a.emit(append([]byte(op.sym), 0))
	}
}

// Link reports the first error among the items, else links the image.
func (b *Builder) Link() (*image.Image, error) {
	if b.a.err != nil {
		return nil, b.a.err
	}
	return b.a.link()
}

// A Printer writes the items it receives as assembly text, one per line.
type Printer struct{ strings.Builder }

func (p *Printer) Line(int)          {}
func (p *Printer) Section(s Section) { p.WriteString("\t." + sectionNames[s] + "\n") }
func (p *Printer) Label(name string) { p.WriteString(name); p.WriteString(":\n") }

// Ins writes the mnemonic, then its operands after it is padded to five
// columns (or after one blank).
func (p *Printer) Ins(t *Template, ops [3]Operand) {
	p.WriteByte('\t')
	p.WriteString(t.name)
	for i := 0; i < len(t.args); i++ {
		switch {
		case i > 0:
			p.WriteString(", ")
		case len(t.name) < 5:
			p.WriteString("     "[len(t.name):])
		default:
			p.WriteByte(' ')
		}
		p.operand(t.args[i], ops[i])
	}
	p.WriteByte('\n')
}

func (p *Printer) Data(k DataKind, op Operand) {
	p.WriteByte('\t')
	p.WriteString(dataNames[k])
	p.WriteByte(' ')
	switch k {
	case Double:
		p.operand(argFloat, op)
	case Asciz:
		p.quote(op.sym)
	default:
		p.operand(argImm, op)
	}
	p.WriteByte('\n')
}

func (p *Printer) operand(letter byte, op Operand) {
	var num [32]byte
	switch letter {
	case argRd, argRs1, argRs2:
		p.WriteString(isa.IntRegName(op.reg))
	case argFRd, argFRs1, argFRs2:
		p.WriteByte('f')
		p.Write(strconv.AppendUint(num[:0], uint64(op.reg), 10))
	case argFloat:
		p.Write(strconv.AppendFloat(num[:0], math.Float64frombits(uint64(op.imm)), 'g', 17, 64))
	case argMem, argAtomic:
		if letter == argMem {
			p.operand(argImm, op)
		}
		p.WriteByte('(')
		p.WriteString(isa.IntRegName(op.reg))
		p.WriteByte(')')
	default:
		if op.link {
			p.WriteString(op.sym)
		} else {
			p.Write(strconv.AppendInt(num[:0], op.imm, 10))
		}
	}
}

// quote writes s as a string literal that unescape reads back byte for
// byte: printable ASCII but " and \ as itself, every other byte as \xNN.
func (p *Printer) quote(s string) {
	const hex = "0123456789abcdef"
	p.WriteByte('"')
	for i := 0; i < len(s); i++ {
		if c := s[i]; c >= ' ' && c < 0x7f && c != '"' && c != '\\' {
			p.WriteByte(c)
		} else {
			p.WriteString(`\x`)
			p.WriteByte(hex[c>>4])
			p.WriteByte(hex[c&15])
		}
	}
	p.WriteByte('"')
}
