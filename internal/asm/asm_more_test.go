package asm

import (
	"strings"
	"testing"

	"dqemu/internal/isa"
)

func TestAllInstructionForms(t *testing.T) {
	// One of every mnemonic family the assembler accepts.
	im := mustAssemble(t, `
_start:
	add  a0, a1, a2
	sub  a0, a1, a2
	mul  a0, a1, a2
	div  a0, a1, a2
	divu a0, a1, a2
	rem  a0, a1, a2
	remu a0, a1, a2
	and  a0, a1, a2
	or   a0, a1, a2
	xor  a0, a1, a2
	sll  a0, a1, a2
	srl  a0, a1, a2
	sra  a0, a1, a2
	slt  a0, a1, a2
	sltu a0, a1, a2
	addi a0, a1, 1
	andi a0, a1, 1
	ori  a0, a1, 1
	xori a0, a1, 1
	slli a0, a1, 1
	srli a0, a1, 1
	srai a0, a1, 1
	slti a0, a1, 1
	lb   a0, (a1)
	lbu  a0, (a1)
	lh   a0, (a1)
	lhu  a0, (a1)
	lw   a0, (a1)
	lwu  a0, (a1)
	ld   a0, (a1)
	sb   a0, (a1)
	sh   a0, (a1)
	sw   a0, (a1)
	sd   a0, (a1)
tgt:
	beq  a0, a1, tgt
	bne  a0, a1, tgt
	blt  a0, a1, tgt
	bge  a0, a1, tgt
	bltu a0, a1, tgt
	bgeu a0, a1, tgt
	bgt  a0, a1, tgt
	ble  a0, a1, tgt
	bgtu a0, a1, tgt
	bleu a0, a1, tgt
	beqz a0, tgt
	bnez a0, tgt
	bltz a0, tgt
	bgez a0, tgt
	bgtz a0, tgt
	blez a0, tgt
	jal  tgt
	jal  t0, tgt
	jalr a0, a1, 4
	jalr a1
	j    tgt
	call tgt
	jr   a0
	ret
	ll   a0, (a1)
	sc   a0, a1, (a2)
	cas  a0, a1, (a2)
	amoadd  a0, a1, (a2)
	amoswap a0, a1, (a2)
	fence
	svc  1
	hint 2
	nop
	halt
	ebreak
	fadd f0, f1, f2
	fsub f0, f1, f2
	fmul f0, f1, f2
	fdiv f0, f1, f2
	fmin f0, f1, f2
	fmax f0, f1, f2
	fsqrt f0, f1
	fneg  f0, f1
	fabs  f0, f1
	fexp  f0, f1
	fln   f0, f1
	fmv   f0, f1
	fld  f0, (a0)
	fsd  f0, (a0)
	fmovd f0, 1.5
	fli   f1, -2.5
	fmv.x.d a0, f1
	fmv.d.x f1, a0
	fcvt.d.l f1, a0
	fcvt.l.d a0, f1
	feq  a0, f1, f2
	flt  a0, f1, f2
	fle  a0, f1, f2
	li   a0, 1
	li   a0, 70000
	lid  a0, 0x1122334455667788
	la   a0, tgt
	mv   a0, a1
	not  a0, a1
	neg  a0, a1
	seqz a0, a1
	snez a0, a1
	moviw a0, 5
	movid a0, 5
`)
	seg, _ := im.Text()
	// Everything must disassemble back.
	out := isa.DisasmCode(seg.Addr, seg.Data)
	if strings.Contains(out, ".word") {
		t.Errorf("undecodable instruction in output:\n%s", out)
	}
}

func TestMoreErrors(t *testing.T) {
	cases := map[string]string{
		"branch out of range": "_start:\n\tbeq a0, a1, far\n\t.space 40000\nfar:\tnop\n",
		"arity r":             "_start:\n\tadd a0, a1\n",
		"arity load":          "_start:\n\tld a0\n",
		"arity store":         "_start:\n\tsd a0\n",
		"arity branch":        "_start:\n\tbeq a0, tgt\ntgt:\n",
		"bad float":           "_start:\n\tfli f0, xyz\n",
		"fp reg in int":       "_start:\n\tadd f0, a1, a2\n",
		"int reg in fp":       "_start:\n\tfadd a0, f1, f2\n",
		"bare with operand":   "_start:\n\tfence a0\n",
		"svc two ops":         "_start:\n\tsvc 1, 2\n",
		"bad align":           ".data\n\t.align 3\n",
		"align zero":          ".data\n\t.align 0\n",
		"space negative":      ".data\n\t.space -5\n",
		"space 3 args":        ".data\n\t.space 1, 2, 3\n",
		"equ redefined":       ".equ A, 1\nA:\n",
		"label after equ":     "B:\n\t.equ B, 1\n",
		"equ one arg":         ".equ C\n",
		"ascii unquoted":      ".data\n\t.ascii hello\n",
		"double garbage":      ".data\n\t.double zzz\n",
		"li missing arg":      "_start:\n\tli a0\n",
		"empty label":         ":\n",
		"li too big forward":  "_start:\n\tli a0, lab + 0x100000000\nlab:\tnop\n",
	}
	for name, src := range cases {
		if _, err := Assemble(Source{Name: name, Text: src}); err == nil {
			t.Errorf("%s: expected error", name)
		}
	}
}

func TestLidForwardReference(t *testing.T) {
	im := mustAssemble(t, `
_start:
	lid a0, bigval
	halt
	.equ other, 1
	.data
bigval: .quad 0
`)
	ins := decodeText(t, im)
	if ins[0].Op != isa.OpMOVID {
		t.Errorf("lid = %+v", ins[0])
	}
}

func TestTextAlignPadsWithNops(t *testing.T) {
	im := mustAssemble(t, `
_start:
	nop
	.align 16
after:
	halt
`)
	ins := decodeText(t, im)
	for i := 0; i < len(ins)-1; i++ {
		if ins[i].Op != isa.OpNOP {
			t.Errorf("pad instruction %d = %v", i, ins[i].Op)
		}
	}
	addr, _ := im.Symbol("after")
	if addr%16 != 0 {
		t.Errorf("after not aligned: %#x", addr)
	}
}

func TestAssembleOptionsTextBase(t *testing.T) {
	im, err := AssembleOptions(Options{TextBase: 0x40000}, Source{Name: "t", Text: "_start:\n\thalt\n"})
	if err != nil {
		t.Fatal(err)
	}
	if im.Entry != 0x40000 {
		t.Errorf("entry = %#x", im.Entry)
	}
}

func TestEquUsedInSpace(t *testing.T) {
	im := mustAssemble(t, `
	.equ SIZE, 3*16
	.bss
buf:	.space SIZE
	.text
_start:	halt
`)
	var bssSize uint64
	for _, seg := range im.Segments {
		if seg.Name == "bss" {
			bssSize = seg.MemSize
		}
	}
	if bssSize != 48 {
		t.Errorf("bss size = %d", bssSize)
	}
}

// TestEveryOpHasCanonicalForm: every op of isa's table is a mnemonic whose
// fullest operand list is the shape the disassembler prints, with a message
// for a wrong operand count — so a new op, or a new shape, cannot reach the
// assembler half-described.
func TestEveryOpHasCanonicalForm(t *testing.T) {
	for op := isa.OpInvalid + 1; op.Valid(); op++ {
		m, ok := mnemonics[op.String()]
		if !ok || m.ins.Op != op {
			t.Errorf("%s: mnemonic row %+v", op, m)
			continue
		}
		if full := m.args[len(m.args)-1]; full != op.Shape() {
			t.Errorf("%s: assembles %q, disassembles %q", op, full, op.Shape())
		}
		if m.needs == "" {
			t.Errorf("%s: shape %q has no operand-count message", op, op.Shape())
		}
	}
}
