package asm

import (
	"bytes"
	"math/rand"
	"sort"
	"strings"
	"testing"
	"time"

	"dqemu/internal/isa"
)

// typedProgram hands e one instruction of every mnemonic, each operand
// letter filled with a value of its kind, then one data item of every kind.
func typedProgram(e Emitter) {
	names := make([]string, 0, len(mnemonics))
	for name := range mnemonics {
		names = append(names, name)
	}
	sort.Strings(names)
	sample := func(letter byte, i int) Operand {
		switch letter {
		case argMem:
			return Mem(-16, R(isa.RegSP))
		case argAtomic:
			return Mem(0, R(isa.RegA0))
		case argFloat:
			return Float(-2.5e-7)
		case argConst:
			return Int(7)
		case argLi, argImm:
			return Int(-3)
		case argBranch, argJump, argAddr:
			return Sym("end")
		}
		return R(uint8(5 + i))
	}
	e.Section(Text)
	e.Label("_start")
	for _, name := range names {
		t := Op(name)
		var ops [3]Operand
		for i := 0; i < len(t.args); i++ {
			ops[i] = sample(t.args[i], i)
		}
		e.Ins(t, ops)
	}
	li := Op("li")
	for _, v := range []Operand{Int(1 << 40), Int(-1 << 20), Sym("end"), Sym("str")} {
		e.Ins(li, [3]Operand{R(isa.RegA0), v})
	}
	e.Label("end")
	e.Section(Data)
	e.Data(Align, Int(8))
	e.Data(Byte, Int(0xab))
	e.Data(Quad, Sym("end"))
	e.Data(Quad, Int(-5))
	e.Data(Double, Float(1e300))
	e.Data(Double, Float(-1.0/3))
	e.Section(Rodata)
	e.Label("str")
	e.Data(Asciz, Str("a\"b\\c\n\t\x00\x07\xff ;#// é"))
	e.Section(Bss)
	e.Data(Align, Int(16))
	e.Data(Space, Int(24))
}

// TestBuilderMatchesPrintedText: items handed to a Builder make the image
// their printed text assembles to, for every mnemonic and data kind.
func TestBuilderMatchesPrintedText(t *testing.T) {
	var p Printer
	typedProgram(&p)
	want, err := Assemble(Source{Name: "typed.s", Text: p.String()})
	if err != nil {
		t.Fatalf("printed text: %v\n%s", err, p.String())
	}
	b := (&Prefix{}).Builder("typed", 0)
	typedProgram(b)
	got, err := b.Link()
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got.Encode(), want.Encode()) {
		t.Errorf("the Builder's image differs from the printed text's:\n%s", p.String())
	}
}

// scanNumeric is findNumeric as a linear scan, the reference for its
// binary search.
func scanNumeric(list []numPos, forward bool, order int) (numPos, bool) {
	if forward {
		for _, p := range list {
			if p.order > order {
				return p, true
			}
		}
		return numPos{}, false
	}
	for i := len(list) - 1; i >= 0; i-- {
		if list[i].order < order {
			return list[i], true
		}
	}
	return numPos{}, false
}

// TestFindNumericMatchesScan holds the binary search to the scan over
// random mixes of definitions and references, both directions, with the
// definitions cut anywhere between a prefix and its fork.
func TestFindNumericMatchesScan(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	for trial := 0; trial < 500; trial++ {
		var defs []numPos
		var refs []int
		for order := 0; order < 1+rng.Intn(40); order++ {
			if rng.Intn(3) == 0 {
				defs = append(defs, numPos{order: order, symPos: symPos{off: uint64(order)}})
			} else {
				refs = append(refs, order)
			}
		}
		cut := rng.Intn(len(defs) + 1)
		a := assembler{preNumeric: map[string][]numPos{"1": defs[:cut]}, numeric: map[string][]numPos{"1": defs[cut:]}}
		for _, ref := range append(refs, -1, 1000) {
			for _, forward := range []bool{false, true} {
				got, gok := a.findNumeric("1", forward, ref)
				want, wok := scanNumeric(defs, forward, ref)
				if got != want || gok != wok {
					t.Fatalf("trial %d, ref %d, forward %v: %v %v, scan %v %v", trial, ref, forward, got, gok, want, wok)
				}
			}
		}
	}
}

// TestManyNumericLabels: 400k lines of "1:" and a reference to it assemble
// in seconds. Each reference scanned every "1:" before it, so a request of
// a few megabytes held dqemud's admission for hours.
func TestManyNumericLabels(t *testing.T) {
	const half = 200_000
	src := strings.Repeat("1:\tj 1b\n", half) + strings.Repeat("1:\tj 1f\n", half) + "1:\n"
	start := time.Now()
	im, err := Assemble(Source{Name: "many.s", Text: src})
	if err != nil {
		t.Fatal(err)
	}
	if took := time.Since(start); took > 5*time.Second {
		t.Errorf("%d lines took %v, want under 5s", 2*half, took)
	}
	text, _ := im.Text()
	for _, c := range []struct {
		at   int
		want int64
	}{{0, 0}, {half - 1, 0}, {half, 1}, {2*half - 1, 1}} {
		ins, _, err := isa.Decode(text.Data[4*c.at:])
		if err != nil || ins.Imm != c.want {
			t.Errorf("jump %d: %v (%v), want offset %d", c.at, ins, err, c.want)
		}
	}
}
