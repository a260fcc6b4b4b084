package asm

import (
	"bytes"
	"reflect"
	"strings"
	"testing"

	"dqemu/internal/image"
	"dqemu/internal/isa"
)

// FuzzAssemble throws arbitrary source text at the assembler. Properties:
//
//  1. Assemble never panics — it either produces an image or a diagnostic,
//     whatever the input looks like.
//  2. Assembly is deterministic: the same source yields a deeply equal
//     image on a second run (no map-iteration or time dependence).
//  3. A prefix cannot be told from a fresh assembly: for every split of the
//     text at a line boundary, Prepare(head).Assemble(tail) gives what
//     Assemble(head, tail) gives — the same image bytes or the same
//     diagnostic — and gives it twice, so the first Assemble left nothing
//     of its labels, fixups or bytes behind in the prefix.
//  4. Instruction round-trip: every word the assembler emits into the text
//     segment re-encodes, via isa.Decode then isa.Encode, to the identical
//     bytes — the assembler and the ISA codec agree on every encoding it
//     can produce.
func FuzzAssemble(f *testing.F) {
	f.Add("_start:\n\tli a0, 42\n\thalt\n")
	f.Add("_start:\n\tli t0, 0x20000\n\tll a0, (t0)\n\tsc s0, a1, (t0)\n\thalt\n")
	f.Add(`
_start:
	jal ra, fn
	halt
fn:
	addi a0, a0, 1
	jalr x0, ra, 0
`)
	f.Add(".data\nv:\n\t.quad 7\n.text\n_start:\n\tld a0, v\n\thalt\n")
	f.Add("_start:\n1:\tbeq a0, a1, 1b\n\tbne a0, a1, 1f\n1:\thalt\n")
	f.Add("_start:\n\t.align 8\n\tmov a0, sp\n\tsvc\n\thalt\n")
	f.Add("bad source ï¿½\x00\x01")

	f.Fuzz(func(t *testing.T, text string) {
		im, err := Assemble(Source{Name: "fuzz.s", Text: text})
		im2, err2 := Assemble(Source{Name: "fuzz.s", Text: text})
		if (err == nil) != (err2 == nil) || !reflect.DeepEqual(im, im2) {
			t.Fatalf("assembly not deterministic (err %v vs %v)", err, err2)
		}
		checkSplits(t, text)
		if err != nil {
			return
		}
		for _, seg := range im.Segments {
			if seg.Writable || seg.Name != "text" {
				continue
			}
			for off := 0; off+4 <= len(seg.Data); {
				ins, n, derr := isa.Decode(seg.Data[off:])
				if derr != nil {
					// Data directives interleaved in .text are legal; skip
					// the word and keep scanning.
					off += 4
					continue
				}
				re, eerr := ins.Encode(nil)
				if eerr != nil {
					t.Fatalf("emitted instruction does not re-encode: %v at +%#x: %v", ins, off, eerr)
				}
				if !reflect.DeepEqual(re, seg.Data[off:off+n]) {
					t.Fatalf("round-trip mismatch at +%#x: %v\nassembler % x\nre-encode % x",
						off, ins, seg.Data[off:off+n], re)
				}
				off += n
			}
		}
	})
}

// outcome is what two assemblies must agree on: the encoded image or the
// diagnostic.
func outcome(im *image.Image, err error) []byte {
	if err != nil {
		return []byte("error: " + err.Error())
	}
	return im.Encode()
}

func checkSplits(t *testing.T, text string) {
	t.Helper()
	for cut := 0; cut >= 0 && cut <= len(text); {
		head := Source{Name: "head.s", Text: text[:cut]}
		tail := Source{Name: "tail.s", Text: text[cut:]}
		want := outcome(Assemble(head, tail))
		p, err := Prepare(Options{}, head)
		for round := 0; round < 2; round++ {
			var got []byte
			if err != nil {
				got = outcome(nil, err)
			} else {
				got = outcome(p.Assemble(tail))
			}
			if !bytes.Equal(got, want) {
				t.Fatalf("split at byte %d, Assemble %d on the prefix:\n got  %.200q\n want %.200q", cut, round, got, want)
			}
		}
		next := strings.IndexByte(text[cut:], '\n')
		if next < 0 {
			break
		}
		cut += next + 1
	}
}
