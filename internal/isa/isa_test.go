package isa

import (
	"math"
	"math/rand"
	"strings"
	"testing"
	"testing/quick"
)

func TestOpStringsUnique(t *testing.T) {
	seen := map[string]Op{}
	for op := OpInvalid + 1; op < opMax; op++ {
		if !op.Valid() {
			t.Fatalf("op %d has no info entry", op)
		}
		name := op.String()
		if prev, dup := seen[name]; dup {
			t.Errorf("duplicate mnemonic %q for ops %d and %d", name, prev, op)
		}
		seen[name] = op
	}
}

func TestEncodeDecodeRoundtripBasic(t *testing.T) {
	cases := []Instruction{
		{Op: OpADD, Rd: 1, Rs1: 2, Rs2: 3},
		{Op: OpADDI, Rd: 10, Rs1: 2, Imm: -8},
		{Op: OpADDI, Rd: 10, Rs1: 2, Imm: ImmMax14},
		{Op: OpADDI, Rd: 10, Rs1: 2, Imm: ImmMin14},
		{Op: OpSD, Rs1: 2, Rs2: 10, Imm: 16},
		{Op: OpBEQ, Rs1: 5, Rs2: 6, Imm: -100},
		{Op: OpJAL, Rd: 1, Imm: ImmMax19},
		{Op: OpJAL, Rd: 1, Imm: ImmMin19},
		{Op: OpMOVIW, Rd: 7, Imm: -123456789},
		{Op: OpMOVID, Rd: 7, Imm: -1},
		{Op: OpMOVID, Rd: 7, Imm: math.MaxInt64},
		{Op: OpFMOVD, Rd: 3, Imm: int64(math.Float64bits(3.14159))},
		{Op: OpFADD, Rd: 1, Rs1: 2, Rs2: 3},
		{Op: OpSVC, Imm: 0},
		{Op: OpHINT, Imm: 42},
		{Op: OpCAS, Rd: 10, Rs1: 11, Rs2: 12},
		{Op: OpLL, Rd: 9, Rs1: 8},
		{Op: OpFENCE},
		{Op: OpHALT},
	}
	for _, want := range cases {
		buf, err := want.Encode(nil)
		if err != nil {
			t.Fatalf("encode %+v: %v", want, err)
		}
		if int64(len(buf)) != want.Size() {
			t.Errorf("%s: encoded %d bytes, Size()=%d", want.Op, len(buf), want.Size())
		}
		got, n, err := Decode(buf)
		if err != nil {
			t.Fatalf("decode %s: %v", want.Op, err)
		}
		if n != len(buf) {
			t.Errorf("%s: decode consumed %d of %d bytes", want.Op, n, len(buf))
		}
		if got != want {
			t.Errorf("roundtrip: got %+v want %+v", got, want)
		}
	}
}

// randomInstruction builds a random but encodable instruction.
func randomInstruction(r *rand.Rand) Instruction {
	for {
		op := Op(r.Intn(int(opMax)-1) + 1)
		if !op.Valid() {
			continue
		}
		ins := Instruction{Op: op}
		switch op.Format() {
		case FormatR:
			ins.Rd = uint8(r.Intn(32))
			ins.Rs1 = uint8(r.Intn(32))
			ins.Rs2 = uint8(r.Intn(32))
		case FormatI:
			ins.Rd = uint8(r.Intn(32))
			ins.Rs1 = uint8(r.Intn(32))
			ins.Imm = int64(r.Intn(ImmMax14-ImmMin14+1)) + ImmMin14
		case FormatS, FormatB:
			ins.Rs1 = uint8(r.Intn(32))
			ins.Rs2 = uint8(r.Intn(32))
			ins.Imm = int64(r.Intn(ImmMax14-ImmMin14+1)) + ImmMin14
		case FormatJ:
			ins.Rd = uint8(r.Intn(32))
			ins.Imm = int64(r.Intn(ImmMax19-ImmMin19+1)) + ImmMin19
		case FormatX:
			ins.Rd = uint8(r.Intn(32))
			if op == OpMOVIW {
				ins.Imm = int64(int32(r.Uint32()))
			} else {
				ins.Imm = int64(r.Uint64())
			}
		}
		return ins
	}
}

func TestEncodeDecodeRoundtripQuick(t *testing.T) {
	r := rand.New(rand.NewSource(1))
	f := func() bool {
		want := randomInstruction(r)
		buf, err := want.Encode(nil)
		if err != nil {
			t.Logf("encode %+v: %v", want, err)
			return false
		}
		got, n, err := Decode(buf)
		if err != nil || n != len(buf) || got != want {
			t.Logf("roundtrip %+v -> %+v (n=%d err=%v)", want, got, n, err)
			return false
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 5000}); err != nil {
		t.Error(err)
	}
}

func TestEncodeRangeErrors(t *testing.T) {
	bad := []Instruction{
		{Op: OpADDI, Imm: ImmMax14 + 1},
		{Op: OpADDI, Imm: ImmMin14 - 1},
		{Op: OpJAL, Imm: ImmMax19 + 1},
		{Op: OpBEQ, Imm: ImmMin14 - 1},
		{Op: OpMOVIW, Imm: 1 << 32},
		{Op: OpADD, Rd: 32},
		{Op: OpInvalid},
	}
	for _, ins := range bad {
		if _, err := ins.Encode(nil); err == nil {
			t.Errorf("encode %+v: expected error", ins)
		}
	}
}

func TestDecodeErrors(t *testing.T) {
	if _, _, err := Decode([]byte{1, 2}); err == nil {
		t.Error("short buffer: expected error")
	}
	if _, _, err := Decode([]byte{0xff, 0, 0, 0}); err == nil {
		t.Error("invalid opcode: expected error")
	}
	// MOVID with truncated literal.
	buf, err := Instruction{Op: OpMOVID, Rd: 1, Imm: 42}.Encode(nil)
	if err != nil {
		t.Fatal(err)
	}
	if _, _, err := Decode(buf[:8]); err == nil {
		t.Error("truncated movid literal: expected error")
	}
}

func TestRegisterNames(t *testing.T) {
	for i := uint8(0); i < NumRegs; i++ {
		name := IntRegName(i)
		n, ok := IntRegNumber(name)
		if !ok || n != i {
			t.Errorf("IntRegNumber(%q) = %d, %v; want %d", name, n, ok, i)
		}
	}
	if n, ok := IntRegNumber("a0"); !ok || n != RegA0 {
		t.Errorf("a0 -> %d, %v", n, ok)
	}
	if n, ok := IntRegNumber("x31"); !ok || n != 31 {
		t.Errorf("x31 -> %d, %v", n, ok)
	}
	if _, ok := IntRegNumber("x32"); ok {
		t.Error("x32 should not resolve")
	}
	if n, ok := FRegNumber("f31"); !ok || n != 31 {
		t.Errorf("f31 -> %d, %v", n, ok)
	}
	for _, bad := range []string{"f32", "f-1", "f1x", "g0"} {
		if _, ok := FRegNumber(bad); ok {
			t.Errorf("FRegNumber(%q) should fail", bad)
		}
	}
}

// TestIntRegNumberMatchesTable holds IntRegNumber's decoded names to the
// regNames table it short-cuts, over every string of one to four bytes
// from [a-z0-9]: a8, t9, s10, x32 and x01 stay unknown, as in the table.
func TestIntRegNumberMatchesTable(t *testing.T) {
	const alphabet = "abcdefghijklmnopqrstuvwxyz0123456789"
	var buf [4]byte
	var walk func(n int)
	walk = func(n int) {
		if n > 0 {
			name := string(buf[:n])
			want, wok := regNames[name]
			if got, ok := IntRegNumber(name); got != want || ok != wok {
				t.Fatalf("IntRegNumber(%q) = %d, %v; regNames has %d, %v", name, got, ok, want, wok)
			}
		}
		if n == len(buf) {
			return
		}
		for i := 0; i < len(alphabet); i++ {
			buf[n] = alphabet[i]
			walk(n + 1)
		}
	}
	walk(0)
}

func TestIsBranch(t *testing.T) {
	branch := []Op{OpBEQ, OpBNE, OpBLT, OpBGE, OpBLTU, OpBGEU, OpJAL, OpJALR, OpHALT, OpEBREAK, OpSVC}
	for _, op := range branch {
		if !(Instruction{Op: op}).IsBranch() {
			t.Errorf("%s should be a branch", op)
		}
	}
	for _, op := range []Op{OpADD, OpLD, OpSD, OpCAS, OpHINT, OpFENCE} {
		if (Instruction{Op: op}).IsBranch() {
			t.Errorf("%s should not be a branch", op)
		}
	}
}

func TestDisasm(t *testing.T) {
	cases := []struct {
		ins  Instruction
		want string
	}{
		{Instruction{Op: OpADD, Rd: 10, Rs1: 11, Rs2: 12}, "add a0, a1, a2"},
		{Instruction{Op: OpADDI, Rd: 2, Rs1: 2, Imm: -16}, "addi sp, sp, -16"},
		{Instruction{Op: OpLD, Rd: 10, Rs1: 2, Imm: 8}, "ld a0, 8(sp)"},
		{Instruction{Op: OpSD, Rs2: 10, Rs1: 2, Imm: 8}, "sd a0, 8(sp)"},
		{Instruction{Op: OpBEQ, Rs1: 10, Rs2: 0, Imm: 4}, "beq a0, zero, 16"},
		{Instruction{Op: OpJAL, Rd: 1, Imm: -2}, "jal ra, -8"},
		{Instruction{Op: OpSVC, Imm: 0}, "svc 0"},
		{Instruction{Op: OpHINT, Imm: 3}, "hint 3"},
		{Instruction{Op: OpCAS, Rd: 10, Rs2: 11, Rs1: 12}, "cas a0, a1, (a2)"},
		{Instruction{Op: OpFADD, Rd: 0, Rs1: 1, Rs2: 2}, "fadd f0, f1, f2"},
		{Instruction{Op: OpNOP}, "nop"},
	}
	for _, c := range cases {
		if got := c.ins.Disasm(); got != c.want {
			t.Errorf("Disasm(%+v) = %q, want %q", c.ins, got, c.want)
		}
	}
}

func TestDisasmCode(t *testing.T) {
	var buf []byte
	var err error
	for _, ins := range []Instruction{
		{Op: OpMOVIW, Rd: 10, Imm: 7},
		{Op: OpADD, Rd: 11, Rs1: 10, Rs2: 10},
		{Op: OpHALT},
	} {
		buf, err = ins.Encode(buf)
		if err != nil {
			t.Fatal(err)
		}
	}
	out := DisasmCode(0x1000, buf)
	for _, want := range []string{"moviw a0, 7", "add a1, a0, a0", "halt"} {
		if !strings.Contains(out, want) {
			t.Errorf("disassembly missing %q:\n%s", want, out)
		}
	}
}
