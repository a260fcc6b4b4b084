package tcg

import (
	"encoding/binary"
	"fmt"
	"testing"

	"dqemu/internal/isa"
	"dqemu/internal/mem"
)

// fuzzAluOps is the pure-ALU alphabet FuzzSymEq decodes uops from, in the
// order the seeds were written for: nop, the register-register ops, the
// register-immediate ops, and a 64-bit literal move.
var fuzzAluOps = []isa.Op{
	isa.OpNOP, isa.OpADD, isa.OpSUB, isa.OpMUL, isa.OpDIV, isa.OpDIVU, isa.OpREM, isa.OpREMU,
	isa.OpAND, isa.OpOR, isa.OpXOR, isa.OpSLL, isa.OpSRL, isa.OpSRA, isa.OpSLT, isa.OpSLTU,
	isa.OpADDI, isa.OpANDI, isa.OpORI, isa.OpXORI, isa.OpSLLI, isa.OpSRLI, isa.OpSRAI, isa.OpSLTI,
	isa.OpMOVID,
}

// fuzzImms maps a byte to an immediate from the boundary battery plus raw
// small values, so decoded sequences hit carry/sign/shift edges often.
func fuzzImm(b byte, raw uint16) int64 {
	switch b % 8 {
	case 0:
		return 0
	case 1:
		return 1
	case 2:
		return -1
	case 3:
		return 63
	case 4:
		return int64(^uint64(0) >> 1) // MaxInt64
	case 5:
		return -int64(^uint64(0)>>1) - 1 // MinInt64
	case 6:
		return int64(int16(raw))
	default:
		return int64(raw)
	}
}

// decodeUops turns fuzz bytes into a short pure-ALU uop sequence, 5 bytes
// per uop. Like lowering, it makes a nop or a result into x0 a uNop.
func decodeUops(data []byte, maxOps int) []uop {
	var out []uop
	for len(data) >= 5 && len(out) < maxOps {
		u := uop{
			kind:      uPure,
			op:        fuzzAluOps[int(data[0])%len(fuzzAluOps)],
			rd:        data[1] & 31,
			rs1:       data[2] & 31,
			rs2:       data[3] & 31,
			selfInsns: 1, selfCost: 1,
		}
		raw := binary.LittleEndian.Uint16([]byte{data[3], data[4]})
		u.imm = fuzzImm(data[4], raw)
		if u.op == isa.OpMOVID {
			u.val = uint64(u.imm) * 0x9e3779b97f4a7c15
			u.imm = int64(u.val)
		}
		if u.op == isa.OpNOP || u.rd == 0 {
			u.kind = uNop
		}
		out = append(out, u)
		data = data[5:]
	}
	return out
}

// evalUop replays one pure uop on the reference executor: a block of the
// one instruction it lowers, its literal as the immediate, run by execBlock
// on the register file x.
func evalUop(e *Engine, u *uop, x *[32]uint64) error {
	switch u.kind {
	case uNop:
		return nil
	case uPure:
	default:
		return fmt.Errorf("tcg: evalUop: non-ALU uop %s", uopName(u))
	}
	ins := isa.Instruction{Op: u.op, Rd: u.rd, Rs1: u.rs1, Rs2: u.rs2, Imm: u.imm}
	b := &block{startPC: 0x1000, ops: []isa.Instruction{ins}, endPC: 0x1000 + uint64(ins.Size())}
	cpu := &CPU{X: *x, PC: b.startPC}
	var spent int64
	if _, res, stop := e.execBlock(cpu, b, &spent); stop {
		return fmt.Errorf("tcg: evalUop: %s stopped its block: %v %v", uopName(u), res.Reason, res.Err)
	}
	*x = cpu.X
	return nil
}

func fmtSeq(ops []uop) string {
	s := ""
	for i := range ops {
		if i > 0 {
			s += " ; "
		}
		u := &ops[i]
		s += fmt.Sprintf("%s rd=x%d rs1=x%d rs2=x%d imm=%d val=%#x",
			uopName(u), u.rd, u.rs1, u.rs2, u.imm, u.val)
	}
	return s
}

// replayDiverges runs both sequences concretely from a battery of shared
// register files and reports whether any run ends in different states.
func replayDiverges(ref, got []uop) bool {
	e := NewEngine(mem.NewSpace(0), DefaultCostModel())
	for t := 0; t < 48; t++ {
		var x0 [32]uint64
		for i := 1; i < 32; i++ {
			if t < 16 {
				x0[i] = batteryFile(t, i)
			} else {
				x0[i] = fuzzMix(uint64(t)*31 + uint64(i))
			}
		}
		xa, xb := x0, x0
		for i := range ref {
			if evalUop(e, &ref[i], &xa) != nil {
				return false // non-ALU decode: out of scope
			}
		}
		for i := range got {
			if evalUop(e, &got[i], &xb) != nil {
				return false
			}
		}
		if xa != xb {
			return true
		}
	}
	return false
}

func batteryFile(t, i int) uint64 {
	specials := [...]uint64{0, 1, ^uint64(0), 2, 63, 64, uint64(1) << 63,
		uint64(1)<<63 - 1, 0x5555555555555555, 0xaaaaaaaaaaaaaaaa,
		0xffffffff, 0xffffffff00000000, 3, 255, 0x8000000000000001, 7}
	return specials[(t+i)%len(specials)]
}

func fuzzMix(z uint64) uint64 {
	z += 0x9e3779b97f4a7c15
	z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9
	z = (z ^ (z >> 27)) * 0x94d049bb133111eb
	return z ^ (z >> 31)
}

// FuzzSymEq is the differential gate on the symbolic engine itself: for
// arbitrary pairs of pure-ALU uop sequences, a symbolic equivalence proof
// must never contradict concrete replay. (The converse — replay finding
// no divergence while the prover rejects — is fine: the prover is
// conservative and a missed proof only costs a demotion, never
// correctness.)
func FuzzSymEq(f *testing.F) {
	// addi fold: equivalent, must prove.
	f.Add([]byte{16, 1, 1, 0, 1, 16, 1, 1, 0, 1}, []byte{16, 1, 1, 0, 3})
	// Deliberately unsound rewrite: addi x1,x1,1 vs addi x1,x1,2 — the
	// prover must reject it (replay diverges on every file).
	f.Add([]byte{16, 1, 1, 0, 1}, []byte{16, 1, 1, 0, 3})
	// xor-self vs li 0.
	f.Add([]byte{10, 3, 7, 7, 0}, []byte{24, 3, 0, 0, 0})
	// Empty vs a dead nop.
	f.Add([]byte{}, []byte{0, 0, 0, 0, 0})
	// Shift chains at the amount boundary.
	f.Add([]byte{20, 2, 2, 0, 3, 22, 2, 2, 0, 3}, []byte{20, 2, 2, 0, 3, 22, 2, 2, 0, 3})

	f.Fuzz(func(t *testing.T, a, b []byte) {
		ref := decodeUops(a, 6)
		got := decodeUops(b, 6)
		err := symEquivSeq(ref, got)
		if err == nil && replayDiverges(ref, got) {
			t.Fatalf("symbolically proved equivalent but concrete replay diverges\nref: %s\ngot: %s",
				fmtSeq(ref), fmtSeq(got))
		}
	})
}

// TestFuzzSymEqSeedRejectsUnsound pins the corpus promise: the seed's
// unsound rewrite is rejected by the symbolic engine, not just by luck of
// the replay.
func TestFuzzSymEqSeedRejectsUnsound(t *testing.T) {
	ref := decodeUops([]byte{16, 1, 1, 0, 1}, 6)
	got := decodeUops([]byte{16, 1, 1, 0, 3}, 6)
	if len(ref) != 1 || len(got) != 1 || !isAddi(&ref[0]) || !isAddi(&got[0]) || ref[0].imm == got[0].imm {
		t.Fatalf("seed decode drifted: ref=%s got=%s", fmtSeq(ref), fmtSeq(got))
	}
	if err := symEquivSeq(ref, got); err == nil {
		t.Fatal("unsound seed rewrite proved equivalent")
	}
	if !replayDiverges(ref, got) {
		t.Fatal("unsound seed rewrite not caught by replay either")
	}
}
