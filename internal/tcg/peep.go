// Mined peephole rules for the micro-op stream.
//
// In the learned-translation-rules model, candidate rewrites are not
// hand-picked: cmd/dqemu-peep mines recurring micro-op sequences from
// -profile runs (the uopseq.* counters emitted by UopSeqProfile), matches
// them against the rule schemas below, proves every candidate sound for
// all register inputs with the symbolic engine (ProveRuleSymbolic, with
// the uop-encoded immediates swept over a boundary battery) and
// cross-checks it by randomized differential state replay (ProveRule),
// and writes the surviving set to the checked-in rules file under a
// mandatory schema-version directive. The engine applies the enabled
// rules in peepPass, between trace lowering and segmentation, so closure
// compilation sees the shrunken stream.
//
// Soundness boundary: every schema rewrites pure ALU uops only. ALU uops
// cannot fault, exit the trace, or be observed mid-sequence (no exit can
// separate two adjacent straight-line uops), so "same final register
// state on every input" — which ProveRuleSymbolic proves and ProveRule
// samples — is the whole correctness story. Virtual-time cost and retired-
// instruction counts are carried over unchanged (selfCost/selfInsns sum),
// so the simulation's timing is identical with rules on or off; only host
// work shrinks.
package tcg

import (
	_ "embed"
	"fmt"
	"math/rand"
	"sort"
	"strconv"
	"strings"
)

//go:embed rules/peep.rules
var defaultRulesText string

// kindNames maps uop kinds to the short names used in mined uopseq.*
// counters and in the rules file.
var kindNames = [...]string{
	uNop: "nop",
	uAdd: "add", uSub: "sub", uMul: "mul", uDiv: "div", uDivU: "divu",
	uRem: "rem", uRemU: "remu", uAnd: "and", uOr: "or", uXor: "xor",
	uSll: "sll", uSrl: "srl", uSra: "sra", uSlt: "slt", uSltu: "sltu",
	uAddi: "addi", uAndi: "andi", uOri: "ori", uXori: "xori",
	uSlli: "slli", uSrli: "srli", uSrai: "srai", uSlti: "slti",
	uLi:   "li",
	uLoad: "load", uStore: "store", uFLoad: "fload", uFStore: "fstore",
	uSanRead: "sanread", uSanWrite: "sanwrite",
	uGuard: "guard", uFusedCmpGuard: "cmpguard",
	uBranchExit: "brexit", uFusedCmpExit: "cmpexit",
	uLink: "link", uJalExit: "jalexit", uJalrExit: "jalrexit",
	uLoopBack: "loopback", uExit: "exit",
	uLL: "ll", uSC: "sc", uCAS: "cas", uAmoAdd: "amoadd", uAmoSwap: "amoswap",
	uFence:   "fence",
	uSvcExit: "svc", uHint: "hint", uHaltExit: "halt", uEbreakExit: "ebreak",
	uFAdd: "fadd", uFSub: "fsub", uFMul: "fmul", uFDiv: "fdiv",
	uFMin: "fmin", uFMax: "fmax", uFSqrt: "fsqrt", uFNeg: "fneg",
	uFAbs: "fabs", uFExp: "fexp", uFLn: "fln", uFMovImm: "fmovi",
	uFMv: "fmv", uFMvXD: "fmvxd", uFMvDX: "fmvdx",
	uFCvtDL: "fcvtdl", uFCvtLD: "fcvtld",
	uFEq: "feq", uFLt: "flt", uFLe: "fle",
}

func kindName(k uopKind) string {
	if int(k) < len(kindNames) && kindNames[k] != "" {
		return kindNames[k]
	}
	return "u" + strconv.Itoa(int(k))
}

// peepSchema is one rewrite shape. Pair schemas merge two adjacent uops
// into one; unary schemas rewrite a single uop in place; tri schemas
// rewrite a three-uop window into a shorter replacement sequence. Gen
// functions produce random matching instances for the soundness proof.
type peepSchema struct {
	name string
	seq  string // uopseq key that triggers mining this schema
	doc  string

	pair  func(a, b *uop) (uop, bool)
	unary func(u *uop) (uop, bool)
	tri   func(a, b, c *uop) ([]uop, bool)

	genPair  func(r *rand.Rand) (uop, uop)
	genUnary func(r *rand.Rand) uop
	genTri   func(r *rand.Rand) (uop, uop, uop)
}

// mergePair folds two adjacent uops into one, preserving the aggregate
// virtual cost and retired-instruction count (timing is rule-invariant).
func mergePair(a, b *uop, kind uopKind, rd uint8, val uint64) (uop, bool) {
	if int(a.selfInsns)+int(b.selfInsns) > 255 {
		return uop{}, false
	}
	m := *b
	m.kind = kind
	m.rd = rd
	m.val = val
	m.imm = 0
	m.rs1, m.rs2 = 0, 0
	m.pc = a.pc
	m.selfCost = a.selfCost + b.selfCost
	m.selfInsns = a.selfInsns + b.selfInsns
	return m, true
}

// rewriteTo rewrites one uop in place to kind/val, keeping cost accounting.
func rewriteTo(u *uop, kind uopKind, val uint64) uop {
	m := *u
	m.kind = kind
	m.val = val
	m.imm = 0
	m.rs1, m.rs2 = 0, 0
	return m
}

func randReg(r *rand.Rand) uint8 { return uint8(1 + r.Intn(31)) }

// allPeepSchemas is the full schema catalog. The checked-in rules file
// selects the mined-and-proven subset the engine actually applies.
var allPeepSchemas = []peepSchema{
	{
		name: "li-addi", seq: "li-addi",
		doc: "li rd,C ; addi rd,rd,I  ->  li rd,C+I",
		pair: func(a, b *uop) (uop, bool) {
			if a.kind != uLi || b.kind != uAddi || b.rd != a.rd || b.rs1 != a.rd {
				return uop{}, false
			}
			return mergePair(a, b, uLi, a.rd, a.val+uint64(b.imm))
		},
		genPair: func(r *rand.Rand) (uop, uop) {
			rd := randReg(r)
			a := uop{kind: uLi, rd: rd, val: r.Uint64(), selfInsns: 1, selfCost: 1, exit: -1, exit2: -1}
			b := uop{kind: uAddi, rd: rd, rs1: rd, imm: int64(r.Uint64()), selfInsns: 1, selfCost: 1, exit: -1, exit2: -1}
			return a, b
		},
	},
	{
		name: "li-slli", seq: "li-slli",
		doc: "li rd,C ; slli rd,rd,S  ->  li rd,C<<S",
		pair: func(a, b *uop) (uop, bool) {
			if a.kind != uLi || b.kind != uSlli || b.rd != a.rd || b.rs1 != a.rd {
				return uop{}, false
			}
			return mergePair(a, b, uLi, a.rd, a.val<<(uint64(b.imm)&63))
		},
		genPair: func(r *rand.Rand) (uop, uop) {
			rd := randReg(r)
			a := uop{kind: uLi, rd: rd, val: r.Uint64(), selfInsns: 1, selfCost: 1, exit: -1, exit2: -1}
			b := uop{kind: uSlli, rd: rd, rs1: rd, imm: int64(r.Uint64()), selfInsns: 1, selfCost: 1, exit: -1, exit2: -1}
			return a, b
		},
	},
	{
		name: "li-dead", seq: "li-li",
		doc: "li rd,C1 ; li rd,C2  ->  li rd,C2 (dead store)",
		pair: func(a, b *uop) (uop, bool) {
			if a.kind != uLi || b.kind != uLi || b.rd != a.rd {
				return uop{}, false
			}
			return mergePair(a, b, uLi, a.rd, b.val)
		},
		genPair: func(r *rand.Rand) (uop, uop) {
			rd := randReg(r)
			a := uop{kind: uLi, rd: rd, val: r.Uint64(), selfInsns: 1, selfCost: 1, exit: -1, exit2: -1}
			b := uop{kind: uLi, rd: rd, val: r.Uint64(), selfInsns: 1, selfCost: 1, exit: -1, exit2: -1}
			return a, b
		},
	},
	{
		name: "addi-fold", seq: "addi-addi",
		doc: "addi rd,rs,I1 ; addi rd,rd,I2  ->  addi rd,rs,I1+I2",
		pair: func(a, b *uop) (uop, bool) {
			if a.kind != uAddi || b.kind != uAddi || b.rd != a.rd || b.rs1 != a.rd {
				return uop{}, false
			}
			if int(a.selfInsns)+int(b.selfInsns) > 255 {
				return uop{}, false
			}
			m := *b
			m.rs1 = a.rs1
			m.imm = a.imm + b.imm
			m.pc = a.pc
			m.selfCost = a.selfCost + b.selfCost
			m.selfInsns = a.selfInsns + b.selfInsns
			return m, true
		},
		genPair: func(r *rand.Rand) (uop, uop) {
			rd := randReg(r)
			a := uop{kind: uAddi, rd: rd, rs1: uint8(r.Intn(32)), imm: int64(r.Uint64()), selfInsns: 1, selfCost: 1, exit: -1, exit2: -1}
			b := uop{kind: uAddi, rd: rd, rs1: rd, imm: int64(r.Uint64()), selfInsns: 1, selfCost: 1, exit: -1, exit2: -1}
			return a, b
		},
	},
	{
		name: "mv-bounce", seq: "addi-addi",
		doc: "addi rd,rs,0 ; addi rs,rd,0  ->  addi rd,rs,0 (the bounce-back is an identity)",
		pair: func(a, b *uop) (uop, bool) {
			if a.kind != uAddi || b.kind != uAddi || a.imm != 0 || b.imm != 0 ||
				b.rd != a.rs1 || b.rs1 != a.rd || a.rd == 0 || a.rs1 == 0 {
				return uop{}, false
			}
			if int(a.selfInsns)+int(b.selfInsns) > 255 {
				return uop{}, false
			}
			m := *b
			m.rd = a.rd
			m.rs1 = a.rs1
			m.pc = a.pc
			m.selfCost = a.selfCost + b.selfCost
			m.selfInsns = a.selfInsns + b.selfInsns
			return m, true
		},
		genPair: func(r *rand.Rand) (uop, uop) {
			rd, rs := randReg(r), randReg(r)
			a := uop{kind: uAddi, rd: rd, rs1: rs, imm: 0, selfInsns: 1, selfCost: 1, exit: -1, exit2: -1}
			b := uop{kind: uAddi, rd: rs, rs1: rd, imm: 0, selfInsns: 1, selfCost: 1, exit: -1, exit2: -1}
			return a, b
		},
	},
	{
		name: "addi-zero", seq: "addi",
		doc: "addi rd,rd,0  ->  nop",
		unary: func(u *uop) (uop, bool) {
			if u.kind != uAddi || u.imm != 0 || u.rd != u.rs1 {
				return uop{}, false
			}
			return rewriteTo(u, uNop, 0), true
		},
		genUnary: func(r *rand.Rand) uop {
			rd := randReg(r)
			return uop{kind: uAddi, rd: rd, rs1: rd, imm: 0, selfInsns: 1, selfCost: 1, exit: -1, exit2: -1}
		},
	},
	{
		name: "xor-self", seq: "xor",
		doc: "xor rd,a,a  ->  li rd,0",
		unary: func(u *uop) (uop, bool) {
			if u.kind != uXor || u.rs1 != u.rs2 {
				return uop{}, false
			}
			return rewriteTo(u, uLi, 0), true
		},
		genUnary: func(r *rand.Rand) uop {
			rs := uint8(r.Intn(32))
			return uop{kind: uXor, rd: randReg(r), rs1: rs, rs2: rs, selfInsns: 1, selfCost: 1, exit: -1, exit2: -1}
		},
	},
	{
		name: "sub-self", seq: "sub",
		doc: "sub rd,a,a  ->  li rd,0",
		unary: func(u *uop) (uop, bool) {
			if u.kind != uSub || u.rs1 != u.rs2 {
				return uop{}, false
			}
			return rewriteTo(u, uLi, 0), true
		},
		genUnary: func(r *rand.Rand) uop {
			rs := uint8(r.Intn(32))
			return uop{kind: uSub, rd: randReg(r), rs1: rs, rs2: rs, selfInsns: 1, selfCost: 1, exit: -1, exit2: -1}
		},
	},
	{
		name: "and-self", seq: "and",
		doc: "and rd,rd,rd  ->  nop",
		unary: func(u *uop) (uop, bool) {
			if u.kind != uAnd || u.rs1 != u.rd || u.rs2 != u.rd {
				return uop{}, false
			}
			return rewriteTo(u, uNop, 0), true
		},
		genUnary: func(r *rand.Rand) uop {
			rd := randReg(r)
			return uop{kind: uAnd, rd: rd, rs1: rd, rs2: rd, selfInsns: 1, selfCost: 1, exit: -1, exit2: -1}
		},
	},
	{
		name: "or-self", seq: "or",
		doc: "or rd,rd,rd  ->  nop",
		unary: func(u *uop) (uop, bool) {
			if u.kind != uOr || u.rs1 != u.rd || u.rs2 != u.rd {
				return uop{}, false
			}
			return rewriteTo(u, uNop, 0), true
		},
		genUnary: func(r *rand.Rand) uop {
			rd := randReg(r)
			return uop{kind: uOr, rd: rd, rs1: rd, rs2: rd, selfInsns: 1, selfCost: 1, exit: -1, exit2: -1}
		},
	},
	{
		name: "andi-zero", seq: "andi",
		doc: "andi rd,a,0  ->  li rd,0",
		unary: func(u *uop) (uop, bool) {
			if u.kind != uAndi || u.imm != 0 {
				return uop{}, false
			}
			return rewriteTo(u, uLi, 0), true
		},
		genUnary: func(r *rand.Rand) uop {
			return uop{kind: uAndi, rd: randReg(r), rs1: uint8(r.Intn(32)), imm: 0, selfInsns: 1, selfCost: 1, exit: -1, exit2: -1}
		},
	},
	{
		name: "addi-tri", seq: "addi-addi-addi",
		doc: "addi r1,s,I ; addi r2,t,J ; addi r1,r1,K  ->  addi r2,t,J ; addi r1,s,I+K (fold across an independent addi)",
		tri: func(a, b, c *uop) ([]uop, bool) {
			if a.kind != uAddi || b.kind != uAddi || c.kind != uAddi {
				return nil, false
			}
			// c folds into a; b is independent of a's destination in both
			// directions (does not read it, does not clobber it, and does
			// not produce a's source), so moving it ahead of the fold is a
			// pure commute.
			if c.rd != a.rd || c.rs1 != a.rd || a.rd == 0 || b.rd == 0 ||
				b.rd == a.rd || b.rs1 == a.rd || b.rd == a.rs1 || b.rd == c.rd {
				return nil, false
			}
			if int(a.selfInsns)+int(c.selfInsns) > 255 {
				return nil, false
			}
			m := *c
			m.rs1 = a.rs1
			m.imm = a.imm + c.imm
			m.pc = a.pc
			m.selfCost = a.selfCost + c.selfCost
			m.selfInsns = a.selfInsns + c.selfInsns
			return []uop{*b, m}, true
		},
		genTri: func(r *rand.Rand) (uop, uop, uop) {
			r1 := randReg(r)
			r2 := randReg(r)
			for r2 == r1 {
				r2 = randReg(r)
			}
			s := uint8(r.Intn(32))
			for s == r2 {
				s = uint8(r.Intn(32))
			}
			t := uint8(r.Intn(32))
			for t == r1 {
				t = uint8(r.Intn(32))
			}
			a := uop{kind: uAddi, rd: r1, rs1: s, imm: int64(r.Uint64()), selfInsns: 1, selfCost: 1, exit: -1, exit2: -1}
			b := uop{kind: uAddi, rd: r2, rs1: t, imm: int64(r.Uint64()), selfInsns: 1, selfCost: 1, exit: -1, exit2: -1}
			c := uop{kind: uAddi, rd: r1, rs1: r1, imm: int64(r.Uint64()), selfInsns: 1, selfCost: 1, exit: -1, exit2: -1}
			return a, b, c
		},
	},
}

// peepSchemas resolves the enabled schema set once per engine.
func (e *Engine) peepSchemas() []*peepSchema {
	if e.NoPeephole {
		return nil
	}
	if !e.peepInit {
		e.peepInit = true
		rules := e.PeepRules
		if rules == nil {
			rules = defaultPeepRules
		}
		for i := range allPeepSchemas {
			if rules[allPeepSchemas[i].name] {
				e.peepOn = append(e.peepOn, &allPeepSchemas[i])
			}
		}
	}
	return e.peepOn
}

// peepPass applies the enabled rules to a freshly lowered uop array, before
// segmentation, rewriting in place. Merges re-expose the previous uop, so
// chains (li;addi;slli;...) collapse in one left-to-right sweep. The uop
// under rewrite is out's last element, never a local: a local whose address
// reaches the schema func values would be one heap object per uop.
func (e *Engine) peepPass(ops []uop) []uop {
	schemas := e.peepSchemas()
	if len(schemas) == 0 {
		return ops
	}
	out := ops[:0]
	for i := range ops {
		out = append(out, ops[i])
		for applied := true; applied; {
			applied = false
			for _, s := range schemas {
				n := len(out)
				if s.unary != nil {
					if m, ok := s.unary(&out[n-1]); ok {
						out[n-1] = m
						e.Stats.PeepApplied++
						applied = true
					}
				}
				if s.pair != nil && n > 1 {
					if m, ok := s.pair(&out[n-2], &out[n-1]); ok {
						out = append(out[:n-2], m)
						e.Stats.PeepApplied++
						applied = true
					}
				}
				if n = len(out); s.tri != nil && n > 2 {
					if repl, ok := s.tri(&out[n-3], &out[n-2], &out[n-1]); ok && len(repl) > 0 {
						out = append(out[:n-3], repl...)
						e.Stats.PeepApplied++
						applied = true
					}
				}
			}
		}
	}
	return out
}

// evalUop executes one pure ALU uop against a register file — the reference
// semantics for the soundness proof, mirroring compileMid's closures case for
// case.
func evalUop(u *uop, x *[32]uint64) error {
	switch u.kind {
	case uNop:
	case uAdd:
		x[u.rd] = x[u.rs1] + x[u.rs2]
	case uSub:
		x[u.rd] = x[u.rs1] - x[u.rs2]
	case uMul:
		x[u.rd] = x[u.rs1] * x[u.rs2]
	case uDiv:
		x[u.rd] = uint64(sdiv(int64(x[u.rs1]), int64(x[u.rs2])))
	case uDivU:
		if x[u.rs2] == 0 {
			x[u.rd] = ^uint64(0)
		} else {
			x[u.rd] = x[u.rs1] / x[u.rs2]
		}
	case uRem:
		x[u.rd] = uint64(srem(int64(x[u.rs1]), int64(x[u.rs2])))
	case uRemU:
		if x[u.rs2] == 0 {
			x[u.rd] = x[u.rs1]
		} else {
			x[u.rd] = x[u.rs1] % x[u.rs2]
		}
	case uAnd:
		x[u.rd] = x[u.rs1] & x[u.rs2]
	case uOr:
		x[u.rd] = x[u.rs1] | x[u.rs2]
	case uXor:
		x[u.rd] = x[u.rs1] ^ x[u.rs2]
	case uSll:
		x[u.rd] = x[u.rs1] << (x[u.rs2] & 63)
	case uSrl:
		x[u.rd] = x[u.rs1] >> (x[u.rs2] & 63)
	case uSra:
		x[u.rd] = uint64(int64(x[u.rs1]) >> (x[u.rs2] & 63))
	case uSlt:
		x[u.rd] = b2u(int64(x[u.rs1]) < int64(x[u.rs2]))
	case uSltu:
		x[u.rd] = b2u(x[u.rs1] < x[u.rs2])
	case uAddi:
		x[u.rd] = x[u.rs1] + uint64(u.imm)
	case uAndi:
		x[u.rd] = x[u.rs1] & uint64(u.imm)
	case uOri:
		x[u.rd] = x[u.rs1] | uint64(u.imm)
	case uXori:
		x[u.rd] = x[u.rs1] ^ uint64(u.imm)
	case uSlli:
		x[u.rd] = x[u.rs1] << (uint64(u.imm) & 63)
	case uSrli:
		x[u.rd] = x[u.rs1] >> (uint64(u.imm) & 63)
	case uSrai:
		x[u.rd] = uint64(int64(x[u.rs1]) >> (uint64(u.imm) & 63))
	case uSlti:
		x[u.rd] = b2u(int64(x[u.rs1]) < u.imm)
	case uLi:
		x[u.rd] = u.val
	default:
		return fmt.Errorf("tcg: evalUop: non-ALU uop %s", kindName(u.kind))
	}
	return nil
}

// PeepRuleInfo describes one rule schema for external tools.
type PeepRuleInfo struct {
	Name string // rules-file identifier
	Seq  string // uopseq.* counter key that mines this schema
	Doc  string // human-readable rewrite
}

// PeepRuleCatalog lists every schema the engine knows, in application order.
func PeepRuleCatalog() []PeepRuleInfo {
	out := make([]PeepRuleInfo, len(allPeepSchemas))
	for i := range allPeepSchemas {
		out[i] = PeepRuleInfo{Name: allPeepSchemas[i].name, Seq: allPeepSchemas[i].seq, Doc: allPeepSchemas[i].doc}
	}
	return out
}

// ProveRule checks the named schema by randomized differential state
// replay: `trials` random matching instances are executed both as the
// original uop sequence and as the rewritten form, starting from the same
// random register file, and every trial must end in the identical state.
// This is the mine→prove gate of cmd/dqemu-peep.
func ProveRule(name string, trials int, seed int64) error {
	var s *peepSchema
	for i := range allPeepSchemas {
		if allPeepSchemas[i].name == name {
			s = &allPeepSchemas[i]
			break
		}
	}
	if s == nil {
		return fmt.Errorf("tcg: unknown peephole rule %q", name)
	}
	if trials <= 0 {
		trials = 1024
	}
	r := rand.New(rand.NewSource(seed))
	for t := 0; t < trials; t++ {
		lhs := genInstance(s, r)
		rhs, ok := applySchema(s, lhs)
		if !ok {
			return fmt.Errorf("tcg: rule %s: generated instance did not match (trial %d)", name, t)
		}
		if lenInsns(rhs) != lenInsns(lhs) || lenCost(rhs) != lenCost(lhs) {
			return fmt.Errorf("tcg: rule %s: cost/insn accounting not preserved (trial %d)", name, t)
		}
		var x0 [32]uint64
		for i := 1; i < 32; i++ {
			x0[i] = r.Uint64()
		}
		xa, xb := x0, x0
		for i := range lhs {
			if err := evalUop(&lhs[i], &xa); err != nil {
				return fmt.Errorf("tcg: rule %s: %v", name, err)
			}
		}
		for i := range rhs {
			if err := evalUop(&rhs[i], &xb); err != nil {
				return fmt.Errorf("tcg: rule %s: %v", name, err)
			}
		}
		if xa != xb {
			return fmt.Errorf("tcg: rule %s REFUTED on trial %d: lhs %v rhs %v", name, t, xa, xb)
		}
		if xb[0] != 0 {
			return fmt.Errorf("tcg: rule %s clobbered x0 on trial %d", name, t)
		}
	}
	return nil
}

func lenInsns(ops []uop) int {
	n := 0
	for i := range ops {
		n += int(ops[i].selfInsns)
	}
	return n
}

func lenCost(ops []uop) int32 {
	var n int32
	for i := range ops {
		n += ops[i].selfCost
	}
	return n
}

// PeepRulesSchema is the rules-file format version. Bumped whenever the
// schema catalog's semantics change in a way that invalidates previously
// mined files; a file carrying a different version is rejected outright.
const PeepRulesSchema = 2

// ParsePeepRules parses a rules file: a mandatory `schema <N>` directive,
// then one `rule <name> [weight=N]` per line, '#' comments. Unknown rule
// names, a missing directive, or a version mismatch are errors so a stale
// or truncated checked-in file fails loudly instead of silently disabling
// the peephole.
func ParsePeepRules(text string) (map[string]bool, error) {
	known := map[string]bool{}
	for i := range allPeepSchemas {
		known[allPeepSchemas[i].name] = true
	}
	rules := map[string]bool{}
	sawSchema := false
	for ln, line := range strings.Split(text, "\n") {
		line = strings.TrimSpace(line)
		if line == "" || strings.HasPrefix(line, "#") {
			continue
		}
		fields := strings.Fields(line)
		if fields[0] == "schema" && len(fields) == 2 {
			v, err := strconv.Atoi(fields[1])
			if err != nil {
				return nil, fmt.Errorf("peep.rules:%d: bad schema version %q", ln+1, fields[1])
			}
			if v != PeepRulesSchema {
				return nil, fmt.Errorf("peep.rules:%d: schema version %d, engine expects %d — re-mine with cmd/dqemu-peep", ln+1, v, PeepRulesSchema)
			}
			sawSchema = true
			continue
		}
		if fields[0] != "rule" || len(fields) < 2 {
			return nil, fmt.Errorf("peep.rules:%d: expected `rule <name> [weight=N]`, got %q", ln+1, line)
		}
		if !sawSchema {
			return nil, fmt.Errorf("peep.rules:%d: rule before `schema %d` directive", ln+1, PeepRulesSchema)
		}
		name := fields[1]
		if !known[name] {
			return nil, fmt.Errorf("peep.rules:%d: unknown rule %q", ln+1, name)
		}
		rules[name] = true
	}
	if !sawSchema {
		return nil, fmt.Errorf("peep.rules: missing `schema %d` directive (empty or pre-versioned catalog)", PeepRulesSchema)
	}
	return rules, nil
}

// DefaultPeepRules returns a copy of the checked-in rule set.
func DefaultPeepRules() map[string]bool {
	out := make(map[string]bool, len(defaultPeepRules))
	for k, v := range defaultPeepRules {
		out[k] = v
	}
	return out
}

var defaultPeepRules = mustParseRules(defaultRulesText)

func mustParseRules(text string) map[string]bool {
	rules, err := ParsePeepRules(text)
	if err != nil {
		panic(err)
	}
	return rules
}

// UopSeqProfile emits execution-weighted micro-op n-gram counts (n=1..3)
// over every live superblock, as uopseq.<k1>[-<k2>[-<k3>]] keys — the raw
// material cmd/dqemu-peep mines rules from. Weight is the trace's dispatch
// count (tier3.entries, its heat). Output is capped to the top uopSeqTopK
// sequences, deterministically ordered, to bound profile size.
func (e *Engine) UopSeqProfile(emit func(seq string, weight uint64)) {
	counts := map[string]uint64{}
	for _, b := range e.cache {
		sb := b.sb
		if sb == nil || sb.t3.entries == 0 {
			continue
		}
		w := sb.t3.entries
		ops := sb.ops
		for i := range ops {
			n1 := kindName(ops[i].kind)
			counts["uopseq."+n1] += w
			if i+1 < len(ops) {
				n2 := n1 + "-" + kindName(ops[i+1].kind)
				counts["uopseq."+n2] += w
				if i+2 < len(ops) {
					counts["uopseq."+n2+"-"+kindName(ops[i+2].kind)] += w
				}
			}
		}
	}
	type kv struct {
		name string
		w    uint64
	}
	all := make([]kv, 0, len(counts))
	for k, v := range counts {
		all = append(all, kv{k, v})
	}
	sort.Slice(all, func(i, j int) bool {
		if all[i].w != all[j].w {
			return all[i].w > all[j].w
		}
		return all[i].name < all[j].name
	})
	if len(all) > uopSeqTopK {
		all = all[:uopSeqTopK]
	}
	for _, kv := range all {
		emit(kv.name, kv.w)
	}
}

// uopSeqTopK bounds how many uopseq.* counters one engine contributes to a
// profile snapshot.
const uopSeqTopK = 96
