// Compiled-trace formation.
//
// The translator has two executors. Cold code runs on the block interpreter
// (execBlock in tcg.go): translation blocks, cached, chained, one switch per
// guest instruction. A block whose execution count crosses HotThreshold heads
// a trace — a superblock that follows chained successors across
// unconditional JALs and strongly biased conditional branches, up to a length
// cap — and the trace is closure-compiled in the same step (promote):
// lowered to the micro-op IR in uop.go (folding ADDI chains and fusing
// compare+branch pairs as it goes), proved under -verify, and handed straight
// to compileTier3 (tier3.go). There is no second promotion and nothing
// interprets the IR. A trace that re-enters its own head gets a back-edge, so
// hot loops run entirely inside one compiled trace with only a budget check
// per iteration.
//
// Coherence: a superblock carries the cache generation it was built in.
// ClearCache bumps the generation, which retires every compiled trace
// (checked at dispatch, at back-edges, and after HINT callbacks) and every
// chained exit pointer — no stale translation can run after a flush.
package tcg

import (
	"slices"

	"dqemu/internal/isa"
)

const (
	// DefaultHotThreshold is the execution count at which a block heads a
	// compiled trace.
	DefaultHotThreshold = 50
	// MaxTraceInsns bounds total guest instructions in one superblock.
	MaxTraceInsns = 256
	// MaxTraceBlocks bounds how many translation blocks one trace spans.
	MaxTraceBlocks = 16
	// A conditional branch is followed only when it has executed at least
	// biasMinTotal times and one direction accounts for >= biasNum/biasDen
	// of executions.
	biasMinTotal = 8
	biasNum      = 3
	biasDen      = 4
)

// exitSlot caches the translated block at one static trace exit, the trace
// analog of block.taken/block.fall chaining. Exec fills it lazily via
// Engine.pendingExit; exitVia revalidates against the cache generation.
type exitSlot struct {
	blk *block
}

// superblock is one trace: the closures that execute it (t3) and the exit
// slots they chain through. The uop stream they were compiled from is
// translator scratch, dead once promote returns.
type superblock struct {
	entry  uint64
	gen    uint64 // cache generation this trace was built in
	exits  []exitSlot
	ninsns uint32 // guest instructions lowered into the trace
	t3     *tier3 // set once, by install
}

func (e *Engine) hotThreshold() uint32 {
	if e.HotThreshold != 0 {
		return e.HotThreshold
	}
	return DefaultHotThreshold
}

// exitVia resolves the chained block at a trace exit, or records the slot in
// pendingExit so Exec's next lookup fills it.
func (e *Engine) exitVia(sb *superblock, idx int16) *block {
	if idx < 0 {
		return nil
	}
	s := &sb.exits[idx]
	if b := s.blk; b != nil && b.gen == e.gen {
		return b
	}
	s.blk = nil
	e.pendingExit = s
	return nil
}

// biasDir reports whether a conditional branch with the given taken/fall
// counts is biased enough to follow, and in which direction.
func biasDir(taken, fall uint32) (followTaken, ok bool) {
	total := uint64(taken) + uint64(fall)
	if total < biasMinTotal {
		return false, false
	}
	if uint64(taken)*biasDen >= total*biasNum {
		return true, true
	}
	if uint64(fall)*biasDen >= total*biasNum {
		return false, true
	}
	return false, false
}

func isCondBranch(op isa.Op) bool {
	switch op {
	case isa.OpBEQ, isa.OpBNE, isa.OpBLT, isa.OpBGE, isa.OpBLTU, isa.OpBGEU:
		return true
	}
	return false
}

// promote forms the trace headed by head, compiles it and installs it as
// head.sb; it reports whether head now has a compiled trace. head must be a
// current-generation cached block. The stream lives in the translator's
// scratch from lowering to install, so the whole promotion is one cold
// section.
func (e *Engine) promote(head *block, spent *int64) bool {
	e.coldEnter()
	defer e.coldLeave()
	sb, ops := e.buildTrace(head, spent)
	t3 := e.compileTier3(sb, ops)
	if e.traced != nil {
		e.traced(sb, ops)
	}
	return e.install(head, sb, ops, t3)
}

// install makes t3 the executable form of head's trace sb, compiled from ops
// — under Verify only once checkTier3 accepts it. A trace the closure
// compiler (t3 == nil) or the checker refused is dropped and head marked
// refused: it stays on the block interpreter and is not attempted again in
// this cache generation.
func (e *Engine) install(head *block, sb *superblock, ops []uop, t3 *tier3) bool {
	if t3 != nil && e.Verify {
		if err := e.checkTier3(sb, ops, t3); err != nil {
			e.Stats.Tier3CheckFailures++
			if e.OnVerifyFail != nil {
				e.OnVerifyFail("tier3", sb.entry, err)
			}
			t3 = nil
		} else {
			e.Stats.VerifiedTier3++
		}
	}
	if t3 == nil {
		head.refused = true
		return false
	}
	sb.t3, head.sb = t3, sb
	return true
}

// buildTrace lowers the trace starting at head to uops, charging the trace's
// one translation charge for every instruction lowered, and returns the
// stream to compile.
func (e *Engine) buildTrace(head *block, spent *int64) (*superblock, []uop) {
	sb, ops, ref := e.lowerTrace(head)
	return sb, e.finishTrace(sb, ops, ref, spent)
}

// lowerTrace follows the trace starting at head and lowers it in engine
// scratch: ops is the folded and fused stream, ref (under Verify) the
// per-instruction reference lowering. Both live until the next lowering.
func (e *Engine) lowerTrace(head *block) (sb *superblock, ops, ref []uop) {
	sb = &superblock{entry: head.startPC, gen: e.gen}
	ops = e.uopBuf[:0]
	visited := [MaxTraceBlocks]uint64{head.startPC} // entries of the blocks in the trace
	nvisited := 1
	nexits := 0

	// Translation validation (Engine.Verify): ref accumulates the
	// per-instruction reference lowering — each guest instruction lowered
	// into its own scratch slice, which defeats the cross-instruction ADDI
	// fold and the cmp+branch fusion below, so ref carries interpreter-
	// faithful per-instruction semantics. Terminator uops are mirrored
	// verbatim (same exit-slot indices), making ref a drop-in demotion
	// target when the optimized stream fails its equivalence proof.
	verify := e.Verify
	ref = e.refBuf[:0]
	var scratch [2]uop // lowerInsn emits at most a sanitizer probe and the uop

	newExit := func() int16 {
		nexits++
		return int16(nexits - 1)
	}

	// canFollow reports whether the trace may continue into the block at
	// target: it must be translated in this generation, not already part of
	// the trace, and fit under the caps. A block it admits joins visited.
	canFollow := func(target uint64, blocks int) (*block, bool) {
		if blocks >= MaxTraceBlocks || slices.Contains(visited[:nvisited], target) {
			return nil, false
		}
		nb, ok := e.cache[target]
		if !ok || nb.gen != e.gen {
			return nil, false
		}
		if sb.ninsns+uint32(len(nb.ops)) > MaxTraceInsns {
			return nil, false
		}
		visited[nvisited] = target
		nvisited++
		return nb, true
	}

	// emitGuardOrExit appends a conditional-branch uop, fusing it with an
	// immediately preceding slt/sltu when the branch tests the compare's
	// destination against x0. Fusion is unsafe when that destination is x0:
	// the architectural branch then reads the constant 0, not the compare.
	emit := func(u uop) {
		if verify {
			ref = append(ref, u)
		}
		if len(ops) > 0 && (u.kind == uGuard || u.kind == uBranchExit) &&
			u.rs2 == 0 && (u.op == isa.OpBEQ || u.op == isa.OpBNE) {
			p := &ops[len(ops)-1]
			if p.kind == uPure && (p.op == isa.OpSLT || p.op == isa.OpSLTU) && p.rd != 0 && p.rd == u.rs1 {
				fused := u
				if u.kind == uGuard {
					fused.kind = uFusedCmpGuard
				} else {
					fused.kind = uFusedCmpExit
				}
				fused.rd = p.rd
				fused.rs1 = p.rs1
				fused.rs2 = p.rs2
				fused.cmpU = p.op == isa.OpSLTU
				fused.selfCost += p.selfCost
				fused.selfInsns += p.selfInsns
				*p = fused
				e.Stats.FusedUops++
				return
			}
		}
		ops = append(ops, u)
	}

	// app appends a terminator/link uop, mirroring it into the reference
	// stream under -verify.
	app := func(u uop) {
		ops = append(ops, u)
		if verify {
			ref = append(ref, u)
		}
	}

	b := head
	blocks := 0
loop:
	for {
		blocks++
		n := len(b.ops)
		term := -1
		if n > 0 && b.ops[n-1].IsBranch() {
			term = n - 1
		}
		pc := b.startPC
		for i := 0; i < n; i++ {
			if i == term {
				break
			}
			ops = e.lowerInsn(ops, &b.ops[i], pc)
			if verify {
				ref = append(ref, e.lowerInsn(scratch[:0], &b.ops[i], pc)...)
			}
			sb.ninsns++
			pc += uint64(b.ops[i].Size())
		}
		if term < 0 {
			// Block without a terminator: MaxBlockInsns fall-through, or a
			// mid-block fetch failure. Continue into the fall-through when
			// possible; otherwise exit the trace there (a non-translatable
			// PC then fails at Exec's lookup, exactly as with execBlock).
			fallPC := b.fallPC
			if fallPC == 0 {
				fallPC = b.endPC
			}
			if nb, ok := canFollow(fallPC, blocks); ok {
				b = nb
				continue
			}
			app(uop{kind: uExit, npc: fallPC, exit: newExit(), exit2: -1})
			break
		}

		ins := &b.ops[term] // pc is its address: the loop stopped there
		sb.ninsns++
		cost := int32(e.opCost[ins.Op])

		switch {
		case ins.Op == isa.OpJAL:
			target := pc + uint64(ins.Imm*4)
			link := uop{kind: uLink, op: ins.Op, rd: ins.Rd, val: pc + 4, pc: pc,
				selfInsns: 1, selfCost: cost, exit: -1, exit2: -1}
			if ins.Rd == 0 {
				link.kind = uNop
			}
			if target == sb.entry {
				app(link)
				app(uop{kind: uLoopBack, pc: pc, exit: -1, exit2: -1})
				break loop
			}
			if nb, ok := canFollow(target, blocks); ok {
				app(link)
				b = nb
				continue
			}
			link.kind = uJalExit
			link.npc = target
			link.exit = newExit()
			app(link)
			break loop

		case ins.Op == isa.OpJALR:
			app(uop{kind: uJalrExit, op: ins.Op, rd: ins.Rd, rs1: ins.Rs1,
				imm: ins.Imm, val: pc + 4, pc: pc, selfInsns: 1, selfCost: cost,
				exit: -1, exit2: -1})
			break loop

		case isCondBranch(ins.Op):
			takenPC := pc + uint64(ins.Imm*4)
			fallPC := pc + 4
			if followTaken, biased := biasDir(b.takenCount, b.fallCount); biased {
				onPC, offPC := takenPC, fallPC
				if !followTaken {
					onPC, offPC = fallPC, takenPC
				}
				if onPC == sb.entry {
					emit(uop{kind: uGuard, rs1: ins.Rs1, rs2: ins.Rs2, op: ins.Op,
						expectTaken: followTaken, pc: pc, npc: offPC,
						selfInsns: 1, selfCost: cost, exit: newExit(), exit2: -1})
					app(uop{kind: uLoopBack, pc: pc, exit: -1, exit2: -1})
					break loop
				}
				if nb, ok := canFollow(onPC, blocks); ok {
					emit(uop{kind: uGuard, rs1: ins.Rs1, rs2: ins.Rs2, op: ins.Op,
						expectTaken: followTaken, pc: pc, npc: offPC,
						selfInsns: 1, selfCost: cost, exit: newExit(), exit2: -1})
					b = nb
					continue
				}
			}
			emit(uop{kind: uBranchExit, rs1: ins.Rs1, rs2: ins.Rs2, op: ins.Op,
				pc: pc, npc: takenPC, npc2: fallPC,
				selfInsns: 1, selfCost: cost, exit: newExit(), exit2: newExit()})
			break loop

		case ins.Op == isa.OpSVC:
			app(uop{kind: uSvcExit, op: ins.Op, pc: pc,
				selfInsns: 1, selfCost: cost, exit: -1, exit2: -1})
			break loop
		case ins.Op == isa.OpHALT:
			app(uop{kind: uHaltExit, op: ins.Op, pc: pc,
				selfInsns: 1, selfCost: cost, exit: -1, exit2: -1})
			break loop
		default: // EBREAK and anything unexpected
			app(uop{kind: uEbreakExit, op: ins.Op, pc: pc,
				selfInsns: 1, selfCost: cost, exit: -1, exit2: -1})
			break loop
		}
	}

	sb.exits = make([]exitSlot, nexits)
	return sb, ops, ref
}

// finishTrace segmentizes the lowered stream, proves it against ref under
// Verify, and charges the trace's translation time. It returns the stream
// to compile — ops, or ref after a failed proof — which stays in the
// engine's scratch: the closures copy what they read out of it.
func (e *Engine) finishTrace(sb *superblock, ops, ref []uop, spent *int64) []uop {
	e.uopBuf, e.refBuf = ops[:0], ref[:0] // keep what the appends grew
	segmentize(ops)

	if e.Verify {
		if err := symEquivSeq(ref, ops); err != nil {
			// Demote with a diagnostic: compile the per-instruction
			// reference lowering instead, which is correct by construction
			// and reuses the same exit slots.
			e.Stats.VerifyDemotions++
			ops = ref
			segmentize(ops)
			if e.OnVerifyFail != nil {
				e.OnVerifyFail("superblock", sb.entry, err)
			}
		} else {
			e.Stats.VerifiedSuperblocks++
		}
	}

	t := int64(sb.ninsns) * e.Cost.TranslateNs
	*spent += t
	e.Stats.TranslateNs += t
	e.Stats.Tier3TranslateNs += t
	e.Stats.Superblocks++
	e.Stats.TranslatedInsns += uint64(sb.ninsns)
	return ops
}
