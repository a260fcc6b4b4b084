// Structural translation validation for closure compilation.
//
// A compiled trace has no IR to symbolically execute — it is opaque host
// closures — so it is validated structurally instead: the compilation plan
// (segment boundaries, fusion units, memory-run groups) and the emitted
// chunk array are checked against the uop sequence they were compiled
// from, which symEquivSeq has already proved against the reference
// lowering. The invariants proved here are exactly the ones the trampoline
// and the fault paths rely on:
//
//   - every segment ends at a segment-boundary uop and contains no
//     boundary mid-segment (so chunk charges retire atomically);
//   - fusion units cover the straight-line mids exactly once, in program
//     order, with only legal shapes (pre/post addi on a plain memory
//     access, addi pairs, addi+mul) — so fault restart points (the
//     unit's memory-op index) always name the architecturally correct
//     instruction;
//   - memory-run groups hold only 8-byte accesses and never exceed
//     t3MemRun;
//   - the chunk array mirrors the plan: one head chunk per segment
//     carrying exactly the segment's aggregate cost/insns, continuation
//     chunks charging nothing, every chunk executable;
//   - a fused tail — a bare final back-edge or exit, compiled as the last
//     segment's fall-through with no chunk of its own — charges nothing.
//
// A compilation failing any of these is rejected — the trace is not
// installed and its head stays on the block interpreter — rather than
// demoted at runtime.
package tcg

import "fmt"

// checkTier3 validates t3 against the superblock and the segmentized stream
// it was compiled from. Called under Engine.Verify by install.
func checkTier3(sb *superblock, ops []uop, t3 *tier3) error {
	if t3.entry != sb.entry {
		return fmt.Errorf("tier3 entry %#x, superblock entry %#x", t3.entry, sb.entry)
	}
	var plan t3plan // the checker's own, not the one the compilation used
	if !planTier3(&plan, ops) {
		return fmt.Errorf("uop sequence is not compilable yet a tier3 was produced")
	}
	if plan.fuseTail {
		last := &ops[len(ops)-1]
		if last.kind != uLoopBack && last.kind != uExit {
			return fmt.Errorf("fused tail is %s, not loopback or exit", uopName(last))
		}
		if last.cost != 0 || last.insns != 0 {
			return fmt.Errorf("fused tail %s charges cost=%d insns=%d, want nothing", uopName(last), last.cost, last.insns)
		}
	}

	ci := 0 // walking index into t3.chunks
	for s := range plan.segs {
		seg := &plan.segs[s]
		if err := checkSegPlan(ops, seg); err != nil {
			return fmt.Errorf("segment %d [%d:%d]: %w", s, seg.first, seg.last, err)
		}

		// Re-simulate the chunk-cut loop to find how many continuation
		// chunks this segment must have.
		cuts := 0
		n := 1
		for gi := len(seg.groups) - 1; gi >= 0; gi-- {
			if n == t3ChunkOps {
				cuts++
				n = 0
			}
			n++
		}
		want := 1 + cuts
		if ci+want > len(t3.chunks) {
			return fmt.Errorf("segment %d: chunk array truncated (need %d more, have %d)",
				s, want, len(t3.chunks)-ci)
		}

		head := &t3.chunks[ci]
		first := seg.first
		if head.fn == nil {
			return fmt.Errorf("segment %d: head chunk has no code", s)
		}
		if head.cost != int64(ops[first].cost) || head.insns != uint64(ops[first].insns) {
			return fmt.Errorf("segment %d: head chunk charges cost=%d insns=%d, segment aggregates cost=%d insns=%d",
				s, head.cost, head.insns, ops[first].cost, ops[first].insns)
		}
		for k := 1; k < want; k++ {
			ch := &t3.chunks[ci+k]
			if ch.fn == nil {
				return fmt.Errorf("segment %d: continuation chunk %d has no code", s, k)
			}
			if ch.cost != 0 || ch.insns != 0 {
				return fmt.Errorf("segment %d: continuation chunk %d carries a charge (cost=%d insns=%d)",
					s, k, ch.cost, ch.insns)
			}
		}
		ci += want
	}
	if ci != len(t3.chunks) {
		return fmt.Errorf("chunk array has %d chunks, plan accounts for %d", len(t3.chunks), ci)
	}
	return nil
}

// checkSegPlan validates one segment's boundary and fusion-unit structure
// against the uop sequence.
func checkSegPlan(ops []uop, seg *t3seg) error {
	if seg.first < 0 || seg.last >= len(ops) || seg.first > seg.last {
		return fmt.Errorf("segment range out of bounds")
	}
	if !segBoundary(ops[seg.last].kind) {
		return fmt.Errorf("segment tail %s is not a boundary", uopName(&ops[seg.last]))
	}
	for i := seg.first; i < seg.last; i++ {
		if segBoundary(ops[i].kind) {
			return fmt.Errorf("boundary uop %s mid-segment at %d", uopName(&ops[i]), i)
		}
	}

	// Units must cover [first, last) exactly once, in program order, with
	// legal shapes.
	j := seg.first
	for ui, un := range seg.units {
		switch {
		case un.pre >= 0 && un.pair >= 0:
			return fmt.Errorf("unit %d has both pre and pair", ui)
		case un.pair >= 0:
			if un.op != j || un.pair != j+1 {
				return fmt.Errorf("unit %d: addi pair (%d,%d) does not continue coverage at %d", ui, un.op, un.pair, j)
			}
			if !isAddi(&ops[un.op]) || !isAddi(&ops[un.pair]) {
				return fmt.Errorf("unit %d: pair of %s/%s, want addi/addi", ui, uopName(&ops[un.op]), uopName(&ops[un.pair]))
			}
			j += 2
		default:
			start := un.op
			if un.pre >= 0 {
				start = un.pre
				if un.pre != un.op-1 || !isAddi(&ops[un.pre]) {
					return fmt.Errorf("unit %d: pre %d is not the addi preceding op %d", ui, un.pre, un.op)
				}
				if !memFusable(ops[un.op].kind) && !addiMidable(&ops[un.op]) {
					return fmt.Errorf("unit %d: pre-addi fused into non-fusable %s", ui, uopName(&ops[un.op]))
				}
			}
			if start != j {
				return fmt.Errorf("unit %d: starts at %d, coverage expects %d", ui, start, j)
			}
			j = un.op + 1
			if un.post >= 0 {
				if !memFusable(ops[un.op].kind) {
					return fmt.Errorf("unit %d: post-addi on non-memory %s", ui, uopName(&ops[un.op]))
				}
				if un.post != un.op+1 || !isAddi(&ops[un.post]) {
					return fmt.Errorf("unit %d: post %d is not the addi following op %d", ui, un.post, un.op)
				}
				j = un.post + 1
			}
		}
		if j > seg.last {
			return fmt.Errorf("unit %d overruns the segment tail", ui)
		}
	}
	if j != seg.last {
		return fmt.Errorf("units cover [%d:%d), segment mids are [%d:%d)", seg.first, j, seg.first, seg.last)
	}

	// Groups partition the units; a multi-unit group is a fused memory run:
	// all members 8-byte accesses, width capped.
	if len(seg.units) == 0 {
		if len(seg.groups) != 0 {
			return fmt.Errorf("groups over zero units")
		}
		return nil
	}
	if len(seg.groups) == 0 || seg.groups[0] != 0 {
		return fmt.Errorf("groups do not start at unit 0")
	}
	for gi, start := range seg.groups {
		end := len(seg.units)
		if gi+1 < len(seg.groups) {
			end = seg.groups[gi+1]
		}
		width := end - start
		if width <= 0 {
			return fmt.Errorf("group %d is empty or out of order", gi)
		}
		if width > t3MemRun {
			return fmt.Errorf("group %d fuses %d accesses, cap is %d", gi, width, t3MemRun)
		}
		if width > 1 {
			for k := start; k < end; k++ {
				if !pair8able(ops, seg.units[k]) {
					return fmt.Errorf("group %d: unit %d is not an 8-byte access", gi, k)
				}
			}
		}
	}
	return nil
}
