// Package tcg is DQEMU's dynamic binary translation engine — the analog of
// QEMU's TCG. Guest GA64 code is decoded into translation blocks that are
// cached per node, chained to their successors, and executed against the
// node's software MMU. Execution is restartable at instruction granularity:
// a page fault leaves PC at the faulting instruction so the node can run
// the coherence protocol and retry, exactly like the SIGSEGV-driven page
// protection scheme in the paper (§4.2).
//
// All virtual-time costs (execution, translation, traps) are charged
// through a CostModel so the cluster's discrete-event simulation sees
// QEMU-like relative costs.
package tcg

import (
	"encoding/binary"
	"fmt"
	"math"
	"math/bits"

	"dqemu/internal/isa"
	"dqemu/internal/mem"
)

// CPU is the guest CPU context of one thread — the state that migrates when
// a thread is created on or moved to a remote node (§4.1).
type CPU struct {
	X   [32]uint64  // integer registers; X[0] reads as zero
	F   [32]float64 // FP registers
	PC  uint64
	TID int64 // guest thread id, used by the LL/SC monitor

	// HintGroup is the most recent scheduling hint executed (§5.3).
	HintGroup int64
}

// StopReason says why Exec returned.
type StopReason uint8

const (
	// StopBudget: the time budget was exhausted; call Exec again.
	StopBudget StopReason = iota
	// StopPageFault: a guest access faulted; Result.Fault has details. PC
	// is at the faulting instruction.
	StopPageFault
	// StopSyscall: an SVC executed; the syscall number is in A7, arguments
	// in A0..A5. PC is already past the SVC; write the result to A0 and
	// resume.
	StopSyscall
	// StopHalt: the vCPU executed HALT.
	StopHalt
	// StopEBreak: the vCPU executed EBREAK (PC still at the EBREAK).
	StopEBreak
	// StopError: the guest did something unrecoverable (bad PC, undecodable
	// instruction, misaligned atomic).
	StopError
)

func (r StopReason) String() string {
	switch r {
	case StopBudget:
		return "budget"
	case StopPageFault:
		return "pagefault"
	case StopSyscall:
		return "syscall"
	case StopHalt:
		return "halt"
	case StopEBreak:
		return "ebreak"
	default:
		return "error"
	}
}

// Result reports the outcome of one Exec call.
type Result struct {
	Reason StopReason
	TimeNs int64     // virtual time consumed, including translation
	Fault  mem.Fault // valid when Reason == StopPageFault
	Err    error     // valid when Reason == StopError
}

// Stats aggregates engine activity for the per-thread breakdowns of Fig. 8.
type Stats struct {
	Blocks          uint64 // translation blocks built
	TranslatedInsns uint64 // guest instructions translated (blocks + traces)
	ExecInsns       uint64
	TranslateNs     int64
	Faults          uint64
	Syscalls        uint64

	// Compiled-trace counters. Instructions not counted in Tier3Insns
	// retired on the block interpreter.
	Superblocks uint64 // hot traces formed
	// SuperblockInsns counted instructions retired by the uop dispatch loop,
	// which is gone: it reads 0 and stays declared only because the frozen
	// bench/ reads it (ROADMAP 1(c) drops it at the unfreeze).
	SuperblockInsns  uint64
	FusedUops        uint64 // lowering-time ADDI folds and cmp+branch fusions
	JumpCacheHits    uint64
	JumpCacheMisses  uint64
	Flushes          uint64 // translation cache flushes (ClearCache calls)
	Tier3Superblocks uint64 // traces compiled to closures
	Tier3Insns       uint64 // guest instructions retired in compiled traces
	Tier3TranslateNs int64  // virtual time charged for forming and compiling traces
	// Tier3Demotions counted compiled traces abandoned mid-run after a flush,
	// which can no longer land inside Exec: it reads 0 and stays declared only
	// because the frozen bench/ reads it (ROADMAP 1(c) drops it at the
	// unfreeze).
	Tier3Demotions uint64
	// PeepApplied counted applications of the mined peephole rules, which are
	// gone: it reads 0 and stays declared only because the frozen bench/ reads
	// it (ROADMAP 1(c) drops it at the unfreeze).
	PeepApplied uint64

	// Translation-validation counters (Engine.Verify).
	VerifiedSuperblocks uint64 // traces proved equivalent to the reference lowering
	VerifyDemotions     uint64 // traces demoted to the reference lowering on proof failure
	VerifiedTier3       uint64 // closure compilations whose structure checked out
	Tier3CheckFailures  uint64 // closure compilations rejected by the structural checker
}

// MaxBlockInsns bounds translation block length.
const MaxBlockInsns = 64

// block is one translation block. Its instructions are contiguous: the guest
// address of ops[i] is startPC plus the sizes of the ops before it.
type block struct {
	ops []isa.Instruction
	// Static successors for block chaining; filled lazily.
	takenPC, fallPC uint64 // 0 when unknown/dynamic
	taken, fall     *block

	startPC, endPC uint64 // [startPC, endPC) guest code range of the block
	cost           int64  // virtual time of all of ops, charged by a run to the end

	// Hot-trace bookkeeping: execution count toward promotion, direction
	// counts of the terminating conditional branch (for trace bias), the
	// compiled trace this block heads once promoted, and whether promotion
	// was refused (sticky: a block lives until the next flush).
	count      uint32
	takenCount uint32
	fallCount  uint32
	refused    bool
	sb         *superblock
}

// SanHook receives DQSan instrumentation events and translate-time lint
// callbacks. All addresses are translated (post-remap) so shadow state is
// keyed the same way the DSM keys pages. nil disables instrumentation with
// zero per-instruction cost on the block interpreter and no extra uops in
// compiled traces. The hooks run inside Exec, so they must not call Exec or
// ClearCache: both panic there.
type SanHook interface {
	OnLoad(tid int64, taddr uint64, size int, pc uint64)
	OnStore(tid int64, taddr uint64, size int, pc uint64)
	OnAtomic(tid int64, taddr uint64, size int, pc uint64, release bool)
	OnFence(tid int64)
	LintBlock(insns []isa.Instruction, pcs []uint64, isCode func(uint64) bool)
}

// Engine translates and executes guest code against one node's Space.
type Engine struct {
	Mem  *mem.Space
	Cost CostModel
	// Mon is the LL/SC monitor (the node's global hash table).
	Mon *LLSCTable
	// San, if set, is the DQSan sanitizer: guest memory accesses are
	// instrumented and freshly-translated blocks are linted.
	San SanHook

	// NoCache disables the translation cache: every block entry
	// retranslates, so nothing is chained or cached for indirect branches
	// either. NoSuperblock disables trace promotion, leaving the block
	// interpreter alone. Both exist for the ablation benchmarks; together
	// they give the measured ladder interpreter -> cached blocks -> compiled
	// traces.
	NoCache      bool
	NoSuperblock bool

	// Verify enables translate-time translation validation: every freshly
	// lowered trace is symbolically proved equivalent to the
	// per-instruction reference lowering (internal/tcg/sym.go), and its
	// closure compilation is structurally checked against the uop sequence
	// it was compiled from. A trace that fails the proof is compiled from
	// the reference lowering instead, with a diagnostic (OnVerifyFail); a
	// compilation that fails the check is not installed and the trace's
	// head block stays on the block interpreter.
	Verify bool
	// OnVerifyFail, if set, observes each verification failure: where is
	// "superblock" or "tier3", entry the guest PC heading the trace.
	OnVerifyFail func(where string, entry uint64, err error)

	// HotThreshold overrides DefaultHotThreshold when nonzero (tests).
	HotThreshold uint32

	Stats Stats

	cache  map[uint64]*block
	opCost [256]int64

	// inExec is set while Exec runs. The cache is flushed only between Exec
	// calls, so nothing Exec follows — a chain pointer, an exit slot, a
	// jump-cache entry — can name a retired translation; ClearCache and a
	// nested Exec panic while it is set.
	inExec bool

	// codePages is the set of guest pages containing code translated since
	// the last flush. InvalidatePage flushes the cache only when
	// the invalidated page is in this set (data-page invalidations — the
	// overwhelmingly common case under the coherence protocol — keep all
	// translations).
	codePages map[uint64]struct{}

	// jc is the indirect-branch target cache (QEMU jump-cache style):
	// a direct-mapped PC-indexed array resolving JALR targets without the
	// translation-cache map probe. ClearCache empties it, so an entry with a
	// block is always a live translation; an empty one matches no PC.
	jc [jcSize]jcEntry

	// pendingExit, when set by exitVia, is the superblock exit slot that
	// Exec's next lookup should fill (the trace analog of block chaining).
	pendingExit *exitSlot

	// Inline softmmu TLB for compiled traces: direct-mapped caches of
	// page byte slices for loads (rdTLB) and stores (wrTLB), validated
	// against the Space's mutation epoch on every access, so page-state
	// changes by the coherence protocol invalidate them implicitly.
	rdTLB     [accelTLBSize]mem.AccelEntry
	wrTLB     [accelTLBSize]mem.AccelEntry
	pageMask  uint64 // Space page size - 1
	pageShift uint

	// t3 is the compiled-trace execution context. Exec does not nest, so one
	// serves every trampoline activation and the trampoline never allocates.
	t3 t3ctx

	// Translator scratch: translate decodes into insBuf/pcBuf, buildTrace
	// lowers into uopBuf (and refBuf under Verify), compileTier3 plans in
	// plan. A block keeps a copy of its instructions made at their final
	// size; a compiled trace keeps only its closures, which copied what they
	// read out of the stream as they were built. translate is one cold
	// section and promote, from lowering to install, another; coldDepth
	// asserts that the two are never active at once.
	insBuf    [MaxBlockInsns]isa.Instruction
	pcBuf     [MaxBlockInsns]uint64
	uopBuf    []uop
	refBuf    []uop
	plan      t3plan
	coldDepth int

	// accSlab is where compileMemRun's closures keep their pre-decoded
	// accesses: kept, not scratch, and handed out a run's length at a time.
	accSlab []memAcc

	// Test seams, nil outside tests: traced sees the stream each promotion
	// compiled before its scratch is reused, sited every fault site a
	// closure captured from it.
	traced func(sb *superblock, ops []uop)
	sited  func(i int, s faultSite)
}

const accelTLBSize = 64 // power of two

const jcSize = 1024 // power of two

type jcEntry struct {
	pc  uint64
	blk *block // nil: empty
}

// NewEngine returns an engine bound to a Space with the given cost model.
func NewEngine(space *mem.Space, cost CostModel) *Engine {
	e := &Engine{Mem: space, Cost: cost, Mon: NewLLSCTable(),
		cache: map[uint64]*block{}, codePages: map[uint64]struct{}{},
		pageMask:  uint64(space.PageSize() - 1),
		pageShift: uint(bits.TrailingZeros64(uint64(space.PageSize())))}
	for op := 1; op < 256; op++ {
		if !isa.Op(op).Valid() {
			continue
		}
		e.opCost[op] = e.classCost(isa.Op(op))
	}
	return e
}

func (e *Engine) classCost(op isa.Op) int64 {
	switch op {
	case isa.OpLB, isa.OpLBU, isa.OpLH, isa.OpLHU, isa.OpLW, isa.OpLWU, isa.OpLD,
		isa.OpSB, isa.OpSH, isa.OpSW, isa.OpSD, isa.OpFLD, isa.OpFSD:
		return e.Cost.MemOpNs
	case isa.OpBEQ, isa.OpBNE, isa.OpBLT, isa.OpBGE, isa.OpBLTU, isa.OpBGEU, isa.OpJAL, isa.OpJALR:
		return e.Cost.BranchNs
	case isa.OpLL, isa.OpSC, isa.OpCAS, isa.OpAMOADD, isa.OpAMOSWAP:
		return e.Cost.AtomicNs
	case isa.OpFENCE:
		return e.Cost.FenceNs
	case isa.OpFDIV, isa.OpFSQRT, isa.OpFEXP, isa.OpFLN:
		return e.Cost.HelperFPNs
	case isa.OpFADD, isa.OpFSUB, isa.OpFMUL, isa.OpFMIN, isa.OpFMAX, isa.OpFNEG,
		isa.OpFABS, isa.OpFMV, isa.OpFMVXD, isa.OpFMVDX, isa.OpFCVTDL, isa.OpFCVTLD,
		isa.OpFEQ, isa.OpFLT, isa.OpFLE, isa.OpFMOVD:
		return e.Cost.FPOpNs
	default:
		return e.Cost.IntOpNs
	}
}

// ClearCache drops all translated blocks, superblocks, chain pointers and
// jump-cache entries (QEMU tb_flush). It runs only between Exec calls, as
// QEMU runs tb_flush as exclusive work outside its execution loop: retired
// blocks still chain to each other, but nothing Exec starts from — the cache
// map, the jump cache — reaches them any more. A flush from inside Exec
// panics rather than leave a running trace on stale code.
func (e *Engine) ClearCache() {
	if e.inExec {
		panic("tcg: translation cache flushed inside Exec")
	}
	clear(e.jc[:])
	e.cache = map[uint64]*block{}
	e.codePages = map[uint64]struct{}{}
	e.Stats.Flushes++
}

// InvalidatePage is called by the coherence layer when pageNo is dropped,
// downgraded or remapped. If translated code lives on the page the whole
// translation cache is flushed (coarse but rare — self-modifying code and
// code-page migration are not on any hot path); pure data pages are free.
func (e *Engine) InvalidatePage(pageNo uint64) {
	if _, ok := e.codePages[pageNo]; !ok {
		return
	}
	e.ClearCache()
}

// CacheSize returns the number of cached translation blocks.
func (e *Engine) CacheSize() int { return len(e.cache) }

// fetchInsn decodes one instruction at pc, reading through the MMU. The
// page holding pc must be locally coherent (Shared or Modified): a resident
// page in I state is the stale home copy of a remotely-owned page, and
// translating from it would execute stale code. Tail bytes of a long decode
// may still spill into a neighbouring page permission-free.
func (e *Engine) fetchInsn(pc uint64) (isa.Instruction, int, error) {
	if e.Mem.PermOf(e.Mem.PageOf(e.Mem.Translate(pc))) == mem.PermNone {
		return isa.Instruction{}, 0, fmt.Errorf("tcg: cannot fetch code at %#x", pc)
	}
	var buf [12]byte
	n := 12
	for ; n >= 4; n -= 4 {
		if err := e.Mem.ReadBytes(pc, buf[:n]); err == nil {
			break
		}
	}
	if n < 4 {
		return isa.Instruction{}, 0, fmt.Errorf("tcg: cannot fetch code at %#x", pc)
	}
	return isa.Decode(buf[:n])
}

// translate builds the translation block starting at pc. Code is read a
// page span at a time: while the 12-byte decode window lies inside one
// resident, unsplit, readable page, Decode runs straight on the page's bytes
// (AccelFill answers all three in one probe); a window that crosses the page
// end, a split page or an absent one goes through fetchInsn, byte-wise.
// Instructions are decoded into engine scratch and copied once, at their
// final size, into the block; their addresses stay in pcBuf until the next
// translation.
func (e *Engine) translate(pc uint64) (*block, error) {
	e.coldEnter()
	defer e.coldLeave()
	ops, pcs := e.insBuf[:0], e.pcBuf[:0]
	b := &block{startPC: pc}
	var line mem.AccelEntry // the code page the window is in; zero matches none
	codePage := ^uint64(0)  // last page registered in codePages
	cur := pc
	for len(ops) < MaxBlockInsns {
		var ins isa.Instruction
		var n int
		var err error
		pn, off := cur>>e.pageShift, cur&e.pageMask
		fast := off+12 <= e.pageMask+1 &&
			(line.Epoch != 0 && line.PageNo == pn || e.Mem.AccelFill(&line, pn, false))
		if fast {
			ins, n, err = isa.Decode(line.Data[off : off+12])
		} else {
			ins, n, err = e.fetchInsn(cur)
		}
		if err != nil {
			if len(ops) > 0 {
				break // let execution reach the bad address before failing
			}
			return nil, err
		}
		// Invalidations name translated pages: register the page each
		// instruction's first and last byte translate to (one page on the
		// fast path, two or a shadow on the byte-wise one).
		if !e.NoCache {
			if !fast {
				pn = e.Mem.PageOf(e.Mem.Translate(cur))
				if tail := e.Mem.PageOf(e.Mem.Translate(cur + uint64(n) - 1)); tail != pn {
					e.codePages[tail] = struct{}{}
				}
			}
			if pn != codePage {
				e.codePages[pn] = struct{}{}
				codePage = pn
			}
		}
		ops = append(ops, ins)
		pcs = append(pcs, cur)
		b.endPC = cur + uint64(n)
		if ins.IsBranch() {
			switch ins.Op {
			case isa.OpJAL:
				b.takenPC = cur + uint64(ins.Imm*4)
			case isa.OpBEQ, isa.OpBNE, isa.OpBLT, isa.OpBGE, isa.OpBLTU, isa.OpBGEU:
				b.takenPC = cur + uint64(ins.Imm*4)
				b.fallPC = cur + 4
			case isa.OpSVC:
				b.fallPC = cur + 4
			}
			break
		}
		cur += uint64(n)
	}
	if last := len(ops) - 1; last == MaxBlockInsns-1 && !ops[last].IsBranch() {
		b.fallPC = b.endPC
	}
	b.ops = make([]isa.Instruction, len(ops))
	copy(b.ops, ops)
	for i := range ops {
		b.cost += e.opCost[ops[i].Op]
	}
	return b, nil
}

// coldEnter marks the translator's scratch buffers in use, coldLeave frees
// them. Nothing on the translate path calls back into it, and Exec does not
// nest, so a second entry is a bug, not a case to serve.
func (e *Engine) coldEnter() {
	if e.coldDepth++; e.coldDepth != 1 {
		panic("tcg: translator re-entered while its scratch buffers are in use")
	}
}

func (e *Engine) coldLeave() { e.coldDepth-- }

// lookup returns the block at pc, translating (and charging translation
// time) if needed.
func (e *Engine) lookup(pc uint64, spent *int64) (*block, error) {
	if !e.NoCache {
		if b, ok := e.cache[pc]; ok {
			return b, nil
		}
	}
	b, err := e.translate(pc)
	if err != nil {
		return nil, err
	}
	t := int64(len(b.ops)) * e.Cost.TranslateNs
	*spent += t
	e.Stats.TranslateNs += t
	e.Stats.Blocks++
	e.Stats.TranslatedInsns += uint64(len(b.ops))
	if !e.NoCache {
		e.cache[pc] = b
	}
	if e.San != nil {
		e.San.LintBlock(b.ops, e.pcBuf[:len(b.ops)], e.isCodeAddr)
	}
	return b, nil
}

// isCodeAddr reports whether a guest virtual address falls in a page that
// holds code translated since the last flush.
func (e *Engine) isCodeAddr(addr uint64) bool {
	_, ok := e.codePages[e.Mem.PageOf(e.Mem.Translate(addr))]
	return ok
}

// lookupFast is lookup behind the indirect-branch target cache: a
// direct-mapped PC-indexed probe that avoids the translation-cache map on
// hits (JALR-heavy code — function returns — hits here almost always).
func (e *Engine) lookupFast(pc uint64, spent *int64) (*block, error) {
	if e.NoCache {
		return e.lookup(pc, spent)
	}
	h := &e.jc[(pc>>2)&(jcSize-1)]
	if h.pc == pc && h.blk != nil {
		e.Stats.JumpCacheHits++
		return h.blk, nil
	}
	e.Stats.JumpCacheMisses++
	b, err := e.lookup(pc, spent)
	if err != nil {
		return nil, err
	}
	*h = jcEntry{pc: pc, blk: b}
	return b, nil
}

// Exec runs cpu until a stop condition or until at least budgetNs of
// virtual time has been consumed (it may overshoot by up to one block or
// one superblock segment chain).
//
// There are two executors: a block that heads a compiled trace runs the
// trace's closures; any other block runs on the block interpreter, which
// bumps its promotion counter and, at HotThreshold, forms and compiles the
// trace in one step. The cache is flushed only between Exec calls, so every
// chained pointer (taken/fall, trace exit slots, jump-cache entries) it
// follows is live. Exec does not nest: a hook that calls back into it, or
// into ClearCache, panics.
func (e *Engine) Exec(cpu *CPU, budgetNs int64) Result {
	if e.inExec {
		panic("tcg: Exec re-entered")
	}
	e.inExec = true
	defer e.leaveExec()
	var spent int64
	e.pendingExit = nil
	blk, err := e.lookupFast(cpu.PC, &spent)
	if err != nil {
		return e.codeFault(cpu.PC, spent, err)
	}
	for {
		var next *block
		var res Result
		var stop bool
		if sb := blk.sb; sb != nil && !e.NoSuperblock {
			next, res, stop = e.execTier3(cpu, sb.t3, &spent, budgetNs)
		} else {
			if !e.NoSuperblock && !e.NoCache && !blk.refused {
				blk.count++
				if blk.count >= e.hotThreshold() && e.promote(blk, &spent) {
					continue
				}
			}
			next, res, stop = e.execBlock(cpu, blk, &spent)
		}
		if stop {
			res.TimeNs = spent
			return res
		}
		if spent >= budgetNs {
			return Result{Reason: StopBudget, TimeNs: spent}
		}
		if next == nil {
			nb, err := e.lookupFast(cpu.PC, &spent)
			if err != nil {
				return e.codeFault(cpu.PC, spent, err)
			}
			if pe := e.pendingExit; pe != nil {
				pe.blk = nb
				e.pendingExit = nil
			} else {
				switch cpu.PC {
				case blk.takenPC:
					blk.taken = nb
				case blk.fallPC:
					blk.fall = nb
				}
			}
			next = nb
		}
		blk = next
	}
}

func (e *Engine) leaveExec() { e.inExec = false }

// execBlock executes b. It returns the chained next block (nil when a cache
// lookup is needed), or stop=true with a Result. Its switch is the reference
// every tier differential compares the compiled traces against, so it is
// written out by hand and reads no table the lowering or the closure compiler
// also read; only the atomics, whose step order is a contract of its own,
// are shared (Engine.atomic).
//
// Its memory accesses share the inline TLB with the compiled traces: every
// load and store probes rdTLB/wrTLB through rdHit/wrHit, which inline, and a
// miss goes to slowLoad/slowStore, which run the softmmu and refill the line.
// That is a cache, not a semantic table: a line is filled only from a page the
// Space holds resident, unsplit and permitted, and is honoured only at the
// epoch it was filled in, so a hit reads and writes the bytes mem.Space.Load
// and Store would. Because the differentials can no longer catch a wrong TLB,
// FuzzBlockMemory holds this executor to a replay on a bare mem.Space across
// page installs, drops, permission changes and splits.
//
// Nothing is counted per instruction. Every exit leaves the loop by break,
// and below it the instructions that ran, the one that ended the block (a
// branch, a stop or a fault) included, are retired and charged at once: the
// block's translate-time cost when it ran to its end, their own costs when
// it stopped short.
func (e *Engine) execBlock(cpu *CPU, b *block, spent *int64) (next *block, res Result, stop bool) {
	x := &cpu.X
	f := &cpu.F
	mmu := e.Mem
	ops := b.ops
	t := *spent
	var fl *mem.Fault // the access that ended the block faulted
	var afl mem.Fault // an atomic's fault, for fl; declared here to stay off the heap

	// pc steps one word an instruction, and the long encodings add the rest
	// of their Size in their arms: a Size call per step costs 14 %.
	i, pc := 0, b.startPC
exec:
	for ; i < len(ops); i, pc = i+1, pc+4 {
		ins := &ops[i]
		switch ins.Op {
		case isa.OpADD:
			wr(x, ins.Rd, x[ins.Rs1]+x[ins.Rs2])
		case isa.OpSUB:
			wr(x, ins.Rd, x[ins.Rs1]-x[ins.Rs2])
		case isa.OpMUL:
			wr(x, ins.Rd, x[ins.Rs1]*x[ins.Rs2])
		case isa.OpDIV:
			wr(x, ins.Rd, uint64(sdiv(int64(x[ins.Rs1]), int64(x[ins.Rs2]))))
		case isa.OpDIVU:
			if x[ins.Rs2] == 0 {
				wr(x, ins.Rd, ^uint64(0))
			} else {
				wr(x, ins.Rd, x[ins.Rs1]/x[ins.Rs2])
			}
		case isa.OpREM:
			wr(x, ins.Rd, uint64(srem(int64(x[ins.Rs1]), int64(x[ins.Rs2]))))
		case isa.OpREMU:
			if x[ins.Rs2] == 0 {
				wr(x, ins.Rd, x[ins.Rs1])
			} else {
				wr(x, ins.Rd, x[ins.Rs1]%x[ins.Rs2])
			}
		case isa.OpAND:
			wr(x, ins.Rd, x[ins.Rs1]&x[ins.Rs2])
		case isa.OpOR:
			wr(x, ins.Rd, x[ins.Rs1]|x[ins.Rs2])
		case isa.OpXOR:
			wr(x, ins.Rd, x[ins.Rs1]^x[ins.Rs2])
		case isa.OpSLL:
			wr(x, ins.Rd, x[ins.Rs1]<<(x[ins.Rs2]&63))
		case isa.OpSRL:
			wr(x, ins.Rd, x[ins.Rs1]>>(x[ins.Rs2]&63))
		case isa.OpSRA:
			wr(x, ins.Rd, uint64(int64(x[ins.Rs1])>>(x[ins.Rs2]&63)))
		case isa.OpSLT:
			wr(x, ins.Rd, b2u(int64(x[ins.Rs1]) < int64(x[ins.Rs2])))
		case isa.OpSLTU:
			wr(x, ins.Rd, b2u(x[ins.Rs1] < x[ins.Rs2]))

		case isa.OpADDI:
			wr(x, ins.Rd, x[ins.Rs1]+uint64(ins.Imm))
		case isa.OpANDI:
			wr(x, ins.Rd, x[ins.Rs1]&uint64(ins.Imm))
		case isa.OpORI:
			wr(x, ins.Rd, x[ins.Rs1]|uint64(ins.Imm))
		case isa.OpXORI:
			wr(x, ins.Rd, x[ins.Rs1]^uint64(ins.Imm))
		case isa.OpSLLI:
			wr(x, ins.Rd, x[ins.Rs1]<<(uint64(ins.Imm)&63))
		case isa.OpSRLI:
			wr(x, ins.Rd, x[ins.Rs1]>>(uint64(ins.Imm)&63))
		case isa.OpSRAI:
			wr(x, ins.Rd, uint64(int64(x[ins.Rs1])>>(uint64(ins.Imm)&63)))
		case isa.OpSLTI:
			wr(x, ins.Rd, b2u(int64(x[ins.Rs1]) < ins.Imm))

		case isa.OpMOVIW, isa.OpMOVID:
			wr(x, ins.Rd, uint64(ins.Imm))
			pc += uint64(ins.Size()) - 4

		case isa.OpLD, isa.OpFLD:
			addr := x[ins.Rs1] + uint64(ins.Imm)
			var v uint64
			if p := e.rdHit(addr, 8); p != nil {
				v = binary.LittleEndian.Uint64(p)
			} else if v, fl = e.slowLoad(addr, 8); fl != nil {
				break exec
			}
			if e.San != nil {
				e.San.OnLoad(cpu.TID, mmu.Translate(addr), 8, pc)
			}
			if ins.Op == isa.OpLD {
				wr(x, ins.Rd, v)
			} else {
				f[ins.Rd] = math.Float64frombits(v)
			}

		case isa.OpSD, isa.OpFSD:
			addr := x[ins.Rs1] + uint64(ins.Imm)
			v := x[ins.Rs2]
			if ins.Op == isa.OpFSD {
				v = math.Float64bits(f[ins.Rs2])
			}
			if p := e.wrHit(addr, 8); p != nil {
				binary.LittleEndian.PutUint64(p, v)
			} else if fl = e.slowStore(addr, v, 8); fl != nil {
				break exec
			}
			if !e.Mon.Empty() {
				e.Mon.OnStore(cpu.TID, mmu.Translate(addr))
			}
			if e.San != nil {
				e.San.OnStore(cpu.TID, mmu.Translate(addr), 8, pc)
			}

		case isa.OpLB, isa.OpLBU, isa.OpLH, isa.OpLHU, isa.OpLW, isa.OpLWU:
			addr := x[ins.Rs1] + uint64(ins.Imm)
			size := loadSize(ins.Op)
			var v uint64
			if p := e.rdHit(addr, size); p != nil {
				v = loadLE(p, size)
			} else if v, fl = e.slowLoad(addr, size); fl != nil {
				break exec
			}
			if e.San != nil {
				e.San.OnLoad(cpu.TID, mmu.Translate(addr), int(size), pc)
			}
			switch ins.Op {
			case isa.OpLB:
				v = uint64(int64(int8(v)))
			case isa.OpLH:
				v = uint64(int64(int16(v)))
			case isa.OpLW:
				v = uint64(int64(int32(v)))
			}
			wr(x, ins.Rd, v)

		case isa.OpSB, isa.OpSH, isa.OpSW:
			addr := x[ins.Rs1] + uint64(ins.Imm)
			size := storeSize(ins.Op)
			if p := e.wrHit(addr, size); p != nil {
				storeLE(p, x[ins.Rs2], size)
			} else if fl = e.slowStore(addr, x[ins.Rs2], size); fl != nil {
				break exec
			}
			if !e.Mon.Empty() {
				e.Mon.OnStore(cpu.TID, mmu.Translate(addr))
			}
			if e.San != nil {
				e.San.OnStore(cpu.TID, mmu.Translate(addr), int(size), pc)
			}

		case isa.OpBEQ, isa.OpBNE, isa.OpBLT, isa.OpBGE, isa.OpBLTU, isa.OpBGEU:
			if takeBranch(ins.Op, x[ins.Rs1], x[ins.Rs2]) {
				b.takenCount++
				cpu.PC, next = pc+uint64(ins.Imm*4), b.taken
			} else {
				b.fallCount++
				cpu.PC, next = pc+4, b.fall
			}
			break exec

		case isa.OpJAL:
			wr(x, ins.Rd, pc+4)
			cpu.PC, next = pc+uint64(ins.Imm*4), b.taken
			break exec

		case isa.OpJALR:
			target := (x[ins.Rs1] + uint64(ins.Imm)) &^ 3
			wr(x, ins.Rd, pc+4)
			cpu.PC = target
			break exec

		case isa.OpLL, isa.OpSC, isa.OpCAS, isa.OpAMOADD, isa.OpAMOSWAP:
			var end atomicEnd
			switch end, afl = e.atomic(cpu, ins.Op, ins.Rd, ins.Rs1, ins.Rs2, pc); end {
			case atomicFault:
				fl = &afl
				break exec
			case atomicMisaligned:
				cpu.PC = pc
				res, stop = Result{Reason: StopError, Err: fmt.Errorf("tcg: misaligned atomic %#x at %#x", x[ins.Rs1], pc)}, true
				break exec
			case atomicYield:
				cpu.PC = pc + 4
				res, stop = Result{Reason: StopBudget}, true
				break exec
			}

		case isa.OpFENCE:
			// Full barrier. Within a node execution is already sequential;
			// cross-node ordering is enforced by the page protocol (§3.3).
			if e.San != nil {
				e.San.OnFence(cpu.TID)
			}

		case isa.OpSVC:
			e.Stats.Syscalls++
			t += e.Cost.SyscallNs
			cpu.PC = pc + 4
			res, stop = Result{Reason: StopSyscall}, true
			break exec

		case isa.OpHINT:
			cpu.HintGroup = ins.Imm

		case isa.OpNOP:

		case isa.OpHALT:
			cpu.PC = pc + 4
			res, stop = Result{Reason: StopHalt}, true
			break exec

		case isa.OpEBREAK:
			cpu.PC = pc
			res, stop = Result{Reason: StopEBreak}, true
			break exec

		case isa.OpFADD:
			f[ins.Rd] = f[ins.Rs1] + f[ins.Rs2]
		case isa.OpFSUB:
			f[ins.Rd] = f[ins.Rs1] - f[ins.Rs2]
		case isa.OpFMUL:
			f[ins.Rd] = f[ins.Rs1] * f[ins.Rs2]
		case isa.OpFDIV:
			f[ins.Rd] = f[ins.Rs1] / f[ins.Rs2]
		case isa.OpFMIN:
			f[ins.Rd] = math.Min(f[ins.Rs1], f[ins.Rs2])
		case isa.OpFMAX:
			f[ins.Rd] = math.Max(f[ins.Rs1], f[ins.Rs2])
		case isa.OpFSQRT:
			f[ins.Rd] = math.Sqrt(f[ins.Rs1])
		case isa.OpFNEG:
			f[ins.Rd] = -f[ins.Rs1]
		case isa.OpFABS:
			f[ins.Rd] = math.Abs(f[ins.Rs1])
		case isa.OpFEXP:
			f[ins.Rd] = math.Exp(f[ins.Rs1])
		case isa.OpFLN:
			f[ins.Rd] = math.Log(f[ins.Rs1])
		case isa.OpFMOVD:
			f[ins.Rd] = math.Float64frombits(uint64(ins.Imm))
			pc += uint64(ins.Size()) - 4
		case isa.OpFMV:
			f[ins.Rd] = f[ins.Rs1]
		case isa.OpFMVXD:
			wr(x, ins.Rd, math.Float64bits(f[ins.Rs1]))
		case isa.OpFMVDX:
			f[ins.Rd] = math.Float64frombits(x[ins.Rs1])
		case isa.OpFCVTDL:
			f[ins.Rd] = float64(int64(x[ins.Rs1]))
		case isa.OpFCVTLD:
			wr(x, ins.Rd, uint64(int64(f[ins.Rs1])))
		case isa.OpFEQ:
			wr(x, ins.Rd, b2u(f[ins.Rs1] == f[ins.Rs2]))
		case isa.OpFLT:
			wr(x, ins.Rd, b2u(f[ins.Rs1] < f[ins.Rs2]))
		case isa.OpFLE:
			wr(x, ins.Rd, b2u(f[ins.Rs1] <= f[ins.Rs2]))

		default:
			cpu.PC = pc
			res, stop = Result{Reason: StopError, Err: fmt.Errorf("tcg: unimplemented op %s at %#x", ins.Op, pc)}, true
			break exec
		}
	}
	n := i // instructions that ran
	switch {
	case i < len(ops):
		n++ // the one that ended the block
		if fl != nil {
			// A page fault leaves PC at the faulting instruction.
			cpu.PC = pc
			e.Stats.Faults++
			t += e.Cost.FaultNs
			res, stop = Result{Reason: StopPageFault, Fault: *fl}, true
		}
	case b.fallPC != 0:
		// Fell off the end of a full-length block: continue at fallPC.
		cpu.PC, next = b.fallPC, b.fall
	default:
		cpu.PC = b.endPC
	}
	if n == len(ops) {
		t += b.cost
	} else {
		for k := range n {
			t += e.opCost[ops[k].Op]
		}
	}
	*spent = t
	e.Stats.ExecInsns += uint64(n)
	return next, res, stop
}

// atomicEnd is how one atomic instruction ended.
type atomicEnd uint8

const (
	atomicDone       atomicEnd = iota
	atomicFault                // page fault, returned beside it; nothing was written
	atomicMisaligned           // address not 8-byte aligned; nothing was written
	atomicYield                // retired contended, and the quantum ends after it
)

// atomic executes the LL, SC, CAS, AMOADD or AMOSWAP at pc: the one
// implementation of the atomics, which both executors run and each turns
// into its own kind of stop. The order of its steps is the contract the
// monitor, the sanitizer and the coherence layer rely on: alignment first;
// then, for everything that may write, a write-permission probe before the
// monitor is consulted, so an SC that faults keeps its reservation for the
// retry; then the access, the monitor, the sanitizer, and last the register.
// A contended atomic — a CAS whose comparison failed, an SC that lost its
// reservation — ends the scheduling quantum, the way QEMU ends translation
// blocks at synchronizing instructions: a failing spinner yields at once, so
// lock hand-offs interleave at instruction granularity, while a successful
// lock holder keeps its timeslice and is not convoyed.
func (e *Engine) atomic(cpu *CPU, op isa.Op, rd, rs1, rs2 uint8, pc uint64) (atomicEnd, mem.Fault) {
	x := &cpu.X
	mmu := e.Mem
	addr := x[rs1]
	if addr%8 != 0 {
		return atomicMisaligned, mem.Fault{}
	}
	taddr := mmu.Translate(addr)
	if op == isa.OpLL {
		v, fault := mmu.Load(addr, 8)
		if fault != nil {
			return atomicFault, *fault
		}
		e.Mon.OnLL(cpu.TID, taddr)
		if e.San != nil {
			e.San.OnAtomic(cpu.TID, taddr, 8, pc, false)
		}
		wr(x, rd, v)
		return atomicDone, mem.Fault{}
	}
	if mmu.PermOf(mmu.PageOf(taddr)) != mem.PermReadWrite {
		return atomicFault, mem.Fault{Addr: taddr, Page: mmu.PageOf(taddr), Write: true}
	}
	newVal, doStore := x[rs2], true
	var result uint64 // what rd receives: the old value, or 0/1 from an SC
	if op == isa.OpSC {
		doStore = e.Mon.ValidateSC(cpu.TID, taddr)
		result = b2u(!doStore)
	} else {
		old, fault := mmu.Load(addr, 8)
		if fault != nil {
			return atomicFault, *fault
		}
		result = old
		switch op {
		case isa.OpCAS:
			doStore = old == x[rd]
		case isa.OpAMOADD:
			newVal += old
		}
	}
	if doStore {
		if fault := mmu.Store(addr, newVal, 8); fault != nil {
			return atomicFault, *fault
		}
		if op != isa.OpSC && !e.Mon.Empty() {
			e.Mon.OnStore(cpu.TID, taddr)
		}
	}
	if e.San != nil {
		e.San.OnAtomic(cpu.TID, taddr, 8, pc, doStore)
	}
	wr(x, rd, result)
	if !doStore {
		return atomicYield, mem.Fault{}
	}
	return atomicDone, mem.Fault{}
}

// codeFault classifies a translation failure. A fetch from a page the node
// holds no readable copy of is an ordinary coherence miss — self-modifying
// or migrated code can live on another node — surfaced as StopPageFault so
// the scheduler requests the page like any data miss. Anything else (bad PC
// in a resident page, undecodable bytes) stays a hard StopError.
func (e *Engine) codeFault(pc uint64, spent int64, err error) Result {
	ba := e.Mem.Translate(pc)
	page := e.Mem.PageOf(ba)
	if e.Mem.PermOf(page) == mem.PermNone {
		e.Stats.Faults++
		spent += e.Cost.FaultNs
		return Result{Reason: StopPageFault, TimeNs: spent,
			Fault: mem.Fault{Addr: ba, Page: page}}
	}
	return Result{Reason: StopError, TimeNs: spent, Err: err}
}

func wr(x *[32]uint64, rd uint8, v uint64) {
	if rd != 0 {
		x[rd] = v
	}
}

func b2u(b bool) uint64 {
	if b {
		return 1
	}
	return 0
}

func sdiv(a, b int64) int64 {
	switch {
	case b == 0:
		return -1
	case a == math.MinInt64 && b == -1:
		return math.MinInt64
	default:
		return a / b
	}
}

func srem(a, b int64) int64 {
	switch {
	case b == 0:
		return a
	case a == math.MinInt64 && b == -1:
		return 0
	default:
		return a % b
	}
}

func loadSize(op isa.Op) uint8 {
	switch op {
	case isa.OpLB, isa.OpLBU:
		return 1
	case isa.OpLH, isa.OpLHU:
		return 2
	case isa.OpLW, isa.OpLWU:
		return 4
	default:
		return 8
	}
}

func storeSize(op isa.Op) uint8 {
	switch op {
	case isa.OpSB:
		return 1
	case isa.OpSH:
		return 2
	case isa.OpSW:
		return 4
	default:
		return 8
	}
}

func takeBranch(op isa.Op, a, b uint64) bool {
	switch op {
	case isa.OpBEQ:
		return a == b
	case isa.OpBNE:
		return a != b
	case isa.OpBLT:
		return int64(a) < int64(b)
	case isa.OpBGE:
		return int64(a) >= int64(b)
	case isa.OpBLTU:
		return a < b
	default: // OpBGEU
		return a >= b
	}
}
