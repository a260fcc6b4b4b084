package core

import (
	"fmt"

	"dqemu/internal/abi"
	"dqemu/internal/dsm"
	"dqemu/internal/mem"
	"dqemu/internal/proto"
	"dqemu/internal/sched"
	"dqemu/internal/tcg"
	"dqemu/internal/trace"
)

// master wraps node 0 with the centralized services of §4: the coherence
// directory, the manager threads executing delegated syscalls against the
// guest OS, and thread placement (round-robin or hint-based, §5.3).
type master struct {
	*node

	dir *dsm.Directory

	// wire is the wire-efficiency layer (delta transfers, invalidation
	// coalescing, push piggybacking) every page transfer goes through. With
	// both ablations set it ships every page whole, one page per container.
	wire *masterWire

	// helperWait parks manager-thread continuations needing a page at home.
	helperWait map[uint64][]func()

	// Hint-based placement state: locality group -> node.
	groupNode map[int64]int
	nextRR    int

	// Migration state (Config.Adaptive): where each live thread runs, and
	// which migrations are in flight (tid -> target node).
	placement  map[int64]int
	migrating  map[int64]int
	migrations uint64

	// fwd is the forwarder handed to the directory, retained for its
	// Hits/Wasted counts in Result.Dir; nil without Forwarding.
	fwd *dsm.Forwarder

	// pol is the feedback scheduler (Config.Adaptive); nil otherwise.
	pol *sched.Policy

	// createSan holds the creator's vector clock for the duration of a
	// SysThreadCreate delegation: Global calls StartThread synchronously, so
	// the stash bridges the two without widening the guestos.Host interface.
	createSan []byte
}

func newMaster(n *node) *master {
	m := &master{
		node:       n,
		helperWait: map[uint64][]func(){},
		groupNode:  map[int64]int{},
		placement:  map[int64]int{},
		migrating:  map[int64]int{},
	}
	cfg := n.cl.cfg
	if cfg.Forwarding {
		m.fwd = dsm.NewForwarder(cfg.ForwardTrigger, 0)
	}
	var split *dsm.Splitter
	if cfg.Splitting {
		split = dsm.NewSplitter(cfg.PageSize, cfg.SplitFactor, 0)
	}
	m.dir = dsm.New(m, m.fwd, split)
	m.wire = newMasterWire(m)
	return m
}

// sendNow flushes any buffered grants/pushes for the target before an
// immediate send, so buffering can never reorder the master's messages on
// one link relative to the unbuffered protocol.
func (m *master) sendNow(msg *proto.Msg) {
	m.wire.flushTarget(msg.To)
	m.cl.rt.Send(msg)
}

// handle dispatches master-bound messages: directory traffic and delegated
// syscalls go to the manager threads; everything else is ordinary node
// (communicator) work — the master is also a worker node.
func (m *master) handle(msg *proto.Msg) {
	if m.cl.done && msg.Kind != proto.KShutdown {
		return
	}
	// Grants and pushes queued while handling this message flush as (at
	// most) one message per target once the directory settles.
	defer m.wire.flushAll()
	switch msg.Kind {
	case proto.KPageReq:
		m.cl.prof.reqArrived(int(msg.From), msg.Page, msg.Write, m.cl.rt.Now())
		if m.pol != nil {
			// The locality sensor: which node homes the pages this thread
			// keeps faulting on. Read before OnRequest mutates ownership.
			m.pol.NoteFault(msg.TID, int(msg.From), m.dir.OwnerOf(msg.Page))
		}
		full := msg.Flags&proto.FlagFullResend != 0
		if full {
			m.wire.stats.Resends++
		}
		m.wire.noteRequest(msg.From, msg.Page, msg.Ver, full)
		m.dir.OnRequest(dsm.Request{
			Node:  int(msg.From),
			TID:   msg.TID,
			Page:  msg.Page,
			Addr:  msg.Addr,
			Write: msg.Write,
			Full:  full,
		})
	case proto.KFetchReply:
		data, san, err := m.wire.materializeFetchReply(msg.From, msg)
		if err != nil {
			m.cl.fail(err)
			return
		}
		if m.node.san != nil {
			// Fold the owner's shadow history into the home copy before the
			// directory acts on the reply: a synchronous local grant reads
			// the merged state.
			m.node.san.MergePage(msg.Page, san)
		}
		if err := m.dir.OnFetchReply(int(msg.From), msg.Page, data, msg.Write); err != nil {
			m.cl.fail(err)
		}
	case proto.KInvAck:
		if m.node.san != nil {
			m.node.san.MergePage(msg.Page, msg.AuxPart().San)
		}
		if err := m.dir.OnInvAck(int(msg.From), msg.Page); err != nil {
			m.cl.fail(err)
		}
	case proto.KSyscallReq:
		m.onSyscallReq(msg)
	case proto.KMigrateCtx:
		m.onMigrateCtx(msg)
	default:
		m.node.handle(msg)
	}
}

// onMigrateCtx forwards a migrating thread's context to its new node.
func (m *master) onMigrateCtx(msg *proto.Msg) {
	target, ok := m.migrating[msg.TID]
	if !ok {
		m.cl.fail(fmt.Errorf("master: unexpected migration context for tid %d", msg.TID))
		return
	}
	delete(m.migrating, msg.TID)
	m.placement[msg.TID] = target
	m.migrations++
	if target == 0 {
		aux := msg.AuxPart()
		cpu, err := proto.DecodeCPU(aux.CPU)
		if err != nil {
			m.cl.fail(err)
			return
		}
		if m.node.san != nil {
			m.node.san.InstallThread(msg.TID, aux.San)
		}
		m.node.addThread(cpu)
		return
	}
	m.sendNow(&proto.Msg{
		Kind: proto.KThreadStart, From: 0, To: int32(target),
		TID: msg.TID, Aux: msg.Aux, // context and clock, as they arrived
	})
}

// ---- sched.Actuator implementation (the feedback scheduler's levers) ----

// adaptTick assembles the per-period cluster snapshot, runs the policy, and
// re-arms. Everything it reads is kernel-serialized state, so the decisions
// are a pure function of the run so far — identically-seeded runs adapt
// identically.
func (m *master) adaptTick() {
	if m.cl.done {
		return
	}
	defer m.cl.rt.After(sched.PeriodNs, m.adaptTick)
	in := sched.Inputs{
		NowNs:        m.cl.rt.Now(),
		CoresPerNode: m.cl.cfg.Cores,
	}
	for id := 1; id <= m.cl.cfg.Slaves; id++ {
		in.ActiveNodes = append(in.ActiveNodes, id)
	}
	in.ThreadNodes = make(map[int64]int, len(m.placement))
	for tid, node := range m.placement {
		// Count in-flight migrations at their target: a context ship can
		// outlast a control period, and charging the thread to its source
		// until then fires the same imbalance again — a second thread moves,
		// overshoots, and the pair bounces between nodes without executing.
		if target, inFlight := m.migrating[tid]; inFlight {
			node = target
		}
		in.ThreadNodes[tid] = node
	}
	m.pol.Tick(in)
}

// MigrateThread ships tid to node `to`; no-op when the thread is gone,
// already there, or already in flight.
func (m *master) MigrateThread(tid int64, to int) {
	cur, ok := m.placement[tid]
	if !ok || cur == to {
		return
	}
	if _, inFlight := m.migrating[tid]; inFlight {
		return
	}
	m.migrating[tid] = to
	m.cl.rt.Send(&proto.Msg{Kind: proto.KMigrate, From: 0, To: int32(cur), TID: tid, Sys: &proto.Sys{Num: int64(to)}})
	m.cl.prof.migStarted(tid, m.cl.rt.Now())
}

// ForceSplit begins a SplitHome transaction ahead of the reactive splitter.
func (m *master) ForceSplit(page uint64) bool {
	return m.dir.ForceSplit(page)
}

// Tracef records a policy decision in the cluster trace.
func (m *master) Tracef(format string, args ...interface{}) {
	m.node.trace(trace.EvSched, -1, format, args...)
}

// onSyscallReq runs a delegated syscall on the manager thread for msg.From.
func (m *master) onSyscallReq(msg *proto.Msg) {
	from := msg.From
	tid := msg.TID
	sys, clock := msg.SysPart(), msg.AuxPart().San
	if sys.Num == sysExitNum {
		delete(m.placement, tid)
		delete(m.migrating, tid)
	}
	// DQSan happens-before edges ride on the delegation: the caller's clock
	// (clock) is released into the right master-side channel before the
	// syscall runs, and `attach` picks the clock the reply should carry. The
	// closure is evaluated when the reply actually fires — a parked futex wait
	// or join replies long after this request, once more wakes/exits have
	// accumulated.
	san := m.node.san
	var attach func() []byte
	if san != nil {
		switch sys.Num {
		case abi.SysFutex:
			taddr := m.space.Translate(sys.Args[0])
			if int64(sys.Args[1]) == abi.FutexWake {
				san.FutexWake(taddr, clock)
			} else {
				attach = func() []byte { return san.FutexWaitClock(taddr) }
			}
		case abi.SysThreadCreate:
			m.createSan = clock
		case abi.SysThreadJoin:
			child := int64(sys.Args[0])
			attach = func() []byte { return san.JoinClock(child) }
		case sysExitNum:
			san.RecordExit(tid, clock)
		}
	}
	reply := func(ret uint64) {
		if m.cl.done {
			return
		}
		rm := &proto.Msg{
			Kind: proto.KSyscallReply, From: 0, To: from, TID: tid, Sys: &proto.Sys{Ret: ret},
		}
		if attach != nil {
			rm.Aux = proto.SanAux(attach())
		}
		m.sendNow(rm)
	}
	m.cl.os.Global(tid, sys.Num, sys.Args, reply)
	m.createSan = nil
}

// ---- dsm.Env implementation (directory I/O) ----

// SendContent ships the home copy. A grant to the master itself applies
// synchronously: its effect must be ordered with the directory state change
// (a delayed local grant could otherwise be overtaken by a later remote
// write transaction that revokes the master's access, leaving two nodes in
// M — the in-flight-grant race).
func (m *master) SendContent(to int, page uint64, perm mem.Perm) {
	m.cl.prof.grantSent(to, page, m.cl.rt.Now())
	if to == dsm.Master {
		if perm == mem.PermReadWrite {
			// The home copy is about to be modified in place: snapshot it
			// (sharers keep twins at this version) and open a new version.
			m.wire.openLocalEpoch(page)
		}
		m.space.EnsurePage(page, perm)
		m.space.SetPerm(page, perm)
		m.node.contentArrived(page, perm)
		return
	}
	m.wire.queueGrant(int32(to), page, perm)
}

// SendReaffirm grants permission without data: the target already holds the
// freshest copy (KPageContent with an empty payload keeps local content).
func (m *master) SendReaffirm(to int, page uint64, perm mem.Perm) {
	m.cl.prof.grantSent(to, page, m.cl.rt.Now())
	if to == dsm.Master {
		if perm == mem.PermReadWrite && m.space.PermOf(page) != mem.PermReadWrite && m.wire.versioned(page) {
			// Same as SendContent: the master is about to write the home
			// copy in place, and other nodes may hold twins at its version.
			// A freshly split shadow page takes this path — the master
			// owns it, and applyRemap gave every slave a twin of it. The
			// other pages the master owns without write access are ones
			// nobody has touched yet: no version, no twins, nothing to
			// snapshot (every first touch of a page by a single-node run
			// comes through here).
			m.wire.openLocalEpoch(page)
		}
		m.space.EnsurePage(page, perm)
		m.space.SetPerm(page, perm)
		m.node.contentArrived(page, perm)
		return
	}
	m.sendNow(&proto.Msg{
		Kind: proto.KPageContent, From: 0, To: int32(to),
		Page: page, Perm: uint8(perm),
	})
}

func (m *master) SendInvalidate(to int, page uint64) {
	m.cl.prof.invalidated(page)
	if m.wire.coalesce {
		m.wire.queueInvalidate(int32(to), page)
		return
	}
	m.sendNow(&proto.Msg{Kind: proto.KInvalidate, From: 0, To: int32(to), Page: page})
}

func (m *master) SendFetch(owner int, page uint64, invalidate bool) {
	msg := &proto.Msg{Kind: proto.KFetch, From: 0, To: int32(owner), Page: page, Write: invalidate}
	if m.wire.delta {
		// Stamp the epoch naming the owner's content so the reply's diff
		// carries the version the page will be known by.
		msg.Ver = m.wire.fetchEpoch(page)
	}
	m.sendNow(msg)
}

func (m *master) SendRetry(to int, page uint64, tid int64) {
	m.cl.prof.requestDropped(to, page)
	if to == dsm.Master {
		// Synchronous for the same reason as SendContent.
		m.node.retryArrived(page)
		return
	}
	m.sendNow(&proto.Msg{Kind: proto.KRetry, From: 0, To: int32(to), Page: page, TID: tid})
}

func (m *master) HomeWriteback(page uint64, data []byte) {
	m.space.InstallPage(page, data, mem.PermNone)
	// The written-back copy carries another node's modifications: any
	// reservation or cached translation of the old bytes is stale.
	m.llsc.InvalidatePage(page, m.space.PageSize())
	m.engine.InvalidatePage(page)
}

func (m *master) HomeSetPerm(page uint64, perm mem.Perm) {
	m.space.SetPerm(page, perm)
	if perm == mem.PermNone {
		// Losing the page to a remote writer: its code may change under us.
		m.llsc.InvalidatePage(page, m.space.PageSize())
		m.engine.InvalidatePage(page)
	}
}

func (m *master) BroadcastRemap(orig uint64, shadows []uint64) {
	if err := m.space.AddRemap(orig, shadows); err != nil {
		m.cl.fail(fmt.Errorf("master remap: %w", err))
		return
	}
	m.llsc.InvalidatePage(orig, m.space.PageSize())
	m.wire.broadcastRemap(orig, shadows)
}

func (m *master) PushPage(to int, page uint64) {
	m.wire.queuePush(int32(to), page)
}

// SplitHome redistributes the (current) home copy of orig into shadows,
// each holding one part at the original in-page offset (§5.1, Fig. 4).
func (m *master) SplitHome(orig uint64, shadows []uint64) {
	m.node.trace(trace.EvSplit, -1, "page %#x -> %d shadows at %#x", orig, len(shadows), shadows[0])
	src := m.space.EnsurePage(orig, m.space.PermOf(orig))
	part := len(src) / len(shadows)
	for i, sh := range shadows {
		m.space.InstallPage(sh, nil, mem.PermNone)
		copy(m.space.PageData(sh)[i*part:(i+1)*part], src[i*part:(i+1)*part])
	}
	if m.node.san != nil {
		m.node.san.SplitPage(orig, shadows)
	}
}

// ---- guestos.Host implementation (manager-thread services) ----

// ReadGuest delivers fresh bytes, pulling pages home first (§4.3).
func (m *master) ReadGuest(addr uint64, n int, cb func([]byte, error)) {
	m.ensurePages(addr, n, false, func() {
		buf := make([]byte, n)
		if err := m.space.ReadBytes(addr, buf); err != nil {
			cb(nil, err)
			return
		}
		cb(buf, nil)
	})
}

// WriteGuest updates the home copy with exclusive access, so remote copies
// of the touched pages are invalidated first.
func (m *master) WriteGuest(addr uint64, data []byte, cb func(error)) {
	m.ensurePages(addr, len(data), true, func() {
		cb(m.space.WriteBytes(addr, data))
	})
}

// ensurePages acquires the needed access on every page overlapping
// [addr, addr+n) through the normal coherence protocol, then calls done.
// helperStep must be smaller than the smallest split part.
const helperStep = 256

func (m *master) ensurePages(addr uint64, n int, write bool, done func()) {
	if n <= 0 {
		done()
		return
	}
	need := mem.PermRead
	if write {
		need = mem.PermReadWrite
	}
	var attempt func()
	attempt = func() {
		if m.cl.done {
			return
		}
		for off := 0; off < n; off += helperStep {
			ba := m.space.Translate(addr + uint64(off))
			page := m.space.PageOf(ba)
			if permSatisfies(m.space.PermOf(page), need) {
				continue
			}
			m.helperWait[page] = append(m.helperWait[page], attempt)
			m.node.requestPage(page, ba, write, -1)
			return
		}
		// The tail byte may start a new page.
		ba := m.space.Translate(addr + uint64(n-1))
		page := m.space.PageOf(ba)
		if !permSatisfies(m.space.PermOf(page), need) {
			m.helperWait[page] = append(m.helperWait[page], attempt)
			m.node.requestPage(page, ba, write, -1)
			return
		}
		done()
	}
	attempt()
}

func permSatisfies(have, need mem.Perm) bool {
	return have >= need
}

// wakeHelpers reruns manager-thread continuations parked on page.
func (m *master) wakeHelpers(page uint64) {
	waiters := m.helperWait[page]
	if len(waiters) == 0 {
		return
	}
	delete(m.helperWait, page)
	for _, w := range waiters {
		w()
	}
}

// StartThread builds the child CPU context and places it (§4.1): PC at the
// runtime trampoline, fn/arg in A0/A1, a fresh stack, then ships the context
// to the chosen node.
func (m *master) StartThread(tid int64, fn, arg, stackTop uint64, hint int64) {
	cpu := &tcg.CPU{PC: m.cl.trampoline, TID: tid, HintGroup: hint}
	cpu.X[10] = fn
	cpu.X[11] = arg
	cpu.X[2] = stackTop
	target := m.placeThread(hint)
	m.node.trace(trace.EvSched, tid, "placed on node %d (hint %d)", target, hint)
	m.placement[tid] = target
	if target == 0 {
		if m.node.san != nil {
			m.node.san.InstallThread(tid, m.createSan)
		}
		m.node.addThread(cpu)
		return
	}
	m.sendNow(&proto.Msg{
		Kind: proto.KThreadStart, From: 0, To: int32(target),
		TID: tid, Aux: &proto.Aux{CPU: proto.EncodeCPU(cpu), San: m.createSan},
	})
}

// placeThread picks the node for a new thread: same-group threads go
// together when hint scheduling is on, otherwise round-robin (§5.3).
func (m *master) placeThread(hint int64) int {
	cfg := m.cl.cfg
	if cfg.Slaves == 0 {
		return 0
	}
	if cfg.HintSched && hint != 0 {
		if nodeID, ok := m.groupNode[hint]; ok {
			return nodeID
		}
		nodeID := m.rotate()
		m.groupNode[hint] = nodeID
		return nodeID
	}
	return m.rotate()
}

// rotate round-robins worker threads over the slaves. The master takes none
// while slaves exist: the paper's scalability studies count slave nodes.
func (m *master) rotate() int {
	nodeID := 1 + m.nextRR%m.cl.cfg.Slaves
	m.nextRR++
	return nodeID
}

func (m *master) Shutdown(code int64) { m.cl.finish(code) }

func (m *master) ConsoleWrite(fd int64, data []byte) {
	m.cl.console.Write(data)
	if m.cl.cfg.Stdout != nil {
		m.cl.cfg.Stdout.Write(data)
	}
}

func (m *master) NowNs() int64 { return m.cl.rt.Now() }
