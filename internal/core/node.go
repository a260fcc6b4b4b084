package core

import (
	"encoding/binary"
	"fmt"

	"dqemu/internal/abi"
	"dqemu/internal/guestos"
	"dqemu/internal/mem"
	"dqemu/internal/proto"
	"dqemu/internal/sanitizer"
	"dqemu/internal/tcg"
	"dqemu/internal/trace"
)

// node is one DQEMU instance: a TCG engine over a local view of the guest
// address space, an OS-style core scheduler, and a communicator that handles
// protocol messages (§4). Node 0 is the master and carries extra state (see
// master.go).
type node struct {
	id     int
	cl     *Cluster
	space  *mem.Space
	engine *tcg.Engine
	llsc   *tcg.LLSCTable

	threads map[int64]*thread
	runq    []*thread
	busy    int // cores currently running a thread

	// san is this node's DQSan state (nil unless Config.Sanitizer): thread
	// vector clocks and shadow pages that travel with the coherence protocol.
	san *sanitizer.Node

	// Page-fault bookkeeping: blocked threads per page and which requests
	// are already outstanding (bit0 = read requested, bit1 = write).
	waiting   map[uint64][]*thread
	requested map[uint64]uint8

	// Delta-transfer state (nil when Config.NoDelta, and on the master, whose
	// grants are local): twins hold the last coherent content of each page at
	// its directory version; resend marks pages whose grant mismatched and is
	// being re-requested in full.
	twins  map[uint64]*pageTwin
	resend map[uint64]bool
	// fetchScratch is where the body of a fetch reply is encoded on its way
	// into the reply's container; it keeps its array from fetch to fetch and
	// is never sent.
	fetchScratch []byte

	// Outstanding timer wakeups etc. keep the node referenced.
	stats NodeStats
}

// NodeStats is the per-node activity summary.
type NodeStats struct {
	Node        int
	Threads     int
	Engine      tcg.Stats
	PageFaults  uint64
	PageWaitNs  int64
	LocalSys    uint64
	GlobalSys   uint64
	LLSCFalse   uint64
	SplitPages  int
	Resident    int
	MigratedOut uint64
}

const (
	reqRead  uint8 = 1
	reqWrite uint8 = 2
)

func newNode(id int, cl *Cluster) *node {
	space := mem.NewSpace(cl.cfg.PageSize)
	engine := tcg.NewEngine(space, tcg.DefaultCostModel())
	engine.NoCache = cl.cfg.Interp
	engine.NoSuperblock = cl.cfg.NoSuperblock
	engine.Verify = cl.cfg.Verify
	n := &node{
		id:        id,
		cl:        cl,
		space:     space,
		engine:    engine,
		llsc:      engine.Mon,
		threads:   map[int64]*thread{},
		waiting:   map[uint64][]*thread{},
		requested: map[uint64]uint8{},
	}
	if cl.cfg.Sanitizer {
		n.san = sanitizer.New(id, cl.cfg.PageSize)
		engine.San = n.san
	}
	if !cl.cfg.NoDelta && id != 0 {
		n.twins = map[uint64]*pageTwin{}
		n.resend = map[uint64]bool{}
	}
	return n
}

// addThread registers and enqueues a new guest thread.
func (n *node) addThread(cpu *tcg.CPU) *thread {
	t := &thread{tid: cpu.TID, cpu: cpu, node: n, state: tRunnable}
	t.done = t.complete
	n.threads[cpu.TID] = t
	// The landing of a migration carries on the thread's time breakdown and
	// closes the migration-transit measurement (no-ops for new threads).
	if old := n.cl.inTransit[cpu.TID]; old != nil {
		t.execNs, t.faultNs, t.syscallNs = old.execNs, old.faultNs, old.syscallNs
		delete(n.cl.inTransit, cpu.TID)
	}
	n.cl.prof.migArrived(cpu.TID, n.cl.rt.Now())
	n.enqueue(t)
	return t
}

// enqueue makes t runnable and kicks the scheduler. A thread marked for
// migration ships its context instead: this is the "clean boundary" where
// no node-local state (pending syscall, parked retry) is attached to it.
func (n *node) enqueue(t *thread) {
	if t.migrating {
		n.shipContext(t)
		return
	}
	t.state = tRunnable
	n.runq = append(n.runq, t)
	n.schedule()
}

// trace records an event when tracing is enabled.
func (n *node) trace(kind trace.Kind, tid int64, format string, args ...interface{}) {
	if tr := n.cl.cfg.Tracer; tr != nil {
		tr.Record(n.cl.rt.Now(), kind, n.id, tid, format, args...)
	}
}

// shipContext hands t's CPU context back to the master for re-placement.
func (n *node) shipContext(t *thread) {
	n.trace(trace.EvSched, t.tid, "migrating away")
	delete(n.threads, t.tid)
	n.cl.inTransit[t.tid] = t
	n.llsc.DropThread(t.tid)
	t.state = tDead
	n.stats.MigratedOut++
	msg := proto.Msg{
		Kind: proto.KMigrateCtx, From: int32(n.id), To: 0,
		TID: t.tid, Aux: &proto.Aux{CPU: proto.EncodeCPU(t.cpu)},
	}
	if n.san != nil {
		// The vector clock is part of the thread context: it migrates with
		// the CPU state and is dropped here like the LL/SC reservation.
		msg.Aux.San = n.san.EncodeThread(t.tid)
		n.san.DropThread(t.tid)
	}
	n.cl.send(msg)
}

// onMigrate marks a thread for migration; if it is already runnable it
// ships at once, otherwise it ships when it next unblocks.
func (n *node) onMigrate(m *proto.Msg) {
	t := n.threads[m.TID]
	if t == nil || t.state == tDead {
		return // already exited; the master prunes its records on exit
	}
	t.migrating = true
	if t.state == tRunnable {
		for i, q := range n.runq {
			if q == t {
				n.runq = append(n.runq[:i], n.runq[i+1:]...)
				break
			}
		}
		n.shipContext(t)
	}
}

// schedule dispatches runnable threads onto free cores.
func (n *node) schedule() {
	for n.busy < n.cl.cfg.Cores && len(n.runq) > 0 && !n.cl.done {
		t := n.runq[0]
		// Copy down rather than reslice: the queue keeps its backing array.
		n.runq = n.runq[:copy(n.runq, n.runq[1:])]
		n.busy++
		n.dispatch(t)
	}
}

// dispatch runs one scheduling quantum for t. Guest execution happens
// eagerly; its virtual-time cost is charged by scheduling the completion
// event res.TimeNs in the future (quantum-granularity conservative
// simulation, see DESIGN.md).
func (n *node) dispatch(t *thread) {
	t.state = tRunning
	n.cl.cfg.Tracer.Begin(n.cl.rt.Now(), trace.EvSched, n.id, t.tid, "exec")
	t.res = n.engine.Exec(t.cpu, n.cl.cfg.QuantumNs)
	t.execNs += t.res.TimeNs
	n.cl.rt.Ran(t.res.TimeNs, t.done)
}

// complete handles the end of t's quantum, whose result is t.res.
func (t *thread) complete() {
	n := t.node
	res := t.res // a copy: the cases below may dispatch t again
	n.busy--
	n.cl.cfg.Tracer.End(n.cl.rt.Now(), trace.EvSched, n.id, t.tid, "exec")
	if n.cl.done {
		return
	}
	switch res.Reason {
	case tcg.StopBudget:
		n.enqueue(t)
	case tcg.StopPageFault:
		n.stats.PageFaults++
		if n.cl.cfg.Tracer != nil { // the arguments are boxed before trace can look
			n.trace(trace.EvFault, t.tid, "addr=%#x page=%#x write=%v", res.Fault.Addr, res.Fault.Page, res.Fault.Write)
		}
		n.blockOnPage(t, res.Fault.Page, res.Fault.Addr, res.Fault.Write)
	case tcg.StopSyscall:
		n.syscall(t)
	case tcg.StopHalt:
		// HALT outside the runtime: thread exit 0, delegated like the
		// syscall (the master may be another process).
		t.cpu.X[10] = 0
		n.delegate(t, abi.SysExit)
	case tcg.StopEBreak:
		n.cl.fail(fmt.Errorf("node %d: thread %d hit ebreak at pc %#x", n.id, t.tid, t.cpu.PC))
	default:
		n.cl.fail(fmt.Errorf("node %d: thread %d: %v", n.id, t.tid, res.Err))
	}
	n.schedule()
}

// blockOnPage parks t until the coherence protocol delivers the page. addr
// is the exact faulting data address — the false-sharing detector needs it
// to tell which part of the page each node touches (§5.1).
func (n *node) blockOnPage(t *thread, page, addr uint64, write bool) {
	if n.permOK(page, write) {
		// Spurious fault: the page arrived (e.g. a forwarded push) between
		// the access and this completion event. Retry immediately, like a
		// SIGSEGV handler rechecking the mapping.
		n.enqueue(t)
		return
	}
	t.state = tBlockedPage
	t.needWrite = write
	t.waitPage = page
	t.blockStart = n.cl.rt.Now()
	n.cl.cfg.Tracer.Begin(t.blockStart, trace.EvFault, n.id, t.tid, "page-stall")
	n.waiting[page] = append(n.waiting[page], t)
	n.requestPage(page, addr, write, t.tid)
}

// requestPage sends a PageRequest unless an equivalent one is outstanding.
func (n *node) requestPage(page uint64, addr uint64, write bool, tid int64) {
	var bit uint8 = reqRead
	if write {
		bit = reqWrite
	}
	if n.requested[page]&bit != 0 {
		return
	}
	n.requested[page] |= bit
	msg := proto.Msg{
		Kind:  proto.KPageReq,
		From:  int32(n.id),
		To:    0,
		TID:   tid,
		Page:  page,
		Addr:  addr,
		Write: write,
	}
	if n.twins != nil {
		// Advertise the twin version so the grant can be a diff against it
		// (or a bare reaffirmation when it is still current).
		if tw := n.twins[page]; tw != nil {
			msg.Ver = tw.ver
		}
	}
	n.cl.send(msg)
}

// wakePageWaiters releases threads whose page need is now satisfied.
func (n *node) wakePageWaiters(page uint64, perm mem.Perm) {
	waiters := n.waiting[page]
	if len(waiters) == 0 {
		return
	}
	still := waiters[:0] // filtered in place; nothing below parks a thread on this page
	for _, t := range waiters {
		if t.needWrite && perm != mem.PermReadWrite {
			still = append(still, t)
			continue
		}
		n.unblockPage(t)
	}
	n.waiting[page] = still // emptied or not, the page's next fault reuses the array
	if len(still) == 0 {
		return
	}
	// Readers were satisfied but writers remain: make sure a write request
	// is outstanding.
	n.requestPage(page, still[0].cpu.PC, true, still[0].tid)
}

// unblockPage finishes a page stall: account the wait, then either resume
// guest execution or retry the parked local-syscall handler.
func (n *node) unblockPage(t *thread) {
	now := n.cl.rt.Now()
	wait := now - t.blockStart
	t.faultNs += wait
	n.stats.PageWaitNs += wait
	n.cl.cfg.Tracer.End(now, trace.EvFault, n.id, t.tid, "page-stall")
	n.cl.prof.faultResolved(n.id, t.waitPage, wait, now)
	if t.syscallRetry != nil {
		retry := t.syscallRetry
		t.syscallRetry = nil
		t.state = tRunnable
		retry(t)
		return
	}
	n.enqueue(t)
}

// ---- Syscall dispatch (§4.3) ----

// syscall routes the trapped syscall: local ones execute here; global ones
// are delegated to the master through the communicator.
func (n *node) syscall(t *thread) {
	num := int64(t.cpu.X[17])
	n.trace(trace.EvSyscall, t.tid, "num=%d a0=%#x", num, t.cpu.X[10])
	if guestos.IsGlobal(num) {
		n.stats.GlobalSys++
		n.delegate(t, num)
		return
	}
	n.stats.LocalSys++
	n.localSyscall(t, num)
}

// delegate ships the syscall to the master and blocks the thread (except
// exit, which also reaps the thread locally).
func (n *node) delegate(t *thread, num int64) {
	var args [6]uint64
	copy(args[:], t.cpu.X[10:16])
	if num == abi.SysThreadCreate {
		// Carry the creator's locality hint for placement (§5.3).
		args[3] = uint64(t.cpu.HintGroup)
	}
	switch num {
	case abi.SysExit:
		t.state = tDead
	case abi.SysExitGroup:
		t.state = tDead
	default:
		t.state = tBlockedSyscall
		t.blockStart = n.cl.rt.Now()
		n.cl.cfg.Tracer.Begin(t.blockStart, trace.EvSyscall, n.id, t.tid, "syscall-wait")
	}
	msg := proto.Msg{
		Kind: proto.KSyscallReq,
		From: int32(n.id),
		To:   0,
		TID:  t.tid,
		Sys:  &proto.Sys{Num: num, Args: args},
	}
	if n.san != nil {
		// Every delegation releases the caller's clock to the master: thread
		// create, futex wake and exit all publish whatever the caller did
		// before trapping. SyscallClock ticks afterwards, so later accesses
		// by this thread are not ordered before the master's use of it.
		msg.Aux = proto.SanAux(n.san.SyscallClock(t.tid))
	}
	n.cl.send(msg)
}

// localSyscall executes a node-local syscall. Handlers that touch guest
// memory may fault; they park themselves via retryOnFault and re-run when
// the page arrives.
func (n *node) localSyscall(t *thread, num int64) {
	switch num {
	case abi.SysGetTID:
		t.cpu.X[10] = uint64(t.tid)
		n.enqueue(t)
	case abi.SysNodeID:
		t.cpu.X[10] = uint64(n.id)
		n.enqueue(t)
	case abi.SysNumNodes:
		t.cpu.X[10] = uint64(n.cl.cfg.Nodes())
		n.enqueue(t)
	case abi.SysTimeNs:
		t.cpu.X[10] = uint64(n.cl.rt.Now())
		n.enqueue(t)
	case abi.SysSchedYield:
		t.cpu.X[10] = 0
		n.enqueue(t)
	case abi.SysHint:
		t.cpu.HintGroup = int64(t.cpu.X[10])
		t.cpu.X[10] = 0
		n.enqueue(t)
	case abi.SysClockGettime:
		n.clockGettime(t)
	case abi.SysNanosleep:
		n.nanosleep(t)
	default:
		n.cl.fail(fmt.Errorf("node %d: unclassified local syscall %d", n.id, num))
	}
}

// clockGettime writes a timespec of the virtual clock to *args[1].
func (n *node) clockGettime(t *thread) {
	addr := t.cpu.X[11]
	now := n.cl.rt.Now()
	var buf [16]byte
	binary.LittleEndian.PutUint64(buf[0:], uint64(now/1_000_000_000))
	binary.LittleEndian.PutUint64(buf[8:], uint64(now%1_000_000_000))
	n.guestWriteOrRetry(t, addr, buf[:], (*node).clockGettime, func() {
		t.cpu.X[10] = 0
		n.enqueue(t)
	})
}

// nanosleep reads a timespec from *args[0] and parks t on a timer.
func (n *node) nanosleep(t *thread) {
	addr := t.cpu.X[10]
	buf := make([]byte, 16)
	if err := n.space.ReadBytes(addr, buf); err != nil {
		n.retryOnFault(t, addr, false, (*node).nanosleep)
		return
	}
	le := binary.LittleEndian
	ns := int64(le.Uint64(buf[0:]))*1_000_000_000 + int64(le.Uint64(buf[8:]))
	if ns < 0 {
		ns = 0
	}
	t.state = tBlockedTimer
	t.blockStart = n.cl.rt.Now()
	n.cl.rt.After(ns, func() {
		if n.cl.done || t.state != tBlockedTimer {
			return
		}
		t.syscallNs += n.cl.rt.Now() - t.blockStart
		t.cpu.X[10] = 0
		n.enqueue(t)
	})
}

// guestWriteOrRetry performs a protocol-respecting write from a local
// syscall handler: it requires local write permission on the touched pages
// and otherwise faults like a guest store would.
func (n *node) guestWriteOrRetry(t *thread, addr uint64, data []byte, retry func(*node, *thread), done func()) {
	for i := range data {
		ba := n.space.Translate(addr + uint64(i))
		if n.space.PermOf(n.space.PageOf(ba)) != mem.PermReadWrite {
			n.retryOnFault(t, ba, true, retry)
			return
		}
	}
	for i := range data {
		n.space.Store(addr+uint64(i), uint64(data[i]), 1)
	}
	done()
}

// permOK reports whether the local page state satisfies the access.
func (n *node) permOK(page uint64, write bool) bool {
	perm := n.space.PermOf(page)
	if write {
		return perm == mem.PermReadWrite
	}
	return perm >= mem.PermRead
}

// retryOnFault parks t waiting for page access and re-runs handler after
// the page arrives.
func (n *node) retryOnFault(t *thread, addr uint64, write bool, handler func(*node, *thread)) {
	page := n.space.PageOf(n.space.Translate(addr))
	if n.permOK(page, write) {
		handler(n, t)
		return
	}
	t.syscallRetry = func(t *thread) { handler(n, t) }
	n.blockOnPage(t, page, addr, write)
}

// ---- Communicator: protocol message handling (helper thread, §4) ----

func (n *node) handle(m *proto.Msg) {
	if n.cl.done && m.Kind != proto.KShutdown {
		return
	}
	switch m.Kind {
	case proto.KPageContent:
		n.onPageContent(m)
	case proto.KInvalidate:
		n.onInvalidate(m)
	case proto.KFetch:
		n.onFetch(m)
	case proto.KRetry:
		n.onRetry(m)
	case proto.KRemap:
		n.onRemap(m)
	case proto.KPush:
		n.onCohFrame(m)
	case proto.KSyscallReply:
		n.onSyscallReply(m)
	case proto.KThreadStart:
		n.onThreadStart(m)
	case proto.KMigrate:
		n.onMigrate(m)
	case proto.KShutdown:
		// The guest exited on the master. Under the simulator the flag is
		// already set (one Cluster hosts every node) and the run has ended
		// before this frame lands; a live slave learns it here.
		n.cl.done = true
	default:
		n.cl.fail(fmt.Errorf("node %d: unexpected message %v", n.id, m.Kind))
	}
}

func (n *node) onPageContent(m *proto.Msg) {
	if m.Data != nil {
		n.onCohFrame(m)
		return
	}
	// Permission-only reaffirmation: keep the local (freshest) copy.
	perm := mem.Perm(m.Perm)
	n.space.EnsurePage(m.Page, perm)
	n.space.SetPerm(m.Page, perm)
	n.contentArrived(m.Page, perm)
}

// contentArrived updates request bookkeeping and wakes whoever waited for
// the page (guest threads, and on the master also manager-thread helpers).
func (n *node) contentArrived(page uint64, perm mem.Perm) {
	if perm == mem.PermReadWrite {
		delete(n.requested, page)
	} else {
		n.requested[page] &^= reqRead
		if n.requested[page] == 0 {
			delete(n.requested, page)
		}
	}
	n.cl.prof.contentApplied(n.id, page, n.cl.rt.Now())
	n.wakePageWaiters(page, perm)
	if n.id == 0 {
		n.cl.master.wakeHelpers(page)
	}
}

func (n *node) onInvalidate(m *proto.Msg) {
	san := n.revoke(m.Page, true)
	n.cl.send(proto.Msg{Kind: proto.KInvAck, From: int32(n.id), To: 0, Page: m.Page, Aux: proto.SanAux(san)})
}

// revoke gives up this node's hold on page, dropping the local copy (drop)
// or downgrading it to shared, and returns the shadow history the ack or
// fetch reply must carry home: the next owner must see this node's accesses,
// and keeping the history here would detach it from the page. The twin
// survives — that is the whole point of twins.
func (n *node) revoke(page uint64, drop bool) []byte {
	var san []byte
	if n.san != nil {
		san = n.san.EncodePage(page)
	}
	if !drop {
		n.space.SetPerm(page, mem.PermRead)
		return san
	}
	n.space.DropPage(page)
	n.llsc.InvalidatePage(page, n.space.PageSize())
	n.engine.InvalidatePage(page)
	if n.san != nil {
		n.san.DropPage(page)
	}
	return san
}

func (n *node) onRetry(m *proto.Msg) {
	n.retryArrived(m.Page)
}

// retryArrived drops request state for a split page and re-runs everyone who
// waited on it; their retried accesses go through the new remap.
func (n *node) retryArrived(page uint64) {
	delete(n.requested, page)
	delete(n.resend, page) // the page was split; the full re-grant is moot
	waiters := n.waiting[page]
	delete(n.waiting, page)
	for _, t := range waiters {
		n.unblockPage(t)
	}
	if n.id == 0 {
		n.cl.master.wakeHelpers(page)
	}
}

func (n *node) onRemap(m *proto.Msg) {
	n.applyRemap(m.Page, m.AuxPart().Shadows, m.Ver)
}

// applyRemap installs a page split. ver, when nonzero, is the home version
// of the original page at split time: a twin at exactly that version holds
// the coherent pre-split content and is split along with the page, so the
// first transfers of the shadows can already be diffs.
func (n *node) applyRemap(orig uint64, shadows []uint64, ver uint64) {
	if err := n.space.AddRemap(orig, shadows); err != nil {
		n.cl.fail(fmt.Errorf("node %d: remap: %w", n.id, err))
		return
	}
	n.llsc.InvalidatePage(orig, n.space.PageSize())
	n.engine.InvalidatePage(orig)
	if n.san != nil {
		// Accesses now translate to the shadow pages; any leftover shadow
		// state keyed by the original page is unreachable (the home split
		// its own copy via SplitHome before broadcasting the remap).
		n.san.DropPage(orig)
	}
	if n.twins == nil {
		return
	}
	tw := n.twins[orig]
	delete(n.resend, orig)
	if tw == nil || ver == 0 || tw.ver != ver {
		n.dropTwin(orig)
		return
	}
	delete(n.twins, orig)
	ps := n.space.PageSize()
	part := ps / len(shadows)
	for i, sh := range shadows {
		buf := tw.data // the retired original's buffer serves the first shadow
		if i > 0 {
			buf = mem.NewPageBuf(ps)
			copy(buf[i*part:(i+1)*part], tw.data[i*part:(i+1)*part])
		}
		n.dropTwin(sh)
		n.twins[sh] = &pageTwin{ver: 1, data: buf}
	}
	clear(tw.data[part:])
}

func (n *node) onSyscallReply(m *proto.Msg) {
	t := n.threads[m.TID]
	if t == nil || t.state != tBlockedSyscall {
		n.cl.fail(fmt.Errorf("node %d: stray syscall reply for tid %d", n.id, m.TID))
		return
	}
	n.cl.cfg.Tracer.End(n.cl.rt.Now(), trace.EvSyscall, n.id, t.tid, "syscall-wait")
	t.syscallNs += n.cl.rt.Now() - t.blockStart
	t.cpu.X[10] = m.SysPart().Ret
	if n.san != nil {
		// Acquire whatever clock the master attached: futex-wait wakeups
		// carry the wakers' releases, join replies the target's exit clock.
		n.san.Acquire(m.TID, m.AuxPart().San)
	}
	n.enqueue(t)
}

func (n *node) onThreadStart(m *proto.Msg) {
	aux := m.AuxPart()
	cpu, err := proto.DecodeCPU(aux.CPU)
	if err != nil {
		n.cl.fail(fmt.Errorf("node %d: thread start: %w", n.id, err))
		return
	}
	if n.san != nil {
		// New or migrated thread: its clock (creator's clock at create, or
		// the migrated thread's own) arrives with the context.
		n.san.InstallThread(m.TID, aux.San)
	}
	n.addThread(cpu)
}

// snapshotStats fills the exported per-node stats.
func (n *node) snapshotStats() NodeStats {
	s := n.stats
	s.Node = n.id
	s.Threads = len(n.threads)
	s.Engine = n.engine.Stats
	s.LLSCFalse = n.llsc.FalseFailures
	s.SplitPages = n.space.RemapCount()
	s.Resident = n.space.ResidentPages()
	return s
}
