package core

import (
	"bytes"
	"errors"
	"fmt"
	"sort"

	"dqemu/internal/dsm"
	"dqemu/internal/guestos"
	"dqemu/internal/image"
	"dqemu/internal/mem"
	"dqemu/internal/metrics"
	"dqemu/internal/netsim"
	"dqemu/internal/proto"
	"dqemu/internal/sanitizer"
	"dqemu/internal/sched"
	"dqemu/internal/tcg"
)

const sysExitNum = 93 // abi.SysExit; local alias avoids an import knot in docs

// mmapBase is where thread stacks and large allocations are handed out.
const mmapBase = 0x4100_0000

// maxTimeNs is how much virtual time a simulated run may take before it
// fails: an hour.
const maxTimeNs = int64(3600) * 1_000_000_000

// Cluster is the part of a DQEMU deployment — one master plus cfg.Slaves
// slaves executing a single guest image — that this process hosts: every
// node under the simulator's one virtual clock (NewCluster), exactly one
// node in a live process (NewLocal). master and os exist where node 0 does.
type Cluster struct {
	cfg Config
	rt  Runtime
	// sim is the deterministic simulator when it drives the cluster (Run,
	// network statistics, fault injection); nil under a caller's Runtime.
	sim *simRuntime
	// rel is the reliable layer between the engine and rt's wire: present
	// exactly when Config.Faults is active, on either runtime.
	rel    *netsim.Reliable
	nodes  []*node
	master *master
	os     *guestos.OS
	im     *image.Image

	// inTransit holds each thread a migration shipped away until it lands:
	// the thread made on the target node takes over its time breakdown.
	inTransit map[int64]*thread

	trampoline uint64

	// wireStats accumulates wire-efficiency-layer activity from both the
	// master (encoding choices, batching) and the nodes (mismatch resends,
	// dropped pushes). With both ablations set it counts the whole pages the
	// layer ships.
	wireStats WireStats

	// frames are the delivered frames kept for the cluster's next sends.
	frames frames

	// prof is the metrics recorder (Config.Metrics); nil when disabled,
	// which makes every instrumentation hook a zero-allocation no-op.
	prof *clusterProf

	done     bool
	exitCode int64
	err      error
	console  bytes.Buffer

	// released is set when the run ends (Run, End); every method panics
	// after it.
	released bool
}

// ErrCanceled is returned (wrapped) by Cluster.Run when Config.Cancel
// closes before the guest exits.
var ErrCanceled = errors.New("run canceled")

// Result reports a finished run.
type Result struct {
	ExitCode int64
	// TimeNs is the guest's virtual wall-clock time at exit.
	TimeNs  int64
	Console string

	Threads []ThreadStats
	Nodes   []NodeStats
	Dir     dsm.Stats
	Net     netsim.Stats
	// Faults and Rel report injected-fault and reliable-transport activity;
	// both are zero on fault-free runs.
	Faults netsim.FaultStats
	Rel    netsim.RelStats
	OS     guestos.Stats
	// Migrations counts thread migrations that landed (Config.Adaptive).
	Migrations uint64
	// Wire reports the wire-efficiency layer (delta transfers, coalescing).
	Wire WireStats
	// San holds the DQSan report (races, lint diagnostics, instrumentation
	// counts) when Config.Sanitizer is on; nil otherwise.
	San *sanitizer.Summary
	// Metrics is the observability snapshot (fault-latency histograms,
	// page heat, lock contention, per-thread migration transit, and this
	// Result's Rows) when Config.Metrics is on; nil otherwise.
	Metrics *metrics.Snapshot
	// Sched counts feedback-scheduler decisions (Config.Adaptive); zero
	// when the adaptive loop is off.
	Sched sched.Stats
}

// NewCluster loads the image into a fresh simulated cluster. Text and
// read-only data are replicated to every node; writable data starts at the
// master, whose directory owns every page (§4.2).
func NewCluster(im *image.Image, cfg Config) (*Cluster, error) {
	if err := cfg.Check(); err != nil {
		return nil, err
	}
	if err := CheckFootprint(im, cfg.Slaves); err != nil {
		return nil, err
	}
	cfg.normalize()
	s := newSimRuntime(&cfg)
	ids := make([]int, cfg.Nodes())
	for id := range ids {
		ids[id] = id
	}
	c := newCluster(im, cfg, s, ids)
	c.sim = s
	for _, id := range ids {
		s.net.Register(id, c.Deliver)
	}
	return c, nil
}

// CheckFootprint refuses an image that a cluster of slaves+1 nodes would
// back with more than image.MaxMemBytes of pages: every node installs its
// own copy of each read-only segment at boot and the master the writable
// ones, so a few bytes of program reserving a large .rodata would cost that
// reservation once per node.
func CheckFootprint(im *image.Image, slaves int) error {
	var ro, rw uint64
	for _, seg := range im.Segments {
		if seg.Writable {
			rw += seg.MemSize
		} else {
			ro += seg.MemSize
		}
	}
	// Each sum is at most MaxMemBytes (image.AddSegment) and slaves is in
	// Config.Check's [0, 63]: no overflow.
	if total := uint64(slaves+1)*ro + rw; total > image.MaxMemBytes {
		return fmt.Errorf("core: %d nodes each holding %d read-only bytes, plus %d writable, take %d bytes, over the %d-byte limit (image.MaxMemBytes)",
			slaves+1, ro, rw, total, uint64(image.MaxMemBytes))
	}
	return nil
}

// NewLocal builds the one node with the given id of a cfg-shaped cluster,
// for a process that is that node: rt carries its clock, its timers and its
// frames to the other nodes, and inbound frames arrive through Deliver.
// Node 0 brings the master services and starts the guest's main thread, so
// the peers must be reachable through rt before it is built.
func NewLocal(im *image.Image, cfg Config, id int, rt Runtime) (*Cluster, error) {
	if err := cfg.Check(); err != nil {
		return nil, err
	}
	cfg.normalize()
	if id < 0 || id >= cfg.Nodes() {
		return nil, fmt.Errorf("core: node id %d outside a cluster of %d", id, cfg.Nodes())
	}
	return newCluster(im, cfg, rt, []int{id}), nil
}

// newCluster builds the nodes in ids (ascending) and, when node 0 is among
// them, the master services around it.
func newCluster(im *image.Image, cfg Config, rt Runtime, ids []int) *Cluster {
	c := &Cluster{cfg: cfg, rt: rt, im: im, inTransit: map[int64]*thread{}}
	c.frames, _ = frameSets.Get()
	if cfg.Faults.Active() {
		c.rel = netsim.NewReliable(rt.After, rt.Send, c.dispatch, cfg.Retry)
		c.rel.OnGiveUp = c.nodeLost
		c.rt = reliableRuntime{rt, c.rel}
	}
	if cfg.Metrics {
		c.prof = newClusterProf()
	}
	// Load segments: RO everywhere, RW on the master only.
	for _, id := range ids {
		n := newNode(id, c)
		rw := mem.PermNone
		if id == 0 {
			rw = mem.PermReadWrite
		}
		mem.InstallImage(n.space, im, mem.PermRead, rw)
		c.nodes = append(c.nodes, n)
	}
	if ids[0] != 0 {
		return c
	}
	c.master = newMaster(c.nodes[0])

	var all dsm.NodeSet
	for id := 0; id < cfg.Nodes(); id++ {
		all = all.Add(id)
	}
	for _, seg := range im.Segments {
		if seg.Writable {
			continue
		}
		first := c.master.space.PageOf(seg.Addr)
		last := c.master.space.PageOf(seg.Addr + seg.MemSize - 1)
		for p := first; p <= last; p++ {
			c.master.dir.SeedReplicated(p, all)
		}
	}

	if tramp, ok := im.Symbol("__thread_start"); ok {
		c.trampoline = tramp
	}

	brkStart := (im.End() + 0xffff) &^ 0xffff
	c.os = guestos.New(c.master, guestos.NewVFS(), brkStart, mmapBase, image.ShadowBase)
	if c.prof != nil {
		// The futex layer records contention (wait/hold/queue depth) per
		// guest lock word straight into the registry's lock table.
		c.os.Futex().SetProfile(c.prof.futexProfile(), rt.Now)
	}

	// The main thread boots on the master.
	cpu := &tcg.CPU{PC: im.Entry, TID: guestos.MainTID}
	cpu.X[2] = image.StackTop
	c.master.placement[guestos.MainTID] = 0
	c.master.node.addThread(cpu)

	if cfg.Adaptive {
		c.master.pol = sched.New(c.prof.reg, c.master)
		rt.After(sched.PeriodNs, c.master.adaptTick)
	}
	return c
}

// Deliver takes a frame off the runtime's wire — the simulated network's
// handler for every node, or a NewLocal cluster's runtime: through the
// reliable layer when there is one, then to the node it addresses.
func (c *Cluster) Deliver(m *proto.Msg) {
	c.mustLive()
	if c.rel != nil {
		c.rel.Receive(m)
		return
	}
	c.dispatch(m)
}

// dispatch hands a frame to the hosted node it addresses. A frame ends here:
// once the handler returns nothing reads it, so unless a reliable layer
// keeps frames to send again (Config.Faults), the cluster keeps it for its
// next send.
func (c *Cluster) dispatch(m *proto.Msg) {
	c.route(m)
	if c.rel == nil {
		c.frames.keep(m)
	}
}

func (c *Cluster) route(m *proto.Msg) {
	if m.To == 0 && c.master != nil {
		c.master.handle(m)
		return
	}
	for _, n := range c.nodes {
		if int32(n.id) == m.To {
			n.handle(m)
			return
		}
	}
	c.fail(fmt.Errorf("core: %v frame for node %d, which is not hosted here", m.Kind, m.To))
}

// Done reports whether the run has ended: the guest exited, the master
// sent KShutdown, or a node failed (Err).
func (c *Cluster) Done() bool {
	c.mustLive()
	return c.done
}

// Err is the failure that ended the run, nil after a clean exit.
func (c *Cluster) Err() error {
	c.mustLive()
	return c.err
}

// VFS exposes the guest filesystem for pre-loading inputs and collecting
// outputs (the process hosting node 0 only). The filesystem outlives the
// run: what the guest wrote is read from a VFS taken before Run or End.
func (c *Cluster) VFS() *guestos.VFS {
	c.mustLive()
	return c.os.VFS()
}

// Now returns the current virtual time.
func (c *Cluster) Now() int64 {
	c.mustLive()
	return c.rt.Now()
}

// mustLive panics once the cluster's run has ended: its memory may already
// belong to another run.
func (c *Cluster) mustLive() {
	if c.released {
		panic("core: cluster used after its run ended")
	}
}

// fail aborts the run with an error.
func (c *Cluster) fail(err error) {
	if c.err == nil {
		c.err = err
	}
	c.done = true
}

// finish ends the run normally (exit_group).
func (c *Cluster) finish(code int64) {
	if c.done {
		return
	}
	c.exitCode = code
	c.done = true
	for id := 1; id < c.cfg.Nodes(); id++ {
		c.send(proto.Msg{Kind: proto.KShutdown, From: 0, To: int32(id)})
	}
}

// Run executes the guest to completion on the simulator and returns the
// result. However the run ends, it ends for good: once the Result is taken,
// everything the run allocated goes to the next cluster built in this
// process (release), and every method of the cluster panics afterwards.
func (c *Cluster) Run() (*Result, error) {
	c.mustLive()
	if c.sim == nil {
		return nil, errors.New("core: Run drives the simulator; a NewLocal cluster is driven by its Runtime")
	}
	defer c.release()
	return c.simulate(maxTimeNs)
}

// simulate is the loop Run is built on: it runs the guest until it exits,
// fails, is canceled or outlives limitNs of virtual time, and leaves the
// cluster as the run left it.
func (c *Cluster) simulate(limitNs int64) (*Result, error) {
	k := c.sim.k
	// Poll the host-side cancel channel every cancelCheckEvery events: each
	// event can carry a full execution quantum, so the interval must be
	// small for cancellation to land promptly; a non-blocking channel poll
	// is still negligible against quantum execution.
	const cancelCheckEvery = 64
	steps := 0
	for !c.done {
		if c.cfg.Cancel != nil {
			if steps++; steps >= cancelCheckEvery {
				steps = 0
				select {
				case <-c.cfg.Cancel:
					c.fail(fmt.Errorf("core: run at t=%dns: %w", k.Now(), ErrCanceled))
					continue
				default:
				}
			}
		}
		if !k.Step() {
			if !c.done {
				c.fail(fmt.Errorf("core: deadlock at t=%dns: %s", k.Now(), c.ThreadDump()))
			}
			break
		}
		if k.Now() > limitNs {
			c.fail(fmt.Errorf("core: guest exceeded %d ns of virtual time: %s", limitNs, c.ThreadDump()))
		}
	}
	if c.err != nil {
		return nil, c.err
	}
	return c.result(), nil
}

// End ends the run of a cluster its owner drove (NewLocal): it returns the
// hosted nodes' view of the run, then hands everything the run allocated
// to the next cluster built in this process (release). Under a caller's
// Runtime, TimeNs is that runtime's clock, Net and Faults are zero (the
// frames, and the injector, are the caller's) and Rel covers the hosted
// nodes' links. Every method of the cluster panics afterwards.
func (c *Cluster) End() *Result {
	c.mustLive()
	defer c.release()
	return c.result()
}

// result reports the hosted nodes' view of the run so far.
func (c *Cluster) result() *Result {
	r := &Result{
		ExitCode: c.exitCode,
		TimeNs:   c.rt.Now(),
		Console:  c.console.String(),
		Wire:     c.wireStats,
	}
	if s := c.sim; s != nil {
		r.Net, r.Faults = s.net.Stats, s.net.FaultStats()
	}
	if c.rel != nil {
		r.Rel = c.rel.Stats
	}
	if m := c.master; m != nil {
		r.Dir, r.OS, r.Migrations = m.dir.Stats, c.os.Stats, m.migrations
		if m.fwd != nil {
			r.Dir.ForwardHits = m.fwd.Hits
			r.Dir.ForwardWasted = m.fwd.Wasted
		}
		if m.pol != nil {
			r.Sched = m.pol.Stats()
		}
	}
	var tids []int64
	byTID := map[int64]*thread{}
	for _, n := range c.nodes {
		r.Nodes = append(r.Nodes, n.snapshotStats())
		for tid, t := range n.threads {
			tids = append(tids, tid)
			byTID[tid] = t
		}
	}
	sort.Slice(tids, func(i, j int) bool { return tids[i] < tids[j] })
	for _, tid := range tids {
		t := byTID[tid]
		r.Threads = append(r.Threads, ThreadStats{
			TID: tid, Node: t.node.id,
			ExecNs: t.execNs, FaultNs: t.faultNs, SyscallNs: t.syscallNs,
		})
	}
	if c.cfg.Sanitizer {
		var sans []*sanitizer.Node
		for _, n := range c.nodes {
			if n.san != nil {
				sans = append(sans, n.san)
			}
		}
		r.San = sanitizer.Summarize(sans)
	}
	clock := "wall"
	if c.sim != nil {
		clock = "virtual"
	}
	r.Metrics = c.prof.snapshot(r, clock)
	return r
}

// ThreadDump summarizes the hosted threads' states for deadlock and timeout
// diagnostics.
func (c *Cluster) ThreadDump() string {
	c.mustLive()
	var sb bytes.Buffer
	for _, n := range c.nodes {
		var tids []int64
		for tid := range n.threads {
			tids = append(tids, tid)
		}
		sort.Slice(tids, func(i, j int) bool { return tids[i] < tids[j] })
		for _, tid := range tids {
			t := n.threads[tid]
			fmt.Fprintf(&sb, "[node %d tid %d %s pc=%#x", n.id, tid, t.state, t.cpu.PC)
			if t.state == tBlockedPage {
				fmt.Fprintf(&sb, " page=%#x w=%v", t.waitPage, t.needWrite)
			}
			sb.WriteString("] ")
		}
	}
	if c.os != nil {
		fmt.Fprintf(&sb, "futex-waiting=%d", c.os.Futex().TotalWaiting())
	}
	return sb.String()
}

// checkCoherence checks the protocol's invariants once a run has quiesced:
// the directory against every node's page table, and no thread left parked
// on a futex. It returns every violation joined.
func (c *Cluster) checkCoherence() error {
	spaces := make([]*mem.Space, len(c.nodes))
	for i, n := range c.nodes {
		spaces[i] = n.space
	}
	err := c.master.dir.Check(spaces)
	if n := c.os.Futex().TotalWaiting(); n != 0 {
		err = errors.Join(err, fmt.Errorf("%d threads still parked on futexes", n))
	}
	return err
}

// release hands what the cluster's run allocated — every hosted node's
// guest pages, twins and engine (with the storage its translations were
// made in), the master's home snapshots and scratch page, the frames kept
// for sending — to the next cluster built in this process, cleared
// (mem.NewPageBuf, tcg.NewEngine, frameSets). Run and End call it once the
// Result is taken; every method of the cluster panics afterwards. A message
// in flight or kept for retransmission is none of these: the kept frames
// are ones whose handler has returned.
func (c *Cluster) release() {
	c.released = true
	frameSets.Put(c.frames)
	c.frames = frames{}
	for _, n := range c.nodes {
		n.engine.Release()
		n.engine = nil
		n.space.Release()
		for _, tw := range n.twins {
			mem.FreePageBuf(tw.data)
		}
		n.twins = nil
	}
	if m := c.master; m != nil {
		for _, ss := range m.wire.snaps {
			for _, s := range ss {
				mem.FreePageBuf(s.data)
			}
		}
		m.wire.snaps = nil
		mem.FreePageBuf(m.wire.scratch)
		m.wire.scratch = nil
	}
}

// Run is the one-call convenience: load, run, report, release.
func Run(im *image.Image, cfg Config) (*Result, error) {
	c, err := NewCluster(im, cfg)
	if err != nil {
		return nil, err
	}
	return c.Run()
}
