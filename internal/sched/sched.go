// Package sched is the cluster's feedback scheduler: it closes the loop
// between the observability layer (internal/metrics, PR 5's sensors) and
// the placement/coherence/translation actuators the cluster already has.
// Every control period the master feeds the policy a deterministic snapshot
// of cluster state; the policy reads the registry's heat map and decides —
// in sorted, virtual-time order, so identically-seeded runs make identical
// decisions — whether to migrate a thread toward the node homing the pages
// it faults on (the paper's §5.3 hint-based locality scheduling, but
// measured instead of hinted), split a false-sharing page before its fault
// storm, cap the forwarder's window growth from delta efficiency, or
// grow/shrink the active node set under load.
//
// The policy is the ONLY place adaptation decisions read metrics counters;
// a dqlint rule (metricsread) enforces that, so the NoAdaptive ablation is
// honest — with the policy off, nothing else in the cluster steers by the
// registry.
package sched

import (
	"sort"

	"dqemu/internal/metrics"
)

// Actuator is what the policy can do to the cluster. The master implements
// it; unit tests use a mock. Every method is synchronous under the virtual
// clock and must be deterministic.
type Actuator interface {
	// MigrateThread ships tid to node `to` (no-op if the thread is gone,
	// already there, or already in flight).
	MigrateThread(tid int64, to int)
	// ForceSplit begins a SplitHome transaction for page ahead of the
	// splitter's own reactive threshold. Returns false when the page cannot
	// split (retired, busy, shadow region, or splitting disabled).
	ForceSplit(page uint64) bool
	// SetForwardCap bounds the forwarder's window growth multiplier.
	SetForwardCap(mult int)
	// AddNode activates a standby slave and returns its id (-1 if none).
	AddNode() int
	// DrainNode begins gracefully draining slave id: threads migrate off,
	// pages recall home. Returns false if id is not an active slave.
	DrainNode(id int) bool
	// Tracef records a policy decision in the cluster trace (EvSched).
	Tracef(format string, args ...interface{})
}

// Params tunes the policy. The zero value selects the defaults below.
type Params struct {
	// PeriodNs is the control period (default 250 µs of virtual time).
	PeriodNs int64
	// MinFaults is the decayed remote-fault count a thread must charge to
	// one node before a locality migration is considered (default 4 — a
	// remote fault blocks its thread for ~410 µs of virtual time, so even a
	// thread faulting back-to-back accrues only ~5 decayed faults per decay
	// window; demanding more would make locality migration unreachable).
	MinFaults uint64
	// DecayEvery is how many control periods pass between affinity-table
	// halvings (default 16): the decay window is DecayEvery×PeriodNs, long
	// enough to integrate a fault-latency-bound signal, short enough that a
	// phase shift fades within a few milliseconds of virtual time.
	DecayEvery uint64
	// HystNum/HystDen is the hysteresis ratio: the best remote node must
	// beat the thread's current node's score by this factor (default 2/1).
	// Without it, symmetric sharing ping-pongs threads between nodes.
	HystNum, HystDen uint64
	// CooldownNs is how long a migrated thread must stay put (default 8
	// periods) — the migration-cost budget's per-thread half.
	CooldownNs int64
	// BudgetPerTick caps locality migrations per control period (default
	// 1): committing both halves of a sharing pair in one tick would swap
	// them and re-create the imbalance it saw.
	BudgetPerTick int
	// SplitTopN is how many heat-map rows are scanned for false-sharing
	// candidates each period (default 16).
	SplitTopN int
	// ElasticHigh adds a standby node when every active node carries more
	// than ElasticHigh×cores worker threads (default 2). ElasticLow drains
	// a slave when the remaining ones could hold every thread at under
	// ElasticLow×cores each, halved (default 1). Zero disables neither;
	// use Elastic=false for that.
	ElasticHigh, ElasticLow int
	// Elastic enables runtime add/drain of slave nodes (default off: the
	// active set only changes when the embedder asks).
	Elastic bool
	// ElasticCooldownNs spaces elastic actions (default 32 periods).
	ElasticCooldownNs int64
}

// DefaultPeriodNs is the default control period.
const DefaultPeriodNs = 250_000

func (p *Params) normalize() {
	if p.PeriodNs <= 0 {
		p.PeriodNs = DefaultPeriodNs
	}
	if p.MinFaults == 0 {
		p.MinFaults = 4
	}
	if p.DecayEvery == 0 {
		p.DecayEvery = 16
	}
	if p.HystNum == 0 || p.HystDen == 0 {
		p.HystNum, p.HystDen = 2, 1
	}
	if p.CooldownNs <= 0 {
		p.CooldownNs = 8 * p.PeriodNs
	}
	if p.BudgetPerTick <= 0 {
		p.BudgetPerTick = 1
	}
	if p.SplitTopN <= 0 {
		p.SplitTopN = 16
	}
	if p.ElasticHigh <= 0 {
		p.ElasticHigh = 2
	}
	if p.ElasticLow <= 0 {
		p.ElasticLow = 1
	}
	if p.ElasticCooldownNs <= 0 {
		p.ElasticCooldownNs = 32 * p.PeriodNs
	}
}

// Inputs is the per-tick cluster snapshot the master assembles. Everything
// here is derived from kernel-serialized state, so it is deterministic.
type Inputs struct {
	NowNs int64
	// ActiveNodes are the placement-eligible node ids, sorted ascending.
	ActiveNodes []int
	// StandbySlaves counts inactive slaves AddNode could activate.
	StandbySlaves int
	// ThreadNodes maps each live worker thread to the node it runs on
	// (in-flight migrations counted at their target).
	ThreadNodes map[int64]int
	// CoresPerNode bounds how many threads a node runs without queueing.
	CoresPerNode int
	// DeltaRatio is the wire layer's live delta efficiency (0 when the
	// wire layer is off or has seen no coherence payload yet).
	DeltaRatio float64
}

// Stats counts policy decisions (reported in core.Result.Sched).
type Stats struct {
	Ticks           uint64
	Migrations      uint64 // locality + load-balance migrations initiated
	ProactiveSplits uint64
	FwdRetunes      uint64
	NodesAdded      uint64
	NodesDrained    uint64 // drains initiated
}

// Policy is the feedback scheduler's decision state.
type Policy struct {
	p   Params
	reg *metrics.Registry
	act Actuator

	// aff is the decayed per-thread affinity table: how many remote
	// faults tid charged to each owning node since (roughly) now. Decays
	// by half each tick so phase shifts overwrite stale affinity fast.
	aff map[int64]map[int]uint64
	// lastMove is the virtual time each thread last migrated (cooldown).
	lastMove map[int64]int64
	// splitDone marks pages already force-split (never retried).
	splitDone map[uint64]bool

	fwdCap      int
	lastElastic int64

	stats Stats

	cMig, cSplit, cFwd, cAdd, cDrain *metrics.Counter
	gFwdCap                          *metrics.Gauge
}

// New builds a policy over the run's metrics registry.
func New(p Params, reg *metrics.Registry, act Actuator) *Policy {
	p.normalize()
	return &Policy{
		p: p, reg: reg, act: act,
		aff:       map[int64]map[int]uint64{},
		lastMove:  map[int64]int64{},
		splitDone: map[uint64]bool{},
		fwdCap:    4,
		cMig:      reg.Counter("sched.migrations"),
		cSplit:    reg.Counter("sched.proactive_splits"),
		cFwd:      reg.Counter("sched.fwd_retunes"),
		cAdd:      reg.Counter("sched.nodes_added"),
		cDrain:    reg.Counter("sched.nodes_drained"),
		gFwdCap:   reg.Gauge("sched.forward_cap"),
	}
}

// Stats returns the decision counters so far.
func (pol *Policy) Stats() Stats { return pol.stats }

// NoteFault is the fault sensor: the master calls it for every KPageReq,
// naming the faulting thread, its node, and the node currently homing the
// page (dsm owner; Master/NoOwner map to 0/-1). Faults on pages another
// node owns are the locality signal.
func (pol *Policy) NoteFault(tid int64, node, owner int) {
	if tid < 0 || owner < 0 || owner == node {
		return
	}
	m := pol.aff[tid]
	if m == nil {
		m = map[int]uint64{}
		pol.aff[tid] = m
	}
	m[owner]++
}

// Tick runs one control period. Order matters and is fixed: migrate,
// split, forwarder, elastic — each sub-policy sees the same
// snapshot and their actuations are serialized under the virtual clock.
func (pol *Policy) Tick(in Inputs) {
	pol.stats.Ticks++
	pol.pruneExited(in)
	pol.tickMigrate(in)
	pol.tickSplit()
	pol.tickForward(in)
	pol.tickElastic(in)
	pol.decay()
}

// pruneExited drops affinity state for threads no longer alive.
func (pol *Policy) pruneExited(in Inputs) {
	for _, tid := range sortedTids(pol.aff) {
		if _, alive := in.ThreadNodes[tid]; !alive {
			delete(pol.aff, tid)
			delete(pol.lastMove, tid)
		}
	}
}

// decay halves every affinity count once per decay window so old phases
// fade within a few windows; emptied rows are dropped.
func (pol *Policy) decay() {
	if pol.stats.Ticks%pol.p.DecayEvery != 0 {
		return
	}
	for _, tid := range sortedTids(pol.aff) {
		m := pol.aff[tid]
		for node, c := range m {
			c >>= 1
			if c == 0 {
				delete(m, node)
			} else {
				m[node] = c
			}
		}
		if len(m) == 0 {
			delete(pol.aff, tid)
		}
	}
}

// tickMigrate implements locality-driven migration with hysteresis, a
// cooldown, and a per-tick budget: among all threads, commit the moves with
// the strongest affinity advantage, at most BudgetPerTick of them, and fall
// back to a pure load balance when no affinity signal is actionable.
func (pol *Policy) tickMigrate(in Inputs) {
	if len(in.ActiveNodes) < 2 {
		return
	}
	active := map[int]bool{}
	load := map[int]int{}
	for _, n := range in.ActiveNodes {
		active[n] = true
		load[n] = 0
	}
	for _, tid := range sortedTids(in.ThreadNodes) {
		if n := in.ThreadNodes[tid]; active[n] {
			load[n]++
		}
	}
	maxLoad := in.CoresPerNode * 2 // soft cap: don't pile a node past 2x cores

	type move struct {
		tid   int64
		to    int
		score uint64
	}
	var best []move
	for _, tid := range sortedTids(pol.aff) {
		cur, alive := in.ThreadNodes[tid]
		if !alive || tid == 1 { // the main thread stays on the master
			continue
		}
		if in.NowNs-pol.lastMove[tid] < pol.p.CooldownNs && pol.lastMove[tid] != 0 {
			continue
		}
		m := pol.aff[tid]
		// Best target by decayed fault count; ties to the lowest node id.
		target, targetScore := -1, uint64(0)
		for _, n := range sortedNodes(m) {
			if n == cur || !active[n] {
				continue
			}
			if m[n] > targetScore {
				target, targetScore = n, m[n]
			}
		}
		if target < 0 || targetScore < pol.p.MinFaults {
			continue
		}
		// Hysteresis: the pull toward the target must dominate the pull
		// toward where the thread already is, or symmetric sharing would
		// swap the pair forever.
		if targetScore*pol.p.HystDen < m[cur]*pol.p.HystNum {
			continue
		}
		if maxLoad > 0 && load[target] >= maxLoad {
			continue
		}
		best = append(best, move{tid, target, targetScore})
	}
	sort.Slice(best, func(i, j int) bool {
		if best[i].score != best[j].score {
			return best[i].score > best[j].score
		}
		return best[i].tid < best[j].tid
	})
	moved := 0
	for _, mv := range best {
		if moved >= pol.p.BudgetPerTick {
			break
		}
		if maxLoad > 0 && load[mv.to] >= maxLoad {
			continue
		}
		pol.commitMove(in, mv.tid, mv.to, "affinity", mv.score)
		load[mv.to]++
		load[in.ThreadNodes[mv.tid]]--
		moved++
	}
	if moved > 0 {
		return
	}
	// Load-balance fallback (the legacy rebalancer's rule): move one
	// thread from the most- to the least-loaded node when the imbalance
	// is at least two.
	maxN, minN := -1, -1
	for _, n := range in.ActiveNodes {
		if maxN < 0 || load[n] > load[maxN] {
			maxN = n
		}
		if minN < 0 || load[n] < load[minN] {
			minN = n
		}
	}
	if maxN < 0 || load[maxN]-load[minN] < 2 {
		return
	}
	for _, tid := range sortedTids(in.ThreadNodes) {
		if tid == 1 || in.ThreadNodes[tid] != maxN {
			continue
		}
		if in.NowNs-pol.lastMove[tid] < pol.p.CooldownNs && pol.lastMove[tid] != 0 {
			continue
		}
		pol.commitMove(in, tid, minN, "load", uint64(load[maxN]-load[minN]))
		return
	}
}

func (pol *Policy) commitMove(in Inputs, tid int64, to int, why string, score uint64) {
	pol.lastMove[tid] = in.NowNs
	pol.stats.Migrations++
	pol.cMig.Inc()
	pol.act.Tracef("sched: migrate tid %d -> node %d (%s score %d)", tid, to, why, score)
	pol.act.MigrateThread(tid, to)
	// Every affinity count was measured against the pre-move ownership
	// landscape, so all of it is stale now. In particular the moved
	// thread's sharing partner is still pulled toward where the thread
	// USED to run — acting on that would split the pair right back apart
	// (a swap livelock hysteresis alone cannot see, because the partner's
	// own-node score is zero once the pair is co-located). Starting every
	// table from scratch also rate-limits migration to one per signal
	// rebuild, the cheapest possible migration-cost budget.
	pol.aff = map[int64]map[int]uint64{}
}

// tickSplit feeds false-sharing candidates from the heat map into SplitHome
// before the reactive splitter's fault-storm threshold trips.
func (pol *Policy) tickSplit() {
	for _, row := range pol.reg.Pages().TopN(pol.p.SplitTopN) {
		if !row.FalseSharing || pol.splitDone[row.Page] {
			continue
		}
		if !pol.act.ForceSplit(row.Page) {
			continue // busy or unsplittable; retry next tick unless retired
		}
		pol.splitDone[row.Page] = true
		pol.stats.ProactiveSplits++
		pol.cSplit.Inc()
		pol.act.Tracef("sched: proactive split page %#x (invals %d, %d nodes)",
			row.Page, row.Invals, row.Nodes)
	}
}

// tickForward caps the forwarder's window growth from the wire layer's
// delta efficiency: cheap pages (high delta ratio) can be speculated
// aggressively; expensive ones should stay conservative. The per-stream
// trigger/window AIMD runs inside dsm.Forwarder off its own hit/waste
// observations; this is the global half of the loop.
func (pol *Policy) tickForward(in Inputs) {
	target := 4
	switch {
	case in.DeltaRatio >= 0.5:
		target = 8
	case in.DeltaRatio > 0 && in.DeltaRatio < 0.2:
		target = 2
	}
	if target == pol.fwdCap {
		return
	}
	pol.fwdCap = target
	pol.stats.FwdRetunes++
	pol.cFwd.Inc()
	pol.gFwdCap.Set(float64(target))
	pol.act.Tracef("sched: forward window cap -> %dx (delta ratio %.2f)", target, in.DeltaRatio)
	pol.act.SetForwardCap(target)
}

// tickElastic grows or shrinks the active node set under load.
func (pol *Policy) tickElastic(in Inputs) {
	if !pol.p.Elastic || in.CoresPerNode <= 0 {
		return
	}
	if in.NowNs-pol.lastElastic < pol.p.ElasticCooldownNs {
		return
	}
	slaves := 0
	total := 0
	minLoad := -1
	minNode := -1
	load := map[int]int{}
	for _, tid := range sortedTids(in.ThreadNodes) {
		if tid == 1 {
			continue
		}
		load[in.ThreadNodes[tid]]++
		total++
	}
	for _, n := range in.ActiveNodes {
		if n == 0 {
			continue
		}
		slaves++
		if minLoad < 0 || load[n] < minLoad || (load[n] == minLoad && n > minNode) {
			minLoad, minNode = load[n], n
		}
	}
	if slaves == 0 {
		return
	}
	// Grow: every active slave oversubscribed and a standby exists.
	allHot := true
	for _, n := range in.ActiveNodes {
		if n == 0 {
			continue
		}
		if load[n] <= pol.p.ElasticHigh*in.CoresPerNode {
			allHot = false
			break
		}
	}
	if allHot && in.StandbySlaves > 0 {
		if id := pol.act.AddNode(); id > 0 {
			pol.lastElastic = in.NowNs
			pol.stats.NodesAdded++
			pol.cAdd.Inc()
			pol.act.Tracef("sched: added node %d (all %d slaves past %d threads)",
				id, slaves, pol.p.ElasticHigh*in.CoresPerNode)
		}
		return
	}
	// Shrink: the remaining slaves could hold every worker thread at half
	// the low-water occupancy — drain the emptiest (highest id on ties).
	if slaves > 1 && total*2 <= (slaves-1)*pol.p.ElasticLow*in.CoresPerNode {
		if pol.act.DrainNode(minNode) {
			pol.lastElastic = in.NowNs
			pol.stats.NodesDrained++
			pol.cDrain.Inc()
			pol.act.Tracef("sched: draining node %d (%d worker threads on %d slaves)",
				minNode, total, slaves)
		}
	}
}

// sortedTids returns map keys ascending — policy code must never iterate a
// map directly (decision order would depend on Go's map seed).
func sortedTids[V any](m map[int64]V) []int64 {
	out := make([]int64, 0, len(m))
	for k := range m {
		out = append(out, k)
	}
	sort.Slice(out, func(i, j int) bool { return out[i] < out[j] })
	return out
}

func sortedNodes[V any](m map[int]V) []int {
	out := make([]int, 0, len(m))
	for k := range m {
		out = append(out, k)
	}
	sort.Ints(out)
	return out
}
