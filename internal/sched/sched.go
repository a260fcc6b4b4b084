// Package sched is the cluster's feedback scheduler: it closes the loop
// between the observability layer (internal/metrics, PR 5's sensors) and
// the placement/coherence/translation actuators the cluster already has.
// Every control period the master feeds the policy a deterministic snapshot
// of cluster state; the policy reads the registry's heat map and decides —
// in sorted, virtual-time order, so identically-seeded runs make identical
// decisions — whether to migrate a thread toward the node homing the pages
// it faults on (the paper's §5.3 hint-based locality scheduling, but
// measured instead of hinted), or split a false-sharing page before its
// fault storm.
//
// The policy is the only place adaptation decisions read the registry, so
// the NoAdaptive ablation is honest — with the policy off, nothing else in
// the cluster steers by it.
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
	// Tracef records a policy decision in the cluster trace (EvSched).
	Tracef(format string, args ...interface{})
}

// PeriodNs is the control period: 250 µs of virtual time.
const PeriodNs = 250_000

const (
	// minFaults is the decayed remote-fault count a thread must charge to
	// one node before a locality migration is considered. A remote fault
	// blocks its thread for ~410 µs of virtual time, so even a thread
	// faulting back-to-back accrues only ~5 decayed faults per decay
	// window; demanding more would make locality migration unreachable.
	minFaults = 4
	// decayEvery is how many control periods pass between affinity-table
	// halvings: the decay window is long enough to integrate a
	// fault-latency-bound signal, short enough that a phase shift fades
	// within a few milliseconds of virtual time.
	decayEvery = 16
	// hysteresis is how many times the thread's pull toward its current
	// node the best remote node's score must reach. Without it, symmetric
	// sharing ping-pongs threads between nodes.
	hysteresis = 2
	// cooldownNs is how long a migrated thread must stay put — the
	// migration-cost budget's per-thread half.
	cooldownNs = 8 * PeriodNs
	// splitTopN is how many heat-map rows are scanned for false-sharing
	// candidates each period.
	splitTopN = 16
)

// Inputs is the per-tick cluster snapshot the master assembles. Everything
// here is derived from kernel-serialized state, so it is deterministic.
type Inputs struct {
	NowNs int64
	// ActiveNodes are the placement-eligible node ids, sorted ascending.
	ActiveNodes []int
	// ThreadNodes maps each live worker thread to the node it runs on
	// (in-flight migrations counted at their target).
	ThreadNodes map[int64]int
	// CoresPerNode bounds how many threads a node runs without queueing.
	CoresPerNode int
}

// Stats counts policy decisions (reported in core.Result.Sched).
type Stats struct {
	Ticks           uint64
	Migrations      uint64 // locality + load-balance migrations initiated
	ProactiveSplits uint64
}

// Policy is the feedback scheduler's decision state.
type Policy struct {
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

	stats Stats
}

// New builds a policy over the run's metrics registry.
func New(reg *metrics.Registry, act Actuator) *Policy {
	return &Policy{
		reg: reg, act: act,
		aff:       map[int64]map[int]uint64{},
		lastMove:  map[int64]int64{},
		splitDone: map[uint64]bool{},
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

// Tick runs one control period. Order matters and is fixed: migrate, then
// split — both see the same snapshot and their actuations are serialized
// under the virtual clock.
func (pol *Policy) Tick(in Inputs) {
	pol.stats.Ticks++
	pol.pruneExited(in)
	pol.tickMigrate(in)
	pol.tickSplit()
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
	if pol.stats.Ticks%decayEvery != 0 {
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
// cooldown, and a budget of one move per tick: commit the move with the
// strongest affinity advantage, and fall back to a pure load balance when no
// affinity signal is actionable.
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

	// One move per tick: committing both halves of a sharing pair in one
	// tick would swap them and re-create the imbalance it saw. Ties go to
	// the lowest tid.
	bestTid, bestTo, bestScore := int64(0), -1, uint64(0)
	for _, tid := range sortedTids(pol.aff) {
		cur, alive := in.ThreadNodes[tid]
		if !alive || tid == 1 { // the main thread stays on the master
			continue
		}
		if in.NowNs-pol.lastMove[tid] < cooldownNs && pol.lastMove[tid] != 0 {
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
		if target < 0 || targetScore < minFaults {
			continue
		}
		// Hysteresis: the pull toward the target must dominate the pull
		// toward where the thread already is, or symmetric sharing would
		// swap the pair forever.
		if targetScore < hysteresis*m[cur] {
			continue
		}
		if maxLoad > 0 && load[target] >= maxLoad {
			continue
		}
		if targetScore > bestScore {
			bestTid, bestTo, bestScore = tid, target, targetScore
		}
	}
	if bestTo >= 0 {
		pol.commitMove(in, bestTid, bestTo, "affinity", bestScore)
		return
	}
	// Load-balance fallback: move one thread from the most- to the
	// least-loaded node when the imbalance is at least two.
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
		if in.NowNs-pol.lastMove[tid] < cooldownNs && pol.lastMove[tid] != 0 {
			continue
		}
		pol.commitMove(in, tid, minN, "load", uint64(load[maxN]-load[minN]))
		return
	}
}

func (pol *Policy) commitMove(in Inputs, tid int64, to int, why string, score uint64) {
	pol.lastMove[tid] = in.NowNs
	pol.stats.Migrations++
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
	for _, row := range pol.reg.Pages().TopN(splitTopN) {
		if !row.FalseSharing || pol.splitDone[row.Page] {
			continue
		}
		if !pol.act.ForceSplit(row.Page) {
			continue // busy or unsplittable; retry next tick unless retired
		}
		pol.splitDone[row.Page] = true
		pol.stats.ProactiveSplits++
		pol.act.Tracef("sched: proactive split page %#x (invals %d, %d nodes)",
			row.Page, row.Invals, row.Nodes)
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
