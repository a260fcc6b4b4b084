package core

import (
	"dqemu/internal/metrics"
)

// Histogram and counter names the profiler publishes; the profile-smoke CI
// job requires the fault ones to be present in every -profile dump.
const (
	// MetricFaultE2E is the end-to-end remote-fault latency: the faulting
	// thread parking to it resuming.
	MetricFaultE2E = "fault.e2e_ns"
	// MetricFaultDirWait is the directory phase: request arrival at the
	// master to the grant decision (queueing behind invalidation and fetch
	// transactions included).
	MetricFaultDirWait = "fault.dir_wait_ns"
	// MetricFaultTransfer is the wire phase: grant decision to the content
	// landing at the requester (buffering, serialization, propagation,
	// receive processing).
	MetricFaultTransfer = "fault.transfer_ns"
	// MetricFaultApply is the apply phase: content at the node to the first
	// waiter resumed (zero unless the waiter needed a further upgrade).
	MetricFaultApply = "fault.apply_ns"
	// MetricMigrate is the thread-migration latency: the feedback scheduler
	// picking a thread to the thread being runnable on its new node.
	MetricMigrate = "migrate.ns"
)

// clusterProf is the cluster's metrics recorder: a registry plus the
// in-flight request state needed to split remote-fault latency into its
// directory / transfer / apply phases. A nil *clusterProf (Config.Metrics
// off) makes every hook a no-op with zero allocations — the hooks stay in
// the hot paths unconditionally.
//
// All state is keyed by (requesting node, page): the node-side request
// dedup (node.requested) guarantees at most one outstanding transaction per
// key and direction, and phase boundaries arrive in directory order, so
// plain maps are enough.
type clusterProf struct {
	reg *metrics.Registry

	faultE2E   *metrics.Histogram
	faultDir   *metrics.Histogram
	faultXfer  *metrics.Histogram
	faultApply *metrics.Histogram
	migrate    *metrics.Histogram

	// Phase timestamps for in-flight transactions.
	pendDir   map[nodePage]int64 // request arrived, awaiting grant
	pendXfer  map[nodePage]int64 // grant sent, awaiting content
	pendApply map[nodePage]int64 // content applied, awaiting waiter resume

	// Migration transit: tid -> departure time, and the accumulated
	// per-thread transit total for the snapshot's thread rows.
	migStart  map[int64]int64
	migrateNs map[int64]int64
}

func newClusterProf() *clusterProf {
	reg := metrics.NewRegistry()
	return &clusterProf{
		reg:        reg,
		faultE2E:   reg.Histogram(MetricFaultE2E),
		faultDir:   reg.Histogram(MetricFaultDirWait),
		faultXfer:  reg.Histogram(MetricFaultTransfer),
		faultApply: reg.Histogram(MetricFaultApply),
		migrate:    reg.Histogram(MetricMigrate),
		pendDir:    map[nodePage]int64{},
		pendXfer:   map[nodePage]int64{},
		pendApply:  map[nodePage]int64{},
		migStart:   map[int64]int64{},
		migrateNs:  map[int64]int64{},
	}
}

// reqArrived marks a KPageReq reaching the directory.
func (p *clusterProf) reqArrived(node int, page uint64, write bool, now int64) {
	if p == nil {
		return
	}
	p.reg.Counter("fault.requests").Inc()
	p.reg.Pages().Fault(page, node, write)
	key := nodePage{node: int32(node), page: page}
	// A read request can be followed by a write upgrade for the same page
	// while the first transaction is still in flight; keep the earliest
	// arrival so the phase covers the whole directory occupancy.
	if _, ok := p.pendDir[key]; !ok {
		p.pendDir[key] = now
	}
}

// grantSent marks the directory deciding a grant (content or reaffirmation)
// for node: the directory phase ends, the transfer phase begins.
func (p *clusterProf) grantSent(node int, page uint64, now int64) {
	if p == nil {
		return
	}
	key := nodePage{node: int32(node), page: page}
	if t0, ok := p.pendDir[key]; ok {
		p.faultDir.Observe(now - t0)
		delete(p.pendDir, key)
	}
	if _, ok := p.pendXfer[key]; !ok {
		p.pendXfer[key] = now
	}
}

// contentApplied marks the granted page landing in the node's space.
func (p *clusterProf) contentApplied(node int, page uint64, now int64) {
	if p == nil {
		return
	}
	key := nodePage{node: int32(node), page: page}
	if t0, ok := p.pendXfer[key]; ok {
		p.faultXfer.Observe(now - t0)
		delete(p.pendXfer, key)
	}
	if _, ok := p.pendApply[key]; !ok {
		p.pendApply[key] = now
	}
}

// faultResolved marks a parked thread resuming after waitNs blocked.
func (p *clusterProf) faultResolved(node int, page uint64, waitNs, now int64) {
	if p == nil {
		return
	}
	p.faultE2E.Observe(waitNs)
	key := nodePage{node: int32(node), page: page}
	if t0, ok := p.pendApply[key]; ok {
		p.faultApply.Observe(now - t0)
		delete(p.pendApply, key)
	}
}

// requestDropped clears in-flight state for a transaction that will not
// complete as issued (the page was split; the requester re-faults through
// the remap).
func (p *clusterProf) requestDropped(node int, page uint64) {
	if p == nil {
		return
	}
	key := nodePage{node: int32(node), page: page}
	delete(p.pendDir, key)
	delete(p.pendXfer, key)
	delete(p.pendApply, key)
}

// invalidated marks one invalidation issued for page, sent at once or held
// for coalesceWindowNs (SendInvalidate is the single entry point for both).
func (p *clusterProf) invalidated(page uint64) {
	if p == nil {
		return
	}
	p.reg.Counter("inv.sent").Inc()
	p.reg.Pages().Invalidate(page)
}

// migStarted marks the feedback scheduler committing to migrate tid.
func (p *clusterProf) migStarted(tid int64, now int64) {
	if p == nil {
		return
	}
	p.reg.Counter("migrate.started").Inc()
	p.migStart[tid] = now
}

// migArrived marks tid becoming runnable on a node; a no-op unless a
// migration of tid is in flight (addThread also fires for brand-new
// threads).
func (p *clusterProf) migArrived(tid int64, now int64) {
	if p == nil {
		return
	}
	t0, ok := p.migStart[tid]
	if !ok {
		return
	}
	delete(p.migStart, tid)
	p.migrate.Observe(now - t0)
	p.migrateNs[tid] += now - t0
}

// futexProfile exposes the registry's lock table for the guest OS futex
// layer (nil when metrics are off).
func (p *clusterProf) futexProfile() *metrics.LockProfile {
	if p == nil {
		return nil
	}
	return p.reg.Locks()
}

// snapshot renders the run's metrics. It folds in the cross-subsystem
// summaries that live outside the registry: per-thread and per-node time
// breakdowns, wire-layer delta efficiency, and network/migration totals.
func (p *clusterProf) snapshot(r *Result) *metrics.Snapshot {
	if p == nil {
		return nil
	}
	reg := p.reg
	reg.Counter("net.msgs").Add(r.Net.Msgs - reg.Counter("net.msgs").Value())
	reg.Counter("net.bytes").Add(r.Net.Bytes - reg.Counter("net.bytes").Value())
	reg.Counter("migrate.done").Add(r.Migrations - reg.Counter("migrate.done").Value())
	reg.Gauge("wire.body_bytes").Set(float64(r.Wire.BodyBytes))
	reg.Gauge("wire.raw_bytes").Set(float64(r.Wire.RawBytes))
	if r.Wire.RawBytes > 0 {
		// Fraction of full-page bytes the delta/coalescing layer did not
		// have to ship: 0 = everything went as full pages, 1 = free.
		reg.Gauge("wire.delta_ratio").Set(1 - float64(r.Wire.BodyBytes)/float64(r.Wire.RawBytes))
	}

	// Compiled-trace translation counters (summed across nodes).
	var t3ns int64
	var t3insns uint64
	var vSB, vDemote, vT3, vT3Fail uint64
	for _, ns := range r.Nodes {
		t3ns += ns.Engine.Tier3TranslateNs
		t3insns += ns.Engine.Tier3Insns
		vSB += ns.Engine.VerifiedSuperblocks
		vDemote += ns.Engine.VerifyDemotions
		vT3 += ns.Engine.VerifiedTier3
		vT3Fail += ns.Engine.Tier3CheckFailures
	}
	reg.Counter("translate.tier3_ns").Add(uint64(t3ns) - reg.Counter("translate.tier3_ns").Value())
	reg.Counter("exec.tier3_insns").Add(t3insns - reg.Counter("exec.tier3_insns").Value())
	// Translation-validation counters (all zero unless Config.Verify).
	reg.Counter("verify.superblocks").Add(vSB - reg.Counter("verify.superblocks").Value())
	reg.Counter("verify.demotions").Add(vDemote - reg.Counter("verify.demotions").Value())
	reg.Counter("verify.tier3").Add(vT3 - reg.Counter("verify.tier3").Value())
	reg.Counter("verify.tier3_failures").Add(vT3Fail - reg.Counter("verify.tier3_failures").Value())

	s := reg.Snapshot(metrics.DefaultHeatTopN)
	for _, ts := range r.Threads {
		s.Threads = append(s.Threads, metrics.ThreadRow{
			TID: ts.TID, Node: ts.Node,
			ExecNs: ts.ExecNs, StallNs: ts.FaultNs, SyscallNs: ts.SyscallNs,
			MigrateNs: p.migrateNs[ts.TID],
		})
	}
	for _, ns := range r.Nodes {
		s.Nodes = append(s.Nodes, metrics.NodeRow{
			Node:        ns.Node,
			TranslateNs: ns.Engine.TranslateNs,
			ExecInsns:   ns.Engine.ExecInsns,
			PageFaults:  ns.PageFaults,
		})
	}
	return s
}
