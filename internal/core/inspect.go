package core

import (
	"dqemu/internal/dsm"
	"dqemu/internal/mem"
)

// Inspection is a post-run snapshot of the cluster's coherence state, used
// by the chaos harness to check protocol invariants after the guest exits.
type Inspection struct {
	// Dir is the master directory, sorted by page.
	Dir []dsm.PageState
	// NodePerms maps page -> permission for every resident page, per node
	// (index = node id).
	NodePerms []map[uint64]mem.Perm
	// FutexWaiting is the number of threads still parked on a futex.
	FutexWaiting int
}

// Inspect snapshots coherence state. Call it after Run returns; the snapshot
// is only meaningful once the event queue has quiesced.
func (c *Cluster) Inspect() *Inspection {
	ins := &Inspection{Dir: c.master.dir.Snapshot()}
	for _, n := range c.nodes {
		perms := map[uint64]mem.Perm{}
		n.space.ForEachPage(func(pageNo uint64, perm mem.Perm) {
			perms[pageNo] = perm
		})
		ins.NodePerms = append(ins.NodePerms, perms)
	}
	ins.FutexWaiting = c.os.Futex().TotalWaiting()
	return ins
}
