package dsm

import (
	"sort"

	"dqemu/internal/mem"
)

// ReclaimNode re-homes every page state involving a dead node: the node is
// struck from all sharer sets, and pages it owned in Modified state revert to
// the home copy (their unsynced modifications are lost — the caller reports
// this as part of a structured node-loss error rather than hanging forever on
// a fetch that will never be answered). It returns the pages the dead node
// owned, sorted.
func (d *Directory) ReclaimNode(dead int) []uint64 {
	var owned []uint64
	for page := range d.pages {
		owned = append(owned, page)
	}
	sort.Slice(owned, func(i, j int) bool { return owned[i] < owned[j] })
	var lost []uint64
	for _, page := range owned {
		e := d.pages[page]
		e.sharers = e.sharers.Remove(dead)
		if e.invPending.Has(dead) {
			// An inv-ack that will never arrive; stop waiting for it. The
			// transaction's grant is intentionally not served — the caller is
			// terminating the run with a structured error.
			e.invPending = e.invPending.Remove(dead)
			e.acksLeft--
		}
		if e.owner == dead {
			lost = append(lost, page)
			e.owner = NoOwner
			e.busy = false
			e.grant = nil
			e.acksLeft = 0
			e.fetchFrom = 0
			e.invPending = 0
			d.env.HomeSetPerm(page, mem.PermRead)
		}
	}
	return lost
}
