package dsm

import (
	"sort"

	"dqemu/internal/mem"
)

// PageState is one directory entry, exported for invariant checking and
// failure reports.
type PageState struct {
	Page     uint64
	Owner    int // NoOwner, Master, or a slave id
	Sharers  NodeSet
	Busy     bool
	Retired  bool
	Pending  int // queued requests behind a busy transaction
	AcksLeft int
}

// Snapshot returns every directory entry, sorted by page number. The torture
// harness cross-checks it against each node's page table after a run.
func (d *Directory) Snapshot() []PageState {
	out := make([]PageState, 0, len(d.pages))
	for page, e := range d.pages {
		out = append(out, PageState{
			Page: page, Owner: e.owner, Sharers: e.sharers,
			Busy: e.busy, Retired: e.retired,
			Pending: len(e.pending), AcksLeft: e.acksLeft,
		})
	}
	sort.Slice(out, func(i, j int) bool { return out[i].Page < out[j].Page })
	return out
}

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
