package dsm

import (
	"errors"
	"fmt"
	"sort"

	"dqemu/internal/mem"
)

// Check verifies the protocol's invariants against every node's page table
// (spaces[i] is node i's). It is only meaningful once the run has quiesced.
// It returns every violation joined, each naming its page, node and rule:
//
//   - no entry is busy, owes acks or has requests queued;
//   - on a page not retired by a split, an owner has no sharers and holds M;
//   - the master holds M only while no slave owns the page;
//   - a slave holds M only as owner, and S only as owner or sharer;
//   - across every resident page, at most one node holds M.
func (d *Directory) Check(spaces []*mem.Space) error {
	var errs []error
	bad := func(format string, args ...any) { errs = append(errs, fmt.Errorf(format, args...)) }
	pages := make([]uint64, 0, len(d.pages))
	for page := range d.pages {
		pages = append(pages, page)
	}
	sort.Slice(pages, func(i, j int) bool { return pages[i] < pages[j] })
	for _, page := range pages {
		e := d.pages[page]
		if e.busy || e.acksLeft != 0 || len(e.pending) != 0 {
			bad("page %#x: stuck transaction (busy=%v acks=%d pending=%d)", page, e.busy, e.acksLeft, len(e.pending))
		}
		if e.retired {
			continue // split pages: accesses remap to the shadows
		}
		if e.owner > 0 {
			if !e.sharers.Empty() {
				bad("page %#x: owner %d coexists with sharers %v", page, e.owner, e.sharers)
			}
			if e.owner < len(spaces) && spaces[e.owner].PermOf(page) != mem.PermReadWrite {
				bad("page %#x: directory owner %d holds %v, not M", page, e.owner, spaces[e.owner].PermOf(page))
			}
		}
		for node, s := range spaces {
			switch perm := s.PermOf(page); {
			case perm == mem.PermNone:
			case perm == mem.PermReadWrite && node == Master:
				if e.owner > 0 {
					bad("page %#x: master holds M but node %d owns", page, e.owner)
				}
			case perm == mem.PermReadWrite:
				if e.owner != node {
					bad("page %#x: node %d holds M without ownership (owner %d)", page, node, e.owner)
				}
			case node != Master && e.owner != node && !e.sharers.Has(node):
				bad("page %#x: node %d holds S copy missing from sharer set %v", page, node, e.sharers)
			}
		}
	}
	writers := map[uint64][]int{}
	for node, s := range spaces {
		s.ForEachPage(func(page uint64, perm mem.Perm) {
			if perm == mem.PermReadWrite {
				writers[page] = append(writers[page], node)
			}
		})
	}
	pages = pages[:0]
	for page, nodes := range writers {
		if len(nodes) > 1 {
			pages = append(pages, page)
		}
	}
	sort.Slice(pages, func(i, j int) bool { return pages[i] < pages[j] })
	for _, page := range pages {
		bad("page %#x: multiple writers %v", page, writers[page])
	}
	return errors.Join(errs...)
}
