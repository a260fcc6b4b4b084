// Package dsm implements the master node's page-level directory-based MSI
// coherence protocol (§4.2), together with the false-sharing page splitter
// (§5.1) and the read-ahead data forwarder (§5.2). The package is pure
// protocol logic: all I/O goes through the Env interface, which the cluster
// core implements on top of the simulated (or live) network. That keeps the
// protocol unit-testable with a mock environment.
//
// Node 0 is the master and the home of every page: the master's guest
// memory region holds the authoritative copy of any page that no node holds
// in Modified state. Directory entries start as Owner == 0 ("home owns"),
// matching a freshly loaded program whose data all lives on the master.
package dsm

import (
	"fmt"
	"math/bits"
	"slices"

	"dqemu/internal/mem"
)

// Master is the node id of the master/home node.
const Master = 0

// NoOwner marks a page whose current copy is the home copy.
const NoOwner = -1

// Request is one coherence request from a faulting guest thread.
type Request struct {
	Node  int
	TID   int64
	Page  uint64
	Addr  uint64 // exact faulting address (drives the false-sharing detector)
	Write bool
	// Full asks for content even where the directory would normally answer
	// with a reaffirmation or suppress the grant: the requester holds the
	// access right but lost the data (the wire layer's delta transfer could
	// not be applied against its twin and was discarded).
	Full bool
}

// Env is what the directory needs from its host (the master node).
type Env interface {
	// SendContent ships the home copy of page to a node with the given
	// permission. For node == Master it installs locally.
	SendContent(to int, page uint64, perm mem.Perm)
	// SendReaffirm tells a node that already holds the freshest copy to
	// keep its data and use the given permission. Sent when the directory
	// receives a redundant request from the current owner (e.g. a read and
	// a write fault raced): shipping the stale home copy would destroy the
	// owner's modifications.
	SendReaffirm(to int, page uint64, perm mem.Perm)
	// SendInvalidate tells a sharer to drop its copy; the sharer must
	// answer with OnInvAck.
	SendInvalidate(to int, page uint64)
	// SendFetch asks the owner for its copy (invalidate=true also revokes
	// it); the owner must answer with OnFetchReply.
	SendFetch(owner int, page uint64, invalidate bool)
	// SendRetry tells a node to re-execute the faulting access without
	// installing anything (the page layout changed under it).
	SendRetry(to int, page uint64, tid int64)
	// HomeWriteback stores data as the new home copy.
	HomeWriteback(page uint64, data []byte)
	// HomeSetPerm adjusts the master's own access right to the home copy.
	HomeSetPerm(page uint64, perm mem.Perm)
	// BroadcastRemap announces a page split to every node (incl. master).
	BroadcastRemap(orig uint64, shadows []uint64)
	// PushPage forwards the home copy of page to a node in Shared state
	// (data forwarding); unlike SendContent it flows off the fault path.
	PushPage(to int, page uint64)
	// SplitHome redistributes the home copy of orig into its shadow pages
	// (equal parts, each at the same in-page offset).
	SplitHome(orig uint64, shadows []uint64)
}

// Stats counts protocol activity.
type Stats struct {
	Reads       uint64
	Writes      uint64
	Fetches     uint64
	Invalidates uint64
	Pushes      uint64
	Splits      uint64
	Retries     uint64
	Queued      uint64
	Suppressed  uint64 // demand reads answered by an in-flight push
	FullResends uint64 // full-content re-grants after a delta mismatch

	// ForwardHits/ForwardWasted mirror the forwarder's Hits and Wasted at
	// the end of a run (copied in by the embedder; the directory itself never
	// reads them).
	ForwardHits   uint64
	ForwardWasted uint64
}

type entry struct {
	owner   int // NoOwner, Master, or a slave node id
	sharers NodeSet

	busy       bool
	acksLeft   int
	fetchFrom  int     // slave a fetch is outstanding to (0 = none)
	invPending NodeSet // nodes that owe an invalidation ack
	grant      Request // request waiting for acks/fetch, when granting
	granting   bool
	split      bool      // a split transaction is in flight
	pending    []Request // requests queued while busy
	retired    bool      // page was split; always answer Retry
}

// Directory is the master's coherence directory.
type Directory struct {
	env   Env
	pages map[uint64]*entry
	fwd   *Forwarder
	split *Splitter
	Stats Stats
}

// New creates a directory. fwd and split may be nil to disable the
// corresponding optimization.
func New(env Env, fwd *Forwarder, split *Splitter) *Directory {
	return &Directory{env: env, pages: map[uint64]*entry{}, fwd: fwd, split: split}
}

func (d *Directory) entryOf(page uint64) *entry {
	e := d.pages[page]
	if e == nil {
		e = &entry{owner: Master}
		d.pages[page] = e
	}
	return e
}

// SeedReplicated marks a page as read-shared by every node in all (used for
// text/rodata, which the loader replicates read-only everywhere).
func (d *Directory) SeedReplicated(page uint64, all NodeSet) {
	e := d.entryOf(page)
	e.owner = NoOwner
	e.sharers = all
}

// State exposes a page's owner and sharers (for tests and debugging).
func (d *Directory) State(page uint64) (owner int, sharers NodeSet, busy bool) {
	e := d.entryOf(page)
	return e.owner, e.sharers, e.busy
}

// OwnerOf reports which node's copy of page is current without creating a
// directory entry: NoOwner for the home copy of an unowned page, Master for
// an untouched page. This is the feedback scheduler's locality sensor — a
// thread repeatedly faulting on pages another node owns belongs there.
func (d *Directory) OwnerOf(page uint64) int {
	if e := d.pages[page]; e != nil {
		return e.owner
	}
	return Master
}

// OwnedBy returns, sorted, the pages whose only current copy is on node: the
// ones it holds in Modified state. When node is lost, their writes since the
// grant are lost with it. The directory is not changed.
func (d *Directory) OwnedBy(node int) []uint64 {
	var owned []uint64
	for page, e := range d.pages {
		if e.owner == node {
			owned = append(owned, page)
		}
	}
	slices.Sort(owned)
	return owned
}

// ForceSplit begins a SplitHome transaction for page ahead of the reactive
// splitter's fault-count threshold (the feedback scheduler fires it off the
// heat map's false-sharing flag, before the fault storm). Returns false —
// and does nothing — when the directory has no splitter, the page sits in
// the shadow region, was already split, or a transaction is in flight (the
// caller retries on its next control period).
func (d *Directory) ForceSplit(page uint64) bool {
	if d.split == nil || !d.split.CanSplit(page) {
		return false
	}
	e := d.entryOf(page)
	if e.retired || e.busy {
		return false
	}
	d.beginSplit(page, e)
	return true
}

// OnRequest handles a fault-driven page request.
func (d *Directory) OnRequest(r Request) {
	if r.Write {
		d.Stats.Writes++
	} else {
		d.Stats.Reads++
	}
	e := d.entryOf(r.Page)
	if e.retired {
		// The page was split; the requester re-faults through the remap.
		d.Stats.Retries++
		d.env.SendRetry(r.Node, r.Page, r.TID)
		return
	}
	// False-sharing detection runs on writes even while busy.
	if d.split != nil && r.Write {
		if d.split.Record(r) && !e.busy {
			d.beginSplit(r.Page, e)
			if e.retired {
				// The split completed synchronously (no remote copies).
				d.Stats.Retries++
				d.env.SendRetry(r.Node, r.Page, r.TID)
				return
			}
		}
	}
	if e.busy {
		d.Stats.Queued++
		e.pending = append(e.pending, r)
		return
	}
	d.serve(e, r)
}

func (d *Directory) serve(e *entry, r Request) {
	if r.Write {
		d.serveWrite(e, r)
	} else {
		d.serveRead(e, r)
	}
}

func (d *Directory) serveWrite(e *entry, r Request) {
	if e.owner == r.Node {
		if r.Full {
			// The owner lost the grant's data (delta mismatch): re-ship the
			// home copy, which still holds the grant-time content — the
			// owner never applied anything on top of it.
			d.Stats.FullResends++
			d.env.SendContent(r.Node, r.Page, mem.PermReadWrite)
			return
		}
		// Benign race: the owner re-requested (e.g. read and write faults
		// raced). Its copy is the freshest — never overwrite it.
		d.env.SendReaffirm(r.Node, r.Page, mem.PermReadWrite)
		return
	}
	if e.owner > 0 {
		// A slave owns the only current copy: revoke and pull it home.
		e.busy = true
		e.stash(r)
		e.fetchFrom = e.owner
		d.Stats.Fetches++
		d.env.SendFetch(e.owner, r.Page, true)
		return
	}
	// Home copy is current (owner is Master or NoOwner with sharers).
	if acks := d.invalidateSharers(e, r.Page, r.Node); acks > 0 {
		e.busy = true
		e.acksLeft = acks
		e.stash(r)
		return
	}
	d.grantWrite(e, r)
}

// invalidateSharers sends an invalidation to every sharer of page but the
// master and except, and returns how many acks are now owed.
func (d *Directory) invalidateSharers(e *entry, page uint64, except int) (acks int) {
	for s := e.sharers.Remove(Master).Remove(except); s != 0; s &= s - 1 {
		n := bits.TrailingZeros64(uint64(s))
		d.Stats.Invalidates++
		e.invPending = e.invPending.Add(n)
		d.env.SendInvalidate(n, page)
		acks++
	}
	return acks
}

// stash parks r on the busy entry until its acks or fetch reply arrive.
func (e *entry) stash(r Request) { e.grant, e.granting = r, true }

// serveStashed serves the request the entry was busy for, if any, and then
// what queued behind it.
func (d *Directory) serveStashed(page uint64, e *entry) {
	grant, granting := e.grant, e.granting
	e.busy = false
	e.grant, e.granting = Request{}, false
	if granting {
		d.serve(e, grant)
	}
	d.drain(page, e)
}

func (d *Directory) serveRead(e *entry, r Request) {
	if e.owner == r.Node && r.Node != Master {
		if r.Full {
			// Same as the write-side resend: the home copy is exactly the
			// content the owner was granted and failed to materialize.
			d.Stats.FullResends++
			d.env.SendContent(r.Node, r.Page, mem.PermReadWrite)
			return
		}
		// The requester owns the only fresh copy; keep it (M satisfies R).
		d.env.SendReaffirm(r.Node, r.Page, mem.PermReadWrite)
		return
	}
	if e.owner > 0 && e.owner != r.Node {
		// Downgrade the owner: it keeps a Shared copy and sends data home.
		e.busy = true
		e.stash(r)
		e.fetchFrom = e.owner
		d.Stats.Fetches++
		d.env.SendFetch(e.owner, r.Page, false)
		return
	}
	if e.sharers.Has(r.Node) && !r.Full {
		// The requester already has the content or a push is in flight to
		// it (sharers are only cleared by acked invalidations, which run
		// under busy). Re-shipping would add a full fault round trip for a
		// page that is about to arrive; the push/content wakes the waiter.
		d.Stats.Suppressed++
		return
	}
	if r.Full {
		d.Stats.FullResends++
	}
	d.grantRead(e, r)
}

func (d *Directory) grantWrite(e *entry, r Request) {
	e.owner = r.Node
	e.sharers = 0
	if r.Node == Master {
		d.env.HomeSetPerm(r.Page, mem.PermReadWrite)
	} else {
		// The home copy goes stale the moment the new owner writes.
		d.env.HomeSetPerm(r.Page, mem.PermNone)
	}
	d.env.SendContent(r.Node, r.Page, mem.PermReadWrite)
}

func (d *Directory) grantRead(e *entry, r Request) {
	if e.owner == Master {
		e.owner = NoOwner
	}
	if r.Node != Master {
		e.sharers = e.sharers.Add(r.Node)
	}
	// The home copy is readable by the master while unowned.
	d.env.HomeSetPerm(r.Page, mem.PermRead)
	d.env.SendContent(r.Node, r.Page, mem.PermRead)
	if d.fwd != nil && r.Node != Master && r.TID >= 0 {
		for _, p := range d.fwd.Record(r.TID, r.Page) {
			if d.split != nil && !d.split.Allocated(p) {
				// The predicted page number is an unallocated shadow slot: a
				// push would poison the entry a future split will inherit.
				continue
			}
			pe := d.entryOf(p)
			if pe.busy || pe.retired || pe.owner > 0 || pe.sharers.Has(r.Node) {
				continue
			}
			if pe.owner == Master {
				pe.owner = NoOwner
				d.env.HomeSetPerm(p, mem.PermRead)
			}
			pe.sharers = pe.sharers.Add(r.Node)
			d.Stats.Pushes++
			d.env.PushPage(r.Node, p)
		}
	}
}

// OnFetchReply finishes a fetch transaction: data is the owner's copy.
func (d *Directory) OnFetchReply(owner int, page uint64, data []byte, invalidated bool) error {
	e := d.entryOf(page)
	if !e.busy || e.fetchFrom == 0 {
		return fmt.Errorf("dsm: unexpected fetch reply for page %#x from node %d", page, owner)
	}
	if owner != e.fetchFrom {
		return fmt.Errorf("dsm: fetch reply for page %#x from node %d, but the fetch targets node %d",
			page, owner, e.fetchFrom)
	}
	e.fetchFrom = 0
	d.env.HomeWriteback(page, data)
	e.owner = NoOwner
	if !invalidated {
		e.sharers = e.sharers.Add(owner)
	}
	if e.split {
		d.finishSplit(page, e)
		return nil
	}
	d.serveStashed(page, e)
	return nil
}

// OnInvAck records one invalidation acknowledgement.
func (d *Directory) OnInvAck(node int, page uint64) error {
	e := d.entryOf(page)
	if !e.busy || e.acksLeft <= 0 || !e.invPending.Has(node) {
		return fmt.Errorf("dsm: unexpected inv-ack for page %#x from node %d", page, node)
	}
	e.invPending = e.invPending.Remove(node)
	e.sharers = e.sharers.Remove(node)
	e.acksLeft--
	if e.acksLeft > 0 {
		return nil
	}
	if e.split {
		d.finishSplit(page, e)
		return nil
	}
	d.serveStashed(page, e)
	return nil
}

// drain serves queued requests until the entry goes busy again.
func (d *Directory) drain(page uint64, e *entry) {
	for len(e.pending) > 0 && !e.busy {
		r := e.pending[0]
		// Copy down rather than reslice: the queue keeps its backing array.
		e.pending = e.pending[:copy(e.pending, e.pending[1:])]
		if e.retired {
			d.Stats.Retries++
			d.env.SendRetry(r.Node, r.Page, r.TID)
			continue
		}
		d.serve(e, r)
	}
}

// ---- Page splitting (§5.1) ----

// beginSplit starts a split transaction: the home copy must first be made
// current, revoking any owner and all sharers.
func (d *Directory) beginSplit(page uint64, e *entry) {
	e.busy = true
	e.split = true
	if e.owner > 0 {
		e.fetchFrom = e.owner
		d.Stats.Fetches++
		d.env.SendFetch(e.owner, page, true)
		return
	}
	if acks := d.invalidateSharers(e, page, Master); acks > 0 {
		e.acksLeft = acks
		return
	}
	d.finishSplit(page, e)
}

// finishSplit allocates shadow pages, redistributes the home copy,
// broadcasts the remap, and retries everyone who was waiting.
func (d *Directory) finishSplit(page uint64, e *entry) {
	shadows := d.split.AllocShadows(page)
	d.Stats.Splits++
	d.env.SplitHome(page, shadows)
	for _, sh := range shadows {
		se := d.entryOf(sh)
		se.owner = Master
	}
	d.env.BroadcastRemap(page, shadows)
	e.retired = true
	e.busy = false
	e.split = false
	e.owner = NoOwner
	e.sharers = 0
	if e.granting {
		d.Stats.Retries++
		d.env.SendRetry(e.grant.Node, page, e.grant.TID)
		e.grant, e.granting = Request{}, false
	}
	for _, r := range e.pending {
		d.Stats.Retries++
		d.env.SendRetry(r.Node, r.Page, r.TID)
	}
	e.pending = nil
}
