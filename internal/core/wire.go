package core

import (
	"fmt"

	"dqemu/internal/mem"
	"dqemu/internal/proto"
)

// This file is the wire-efficiency layer of the DSM protocol (delta page
// transfers, the per-sharer invalidation hold and push piggybacking). It
// lives entirely between the directory's Env calls and the Runtime's Send:
// dsm stays pure protocol logic, and the layer works the same over the
// simulated network and over internal/live's TCP frames.
//
// Versioning (TreadMarks-style twins): the master assigns every page a
// monotonically increasing version. homeVer names the content of the home
// copy; a write grant opens a new epoch that names whatever the owner will
// write, and the fetch that eventually revokes the owner stamps that epoch
// onto the returned diff. Every node keeps a twin — data plus version — of
// the last coherent content it held; content-carrying messages then ship a
// word-granular diff against the version the master believes the receiver
// holds, falling back to a full page (or a zero-run encoding for sparse
// pages) when no usable base exists or the diff grows past ~half a page.
// Diffs carry absolute words, so a retransmitted or duplicated diff applies
// idempotently. A receiver whose twin does not match simply discards it and
// requests a full re-grant (proto.FlagFullResend); dsm.Request.Full turns
// that into a content grant even where the directory would reaffirm.
//
// Buffers: a transfer rewrites buffers that already exist. A node keeps per
// page the resident copy (mem.Space) and the twin; the master keeps the home
// copy, a ring of at most wireSnapKeep snapshots per page, and one scratch
// page. The rule that makes rewriting in place safe: a message handed to
// Runtime.Send and every buffer it carries (Msg.Data, a payload Body, San)
// are immutable until the handler it is delivered to returns. Under the
// simulator the receiver reads the very same bytes, as views
// (proto.PayloadReader): it copies out what it keeps and never writes
// through them. Once the handler returns, Cluster.dispatch gives the message
// and a KPageContent's, KPush's or KFetchReply's container back to the
// process's frame stock, and a later send is built in them (frames.go) —
// except under Config.Faults, where netsim.Reliable keeps frames for
// retransmission and nothing is given back. So page, twin, snapshot and
// scratch buffers and the body arena are never sent (what is sent is an
// encoding, into a kept container or a fresh one), and what
// materializeFetchReply returns may be the scratch page or the home copy
// itself: nothing may keep it past Directory.OnFetchReply.

// WireStats counts wire-layer activity (Result.Wire).
type WireStats struct {
	// Per-encoding page transfer counts (grants, pushes and fetch replies).
	SamePages  uint64 // header-only: the receiver's twin was current
	DeltaPages uint64
	RLEPages   uint64
	FullPages  uint64

	DeltaMisses    uint64 // wanted a delta but had no usable base version
	DeltaOverflows uint64 // diff exceeded the fallback threshold
	Resends        uint64 // receiver-side twin mismatches (full re-grant)
	PushDrops      uint64 // forwarded diffs dropped for a stale twin

	PiggyPushes uint64 // pushes that rode a grant message
	// InvBatches and InvBatchPages counted invalidation batches and their
	// pages, which are gone: they read 0 and stay declared only because the
	// frozen bench/ reads them (ROADMAP 1(c) drops them at the unfreeze).
	InvBatches    uint64
	InvBatchPages uint64

	// BodyBytes is what the container payload bodies actually shipped;
	// RawBytes is what the same transfers would have cost as full pages.
	BodyBytes uint64
	RawBytes  uint64
}

// pageTwin is a node's copy of the last coherent content of a page, kept
// across invalidations so the next transfer can be a diff against it.
type pageTwin struct {
	ver  uint64
	data []byte
}

type nodePage struct {
	node int32
	page uint64
}

type wireSnap struct {
	ver  uint64
	data []byte
}

// wireSnapKeep bounds the per-page ring of retained home-copy versions.
const wireSnapKeep = 4

// coalesceWindowNs is how long the master holds invalidations for one sharer
// before flushing them, in queue order, as plain KInvalidates: small next to
// the ~410 µs remote fault, large enough to span a barrier-release storm.
// Nothing merges; the hold stays because it is measured. Sending each
// invalidation at once made dedup-2s take 1.704 s of virtual time instead of
// 1.448 s, with 66.6M guest instructions instead of 49.1M (the revoked
// sharers spin on their locks sooner and longer).
const coalesceWindowNs = 12_000

// targetBuf is what one node is owed when the current handle ends: its demand
// grants and the pushes forwarded to it. Both slices keep their backing array
// from one flush to the next.
type targetBuf struct {
	grants, pushes []proto.PagePayload
}

// masterWire is the master-side half of the layer: version bookkeeping,
// per-target grant/push buffering within one message handle, and the
// invalidations held for coalesceWindowNs.
type masterWire struct {
	m        *master
	delta    bool
	coalesce bool
	limit    int // encoded-delta fallback threshold in bytes

	lastVer map[uint64]uint64 // highest version assigned so far
	homeVer map[uint64]uint64 // version of the current home-copy content
	epoch   map[uint64]uint64 // open epoch of a remote owner's content
	snaps   map[uint64][]wireSnap
	// remote is the twin version the master believes each node holds: the
	// max of what the node last advertised (KPageReq.Ver) and what the
	// master last shipped on a guaranteed-apply path (grants and fetches —
	// never pushes, which a node may ignore).
	remote map[nodePage]uint64

	out   []targetBuf // by node id
	order []int32     // targets with something in out, in first-touch order
	// pendInv holds each node's invalidations (by node id) until invFlush's
	// event for it sends them; a flush cuts the slice back and keeps it.
	pendInv  [][]uint64
	invFlush []func()
	// arena holds, back to back, the bodies of every payload queued in out:
	// each Body is a view of it (a view of an array the arena outgrew keeps
	// that array) until proto.AppendPayloads copies it into the container
	// that is sent. flushAll cuts the arena back; it is never sent.
	arena []byte

	scratch []byte // one page: where a diffed fetch reply is decoded

	stats *WireStats
}

func newMasterWire(m *master) *masterWire {
	cfg := m.cl.cfg
	return &masterWire{
		m:        m,
		delta:    !cfg.NoDelta,
		coalesce: !cfg.NoCoalesce,
		limit:    cfg.PageSize / 2,
		lastVer:  map[uint64]uint64{},
		homeVer:  map[uint64]uint64{},
		epoch:    map[uint64]uint64{},
		snaps:    map[uint64][]wireSnap{},
		remote:   map[nodePage]uint64{},
		out:      make([]targetBuf, cfg.Nodes()),
		pendInv:  make([][]uint64, cfg.Nodes()),
		invFlush: make([]func(), cfg.Nodes()),
		scratch:  mem.NewPageBuf(cfg.PageSize),
		stats:    &m.cl.wireStats,
	}
}

// ---- version bookkeeping ----

// homeVerOf returns the version of the home copy, initializing untouched
// pages to version 1 (version 0 means "no twin" on the wire).
func (w *masterWire) homeVerOf(page uint64) uint64 {
	if v, ok := w.homeVer[page]; ok {
		return v
	}
	w.homeVer[page] = 1
	if w.lastVer[page] < 1 {
		w.lastVer[page] = 1
	}
	return 1
}

// versioned reports whether the home content of page has ever been named by
// a version — shipped, pushed, fetched back, or inherited through a split.
// Only then can any node hold a twin of it.
func (w *masterWire) versioned(page uint64) bool {
	_, ok := w.homeVer[page]
	return ok
}

// snapshotHome freezes the home copy at its current version, so future
// grants to nodes with twins at that version can diff. A full ring rewrites
// its oldest snapshot (versions only grow, so that is the lowest).
func (w *masterWire) snapshotHome(page uint64) {
	v := w.homeVerOf(page)
	ss := w.snaps[page]
	oldest := 0
	for i := range ss {
		if ss[i].ver == v {
			return
		}
		if ss[i].ver < ss[oldest].ver {
			oldest = i
		}
	}
	home := w.m.space.EnsurePage(page, w.m.space.PermOf(page))
	if len(ss) < wireSnapKeep {
		data := mem.NewPageBuf(len(home))
		copy(data, home)
		w.snaps[page] = append(ss, wireSnap{ver: v, data: data})
		return
	}
	ss[oldest].ver = v
	copy(ss[oldest].data, home)
}

func (w *masterWire) snapOf(page, ver uint64) []byte {
	if ver == w.homeVerOf(page) {
		return w.m.space.PageData(page)
	}
	for _, s := range w.snaps[page] {
		if s.ver == ver {
			return s.data
		}
	}
	return nil
}

// openLocalEpoch runs when the master itself takes a write grant: the home
// copy is about to change in place, so its current content is snapshotted
// (sharers were invalidated but keep twins at this version) and the page
// moves to a fresh version.
func (w *masterWire) openLocalEpoch(page uint64) {
	if !w.delta {
		return
	}
	w.snapshotHome(page)
	w.lastVer[page]++
	w.homeVer[page] = w.lastVer[page]
}

// fetchEpoch returns (opening if necessary) the version naming the remote
// owner's content; KFetch carries it so the reply's diff is stamped with it.
func (w *masterWire) fetchEpoch(page uint64) uint64 {
	if w.epoch[page] == 0 {
		w.homeVerOf(page)
		w.lastVer[page]++
		w.epoch[page] = w.lastVer[page]
	}
	return w.epoch[page]
}

// noteRequest folds a KPageReq's advertised twin version into the belief
// map. A FlagFullResend request is authoritative (the node just discarded
// its twin); otherwise the belief can only grow — a stale advertisement
// composed before an in-flight grant landed must not roll it back.
func (w *masterWire) noteRequest(from int32, page, ver uint64, full bool) {
	if !w.delta {
		return
	}
	np := nodePage{from, page}
	if full {
		if ver == 0 {
			delete(w.remote, np)
		} else {
			w.remote[np] = ver
		}
		return
	}
	if ver > w.remote[np] {
		w.remote[np] = ver
	}
}

// ---- payload construction ----

// buildPayload encodes the current home copy for one receiver, choosing
// header-only (twin current), delta, zero-run or full encoding.
func (w *masterWire) buildPayload(to int32, page uint64, perm mem.Perm, push bool) proto.PagePayload {
	data := w.m.space.EnsurePage(page, w.m.space.PermOf(page))
	pl := proto.PagePayload{Page: page, Perm: uint8(perm), Push: push}
	if w.m.node.san != nil {
		// Shadow state travels with the page: the receiver merges it so its
		// next access is checked against every recorded remote access.
		pl.San = w.m.node.san.EncodePage(page)
	}
	arena := w.arena
	start := len(arena)
	if !w.delta {
		pl.Enc, arena = proto.EncFull, append(arena, data...)
	} else {
		hv := w.homeVerOf(page)
		pl.Ver = hv
		base := w.remote[nodePage{to, page}]
		switch {
		case base != 0 && base == hv:
			pl.Enc = proto.EncSame
		case base != 0 && w.snapOf(page, base) != nil:
			var ok bool
			if arena, ok = proto.AppendDelta(arena, w.snapOf(page, base), data, w.limit); ok {
				pl.Enc, pl.BaseVer = proto.EncDelta, base
			} else {
				w.stats.DeltaOverflows++
				pl.Enc, arena = fullOrRLE(arena, data)
			}
		default:
			if base != 0 {
				w.stats.DeltaMisses++
			}
			pl.Enc, arena = fullOrRLE(arena, data)
		}
	}
	pl.Body = arena[start:len(arena):len(arena)]
	w.arena = arena
	w.stats.countPayload(&pl, len(data))
	return pl
}

// fullOrRLE appends to dst the zero-run encoding of the page when that is
// cheaper than the raw page (freshly touched sparse pages), else the page
// whole.
func fullOrRLE(dst, data []byte) (uint8, []byte) {
	if d, ok := proto.AppendDelta(dst, nil, data, len(data)-proto.HeaderSize); ok {
		return proto.EncRLE, d
	}
	return proto.EncFull, append(dst, data...)
}

func (s *WireStats) countPayload(pl *proto.PagePayload, pageSize int) {
	s.BodyBytes += uint64(len(pl.Body))
	s.RawBytes += uint64(pageSize)
	switch pl.Enc {
	case proto.EncSame:
		s.SamePages++
	case proto.EncDelta:
		s.DeltaPages++
	case proto.EncRLE:
		s.RLEPages++
	default:
		s.FullPages++
	}
}

// ---- grant/push buffering (per message handle) ----

func (w *masterWire) touch(to int32) {
	for _, t := range w.order {
		if t == to {
			return
		}
	}
	w.order = append(w.order, to)
}

// queueGrant buffers a demand grant for flushing at the end of the current
// handle (pushes can then piggyback on it). A write grant opens a new epoch
// for the owner's upcoming modifications.
func (w *masterWire) queueGrant(to int32, page uint64, perm mem.Perm) {
	pl := w.buildPayload(to, page, perm, false)
	if w.delta {
		if perm == mem.PermReadWrite {
			w.homeVerOf(page)
			w.lastVer[page]++
			w.epoch[page] = w.lastVer[page]
		}
		w.remote[nodePage{to, page}] = pl.Ver
	}
	w.out[to].grants = append(w.out[to].grants, pl)
	w.touch(to)
	if !w.coalesce {
		w.flushTarget(to)
	}
}

// queuePush buffers a forwarded page. Pushes never update the belief map:
// the receiver is free to ignore them.
func (w *masterWire) queuePush(to int32, page uint64) {
	pl := w.buildPayload(to, page, mem.PermRead, true)
	w.out[to].pushes = append(w.out[to].pushes, pl)
	w.touch(to)
	if !w.coalesce {
		w.flushTarget(to)
	}
}

// piggyBudget bounds how many push body bytes may ride a grant message so
// piggybacking never doubles the demand grant's serialization time.
func (w *masterWire) piggyBudget() int { return w.m.cl.cfg.PageSize }

// flushTarget emits the buffered grant (with pushes piggybacked up to the
// budget) followed by any remaining pushes for one node. It must run before
// any other immediate master->to send so link-FIFO ordering matches the
// unbuffered protocol (master.sendNow does this).
func (w *masterWire) flushTarget(to int32) {
	b := &w.out[to]
	if len(b.grants) == 0 && len(b.pushes) == 0 {
		return
	}
	if !w.m.cl.done {
		pushes := b.pushes
		if len(b.grants) > 0 {
			if w.coalesce {
				budget := w.piggyBudget()
				used := 0
				rest := pushes[:0]
				for _, pl := range pushes {
					if used+len(pl.Body) <= budget {
						used += len(pl.Body)
						b.grants = append(b.grants, pl)
						w.stats.PiggyPushes++
					} else {
						rest = append(rest, pl)
					}
				}
				pushes = rest
			}
			w.sendContainer(proto.KPageContent, to, b.grants)
		}
		if w.coalesce && len(pushes) > 0 {
			w.sendContainer(proto.KPush, to, pushes)
		} else {
			for _, pl := range pushes {
				w.sendContainer(proto.KPush, to, []proto.PagePayload{pl})
			}
		}
	}
	// What was sent holds the bodies now: drop them here, keep the arrays.
	clear(b.grants)
	clear(b.pushes)
	b.grants, b.pushes = b.grants[:0], b.pushes[:0]
}

// sendContainer ships payloads in payload containers, splitting across
// messages when a batch outgrows the wire format's count field.
func (w *masterWire) sendContainer(kind proto.Kind, to int32, pls []proto.PagePayload) {
	for len(pls) > 0 {
		n := min(len(pls), proto.MaxBatchEntries)
		c := w.m.cl
		c.send(proto.Msg{
			Kind: kind, From: 0, To: to,
			Page: pls[0].Page, Perm: pls[0].Perm,
			Data: proto.AppendPayloads(container(), pls[:n]),
		})
		pls = pls[n:]
	}
}

// flushAll runs at the end of every master handle. Nothing is queued once it
// is through, so no payload views the arena any more.
func (w *masterWire) flushAll() {
	for _, to := range w.order {
		w.flushTarget(to)
	}
	w.order, w.arena = w.order[:0], w.arena[:0]
}

// ---- invalidation hold ----

// queueInvalidate holds an invalidation for its target, arming the flush
// timer on the first one held. The timer's event is made once per target.
func (w *masterWire) queueInvalidate(to int32, page uint64) {
	if len(w.pendInv[to]) == 0 {
		if w.invFlush[to] == nil {
			w.invFlush[to] = func() { w.flushInv(to) }
		}
		w.m.cl.rt.After(coalesceWindowNs, w.invFlush[to])
	}
	w.pendInv[to] = append(w.pendInv[to], page)
}

// flushInv sends the target's held invalidations as plain KInvalidates, in
// the order they were queued.
func (w *masterWire) flushInv(to int32) {
	pages := w.pendInv[to]
	if len(pages) == 0 {
		return
	}
	w.pendInv[to] = pages[:0] // sending queues nothing, so pages stays as it is
	if w.m.cl.done {
		return
	}
	for _, page := range pages {
		w.m.cl.send(proto.Msg{Kind: proto.KInvalidate, From: 0, To: to, Page: page})
	}
}

// ---- split / remap interplay ----

// broadcastRemap distributes a page split: every other node gets a KRemap
// stamped with the split-time home version, so matching twins can be split
// in place. A target's held invalidations and buffered grants go first —
// the directory sends retries right after, and the remap must win the race
// — which is the order the NoCoalesce path sends them in.
func (w *masterWire) broadcastRemap(orig uint64, shadows []uint64) {
	var ver uint64
	if w.delta {
		ver = w.homeVerOf(orig)
	}
	for id := 1; id < w.m.cl.cfg.Nodes(); id++ {
		to := int32(id)
		w.flushInv(to)
		w.flushTarget(to)
		w.m.cl.send(proto.Msg{
			Kind: proto.KRemap, From: 0, To: to,
			Page: orig, Ver: ver, Shadows: shadows,
		})
	}
	if !w.delta {
		return
	}
	for id := 1; id < w.m.cl.cfg.Nodes(); id++ {
		np := nodePage{int32(id), orig}
		if ver != 0 && w.remote[np] == ver {
			for _, sh := range shadows {
				w.remote[nodePage{int32(id), sh}] = 1
			}
		}
		delete(w.remote, np)
	}
	for _, sh := range shadows {
		w.homeVer[sh] = 1
		if w.lastVer[sh] < 1 {
			w.lastVer[sh] = 1
		}
		w.dropSnaps(sh)
	}
	w.dropSnaps(orig)
	delete(w.epoch, orig)
}

// dropSnaps forgets the page's snapshots and hands their buffers back to the
// page recycler: a snapshot is read only while a payload is encoded from it
// (snapOf), never sent or installed.
func (w *masterWire) dropSnaps(page uint64) {
	for _, s := range w.snaps[page] {
		mem.FreePageBuf(s.data)
	}
	delete(w.snaps, page)
}

// ---- fetch replies ----

// materializeFetchReply decodes the owner's (possibly diffed) reply into
// full page bytes against the still-intact home copy and, with delta
// transfers on, retains the old home content for future deltas and advances
// the page to the reply's version. data is only good until the next reply:
// it is the reply's own body, the scratch page, or the home copy.
func (w *masterWire) materializeFetchReply(from int32, msg *proto.Msg) (data, san []byte, err error) {
	var pl proto.PagePayload
	r := proto.ReadPayloads(msg.Data)
	one := r.Next(&pl)
	if derr := r.Err(); derr != nil {
		return nil, nil, derr
	}
	if !one || r.Len() != 1 {
		return nil, nil, fmt.Errorf("core: fetch reply with %d payloads", r.Len())
	}
	home := w.m.space.EnsurePage(pl.Page, w.m.space.PermOf(pl.Page))
	switch pl.Enc {
	case proto.EncFull:
		if len(pl.Body) != len(home) {
			return nil, nil, fmt.Errorf("core: fetch reply from node %d for page %#x: %d-byte body", from, pl.Page, len(pl.Body))
		}
		data = pl.Body
	case proto.EncDelta:
		if pl.BaseVer != w.homeVerOf(pl.Page) {
			return nil, nil, fmt.Errorf("core: fetch reply diff for page %#x against version %d, home is %d",
				pl.Page, pl.BaseVer, w.homeVerOf(pl.Page))
		}
		copy(w.scratch, home)
		if aerr := proto.ApplyDelta(w.scratch, pl.Body); aerr != nil {
			return nil, nil, aerr
		}
		data = w.scratch
	case proto.EncRLE:
		clear(w.scratch)
		if aerr := proto.ApplyDelta(w.scratch, pl.Body); aerr != nil {
			return nil, nil, aerr
		}
		data = w.scratch
	case proto.EncSame:
		// The owner never materialized its grant (a resend is in flight):
		// the home copy is still the authoritative content.
		data = home
	default:
		return nil, nil, fmt.Errorf("core: fetch reply encoding %d", pl.Enc)
	}
	if !w.delta {
		return data, pl.San, nil
	}
	w.snapshotHome(pl.Page)
	if pl.Ver != 0 {
		w.homeVer[pl.Page] = pl.Ver
		if pl.Ver > w.lastVer[pl.Page] {
			w.lastVer[pl.Page] = pl.Ver
		}
	}
	delete(w.epoch, pl.Page)
	np := nodePage{from, pl.Page}
	if pl.Enc == proto.EncSame {
		delete(w.remote, np) // the owner holds no twin
	} else {
		w.remote[np] = pl.Ver
	}
	return data, pl.San, nil
}

// ---- node-side receive paths ----

// setTwin makes data (copied; it may be the twin itself, fresh out of
// materialize) the page's last coherent content, version ver.
func (n *node) setTwin(page uint64, data []byte, ver uint64) {
	if n.twins == nil || ver == 0 {
		return
	}
	tw := n.twin(page)
	tw.ver = ver
	copy(tw.data, data)
}

// twin returns the page's twin, made on first use with version 0, which
// names no content. A node that keeps no twins gets a throwaway.
func (n *node) twin(page uint64) *pageTwin {
	tw := n.twins[page]
	if tw == nil {
		tw = &pageTwin{data: mem.NewPageBuf(n.space.PageSize())}
		if n.twins != nil {
			n.twins[page] = tw
		}
	}
	return tw
}

// dropTwin forgets the page's twin and hands its buffer back to the page
// recycler: no page, message or other twin points into a twin (InstallPage
// and setTwin copy).
func (n *node) dropTwin(page uint64) {
	if tw := n.twins[page]; tw != nil {
		delete(n.twins, page)
		mem.FreePageBuf(tw.data)
	}
}

// materialize reconstructs full page bytes from a payload. ok=false means
// the payload needed a twin this node no longer has (or has at the wrong
// version) — the content cannot be recovered locally and the caller must
// fall back to a full re-transfer. Deltas carry absolute words, so applying
// a duplicated payload (ARQ retransmit) is idempotent. Every encoding but
// EncFull is decoded onto the twin in place and returns the twin itself: the
// caller installs it and then stamps it with setTwin.
func (n *node) materialize(pl *proto.PagePayload) (data []byte, ok bool, err error) {
	ps := n.space.PageSize()
	switch pl.Enc {
	case proto.EncFull:
		if len(pl.Body) != ps {
			return nil, false, fmt.Errorf("node %d: full payload of %d bytes for page %#x", n.id, len(pl.Body), pl.Page)
		}
		return pl.Body, true, nil
	case proto.EncRLE:
		tw := n.twin(pl.Page)
		tw.ver = 0 // neither the old content nor, until setTwin, the new
		clear(tw.data)
		if aerr := proto.ApplyDelta(tw.data, pl.Body); aerr != nil {
			return nil, false, aerr
		}
		return tw.data, true, nil
	case proto.EncDelta:
		tw := n.twins[pl.Page]
		if tw == nil || tw.ver != pl.BaseVer {
			return nil, false, nil
		}
		if aerr := proto.ApplyDelta(tw.data, pl.Body); aerr != nil {
			return nil, false, aerr
		}
		return tw.data, true, nil
	case proto.EncSame:
		tw := n.twins[pl.Page]
		if tw == nil || tw.ver != pl.Ver {
			return nil, false, nil
		}
		return tw.data, true, nil
	}
	return nil, false, fmt.Errorf("node %d: unknown payload encoding %d", n.id, pl.Enc)
}

// onCohFrame unpacks the payload container of a KPageContent or KPush: demand
// grants plus any pushes that rode along.
func (n *node) onCohFrame(m *proto.Msg) {
	var pl proto.PagePayload
	r := proto.ReadPayloads(m.Data)
	for r.Next(&pl) {
		if pl.Push || m.Kind == proto.KPush {
			n.applyPush(&pl)
		} else {
			n.applyGrant(&pl)
		}
	}
	if err := r.Err(); err != nil {
		n.cl.fail(fmt.Errorf("node %d: %v payload container: %w", n.id, m.Kind, err))
	}
}

// applyGrant installs a demand grant. A twin mismatch discards the twin and
// re-requests the page in full; the waiting threads stay parked (their
// request bookkeeping is untouched) until the full grant lands.
func (n *node) applyGrant(pl *proto.PagePayload) {
	perm := mem.Perm(pl.Perm)
	data, ok, err := n.materialize(pl)
	if err != nil {
		n.cl.fail(err)
		return
	}
	if !ok {
		n.cl.wireStats.Resends++
		n.dropTwin(pl.Page)
		n.resend[pl.Page] = true
		n.cl.send(proto.Msg{
			Kind: proto.KPageReq, From: int32(n.id), To: 0, TID: -1,
			Page:  pl.Page,
			Write: perm == mem.PermReadWrite || n.requested[pl.Page]&reqWrite != 0,
			Flags: proto.FlagFullResend,
		})
		return
	}
	delete(n.resend, pl.Page)
	n.space.InstallPage(pl.Page, data, perm)
	n.engine.InvalidatePage(pl.Page)
	if n.san != nil {
		n.san.MergePage(pl.Page, pl.San)
	}
	n.setTwin(pl.Page, data, pl.Ver)
	n.contentArrived(pl.Page, perm)
}

// applyPush installs a forwarded page under the legacy push rules (ignored
// if resident or a write upgrade is in flight). A diff against a twin this
// node no longer holds cannot install — but the directory already recorded
// this node as a sharer when it forwarded, so the content is re-requested
// in full. The re-request goes out even when a plain demand read is already
// outstanding: the directory suppresses reads from a node it just forwarded
// a push to (the push was supposed to answer them), so after a drop only a
// FlagFullResend request — which bypasses the suppression — is guaranteed a
// reply. Skipping it would strand the read's waiters forever.
func (n *node) applyPush(pl *proto.PagePayload) {
	if n.space.PermOf(pl.Page) != mem.PermNone || n.requested[pl.Page]&reqWrite != 0 {
		return
	}
	data, ok, err := n.materialize(pl)
	if err != nil {
		n.cl.fail(err)
		return
	}
	if !ok {
		n.cl.wireStats.PushDrops++
		n.dropTwin(pl.Page)
		n.requested[pl.Page] |= reqRead
		n.cl.send(proto.Msg{
			Kind: proto.KPageReq, From: int32(n.id), To: 0, TID: -1,
			Page: pl.Page, Flags: proto.FlagFullResend,
		})
		return
	}
	n.space.InstallPage(pl.Page, data, mem.PermRead)
	n.engine.InvalidatePage(pl.Page)
	if n.san != nil {
		n.san.MergePage(pl.Page, pl.San)
	}
	n.setTwin(pl.Page, data, pl.Ver)
	n.requested[pl.Page] &^= reqRead
	if n.requested[pl.Page] == 0 {
		delete(n.requested, pl.Page)
	}
	n.wakePageWaiters(pl.Page, mem.PermRead)
}

// onFetch answers a KFetch with the page, stamped with the epoch (m.Ver) the
// master opened for this ownership: a diff against the twin laid down when
// this node received the page where it can, else the page whole from a node
// that keeps no twins (the NoDelta ablation) and otherwise its cheaper of
// whole and zero-run encoding. A fetch for a page whose grant mismatched and
// was never installed answers EncSame: the home copy is still current.
func (n *node) onFetch(m *proto.Msg) {
	pl := proto.PagePayload{Page: m.Page, Ver: m.Ver}
	data := n.space.PageData(m.Page)
	switch {
	case data == nil && !n.resend[m.Page]:
		n.cl.fail(fmt.Errorf("node %d: fetch for non-resident page %#x", n.id, m.Page))
		return
	case data == nil:
		pl.Enc = proto.EncSame
		if n.san != nil {
			pl.San = n.san.EncodePage(m.Page)
			if m.Write {
				n.san.DropPage(m.Page)
			}
		}
	default:
		body, encoded := n.fetchScratch[:0], false
		switch tw := n.twins[m.Page]; {
		case n.twins == nil:
			pl.Enc, body, encoded = proto.EncFull, append(body, data...), true
		case tw != nil:
			if body, encoded = proto.AppendDelta(body, tw.data, data, n.space.PageSize()/2); encoded {
				pl.Enc, pl.BaseVer = proto.EncDelta, tw.ver
			} else {
				n.cl.wireStats.DeltaOverflows++
			}
		}
		if !encoded {
			pl.Enc, body = fullOrRLE(body, data)
		}
		// The container is what is sent: it takes the body out of the scratch
		// before the next fetch rewrites it.
		pl.Body, n.fetchScratch = body, body
		// The shipped content is now the coherent version m.Ver everywhere. The
		// twin takes it from the live page, so before the page goes.
		n.setTwin(m.Page, data, m.Ver)
		pl.San = n.revoke(m.Page, m.Write)
	}
	n.cl.wireStats.countPayload(&pl, n.space.PageSize())
	n.cl.send(proto.Msg{
		Kind: proto.KFetchReply, From: int32(n.id), To: 0,
		Page: m.Page, Write: m.Write,
		Data: proto.AppendPayloads(container(), []proto.PagePayload{pl}),
	})
}
