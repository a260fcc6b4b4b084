// Package mem implements the per-node software MMU of DQEMU.
//
// Each cluster node holds a Space: a paged view of the single guest address
// space. A page is locally readable, writable, or absent, mirroring the
// mprotect-based page protection the paper drives its coherence state
// machine with (§4.2): guest loads and stores through Load/Store check the
// local permission and report a restartable Fault on violation, which the
// node turns into a coherence-protocol request.
//
// The Space also holds the node's copy of the page-splitting remap table
// (§5.1): guest addresses falling in a split page are redirected to the
// corresponding shadow page during address translation, exactly where a DBT
// translates guest to host addresses, so splitting costs one table lookup.
package mem

import (
	"bytes"
	"fmt"
	"math"
	"sort"
)

// DefaultPageSize is the guest page granularity of the coherence protocol.
const DefaultPageSize = 4096

// Perm is a node-local page permission.
type Perm uint8

const (
	// PermNone marks a page with no local copy (Invalid in MSI terms).
	PermNone Perm = iota
	// PermRead marks a read-only local copy (Shared).
	PermRead
	// PermReadWrite marks an exclusive, writable copy (Modified).
	PermReadWrite
)

// String returns the MSI-style name of the permission.
func (p Perm) String() string {
	switch p {
	case PermRead:
		return "S"
	case PermReadWrite:
		return "M"
	default:
		return "I"
	}
}

// Fault reports a guest access that the local page state cannot satisfy.
// The faulting instruction has not executed; after the page is installed the
// access can be retried.
type Fault struct {
	Addr  uint64 // faulting (post-remap) guest address
	Page  uint64 // faulting page number
	Write bool   // true for store/atomic faults
}

func (f *Fault) Error() string {
	kind := "read"
	if f.Write {
		kind = "write"
	}
	return fmt.Sprintf("page fault: %s %#x (page %#x)", kind, f.Addr, f.Page)
}

type page struct {
	data []byte
	perm Perm
}

// tlbSize is the number of direct-mapped softmmu TLB entries. The TLB
// caches page lookups on the hot path, like QEMU's softmmu TLB; it is
// invalidated wholesale whenever any page state changes.
const tlbSize = 8

type tlbEntry struct {
	pageNo uint64
	perm   Perm
	data   []byte
	epoch  uint64
}

// Space is one node's view of the guest address space.
type Space struct {
	pageSize  int
	pageShift uint
	pages     map[uint64]*page
	remap     map[uint64][]uint64 // original page -> shadow pages
	shadowOf  map[uint64]uint64   // shadow page -> original page
	epoch     uint64
	tlb       [tlbSize]tlbEntry
	// free holds the pages DropPage and AddRemap retired, for the next
	// page this Space creates. Anything that still points into a retired
	// buffer (tlb, AccelEntry, a translator's site TLB) carries the epoch
	// from before the drop, and every reuse bumps it again.
	free []*page

	// Faults counts permission faults reported to the execution engine.
	Faults uint64
}

// NewSpace returns an empty Space with the given page size (0 means
// DefaultPageSize). The page size must be a power of two >= 64.
func NewSpace(pageSize int) *Space {
	if pageSize == 0 {
		pageSize = DefaultPageSize
	}
	if pageSize < 64 || pageSize&(pageSize-1) != 0 {
		panic(fmt.Sprintf("mem: bad page size %d", pageSize))
	}
	shift := uint(0)
	for 1<<shift != pageSize {
		shift++
	}
	return &Space{
		pageSize:  pageSize,
		pageShift: shift,
		pages:     map[uint64]*page{},
		remap:     map[uint64][]uint64{},
		shadowOf:  map[uint64]uint64{},
		epoch:     1,
	}
}

// PageSize returns the page size in bytes.
func (s *Space) PageSize() int { return s.pageSize }

// PageOf returns the page number containing addr.
func (s *Space) PageOf(addr uint64) uint64 { return addr >> s.pageShift }

// PageAddr returns the base address of page number p.
func (s *Space) PageAddr(p uint64) uint64 { return p << s.pageShift }

// Translate applies the page-splitting remap to a guest address. Addresses
// in unsplit pages map to themselves.
func (s *Space) Translate(addr uint64) uint64 {
	if len(s.remap) == 0 {
		return addr
	}
	shadows, ok := s.remap[addr>>s.pageShift]
	if !ok {
		return addr
	}
	off := addr & uint64(s.pageSize-1)
	part := off / (uint64(s.pageSize) / uint64(len(shadows)))
	return shadows[part]<<s.pageShift | off
}

// AddRemap records that original page orig has been split into the given
// shadow pages (each holding an equal consecutive part of orig at the same
// page offset). The local copy of orig, if any, is dropped: its content now
// lives in the shadow pages, whose state the coherence protocol tracks
// independently.
func (s *Space) AddRemap(orig uint64, shadows []uint64) error {
	n := len(shadows)
	if n < 2 || n&(n-1) != 0 || n > s.pageSize/8 {
		return fmt.Errorf("mem: split factor %d must be a power of two >= 2", n)
	}
	if _, dup := s.remap[orig]; dup {
		return fmt.Errorf("mem: page %#x already split", orig)
	}
	if from, isShadow := s.shadowOf[orig]; isShadow {
		return fmt.Errorf("mem: page %#x is a shadow of %#x and cannot be split", orig, from)
	}
	for _, sh := range shadows {
		if _, nested := s.remap[sh]; nested {
			return fmt.Errorf("mem: shadow page %#x is itself split", sh)
		}
		if _, used := s.shadowOf[sh]; used {
			return fmt.Errorf("mem: page %#x is already a shadow page", sh)
		}
	}
	s.remap[orig] = append([]uint64(nil), shadows...)
	for _, sh := range shadows {
		s.shadowOf[sh] = orig
	}
	s.DropPage(orig)
	return nil
}

// RemapCount returns the number of split pages.
func (s *Space) RemapCount() int { return len(s.remap) }

// InstallPage installs (or replaces) the content and permission of a page.
// data may be shorter than the page size; the rest is zero. data is copied.
func (s *Space) InstallPage(pageNo uint64, data []byte, perm Perm) {
	p := s.pages[pageNo]
	if p == nil {
		p = s.newPage(pageNo)
	}
	n := copy(p.data, data)
	clear(p.data[n:])
	p.perm = perm
	s.bumpEpoch()
}

// newPage makes pageNo resident on a retired buffer if there is one, whose
// old content the caller must overwrite, and on a zero one from the
// recycler (NewPageBuf) otherwise.
func (s *Space) newPage(pageNo uint64) *page {
	var p *page
	if last := len(s.free) - 1; last >= 0 {
		p, s.free[last] = s.free[last], nil
		s.free = s.free[:last]
	} else {
		p = &page{data: NewPageBuf(s.pageSize)}
	}
	s.pages[pageNo] = p
	return p
}

// EnsurePage creates a zero page with the given permission if absent and
// returns its data.
func (s *Space) EnsurePage(pageNo uint64, perm Perm) []byte {
	p := s.pages[pageNo]
	if p == nil {
		p = s.newPage(pageNo)
		clear(p.data)
		p.perm = perm
		s.bumpEpoch()
	}
	return p.data
}

// DropPage removes the local copy of a page (Invalid). Its buffer goes to
// the next page this Space creates.
func (s *Space) DropPage(pageNo uint64) {
	if p := s.pages[pageNo]; p != nil {
		delete(s.pages, pageNo)
		s.free = append(s.free, p)
	}
	s.bumpEpoch()
}

// SetPerm changes the permission of a resident page. Setting PermNone keeps
// the stale content around but makes it inaccessible; use DropPage to free
// it. SetPerm on an absent page creates it zero-filled (useful for
// allocating fresh exclusive pages).
func (s *Space) SetPerm(pageNo uint64, perm Perm) {
	p := s.pages[pageNo]
	if p == nil {
		s.EnsurePage(pageNo, perm)
		return
	}
	p.perm = perm
	s.bumpEpoch()
}

// PermOf returns the local permission of a page.
func (s *Space) PermOf(pageNo uint64) Perm {
	if p := s.pages[pageNo]; p != nil {
		return p.perm
	}
	return PermNone
}

// PageData returns the backing bytes of a resident page regardless of
// permission, or nil. The slice aliases the page; callers that hand it to
// the protocol must copy it first.
func (s *Space) PageData(pageNo uint64) []byte {
	if p := s.pages[pageNo]; p != nil {
		return p.data
	}
	return nil
}

// ResidentPages returns the number of locally resident pages.
func (s *Space) ResidentPages() int { return len(s.pages) }

// ForEachPage visits every resident page in ascending page-number order
// (invariant checkers compare spaces across nodes, so the order must be
// deterministic).
func (s *Space) ForEachPage(fn func(pageNo uint64, perm Perm)) {
	nos := make([]uint64, 0, len(s.pages))
	for no := range s.pages {
		nos = append(nos, no)
	}
	sort.Slice(nos, func(i, j int) bool { return nos[i] < nos[j] })
	for _, no := range nos {
		fn(no, s.pages[no].perm)
	}
}

func (s *Space) bumpEpoch() {
	s.epoch++
}

// lookup returns the data and permission for a page, consulting the TLB.
func (s *Space) lookup(pageNo uint64) ([]byte, Perm) {
	e := &s.tlb[pageNo%tlbSize]
	if e.epoch == s.epoch && e.pageNo == pageNo {
		return e.data, e.perm
	}
	p := s.pages[pageNo]
	if p == nil {
		return nil, PermNone
	}
	*e = tlbEntry{pageNo: pageNo, perm: p.perm, data: p.data, epoch: s.epoch}
	return p.data, p.perm
}

// Epoch returns the current mutation epoch. It starts at 1 and is bumped by
// every page-state change (install, drop, permission, split), so any cached
// page pointer stamped with an older epoch is stale.
func (s *Space) Epoch() uint64 { return s.epoch }

// AccelEntry is an inline-TLB entry for DBT fast paths: a direct pointer to
// a page's backing bytes, valid only while the Space's epoch is unchanged.
// The zero value never matches (Epoch starts at 1).
type AccelEntry struct {
	PageNo uint64
	Epoch  uint64
	Data   []byte
}

// AccelFill populates ent for pageNo when the page is resident,
// identity-mapped (not split) and allows the access class: PermReadWrite
// for write entries, PermRead or better for read entries. It returns false
// — leaving ent alone — when the slow path must be taken instead.
func (s *Space) AccelFill(ent *AccelEntry, pageNo uint64, write bool) bool {
	if len(s.remap) != 0 {
		if _, split := s.remap[pageNo]; split {
			return false
		}
	}
	p := s.pages[pageNo]
	if p == nil {
		return false
	}
	if write {
		if p.perm != PermReadWrite {
			return false
		}
	} else if p.perm == PermNone {
		return false
	}
	*ent = AccelEntry{PageNo: pageNo, Epoch: s.epoch, Data: p.data}
	return true
}

// Load reads size bytes (1, 2, 4 or 8) at addr, zero-extended. A non-nil
// Fault means the access did not happen.
func (s *Space) Load(addr uint64, size int) (uint64, *Fault) {
	taddr := s.Translate(addr)
	off := taddr & uint64(s.pageSize-1)
	if int(off)+size <= s.pageSize && (size == 1 || s.Translate(addr+uint64(size)-1) == taddr+uint64(size)-1) {
		data, perm := s.lookup(taddr >> s.pageShift)
		if perm == PermNone {
			s.Faults++
			return 0, &Fault{Addr: taddr, Page: taddr >> s.pageShift}
		}
		b := data[off : off+uint64(size)]
		var v uint64
		switch size {
		case 1:
			v = uint64(b[0])
		case 2:
			v = uint64(b[0]) | uint64(b[1])<<8
		case 4:
			v = uint64(b[0]) | uint64(b[1])<<8 | uint64(b[2])<<16 | uint64(b[3])<<24
		case 8:
			v = uint64(b[0]) | uint64(b[1])<<8 | uint64(b[2])<<16 | uint64(b[3])<<24 |
				uint64(b[4])<<32 | uint64(b[5])<<40 | uint64(b[6])<<48 | uint64(b[7])<<56
		default:
			panic("mem: bad load size")
		}
		return v, nil
	}
	// Slow path: access crosses a page or split-part boundary.
	var v uint64
	for i := 0; i < size; i++ {
		ba := s.Translate(addr + uint64(i))
		data, perm := s.lookup(ba >> s.pageShift)
		if perm == PermNone {
			s.Faults++
			return 0, &Fault{Addr: ba, Page: ba >> s.pageShift}
		}
		v |= uint64(data[ba&uint64(s.pageSize-1)]) << (8 * i)
	}
	return v, nil
}

// Store writes the low size bytes of val at addr. A non-nil Fault means
// nothing was written.
func (s *Space) Store(addr uint64, val uint64, size int) *Fault {
	taddr := s.Translate(addr)
	off := taddr & uint64(s.pageSize-1)
	if int(off)+size <= s.pageSize && (size == 1 || s.Translate(addr+uint64(size)-1) == taddr+uint64(size)-1) {
		data, perm := s.lookup(taddr >> s.pageShift)
		if perm != PermReadWrite {
			s.Faults++
			return &Fault{Addr: taddr, Page: taddr >> s.pageShift, Write: true}
		}
		b := data[off : off+uint64(size)]
		switch size {
		case 1:
			b[0] = byte(val)
		case 2:
			b[0], b[1] = byte(val), byte(val>>8)
		case 4:
			b[0], b[1], b[2], b[3] = byte(val), byte(val>>8), byte(val>>16), byte(val>>24)
		case 8:
			b[0], b[1], b[2], b[3] = byte(val), byte(val>>8), byte(val>>16), byte(val>>24)
			b[4], b[5], b[6], b[7] = byte(val>>32), byte(val>>40), byte(val>>48), byte(val>>56)
		default:
			panic("mem: bad store size")
		}
		return nil
	}
	// Slow path: verify all bytes are writable first so the store is atomic
	// with respect to faulting.
	for i := 0; i < size; i++ {
		ba := s.Translate(addr + uint64(i))
		if _, perm := s.lookup(ba >> s.pageShift); perm != PermReadWrite {
			s.Faults++
			return &Fault{Addr: ba, Page: ba >> s.pageShift, Write: true}
		}
	}
	for i := 0; i < size; i++ {
		ba := s.Translate(addr + uint64(i))
		data, _ := s.lookup(ba >> s.pageShift)
		data[ba&uint64(s.pageSize-1)] = byte(val >> (8 * i))
	}
	return nil
}

// LoadF64 loads a float64.
func (s *Space) LoadF64(addr uint64) (float64, *Fault) {
	v, f := s.Load(addr, 8)
	if f != nil {
		return 0, f
	}
	return math.Float64frombits(v), nil
}

// StoreF64 stores a float64.
func (s *Space) StoreF64(addr uint64, v float64) *Fault {
	return s.Store(addr, math.Float64bits(v), 8)
}

// run returns the bytes backing the longest prefix of the guest range
// [addr, addr+max) that stays inside one page and, when that page is split,
// one part of it: what one copy can move. With create an absent page is made
// zero and PermReadWrite; without, it is the Fault of its first byte.
func (s *Space) run(addr uint64, max int, create bool) ([]byte, *Fault) {
	off := addr & uint64(s.pageSize-1)
	n := uint64(s.pageSize) - off
	pn := addr >> s.pageShift
	if shadows, split := s.remap[pn]; split {
		part := uint64(s.pageSize / len(shadows))
		n = part - off%part
		pn = shadows[off/part]
	}
	if uint64(max) < n {
		n = uint64(max)
	}
	if create {
		return s.EnsurePage(pn, PermReadWrite)[off : off+n], nil
	}
	p := s.pages[pn]
	if p == nil {
		return nil, &Fault{Addr: pn<<s.pageShift | off, Page: pn}
	}
	return p.data[off : off+n], nil
}

// ReadBytes copies guest memory into buf, applying remap but ignoring
// permissions (helper threads are exempt from the protocol, §4.2). It fails
// if any page is not resident.
func (s *Space) ReadBytes(addr uint64, buf []byte) error {
	for len(buf) > 0 {
		src, fault := s.run(addr, len(buf), false)
		if fault != nil {
			return fault
		}
		n := copy(buf, src)
		addr, buf = addr+uint64(n), buf[n:]
	}
	return nil
}

// WriteBytes copies buf into guest memory, applying remap but ignoring
// permissions. Pages are created as needed with PermReadWrite (used by the
// loader and by delegated syscalls on the master, whose directory owns the
// authoritative copy).
func (s *Space) WriteBytes(addr uint64, buf []byte) error {
	for len(buf) > 0 {
		dst, _ := s.run(addr, len(buf), true)
		n := copy(dst, buf)
		addr, buf = addr+uint64(n), buf[n:]
	}
	return nil
}

// ReadCString reads a NUL-terminated guest string of at most max bytes.
func (s *Space) ReadCString(addr uint64, max int) (string, error) {
	var out []byte
	for len(out) < max {
		src, fault := s.run(addr+uint64(len(out)), max-len(out), false)
		if fault != nil {
			return "", fault
		}
		if i := bytes.IndexByte(src, 0); i >= 0 {
			return string(append(out, src[:i]...)), nil
		}
		out = append(out, src...)
	}
	return string(out), fmt.Errorf("mem: unterminated string at %#x", addr)
}
