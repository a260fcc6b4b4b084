// Package image defines the guest binary image produced by the assembler
// and consumed by the loader: a set of segments (text, rodata, data, bss), an
// entry point, and a symbol table. An image plays the role the statically
// linked ARM ELF binaries play in the paper (§6.1); it can be serialised to a
// compact binary form so guest programs can be shipped between tools and, in
// live mode, between cluster nodes.
package image

import (
	"encoding/binary"
	"fmt"
	"sort"
)

// Default guest address-space layout. Everything fits below 2 GiB so that
// any guest address can be materialised with a single 32-bit literal.
const (
	DefaultTextBase = 0x0001_0000 // code
	DefaultDataGap  = 0x1000      // gap between segments
	StackTop        = 0x4000_0000 // main-thread stack grows down from here
	StackSize       = 1 << 20     // 1 MiB per guest thread
	ShadowBase      = 0x6000_0000 // shadow pages for page splitting live here
	ShadowLimit     = 0x7000_0000
)

// MaxMemBytes bounds the memory an image's segments may claim in total. The
// loader backs every page of every segment at boot and the assembler holds
// every non-bss byte, so an unbounded claim (a one-line ".space" or a forged
// MemSize) would be an unbounded allocation. The largest full-scale image in
// the tree is the benchmark's cold_code program, ≈0.5 MiB; the bound is 128
// times that.
const MaxMemBytes = 64 << 20

// Segment is one contiguous region of the guest address space. MemSize may
// exceed len(Data); the remainder is zero-filled (bss).
type Segment struct {
	Name     string
	Addr     uint64
	Data     []byte
	MemSize  uint64 // total size in memory; >= len(Data)
	Writable bool
}

// Image is a loadable guest program.
type Image struct {
	Entry    uint64
	Segments []Segment
	Symbols  map[string]uint64
}

// New returns an empty image.
func New() *Image {
	return &Image{Symbols: map[string]uint64{}}
}

// AddSegment appends a segment, keeping segments sorted by address and
// rejecting overlaps and an image of more than MaxMemBytes.
func (im *Image) AddSegment(s Segment) error {
	if s.MemSize < uint64(len(s.Data)) {
		s.MemSize = uint64(len(s.Data))
	}
	total := s.MemSize
	for _, old := range im.Segments {
		if s.Addr < old.Addr+old.MemSize && old.Addr < s.Addr+s.MemSize {
			return fmt.Errorf("image: segment %q [%#x,%#x) overlaps %q [%#x,%#x)",
				s.Name, s.Addr, s.Addr+s.MemSize, old.Name, old.Addr, old.Addr+old.MemSize)
		}
		total += old.MemSize // each at most MaxMemBytes: no overflow
	}
	if s.MemSize > MaxMemBytes || total > MaxMemBytes {
		return fmt.Errorf("image: segment %q of %d bytes takes the image over the %d-byte limit (image.MaxMemBytes)",
			s.Name, s.MemSize, uint64(MaxMemBytes))
	}
	im.Segments = append(im.Segments, s)
	sort.Slice(im.Segments, func(i, j int) bool { return im.Segments[i].Addr < im.Segments[j].Addr })
	return nil
}

// Symbol returns the address of a defined symbol.
func (im *Image) Symbol(name string) (uint64, bool) {
	addr, ok := im.Symbols[name]
	return addr, ok
}

// End returns the first address past the highest segment, i.e. where the
// program break (heap) starts.
func (im *Image) End() uint64 {
	var end uint64
	for _, s := range im.Segments {
		if e := s.Addr + s.MemSize; e > end {
			end = e
		}
	}
	return end
}

// Text returns the text segment, which by convention is named "text".
func (im *Image) Text() (Segment, bool) {
	for _, s := range im.Segments {
		if s.Name == "text" {
			return s, true
		}
	}
	return Segment{}, false
}

const magic = "GA64IMG1"

// Encode serialises the image.
func (im *Image) Encode() []byte {
	buf := []byte(magic)
	buf = binary.LittleEndian.AppendUint64(buf, im.Entry)
	buf = binary.LittleEndian.AppendUint32(buf, uint32(len(im.Segments)))
	for _, s := range im.Segments {
		buf = appendString(buf, s.Name)
		buf = binary.LittleEndian.AppendUint64(buf, s.Addr)
		buf = binary.LittleEndian.AppendUint64(buf, s.MemSize)
		var w uint32
		if s.Writable {
			w = 1
		}
		buf = binary.LittleEndian.AppendUint32(buf, w)
		buf = binary.LittleEndian.AppendUint32(buf, uint32(len(s.Data)))
		buf = append(buf, s.Data...)
	}
	names := make([]string, 0, len(im.Symbols))
	for name := range im.Symbols {
		names = append(names, name)
	}
	sort.Strings(names)
	buf = binary.LittleEndian.AppendUint32(buf, uint32(len(names)))
	for _, name := range names {
		buf = appendString(buf, name)
		buf = binary.LittleEndian.AppendUint64(buf, im.Symbols[name])
	}
	return buf
}

// Decode parses a serialised image. The image aliases buf: each segment's
// Data is a view of it (capacity clipped), not a copy, so nobody may write
// buf while the image is in use. What Decode allocates does not grow with
// the segment bytes, and never with a length the bytes claim.
func Decode(buf []byte) (*Image, error) {
	r := reader{buf: buf}
	if string(r.bytes(len(magic))) != magic {
		return nil, fmt.Errorf("image: bad magic")
	}
	im := New()
	im.Entry = r.u64()
	for n := r.count(28); n > 0 && r.err == nil; n-- { // a segment is 4+8+8+4+4 bytes and its name
		var s Segment
		s.Name = r.str()
		s.Addr = r.u64()
		s.MemSize = r.u64()
		s.Writable = r.u32() != 0
		if d := r.bytes(int(r.u32())); len(d) > 0 {
			s.Data = d[:len(d):len(d)]
		}
		if r.err == nil {
			if err := im.AddSegment(s); err != nil {
				return nil, err
			}
		}
	}
	for n := r.count(12); n > 0 && r.err == nil; n-- { // a symbol is 4+8 bytes and its name
		name := r.str()
		im.Symbols[name] = r.u64()
	}
	if r.err != nil {
		return nil, fmt.Errorf("image: truncated: %v", r.err)
	}
	return im, nil
}

func appendString(buf []byte, s string) []byte {
	buf = binary.LittleEndian.AppendUint32(buf, uint32(len(s)))
	return append(buf, s...)
}

type reader struct {
	buf []byte
	off int
	err error
}

// bytes returns the next n bytes, or nil (and sets err) if there are fewer.
func (r *reader) bytes(n int) []byte {
	if r.err != nil || n < 0 || n > len(r.buf)-r.off {
		if r.err == nil {
			r.err = fmt.Errorf("need %d bytes at offset %d of %d", n, r.off, len(r.buf))
		}
		return nil
	}
	b := r.buf[r.off : r.off+n]
	r.off += n
	return b
}

func (r *reader) u32() uint32 {
	if b := r.bytes(4); b != nil {
		return binary.LittleEndian.Uint32(b)
	}
	return 0
}

func (r *reader) u64() uint64 {
	if b := r.bytes(8); b != nil {
		return binary.LittleEndian.Uint64(b)
	}
	return 0
}

func (r *reader) str() string { return string(r.bytes(int(r.u32()))) }

// count reads an element count and checks it against the bytes left, each
// element taking at least min of them.
func (r *reader) count(min int) int {
	n := int(r.u32())
	if r.err == nil && n > (len(r.buf)-r.off)/min {
		r.err = fmt.Errorf("count %d at offset %d of %d: an element takes at least %d bytes", n, r.off-4, len(r.buf), min)
	}
	return n
}
