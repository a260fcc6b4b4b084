package image

import (
	"bytes"
	"encoding/binary"
	"runtime"
	"strings"
	"testing"
)

// allocated returns the bytes f allocates: the least of three runs, since
// TotalAlloc counts what the whole process allocates meanwhile.
func allocated(f func()) uint64 {
	least := ^uint64(0)
	for range 3 {
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		f()
		runtime.ReadMemStats(&after)
		least = min(least, after.TotalAlloc-before.TotalAlloc)
	}
	return least
}

// hostileImages are short inputs whose length fields claim the most a field
// can: the first is the 24 bytes that made Decode allocate 4 GiB and take
// 13 s to answer "truncated".
func hostileImages() map[string][]byte {
	le := binary.LittleEndian
	header := le.AppendUint64([]byte(magic), 0x10000)
	segment := func(nameLen, dataLen uint32) []byte {
		b := le.AppendUint32(append([]byte(nil), header...), 1)
		b = le.AppendUint32(b, nameLen)
		if nameLen > 4 {
			return b
		}
		b = append(b, "text"[:nameLen]...)
		b = le.AppendUint64(b, 0x10000) // Addr
		b = le.AppendUint64(b, 16)      // MemSize
		b = le.AppendUint32(b, 0)
		return le.AppendUint32(b, dataLen)
	}
	return map[string][]byte{
		"name length":   segment(0x7fffffff, 0),
		"name length -": segment(0xffffffff, 0),
		"data length":   segment(4, 0x7fffffff),
		"data length -": segment(4, 0xffffffff),
		"segment count": le.AppendUint32(append([]byte(nil), header...), 0xffffffff),
		"symbol count":  le.AppendUint32(le.AppendUint32(append([]byte(nil), header...), 0), 0xffffffff),
		"symbol name":   le.AppendUint32(le.AppendUint32(le.AppendUint32(append([]byte(nil), header...), 0), 1), 0x7fffffff),
	}
}

// TestDecodeTruncatedAllocatesNothingLarge: Decode allocates in proportion
// to its input — every prefix of a real image and every hostile length
// field is refused for at most the input's size plus 4 KiB.
func TestDecodeTruncatedAllocatesNothingLarge(t *testing.T) {
	check := func(name string, in []byte) {
		t.Helper()
		var err error
		got := allocated(func() { _, err = Decode(in) })
		if err == nil {
			t.Errorf("%s: accepted", name)
		} else if !strings.HasPrefix(err.Error(), "image: ") {
			t.Errorf("%s: error %q does not name the package", name, err)
		}
		if limit := uint64(len(in)) + 4096; got > limit {
			t.Errorf("%s: %d input bytes allocated %d, want at most %d", name, len(in), got, limit)
		}
	}
	im := sample()
	im.AddSegment(Segment{Name: "bss", Addr: 0x30000, MemSize: 1 << 20, Writable: true})
	enc := im.Encode()
	for cut := 0; cut < len(enc); cut++ {
		check("prefix", enc[:cut])
	}
	for name, in := range hostileImages() {
		check(name, in)
	}
}

// TestMaxMemBytes: an image may not claim more memory than MaxMemBytes, in
// one segment or in total, whether it is built or decoded.
func TestMaxMemBytes(t *testing.T) {
	im := New()
	if err := im.AddSegment(Segment{Name: "a", Addr: 0x10000, MemSize: MaxMemBytes - 4096}); err != nil {
		t.Fatal(err)
	}
	if err := im.AddSegment(Segment{Name: "b", Addr: 0x1000_0000, MemSize: 4096}); err != nil {
		t.Fatalf("an image of exactly MaxMemBytes refused: %v", err)
	}
	err := im.AddSegment(Segment{Name: "c", Addr: 0x2000_0000, MemSize: 1})
	if err == nil || !strings.Contains(err.Error(), "image.MaxMemBytes") {
		t.Errorf("one byte over the limit: %v", err)
	}
	if err := New().AddSegment(Segment{Name: "wrap", Addr: 0x10000, MemSize: 1<<64 - 1}); err == nil {
		t.Error("a segment of 2^64-1 bytes accepted")
	}
	forged := sample()
	forged.Segments[1].MemSize = 1 << 40
	if _, err := Decode(forged.Encode()); err == nil || !strings.Contains(err.Error(), "image.MaxMemBytes") {
		t.Errorf("decoding a forged MemSize of 1 TiB: %v", err)
	}
}

// FuzzDecode feeds Decode arbitrary bytes. Properties: it never panics; it
// never allocates more than a small multiple of its input (8x + 64 KiB covers
// the symbol map and segment copies of a valid image); and what it accepts
// round-trips — Encode of the decoded image decodes to the same image.
func FuzzDecode(f *testing.F) {
	f.Add(sample().Encode())
	f.Add(New().Encode())
	f.Add([]byte(magic))
	for _, in := range hostileImages() {
		f.Add(in)
	}
	f.Fuzz(func(t *testing.T, in []byte) {
		var im *Image
		var err error
		if got, limit := allocated(func() { im, err = Decode(in) }), uint64(8*len(in)+64<<10); got > limit {
			t.Fatalf("%d input bytes allocated %d, want at most %d", len(in), got, limit)
		}
		if err != nil {
			return
		}
		enc := im.Encode()
		again, err := Decode(enc)
		if err != nil {
			t.Fatalf("re-decoding an accepted image: %v", err)
		}
		if !bytes.Equal(again.Encode(), enc) {
			t.Fatal("Encode(Decode(Encode(im))) differs from Encode(im)")
		}
	})
}

// TestAllocDecodeAliasesSegments: a segment's Data is a view of the encoded
// image, so decoding an image with a megabyte of segment bytes allocates
// what decoding one with a few bytes does.
func TestAllocDecodeAliasesSegments(t *testing.T) {
	withData := func(n int) []byte {
		im := sample()
		im.AddSegment(Segment{Name: "rodata", Addr: 0x40000, Data: bytes.Repeat([]byte{0x5a}, n)})
		return im.Encode()
	}
	small, large := withData(16), withData(1<<20)
	im, err := Decode(large)
	if err != nil {
		t.Fatal(err)
	}
	data := im.Segments[2].Data
	if at := bytes.Index(large, data); at < 0 || &data[0] != &large[at] || cap(data) != len(data) {
		t.Error("a segment's Data is not a capacity-clipped view of the encoded image")
	}
	smallBytes := allocated(func() { _, err = Decode(small) })
	largeBytes := allocated(func() { _, err = Decode(large) })
	t.Logf("decoding allocates %d bytes with 16 segment bytes, %d with 1 MiB", smallBytes, largeBytes)
	if largeBytes > smallBytes+1024 {
		t.Errorf("1 MiB of segment bytes allocated %d bytes where 16 allocated %d: Decode copies segments", largeBytes, smallBytes)
	}
}
