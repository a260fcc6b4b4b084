package proto

import (
	"encoding/binary"
	"fmt"
)

// Delta codec: word-granular page diffs for the wire-efficiency layer.
//
// A delta is a sequence of runs, each (wordOff u16, wordCount u16, then
// wordCount little-endian 64-bit words). Words carry ABSOLUTE values, not
// XOR masks, so applying the same delta twice is idempotent — a duplicated
// or retransmitted diff cannot corrupt the page. Encoding against a nil
// base diffs against the all-zero page, which doubles as the zero-run (RLE)
// encoding for freshly touched sparse pages: only the nonzero words ship.

// deltaWord is the diff granularity in bytes.
const deltaWord = 8

// runHeader is the per-run overhead (offset + count, both u16). A one-word
// gap already costs more to ship (8 bytes) than a fresh header, so runs are
// never merged across equal words.
const runHeader = 4

// EncodeDelta diffs cur against base (nil base = all zeros) and returns the
// encoded runs in a buffer of their own. It reports false when the encoding
// would exceed limit bytes — the caller falls back to a full-page transfer —
// or when the pages are not same-sized whole multiples of the word size.
func EncodeDelta(base, cur []byte, limit int) ([]byte, bool) {
	return AppendDelta(nil, base, cur, limit)
}

// AppendDelta is EncodeDelta into a buffer the caller owns: the runs are
// appended to dst (grown at most once) and the extended slice returned. When
// it reports false, and when the pages are equal, dst comes back as it was.
func AppendDelta(dst, base, cur []byte, limit int) ([]byte, bool) {
	if len(cur) == 0 || len(cur)%deltaWord != 0 || len(cur)/deltaWord > 0xffff {
		return dst, false
	}
	if base != nil && len(base) != len(cur) {
		return dst, false
	}
	// A nil base is the zero page: masking every base word to zero spares
	// the loops a branch.
	mask := ^uint64(0)
	if base == nil {
		base, mask = cur, 0
	}
	// First pass: the size of the encoding. It only grows from run to run,
	// so testing the total is testing after every run.
	size, inRun := 0, false
	for off := 0; off < len(cur); off += deltaWord {
		d := wordDiffers(base, cur, off, mask)
		if d {
			size += deltaWord
			if !inRun {
				size += runHeader
			}
		}
		inRun = d
	}
	if size == 0 {
		return dst, true
	}
	if size > limit {
		return dst, false
	}
	if need := len(dst) + size; need > cap(dst) { // exact for a nil dst, doubling for an arena
		dst = append(make([]byte, 0, max(need, 2*cap(dst))), dst...)
	}
	for off := 0; off < len(cur); off += deltaWord {
		if !wordDiffers(base, cur, off, mask) {
			continue
		}
		start := off
		for off += deltaWord; off < len(cur) && wordDiffers(base, cur, off, mask); off += deltaWord {
		}
		dst = binary.LittleEndian.AppendUint16(dst, uint16(start/deltaWord))
		dst = binary.LittleEndian.AppendUint16(dst, uint16((off-start)/deltaWord))
		dst = append(dst, cur[start:off]...)
	}
	return dst, true
}

// wordDiffers compares the words at byte offset off. The full slice
// expressions let the compiler drop the loads' own bounds checks.
func wordDiffers(base, cur []byte, off int, mask uint64) bool {
	c := binary.LittleEndian.Uint64(cur[off : off+deltaWord : off+deltaWord])
	b := binary.LittleEndian.Uint64(base[off : off+deltaWord : off+deltaWord])
	return c != b&mask
}

// ApplyDelta patches dst in place with the encoded runs. Every run is
// bounds-checked against dst before any byte is written, so a truncated or
// corrupt delta leaves dst untouched and returns an error rather than
// panicking. Applying the same delta again is a no-op (absolute values).
func ApplyDelta(dst, delta []byte) error {
	words := len(dst) / deltaWord
	if len(dst)%deltaWord != 0 {
		return fmt.Errorf("proto: delta target size %d not word-aligned", len(dst))
	}
	// Validate first: a run that fails halfway must not leave a torn page.
	for off := 0; off < len(delta); {
		if off+runHeader > len(delta) {
			return fmt.Errorf("proto: truncated delta run header at %d", off)
		}
		start := int(binary.LittleEndian.Uint16(delta[off:]))
		count := int(binary.LittleEndian.Uint16(delta[off+2:]))
		if count == 0 {
			return fmt.Errorf("proto: empty delta run at %d", off)
		}
		if start+count > words {
			return fmt.Errorf("proto: delta run [%d,+%d) beyond %d-word page", start, count, words)
		}
		off += runHeader + count*deltaWord
		if off > len(delta) {
			return fmt.Errorf("proto: truncated delta run body")
		}
	}
	for off := 0; off < len(delta); {
		start := int(binary.LittleEndian.Uint16(delta[off:]))
		count := int(binary.LittleEndian.Uint16(delta[off+2:]))
		off += runHeader
		copy(dst[start*deltaWord:(start+count)*deltaWord], delta[off:off+count*deltaWord])
		off += count * deltaWord
	}
	return nil
}
