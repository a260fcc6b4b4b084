package proto

import (
	"bytes"
	"encoding/binary"
	"math/rand"
	"strings"
	"testing"
)

// refPage builds a deterministic pseudo-random page.
func refPage(seed int64, n int) []byte {
	r := rand.New(rand.NewSource(seed))
	b := make([]byte, n)
	r.Read(b)
	return b
}

// encodeDeltaRef is the byte-at-a-time encoder EncodeDelta replaced, kept as
// the reference: every wire byte count and virtual-time figure depends on the
// two producing identical output.
func encodeDeltaRef(base, cur []byte, limit int) ([]byte, bool) {
	if len(cur) == 0 || len(cur)%deltaWord != 0 || len(cur)/deltaWord > 0xffff {
		return nil, false
	}
	if base != nil && len(base) != len(cur) {
		return nil, false
	}
	words := len(cur) / deltaWord
	differs := func(w int) bool {
		off := w * deltaWord
		if base == nil {
			for _, b := range cur[off : off+deltaWord] {
				if b != 0 {
					return true
				}
			}
			return false
		}
		for i := 0; i < deltaWord; i++ {
			if cur[off+i] != base[off+i] {
				return true
			}
		}
		return false
	}
	var out []byte
	for w := 0; w < words; {
		if !differs(w) {
			w++
			continue
		}
		start := w
		end := w + 1
		for end < words && differs(end) {
			end++
		}
		out = binary.LittleEndian.AppendUint16(out, uint16(start))
		out = binary.LittleEndian.AppendUint16(out, uint16(end-start))
		out = append(out, cur[start*deltaWord:end*deltaWord]...)
		if len(out) > limit {
			return nil, false
		}
		w = end
	}
	return out, true
}

// sameAsRef fails unless EncodeDelta and the reference agree on the bytes,
// on ok, and on nil-ness of the output.
func sameAsRef(t testing.TB, what string, base, cur []byte, limit int) {
	t.Helper()
	got, gotOK := EncodeDelta(base, cur, limit)
	want, wantOK := encodeDeltaRef(base, cur, limit)
	if gotOK != wantOK || !bytes.Equal(got, want) || (got == nil) != (want == nil) {
		t.Fatalf("%s, limit %d: EncodeDelta = (%d bytes, %v), reference = (%d bytes, %v)",
			what, limit, len(got), gotOK, len(want), wantOK)
	}
}

func TestEncodeDeltaMatchesReference(t *testing.T) {
	const ps = 512
	base := refPage(11, ps)
	equal := append([]byte(nil), base...)
	alternating := append([]byte(nil), base...)
	for w := 0; w < ps/deltaWord; w += 2 {
		alternating[w*deltaWord+w%deltaWord] ^= 0x80 // one byte, a different one each word
	}
	lastByte := append([]byte(nil), base...)
	lastByte[ps-1] ^= 1
	sparse := make([]byte, ps)
	copy(sparse[40:], "sparse")
	shapes := []struct {
		what      string
		base, cur []byte
	}{
		{"equal pages", base, equal},
		{"alternating words", base, alternating},
		{"last byte", base, lastByte},
		{"every word", base, refPage(12, ps)},
		{"nil base, sparse", nil, sparse},
		{"nil base, zero page", nil, make([]byte, ps)},
		{"nil base, dense", nil, base},
		{"mismatched lengths", base[:ps-8], base},
		{"not a multiple of 8", nil, base[:ps-3]},
		{"both not a multiple of 8", base[:ps-3], equal[:ps-3]},
		{"empty", nil, nil},
	}
	for _, s := range shapes {
		// Every boundary the limit check can fall on, and both sides of it.
		full, _ := encodeDeltaRef(s.base, s.cur, 1<<30)
		for limit := -1; limit <= len(full)+1; limit++ {
			sameAsRef(t, s.what, s.base, s.cur, limit)
		}
	}
}

func TestEncodeDeltaAllocs(t *testing.T) {
	const ps = 4096
	base := refPage(13, ps)
	cur := append([]byte(nil), base...)
	for i := 0; i < ps; i += 300 {
		cur[i] ^= 0xff
	}
	for what, f := range map[string]func(){
		"sparse diff": func() { EncodeDelta(base, cur, ps/2) },
		"equal pages": func() { EncodeDelta(base, base, ps/2) },
		"overflow":    func() { EncodeDelta(nil, base, ps/2) },
	} {
		if n := testing.AllocsPerRun(100, f); n > 1 {
			t.Errorf("%s: EncodeDelta allocates %v times, want at most 1", what, n)
		}
	}
}

func TestDeltaRoundtrip(t *testing.T) {
	const ps = 4096
	base := refPage(1, ps)
	for _, touched := range []int{0, 1, 7, 64, 200} {
		cur := append([]byte(nil), base...)
		r := rand.New(rand.NewSource(int64(touched) + 2))
		for i := 0; i < touched; i++ {
			cur[r.Intn(ps)] ^= byte(r.Intn(255) + 1)
		}
		d, ok := EncodeDelta(base, cur, ps)
		if !ok {
			t.Fatalf("touched=%d: encode failed", touched)
		}
		got := append([]byte(nil), base...)
		if err := ApplyDelta(got, d); err != nil {
			t.Fatalf("touched=%d: apply: %v", touched, err)
		}
		// The reference transfer is a full-page copy.
		if !bytes.Equal(got, cur) {
			t.Fatalf("touched=%d: roundtrip mismatch", touched)
		}
	}
}

func TestDeltaIdempotent(t *testing.T) {
	const ps = 1024
	base := refPage(3, ps)
	cur := append([]byte(nil), base...)
	copy(cur[100:], []byte("delta transfers carry absolute words"))
	d, ok := EncodeDelta(base, cur, ps)
	if !ok {
		t.Fatal("encode failed")
	}
	got := append([]byte(nil), base...)
	for i := 0; i < 3; i++ { // an ARQ duplicate must not corrupt the page
		if err := ApplyDelta(got, d); err != nil {
			t.Fatalf("apply %d: %v", i, err)
		}
	}
	if !bytes.Equal(got, cur) {
		t.Fatal("repeated apply diverged")
	}
}

func TestDeltaRLE(t *testing.T) {
	const ps = 4096
	cur := make([]byte, ps)
	copy(cur[512:], []byte("sparse first touch"))
	d, ok := EncodeDelta(nil, cur, ps/2)
	if !ok {
		t.Fatal("sparse page did not fit the RLE budget")
	}
	if len(d) >= ps/2 {
		t.Fatalf("RLE encoding too large: %d", len(d))
	}
	got := make([]byte, ps)
	if err := ApplyDelta(got, d); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, cur) {
		t.Fatal("RLE roundtrip mismatch")
	}
}

func TestDeltaLimit(t *testing.T) {
	const ps = 4096
	base := make([]byte, ps)
	cur := refPage(4, ps) // every word differs
	if _, ok := EncodeDelta(base, cur, ps/2); ok {
		t.Fatal("fully-rewritten page fit a half-page budget")
	}
	if d, ok := EncodeDelta(base, cur, 2*ps); !ok {
		t.Fatal("encode with generous budget failed")
	} else {
		got := make([]byte, ps)
		if err := ApplyDelta(got, d); err != nil || !bytes.Equal(got, cur) {
			t.Fatalf("full-diff roundtrip: %v", err)
		}
	}
}

func TestDeltaRejectsBadShapes(t *testing.T) {
	if _, ok := EncodeDelta(make([]byte, 64), make([]byte, 72), 1024); ok {
		t.Error("mismatched base length accepted")
	}
	if _, ok := EncodeDelta(nil, make([]byte, 65), 1024); ok {
		t.Error("misaligned page length accepted")
	}
	if _, ok := EncodeDelta(nil, nil, 1024); ok {
		t.Error("empty page accepted")
	}
}

func TestApplyDeltaCorrupt(t *testing.T) {
	const ps = 512
	base := refPage(5, ps)
	cur := append([]byte(nil), base...)
	cur[8] ^= 0xff
	cur[ps-1] ^= 0xff
	d, ok := EncodeDelta(base, cur, ps)
	if !ok {
		t.Fatal("encode failed")
	}
	cases := map[string][]byte{
		"truncated header": d[:len(d)-1],
		"lone header":      d[:3],
		"out of range":     {0xff, 0xff, 0x01, 0x00, 1, 2, 3, 4, 5, 6, 7, 8},
		"zero-word run":    {0x00, 0x00, 0x00, 0x00},
		"truncated body":   {0x00, 0x00, 0x02, 0x00, 1, 2, 3},
	}
	for name, bad := range cases {
		dst := append([]byte(nil), base...)
		if err := ApplyDelta(dst, bad); err == nil {
			t.Errorf("%s: accepted", name)
		}
		// Validation happens before any write: a rejected delta must not
		// leave a torn page.
		if !bytes.Equal(dst, base) {
			t.Errorf("%s: destination modified by rejected delta", name)
		}
	}
}

func TestPayloadContainerRoundtrip(t *testing.T) {
	pls := []PagePayload{
		{Page: 0x40, Ver: 7, BaseVer: 5, Enc: EncDelta, Perm: 2, Body: []byte{0, 0, 1, 0, 1, 2, 3, 4, 5, 6, 7, 8}},
		{Page: 0x41, Ver: 3, Enc: EncSame, Perm: 1, Push: true, San: []byte{9, 9}},
		{Page: 0x42, Ver: 1, Enc: EncFull, Body: bytes.Repeat([]byte{0xaa}, 128)},
	}
	got, err := decodePayloads(EncodePayloads(pls))
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != len(pls) {
		t.Fatalf("got %d payloads", len(got))
	}
	for i := range pls {
		a, b := pls[i], got[i]
		if a.Page != b.Page || a.Ver != b.Ver || a.BaseVer != b.BaseVer ||
			a.Enc != b.Enc || a.Perm != b.Perm || a.Push != b.Push ||
			!bytes.Equal(a.Body, b.Body) || !bytes.Equal(a.San, b.San) {
			t.Errorf("payload %d mismatch: %+v vs %+v", i, a, b)
		}
	}
	if _, err := decodePayloads(append(EncodePayloads(pls), 0)); err == nil {
		t.Error("trailing byte accepted")
	}
}

// TestBatchCountLimits pins the MaxBatchEntries contract on both sides of
// the wire: a container's count travels as a uint16, so an unchecked encoder
// would silently truncate the count while still appending every payload —
// decoding to a trailing-bytes error that fails the whole cluster. The
// encoder must refuse an oversized container loudly, and the decoder must
// reject counts past the bound (which a u16 can represent: 65535 >
// MaxBatchEntries).
func TestBatchCountLimits(t *testing.T) {
	over := MaxBatchEntries + 1
	func() {
		defer func() {
			if recover() == nil {
				t.Error("an oversized container did not panic")
			}
		}()
		EncodePayloads(make([]PagePayload, over))
	}()

	// A count field just past the bound must be rejected as absurd, not
	// misparsed into a huge allocation or a trailing-bytes error.
	hdr := binary.LittleEndian.AppendUint16(nil, uint16(over))
	if _, err := decodePayloads(hdr); err == nil || !strings.Contains(err.Error(), "absurd") {
		t.Errorf("payload count %d: got %v, want absurd-count error", over, err)
	}
	// At the bound the container round-trips.
	got, err := decodePayloads(EncodePayloads(make([]PagePayload, MaxBatchEntries)))
	if err != nil || len(got) != MaxBatchEntries {
		t.Errorf("bound-sized container: %d payloads, err %v", len(got), err)
	}
}
