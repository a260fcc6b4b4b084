package proto

import (
	"bytes"
	"crypto/sha256"
	"reflect"
	"testing"
)

// FuzzDecode feeds arbitrary bytes to the wire decoder. Two properties:
//
//  1. Decode never panics and never allocates unboundedly, whatever the
//     input (a malicious or corrupted peer must not be able to kill a node).
//  2. Anything Decode accepts re-encodes to a frame that decodes to the
//     identical message (encode∘decode is a fixpoint), so a message relayed
//     through a node is preserved bit-exactly.
//  3. What Decode returns is views of the input, which it did not write; the
//     same holds for the payloads of whatever container the bytes make.
var fuzzSeeds = []*Msg{
	{Kind: KPageReq, From: 2, To: 0, Page: 0x123, Addr: 0x123456, Write: true, TID: 7},
	{Kind: KPageContent, From: 0, To: 2, Seq: 99, Page: 0x123, Perm: 2, Data: bytes.Repeat([]byte{0xab}, 64)},
	{Kind: KRemap, From: 0, To: 3, Page: 5, Shadows: []uint64{100, 101, 102, 103}},
	{Kind: KSyscallReq, From: 1, To: 0, Seq: 3, TID: 12, Num: 64, Args: [6]uint64{1, 0x2000, 5, 0, 0, 0}},
	{Kind: KThreadStart, From: 0, To: 2, TID: 3, CPU: make([]byte, 64)},
	{Kind: KAck, From: 1, To: 2, Seq: 41},
}

func FuzzDecode(f *testing.F) {
	for _, m := range fuzzSeeds {
		f.Add(m.Encode()[4:]) // Decode takes the frame without its length prefix
	}
	f.Add([]byte{})
	f.Add([]byte{0xff, 0xff, 0xff, 0xff})

	f.Fuzz(func(t *testing.T, data []byte) {
		before := sha256.Sum256(data)
		checkPayloadViews(t, data)
		m, err := Decode(data)
		if err != nil {
			return // rejecting garbage is fine; panicking is not
		}
		checkMsgViews(t, m, data, before)
		frame := m.Encode()
		m2, err := Decode(frame[4:])
		if err != nil {
			t.Fatalf("re-decode of accepted message failed: %v\nmsg: %+v", err, m)
		}
		if !reflect.DeepEqual(m, m2) {
			t.Fatalf("encode/decode not a fixpoint:\nfirst  %+v\nsecond %+v", m, m2)
		}
	})
}

// FuzzDeltaCodec exercises the page-diff codec with adversarial inputs.
// Properties:
//
//  1. Encode∘apply equals the reference transfer (a full-page copy), both
//     against a twin and against the zero page (RLE mode).
//  2. ApplyDelta never panics on arbitrary (truncated, corrupt) deltas, and
//     a rejected delta leaves the destination untouched.
//  3. Any delta that applies is idempotent — a retransmitted duplicate must
//     not corrupt the page.
//  4. EncodeDelta agrees byte for byte, and on ok, with the byte-wise
//     reference encoder, for pages of any shape and at every limit.
//  5. A delta that travelled in a container is read back as a view of it,
//     byte for byte, and reading the container writes nothing.
//  6. AppendDelta behind a prefix is the prefix followed by EncodeDelta's
//     bytes, with the same ok; on overflow (and for equal pages) the buffer
//     comes back at the length it had.
func FuzzDeltaCodec(f *testing.F) {
	page := func(seed []byte, n int) []byte {
		b := make([]byte, n)
		for i := range b {
			if len(seed) > 0 {
				b[i] = seed[i%len(seed)] ^ byte(i)
			}
		}
		return b
	}
	d0, _ := EncodeDelta(page([]byte{1}, 256), page([]byte{1, 9}, 256), 512)
	d1, _ := EncodeDelta(nil, page([]byte{0, 0, 5}, 256), 512)
	f.Add([]byte{1, 2, 3}, d0)
	f.Add([]byte{7}, d1)
	f.Add([]byte{}, []byte{0x00, 0x00, 0x01, 0x00, 1, 2, 3, 4, 5, 6, 7, 8})
	f.Add([]byte{0xff}, []byte{0xff, 0xff, 0xff, 0xff})

	f.Fuzz(func(t *testing.T, seed, delta []byte) {
		const ps = 256
		base := page(seed, ps)
		cur := page(append(seed, 0x5a), ps)

		// Roundtrip vs the reference full-page copy.
		if d, ok := EncodeDelta(base, cur, 4*ps); ok {
			got := append([]byte(nil), base...)
			if err := ApplyDelta(got, d); err != nil {
				t.Fatalf("own delta rejected: %v", err)
			}
			if !bytes.Equal(got, cur) {
				t.Fatal("delta roundtrip != full-page copy")
			}
		}
		if d, ok := EncodeDelta(nil, cur, 8*ps); ok {
			got := make([]byte, ps)
			if err := ApplyDelta(got, d); err != nil {
				t.Fatalf("own RLE delta rejected: %v", err)
			}
			if !bytes.Equal(got, cur) {
				t.Fatal("RLE roundtrip != full-page copy")
			}
		}

		c := EncodePayloads([]PagePayload{{Page: 1, Enc: EncDelta, Body: delta, San: seed}})
		pls, err := decodePayloads(c)
		if n, verr := checkPayloadViews(t, c); err != nil || verr != nil || n != 1 ||
			!bytes.Equal(pls[0].Body, delta) || !bytes.Equal(pls[0].San, seed) {
			t.Fatalf("container roundtrip: %d payloads, err %v / %v", n, err, verr)
		}

		// The fuzzer's bytes as pages of any length (refused unless a whole
		// number of words and as long as the base), then at every limit.
		anyLimit := len(seed) + len(delta)
		sameAsRef(t, "nil base", nil, delta, anyLimit)
		sameAsRef(t, "mismatched lengths", base, delta, anyLimit)
		sameAsRef(t, "equal pages", cur, cur, anyLimit)
		sparse := append([]byte(nil), base...)
		copy(sparse[len(seed)%ps:], delta)
		full, _ := encodeDeltaRef(base, sparse, 4*ps)
		for limit := -1; limit <= len(full)+1; limit++ {
			sameAsRef(t, "twin", base, sparse, limit)
			sameAsRef(t, "zero base", nil, sparse, limit)
			appendSameAsEncode(t, seed, base, sparse, limit)
			appendSameAsEncode(t, seed, nil, sparse, limit)
		}
		appendSameAsEncode(t, seed, base, delta, anyLimit)
		appendSameAsEncode(t, seed, cur, cur, anyLimit)

		// Arbitrary deltas: no panic; rejection leaves dst untouched;
		// acceptance is idempotent.
		dst := append([]byte(nil), base...)
		if err := ApplyDelta(dst, delta); err != nil {
			if !bytes.Equal(dst, base) {
				t.Fatal("rejected delta modified the page")
			}
			return
		}
		once := append([]byte(nil), dst...)
		if err := ApplyDelta(dst, delta); err != nil {
			t.Fatalf("second apply of accepted delta failed: %v", err)
		}
		if !bytes.Equal(dst, once) {
			t.Fatal("delta application not idempotent")
		}
	})
}

// appendSameAsEncode is FuzzDeltaCodec's property 6.
func appendSameAsEncode(t *testing.T, prefix, base, cur []byte, limit int) {
	t.Helper()
	want, wantOK := EncodeDelta(base, cur, limit)
	got, ok := AppendDelta(append([]byte(nil), prefix...), base, cur, limit)
	if ok != wantOK || !bytes.Equal(got, append(append([]byte(nil), prefix...), want...)) {
		t.Fatalf("limit %d: AppendDelta behind %d bytes = (%d bytes, %v), EncodeDelta = (%d bytes, %v)",
			limit, len(prefix), len(got), ok, len(want), wantOK)
	}
}
