package proto

import (
	"bytes"
	"crypto/sha256"
	"io"
	"runtime"
	"testing"
	"unsafe"
)

// decodePayloads reads a whole container through the cursor, for tests that
// want the payloads side by side.
func decodePayloads(b []byte) ([]PagePayload, error) {
	var ps []PagePayload
	var pl PagePayload
	r := ReadPayloads(b)
	for r.Next(&pl) {
		ps = append(ps, pl)
	}
	return ps, r.Err()
}

// inside reports whether view lies wholly within frame's memory (an empty
// view lies anywhere).
func inside(view, frame []byte) bool {
	if len(view) == 0 {
		return true
	}
	v := uintptr(unsafe.Pointer(unsafe.SliceData(view)))
	f := uintptr(unsafe.Pointer(unsafe.SliceData(frame)))
	return len(frame) > 0 && v >= f && v+uintptr(len(view)) <= f+uintptr(len(frame))
}

// checkMsgViews is the decode-as-views property: every variable-length field
// of a decoded message is a view of the input, and decoding wrote nothing.
func checkMsgViews(t *testing.T, m *Msg, in []byte, before [sha256.Size]byte) {
	t.Helper()
	for name, v := range map[string][]byte{"Data": m.Data, "CPU": m.CPU, "San": m.San} {
		if !inside(v, in) {
			t.Errorf("%v: %s is not a view of the frame", m.Kind, name)
		}
	}
	if sha256.Sum256(in) != before {
		t.Errorf("%v: decoding wrote to the frame", m.Kind)
	}
}

// checkPayloadViews is the same property for a payload container. It returns
// the number of payloads read and the reader's verdict.
func checkPayloadViews(t *testing.T, in []byte) (int, error) {
	t.Helper()
	before := sha256.Sum256(in)
	var pl PagePayload
	r := ReadPayloads(in)
	n := 0
	for r.Next(&pl) {
		n++
		if !inside(pl.Body, in) || !inside(pl.San, in) {
			t.Errorf("payload %d (page %#x): Body or San is not a view of the container", n, pl.Page)
		}
	}
	if sha256.Sum256(in) != before {
		t.Error("reading the container wrote to it")
	}
	return n, r.Err()
}

var sinkBytes []byte

var allocMsgs = []struct {
	name string
	m    *Msg
}{
	{"header only", &Msg{Kind: KPageReq, From: 2, Page: 0x123, Addr: 0x123456, Write: true, TID: 7}},
	{"page", &Msg{Kind: KPageContent, To: 2, Page: 0x123, Perm: 2, Data: bytes.Repeat([]byte{0xab}, 4096)}},
	{"san and shadows", &Msg{Kind: KRemap, To: 3, Page: 5, Ver: 9, Shadows: []uint64{100, 101, 102, 103},
		San: []byte{1, 2, 3, 4, 5}, CPU: make([]byte, 48)}},
	{"container", &Msg{Kind: KPageContent, To: 1, Data: EncodePayloads(testPayloads)}},
}

var testPayloads = []PagePayload{
	{Page: 0x40, Ver: 7, BaseVer: 5, Enc: EncDelta, Perm: 2, Body: []byte{0, 0, 1, 0, 1, 2, 3, 4, 5, 6, 7, 8}, San: []byte{7}},
	{Page: 0x41, Ver: 3, Enc: EncSame, Perm: 1, Push: true, San: []byte{9, 9}},
	{Page: 0x42, Ver: 1, Enc: EncFull, Body: bytes.Repeat([]byte{0xaa}, 4096)},
}

// TestEncodeAllocs: a frame and a container are each made once, at exactly
// their size. (Encode's old capacity hint fell 8 bytes short of the fixed
// header, so every frame was allocated twice.)
func TestEncodeAllocs(t *testing.T) {
	for _, tc := range allocMsgs {
		frame := tc.m.Encode()
		if cap(frame) != len(frame) {
			t.Errorf("%s: frame of %d bytes in a buffer of %d", tc.name, len(frame), cap(frame))
		}
		if want := frameFixed + tc.m.PayloadSize(); len(frame) != want {
			t.Errorf("%s: frame is %d bytes, frameFixed+payload says %d", tc.name, len(frame), want)
		}
		if got := testing.AllocsPerRun(20, func() { sinkBytes = tc.m.Encode() }); got != 1 {
			t.Errorf("%s: Encode allocates %v times, want 1", tc.name, got)
		}
	}
	c := EncodePayloads(testPayloads)
	if cap(c) != len(c) {
		t.Errorf("container of %d bytes in a buffer of %d", len(c), cap(c))
	}
	if got := testing.AllocsPerRun(20, func() { sinkBytes = EncodePayloads(testPayloads) }); got != 1 {
		t.Errorf("EncodePayloads allocates %v times, want 1", got)
	}
	// Into a kept container with room: the same bytes, no allocation.
	kept := make([]byte, 0, len(c))
	if got := AppendPayloads(kept, testPayloads); !bytes.Equal(got, c) || &got[0] != &kept[:1][0] {
		t.Error("AppendPayloads into a container with room: other bytes, or another buffer")
	}
	if got := testing.AllocsPerRun(20, func() { sinkBytes = AppendPayloads(kept, testPayloads) }); got != 0 {
		t.Errorf("AppendPayloads into a container with room allocates %v times, want 0", got)
	}
}

// TestDecodeTruncatedAllocatesNothingLarge: a frame cut anywhere decodes to
// an error without allocating what its length fields announce — a 4-byte
// length used to be answered with a zeroed buffer of that many bytes, up to
// 16 MB from a peer that sent a dozen.
func TestDecodeTruncatedAllocatesNothingLarge(t *testing.T) {
	frame := allocMsgs[1].m.Encode()[4:]
	container := EncodePayloads(testPayloads)
	// A well-formed prefix ends in a length field announcing the most a
	// decoder accepts.
	hostile := append(append([]byte(nil), frame[:frameFixed-4-12]...), 0xff, 0xff, 0xff, 0x00)
	hostileC := append(append([]byte(nil), container[:2+payloadFixed-8]...), 0xff, 0xff, 0xff, 0x00)

	var sink error
	decodeAll := func() {
		for cut := 0; cut < len(frame); cut++ {
			_, sink = Decode(frame[:cut])
		}
		_, sink = Decode(hostile)
	}
	readAll := func() {
		var pl PagePayload
		for cut := 0; cut < len(container); cut++ {
			r := ReadPayloads(container[:cut])
			for r.Next(&pl) {
			}
			sink = r.Err()
		}
		r := ReadPayloads(hostileC)
		for r.Next(&pl) {
		}
		sink = r.Err()
	}
	for cut := 0; cut < len(frame); cut++ {
		if _, err := Decode(frame[:cut]); err == nil {
			t.Fatalf("frame cut at %d accepted", cut)
		}
	}
	for cut := 0; cut < len(container); cut++ {
		if _, err := checkPayloadViews(t, container[:cut]); err == nil {
			t.Fatalf("container cut at %d accepted", cut)
		}
	}
	if _, err := Decode(hostile); err == nil {
		t.Fatal("hostile frame accepted")
	}
	for name, f := range map[string]func(){"Decode": decodeAll, "ReadPayloads": readAll} {
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		f()
		runtime.ReadMemStats(&after)
		prefixes := len(frame) + len(container)
		// Each rejected prefix costs an error value and (Decode) a Msg:
		// a few objects, well under a kilobyte. The old behaviour cost
		// megabytes.
		if got := after.TotalAlloc - before.TotalAlloc; got > 1024*uint64(prefixes) {
			t.Errorf("%s over every prefix allocated %d bytes", name, got)
		}
		if got := testing.AllocsPerRun(1, f); got > 8*float64(prefixes) {
			t.Errorf("%s over every prefix allocated %v objects", name, got)
		}
	}
	_ = sink
}

// TestDecodePayloadsViews: decoding copies nothing and writes nothing — every
// Data, CPU, San and payload Body/San is a view of the frame it came in.
func TestDecodePayloadsViews(t *testing.T) {
	for _, tc := range allocMsgs {
		in := tc.m.Encode()[4:]
		before := sha256.Sum256(in)
		m, err := Decode(in)
		if err != nil {
			t.Fatalf("%s: %v", tc.name, err)
		}
		checkMsgViews(t, m, in, before)
		if len(tc.m.Data) > 0 && len(m.Data) != len(tc.m.Data) {
			t.Errorf("%s: Data of %d bytes decoded to %d", tc.name, len(tc.m.Data), len(m.Data))
		}
		if cap(m.Data) != len(m.Data) || cap(m.San) != len(m.San) {
			t.Errorf("%s: a view's capacity reaches past its end", tc.name)
		}
		if tc.name != "container" {
			continue
		}
		// Views of m.Data, itself a view of the frame.
		if n, err := checkPayloadViews(t, m.Data); err != nil || n != len(testPayloads) {
			t.Fatalf("%s: read %d payloads, err %v", tc.name, n, err)
		}
	}
	// Reading a container allocates nothing at all.
	c := EncodePayloads(testPayloads)
	if got := testing.AllocsPerRun(20, func() {
		var pl PagePayload
		r := ReadPayloads(c)
		for r.Next(&pl) {
		}
		if r.Err() != nil {
			t.Fatal(r.Err())
		}
	}); got != 0 {
		t.Errorf("reading a container allocates %v times, want 0", got)
	}
}

// TestReadMsgOwnsItsFrame guards what the views rest on over sockets: each
// frame ReadMsg returns lives in a buffer of its own.
func TestReadMsgOwnsItsFrame(t *testing.T) {
	var stream bytes.Buffer
	first := &Msg{Kind: KPageContent, To: 2, Page: 1, Data: bytes.Repeat([]byte{0x11}, 4096), San: []byte{1, 2}}
	second := &Msg{Kind: KPageContent, To: 2, Page: 2, Data: bytes.Repeat([]byte{0x22}, 4096), CPU: []byte{3, 4}}
	for _, m := range []*Msg{first, second} {
		if err := WriteMsg(&stream, m); err != nil {
			t.Fatal(err)
		}
	}
	// One byte at a time: no read-ahead may leak between frames either.
	r := iotestOneByte{&stream}
	a, err := ReadMsg(r)
	if err != nil {
		t.Fatal(err)
	}
	b, err := ReadMsg(r)
	if err != nil {
		t.Fatal(err)
	}
	for _, v := range [][]byte{a.Data, a.San} {
		for _, w := range [][]byte{b.Data, b.CPU} {
			if inside(v[:1], w) || inside(w[:1], v) {
				t.Fatal("two frames share memory")
			}
		}
	}
	for i := range a.Data {
		a.Data[i] = 0xee
	}
	if !bytes.Equal(b.Data, second.Data) || !bytes.Equal(b.CPU, second.CPU) {
		t.Error("writing the first message changed the second")
	}
}

// TestWriteMsgIsEncode: WriteMsg writes, in its three pieces, the bytes
// Encode makes; a KInit's image is written from where it is, not copied.
func TestWriteMsgIsEncode(t *testing.T) {
	msgs := []*Msg{{Kind: KInit, To: 1, Data: bytes.Repeat([]byte{7}, 70_000), San: []byte(`{"id":1}`)}}
	for _, tc := range allocMsgs {
		msgs = append(msgs, tc.m)
	}
	for _, m := range msgs {
		var out bytes.Buffer
		if err := WriteMsg(&out, m); err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(out.Bytes(), m.Encode()) {
			t.Errorf("%v: WriteMsg wrote other bytes than Encode makes", m.Kind)
		}
	}
	image := msgs[0]
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	if err := WriteMsg(io.Discard, image); err != nil {
		t.Fatal(err)
	}
	runtime.ReadMemStats(&after)
	if got := after.TotalAlloc - before.TotalAlloc; got >= uint64(len(image.Data)) {
		t.Errorf("writing a %d-byte image allocated %d bytes", len(image.Data), got)
	}
}

// TestAllocReadFrame: a connection reads every frame into one buffer.
// ReadFrame reads into the buffer it is given, grown only for a frame that
// does not fit, and DecodeInto rewrites every field of the message it is
// given, so a stream of frames allocates nothing but what a decoded frame
// has of its own (Shadows).
func TestAllocReadFrame(t *testing.T) {
	var stream bytes.Buffer
	for _, tc := range allocMsgs {
		if err := WriteMsg(&stream, tc.m); err != nil {
			t.Fatal(err)
		}
	}
	frames := stream.Bytes()
	var buf []byte
	var m Msg
	read := func() {
		r := bytes.NewReader(frames)
		for _, tc := range allocMsgs {
			var err error
			if buf, err = ReadFrame(r, buf); err != nil {
				t.Fatal(err)
			}
			if err := DecodeInto(&m, buf); err != nil {
				t.Fatal(err)
			}
			if !bytes.Equal(m.Encode(), tc.m.Encode()) {
				t.Fatalf("%s: read back as %+v", tc.name, m)
			}
		}
	}
	read()
	grown := cap(buf)
	if got := testing.AllocsPerRun(20, func() {
		r := bytes.NewReader(frames)
		for range allocMsgs {
			buf, _ = ReadFrame(r, buf)
			DecodeInto(&m, buf)
		}
	}); got != 2 { // the remap's Shadows and the bytes.Reader
		t.Errorf("reading %d frames into one buffer allocates %v times, want 2", len(allocMsgs), got)
	}
	read()
	if cap(buf) != grown {
		t.Errorf("the buffer grew from %d to %d bytes on frames it had held", grown, cap(buf))
	}
}

type iotestOneByte struct{ r io.Reader }

func (o iotestOneByte) Read(p []byte) (int, error) {
	if len(p) == 0 {
		return 0, nil
	}
	return o.r.Read(p[:1])
}
