package proto

import (
	"bytes"
	"encoding/binary"
	"math/rand"
	"reflect"
	"testing"
	"testing/quick"

	"dqemu/internal/tcg"
)

// roundtripMsgs is one message of each shape; TestFrameGolden pins their
// frames.
var roundtripMsgs = []*Msg{
	{Kind: KPageReq, From: 2, To: 0, Page: 0x123, Addr: 0x123456, Write: true, TID: 7},
	{Kind: KPageContent, From: 0, To: 2, Page: 0x123, Perm: 2, Data: bytes.Repeat([]byte{0xab}, 4096)},
	{Kind: KInvalidate, From: 0, To: 1, Page: 9},
	{Kind: KRemap, From: 0, To: 3, Page: 5, Shadows: []uint64{100, 101, 102, 103}},
	{Kind: KSyscallReq, From: 1, To: 0, TID: 12, Num: 64, Args: [6]uint64{1, 0x2000, 5, 0, 0, 0}},
	{Kind: KSyscallReply, From: 0, To: 1, TID: 12, Ret: 5},
	{Kind: KThreadStart, From: 0, To: 2, TID: 3, CPU: make([]byte, 32*8+32*8+24)},
	{Kind: KMigrate, From: 0, To: 2, TID: 3, Num: 1},
}

func TestMsgRoundtrip(t *testing.T) {
	for _, m := range roundtripMsgs {
		frame := m.Encode()
		length := binary.LittleEndian.Uint32(frame[:4])
		if int(length) != len(frame)-4 {
			t.Fatalf("%v: frame length %d vs %d", m.Kind, length, len(frame)-4)
		}
		got, err := Decode(frame[4:])
		if err != nil {
			t.Fatalf("%v: %v", m.Kind, err)
		}
		if !reflect.DeepEqual(m, got) {
			t.Errorf("%v: roundtrip mismatch\n got %+v\nwant %+v", m.Kind, got, m)
		}
	}
}

func TestMsgRoundtripQuick(t *testing.T) {
	r := rand.New(rand.NewSource(7))
	f := func() bool {
		m := &Msg{
			Kind:  Kind(r.Intn(int(KShutdown)) + 1),
			From:  int32(r.Intn(8)),
			To:    int32(r.Intn(8)),
			TID:   r.Int63(),
			Page:  r.Uint64(),
			Addr:  r.Uint64(),
			Write: r.Intn(2) == 1,
			Perm:  uint8(r.Intn(3)),
			Num:   r.Int63(),
			Ret:   r.Uint64(),
		}
		for i := range m.Args {
			m.Args[i] = r.Uint64()
		}
		if r.Intn(2) == 1 {
			m.Data = make([]byte, r.Intn(1000))
			r.Read(m.Data)
			if len(m.Data) == 0 {
				m.Data = nil
			}
		}
		if r.Intn(3) == 0 {
			m.Shadows = []uint64{r.Uint64(), r.Uint64()}
		}
		got, err := Decode(m.Encode()[4:])
		return err == nil && reflect.DeepEqual(m, got)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 500}); err != nil {
		t.Error(err)
	}
}

func TestDecodeTruncated(t *testing.T) {
	m := &Msg{Kind: KPageContent, Data: make([]byte, 100)}
	frame := m.Encode()[4:]
	for _, cut := range []int{0, 1, 10, 50, len(frame) - 1} {
		if _, err := Decode(frame[:cut]); err == nil {
			t.Errorf("truncated frame (%d) accepted", cut)
		}
	}
}

// TestWireSize pins the bandwidth model's size accounting: a message costs
// the fixed header plus exactly its variable payload (Data, CPU, Shadows,
// San) — derived, not a magic window, so codec changes that silently alter
// billing fail here.
func TestWireSize(t *testing.T) {
	cases := []struct {
		m       *Msg
		payload int
	}{
		{&Msg{Kind: KPageReq, Page: 0x44, Ver: 9}, 0},
		{&Msg{Kind: KPageContent, Data: make([]byte, 4096)}, 4096},
		{&Msg{Kind: KPageContent, Data: make([]byte, 4096), San: make([]byte, 40)}, 4136},
		{&Msg{Kind: KRemap, Shadows: make([]uint64, 4)}, 4 * 8},
		{&Msg{Kind: KThreadStart, CPU: make([]byte, 544)}, 544},
		{
			&Msg{Kind: KPageContent,
				Data: EncodePayloads([]PagePayload{{Page: 1, Ver: 2, Enc: EncSame}})},
			2 + 3*8 + 3 + 2*4,
		},
	}
	for _, c := range cases {
		if c.m.PayloadSize() != c.payload {
			t.Errorf("%v: PayloadSize = %d, want %d", c.m.Kind, c.m.PayloadSize(), c.payload)
		}
		if want := int64(HeaderSize + c.payload); c.m.WireSize() != want {
			t.Errorf("%v: WireSize = %d, want %d", c.m.Kind, c.m.WireSize(), want)
		}
	}
	// A header-only EncSame grant must be dramatically cheaper than the full
	// page it replaces — the wire layer's accounting depends on it.
	same := &Msg{Kind: KPageContent,
		Data: EncodePayloads([]PagePayload{{Page: 1, Ver: 2, Enc: EncSame}})}
	full := &Msg{Kind: KPageContent,
		Data: EncodePayloads([]PagePayload{{Page: 1, Ver: 2, Enc: EncFull, Body: make([]byte, 4096)}})}
	if same.WireSize()*10 > full.WireSize() {
		t.Errorf("EncSame frame (%d bytes) not ≪ full page (%d bytes)", same.WireSize(), full.WireSize())
	}
}

// TestKindNamesComplete locks the name table to KindCount so a new kind
// cannot ship without a printable name.
func TestKindNamesComplete(t *testing.T) {
	if len(kindNames) != int(KindCount) {
		t.Fatalf("kindNames has %d entries, want %d", len(kindNames), KindCount)
	}
	for k := Kind(1); k < KindCount; k++ {
		if kindNames[k] == "" {
			t.Errorf("kind %d has no name", k)
		}
	}
}

func TestCPURoundtrip(t *testing.T) {
	cpu := &tcg.CPU{PC: 0x10040, TID: 17, HintGroup: 3}
	for i := range cpu.X {
		cpu.X[i] = uint64(i * 1000)
	}
	for i := range cpu.F {
		cpu.F[i] = float64(i) * 1.5
	}
	got, err := DecodeCPU(EncodeCPU(cpu))
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(cpu, got) {
		t.Errorf("cpu roundtrip mismatch:\n got %+v\nwant %+v", got, cpu)
	}
}

func TestCPUDecodeBadSize(t *testing.T) {
	if _, err := DecodeCPU(make([]byte, 10)); err == nil {
		t.Error("bad size accepted")
	}
}

func TestKindString(t *testing.T) {
	if KPageReq.String() != "page-req" || Kind(200).String() == "" {
		t.Error("kind names broken")
	}
}
