package core

import (
	"bytes"
	"reflect"
	"testing"

	"dqemu/internal/proto"
	"dqemu/internal/recycle"
)

// frameSeeds is a frame of every shape a connection reader meets: each
// field a kind carries set, the page kinds with a payload container.
func frameSeeds() [][]byte {
	container := proto.EncodePayloads([]proto.PagePayload{
		{Page: 0x40, Ver: 7, Enc: proto.EncFull, Perm: 2, Body: bytes.Repeat([]byte{0xab}, 4096), San: []byte{7}},
		{Page: 0x41, Ver: 3, Enc: proto.EncSame, Perm: 1, Push: true},
	})
	msgs := []*proto.Msg{
		{Kind: proto.KPageReq, From: 2, Page: 0x123, Addr: 0x123456, Write: true, TID: 7, Ver: 4, Flags: proto.FlagFullResend},
		{Kind: proto.KPageContent, To: 2, Seq: 9, Page: 0x40, Perm: 2, Data: container},
		{Kind: proto.KInvAck, From: 1, Page: 9, San: []byte{1, 2, 3}},
		{Kind: proto.KFetchReply, From: 3, Page: 0x41, Write: true, Data: container[:len(container)/2]},
		{Kind: proto.KRemap, To: 3, Page: 5, Ver: 2, Shadows: []uint64{100, 101, 102, 103}},
		{Kind: proto.KPush, To: 1, Data: container},
		{Kind: proto.KSyscallReq, From: 1, TID: 12, Num: 64, Args: [6]uint64{1, 0x2000, 5, 0, 0, 6}, San: []byte{4, 5}},
		{Kind: proto.KSyscallReply, To: 1, TID: 12, Ret: 5},
		{Kind: proto.KThreadStart, To: 2, TID: 3, CPU: bytes.Repeat([]byte{0x3c}, 64), San: []byte{8}},
		{Kind: proto.KMigrate, To: 2, TID: 3, Num: 1},
		{Kind: proto.KInit, To: 1, Data: []byte{1, 2, 3}, San: []byte(`{"id":1}`)},
		{Kind: proto.KAck, From: 1, To: 2, Seq: 41},
	}
	frames := make([][]byte, len(msgs))
	for i, m := range msgs {
		frames[i] = m.Encode()[4:] // a reader hands DecodeFrame the frame without its length prefix
	}
	return frames
}

// FuzzDecodeFrame drives a connection reader's reuse path: frame a is
// decoded into a stock message that is then given back, and frame b is
// decoded into the same message. Properties:
//
//  1. DecodeFrame accepts b exactly when proto.Decode does, and what it
//     makes of b equals a fresh proto.Decode of b: nothing of a is left in
//     the reused message or its container.
//  2. The message owns what it carries: overwriting the read buffer, as the
//     reader's next frame does, changes nothing in it.
func FuzzDecodeFrame(f *testing.F) {
	seeds := frameSeeds()
	for i, a := range seeds {
		f.Add(a, seeds[(i+1)%len(seeds)])
		f.Add(a, seeds[(i+5)%len(seeds)])
	}
	f.Add(seeds[1], []byte{})
	f.Fuzz(func(t *testing.T, a, b []byte) {
		want, wantErr := proto.Decode(bytes.Clone(b))
		recycle.Drain()
		reused, err := DecodeFrame(a)
		if err == nil {
			KeepFrame(reused)
		}
		read := bytes.Clone(b) // the connection's read buffer
		m, err := DecodeFrame(read)
		if (err != nil) != (wantErr != nil) {
			t.Fatalf("DecodeFrame: %v, proto.Decode: %v", err, wantErr)
		}
		if err != nil {
			return
		}
		if reused != nil && m != reused {
			t.Fatal("the frame was not decoded into the stock message")
		}
		if !reflect.DeepEqual(m, want) {
			t.Fatalf("decoded into a reused message\n got %+v\nwant %+v", m, want)
		}
		for i := range read {
			read[i] = 0xff
		}
		if !reflect.DeepEqual(m, want) {
			t.Fatalf("overwriting the read buffer changed the message\n got %+v\nwant %+v", m, want)
		}
		KeepFrame(m)
	})
}
