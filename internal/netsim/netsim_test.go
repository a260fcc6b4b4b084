package netsim

import (
	"testing"

	"dqemu/internal/proto"
	"dqemu/internal/sim"
)

func TestDeliveryTiming(t *testing.T) {
	k := sim.NewKernel()
	cfg := DefaultConfig()
	nw := New(k, cfg, 2)
	var deliveredAt int64 = -1
	nw.Register(0, func(m *proto.Msg) {})
	nw.Register(1, func(m *proto.Msg) { deliveredAt = k.Now() })

	m := &proto.Msg{Kind: proto.KPageReq, From: 0, To: 1}
	nw.Send(m)
	k.Run()
	txTime := m.WireSize() * 8 // 1 Gb/s -> 8 ns per byte
	want := txTime + cfg.LatencyNs + cfg.ProcNs
	if deliveredAt != want {
		t.Errorf("delivered at %d, want %d", deliveredAt, want)
	}
}

func TestPageContentCost(t *testing.T) {
	k := sim.NewKernel()
	cfg := DefaultConfig()
	nw := New(k, cfg, 2)
	var deliveredAt int64
	nw.Register(0, func(m *proto.Msg) {})
	nw.Register(1, func(m *proto.Msg) { deliveredAt = k.Now() })
	m := &proto.Msg{Kind: proto.KPageContent, From: 0, To: 1, Data: make([]byte, 4096)}
	nw.Send(m)
	k.Run()
	// 4160 bytes * 8 ns + 28 µs + 150 µs ≈ 211 µs.
	if deliveredAt < 200_000 || deliveredAt > 225_000 {
		t.Errorf("page content delivery = %d ns", deliveredAt)
	}
}

func TestSenderSerialization(t *testing.T) {
	k := sim.NewKernel()
	cfg := DefaultConfig()
	nw := New(k, cfg, 2)
	var times []int64
	nw.Register(0, func(m *proto.Msg) {})
	nw.Register(1, func(m *proto.Msg) { times = append(times, k.Now()) })
	// Two large messages from the same sender must serialize on the NIC.
	for i := 0; i < 2; i++ {
		nw.Send(&proto.Msg{Kind: proto.KPush, From: 0, To: 1, Data: make([]byte, 4096)})
	}
	k.Run()
	if len(times) != 2 {
		t.Fatalf("delivered %d", len(times))
	}
	gap := times[1] - times[0]
	txTime := int64((4096 + 64) * 8)
	if gap < txTime-500 || gap > txTime+cfg.StreamProcNs+500 {
		t.Errorf("gap = %d, want about %d", gap, txTime)
	}
}

func TestReceiverSerializationPerLink(t *testing.T) {
	k := sim.NewKernel()
	cfg := DefaultConfig()
	nw := New(k, cfg, 3)
	var times []int64
	for i := 0; i < 3; i++ {
		i := i
		nw.Register(i, func(m *proto.Msg) {
			if i == 0 {
				times = append(times, k.Now())
			}
		})
	}
	// Two messages from the same sender serialize in the receiver's manager
	// thread for that link (ProcNs apart, beyond the tx serialization).
	nw.Send(&proto.Msg{Kind: proto.KPageReq, From: 1, To: 0})
	nw.Send(&proto.Msg{Kind: proto.KInvAck, From: 1, To: 0})
	k.Run()
	if len(times) != 2 {
		t.Fatalf("delivered %d", len(times))
	}
	if gap := times[1] - times[0]; gap < cfg.ProcNs {
		t.Errorf("same-link messages did not serialize: gap %d < %d", gap, cfg.ProcNs)
	}

	// Messages from different senders are handled by different manager
	// threads and may overlap: the second arrives ProcNs after the first
	// only if serialized; here they should be ~simultaneous.
	k2 := sim.NewKernel()
	nw2 := New(k2, cfg, 3)
	times = nil
	for i := 0; i < 3; i++ {
		i := i
		nw2.Register(i, func(m *proto.Msg) {
			if i == 0 {
				times = append(times, k2.Now())
			}
		})
	}
	nw2.Send(&proto.Msg{Kind: proto.KPageReq, From: 1, To: 0})
	nw2.Send(&proto.Msg{Kind: proto.KPageReq, From: 2, To: 0})
	k2.Run()
	if len(times) != 2 {
		t.Fatalf("delivered %d", len(times))
	}
	if gap := times[1] - times[0]; gap >= cfg.ProcNs {
		t.Errorf("cross-link messages over-serialized: gap %d", gap)
	}
}

func TestLocalDelivery(t *testing.T) {
	k := sim.NewKernel()
	cfg := DefaultConfig()
	nw := New(k, cfg, 1)
	var at int64 = -1
	nw.Register(0, func(m *proto.Msg) { at = k.Now() })
	nw.Send(&proto.Msg{Kind: proto.KPageReq, From: 0, To: 0})
	k.Run()
	if at != cfg.LocalNs {
		t.Errorf("local delivery at %d, want %d", at, cfg.LocalNs)
	}
}

func TestPushUsesStreamProcessing(t *testing.T) {
	k := sim.NewKernel()
	cfg := DefaultConfig()
	nw := New(k, cfg, 2)
	var reqAt, pushAt int64
	nw.Register(0, func(m *proto.Msg) {})
	nw.Register(1, func(m *proto.Msg) {
		if m.Kind == proto.KPush {
			pushAt = k.Now()
		} else {
			reqAt = k.Now()
		}
	})
	nw.Send(&proto.Msg{Kind: proto.KInvalidate, From: 0, To: 1})
	k.Run()
	k2 := sim.NewKernel()
	nw2 := New(k2, cfg, 2)
	nw2.Register(0, func(m *proto.Msg) {})
	nw2.Register(1, func(m *proto.Msg) { pushAt = k2.Now() })
	nw2.Send(&proto.Msg{Kind: proto.KPush, From: 0, To: 1})
	k2.Run()
	if pushAt >= reqAt {
		t.Errorf("push (%d) should be cheaper than fault-path message (%d)", pushAt, reqAt)
	}
}

func TestStats(t *testing.T) {
	k := sim.NewKernel()
	nw := New(k, DefaultConfig(), 2)
	nw.Register(0, func(m *proto.Msg) {})
	nw.Register(1, func(m *proto.Msg) {})
	nw.Send(&proto.Msg{Kind: proto.KPageReq, From: 0, To: 1})
	nw.Send(&proto.Msg{Kind: proto.KPageContent, From: 1, To: 0, Data: make([]byte, 100)})
	k.Run()
	if nw.Stats.Msgs != 2 {
		t.Errorf("msgs = %d", nw.Stats.Msgs)
	}
	if nw.Stats.ByKind[proto.KPageReq] != 1 || nw.Stats.ByKind[proto.KPageContent] != 1 {
		t.Error("per-kind stats wrong")
	}
	if nw.Stats.Bytes == 0 || nw.Stats.BusyTxNs == 0 {
		t.Error("byte/tx stats empty")
	}
}

// The per-kind tables are sized from proto.KindCount plus the overflow
// bucket; if a new kind were added past the array a Send would silently fall
// off the old fixed size. This locks every defined kind to a counted slot
// with byte accounting, and reserves the last slot for out-of-range kinds.
var _ [proto.KindCount + 1]uint64 = Stats{}.ByKind

func TestStatsCoverEveryKind(t *testing.T) {
	k := sim.NewKernel()
	nw := New(k, DefaultConfig(), 2)
	nw.Register(0, func(m *proto.Msg) {})
	nw.Register(1, func(m *proto.Msg) {})
	for kind := proto.Kind(0); kind < proto.KindCount; kind++ {
		nw.Send(&proto.Msg{Kind: kind, From: 0, To: 1, Data: make([]byte, 16)})
	}
	k.Run()
	for kind := proto.Kind(0); kind < proto.KindCount; kind++ {
		if nw.Stats.ByKind[kind] != 1 {
			t.Errorf("kind %v counted %d times", kind, nw.Stats.ByKind[kind])
		}
		if want := uint64(proto.HeaderSize + 16); nw.Stats.BytesByKind[kind] != want {
			t.Errorf("kind %v bytes = %d, want %d", kind, nw.Stats.BytesByKind[kind], want)
		}
	}
	if nw.Stats.Msgs != uint64(proto.KindCount) {
		t.Errorf("msgs = %d, want %d", nw.Stats.Msgs, proto.KindCount)
	}
}

func TestSendRoutesOutOfRangeKindToOverflowBucket(t *testing.T) {
	k := sim.NewKernel()
	nw := New(k, DefaultConfig(), 2)
	nw.Register(0, func(m *proto.Msg) {})
	nw.Register(1, func(m *proto.Msg) {})
	nw.Send(&proto.Msg{Kind: proto.KindCount, From: 0, To: 1, Data: make([]byte, 8)})
	nw.Send(&proto.Msg{Kind: proto.KindCount + 9, From: 0, To: 1})
	k.Run()
	if nw.Stats.ByKind[OverflowKind] != 2 {
		t.Errorf("overflow bucket = %d, want 2", nw.Stats.ByKind[OverflowKind])
	}
	if want := uint64(2*proto.HeaderSize + 8); nw.Stats.BytesByKind[OverflowKind] != want {
		t.Errorf("overflow bytes = %d, want %d", nw.Stats.BytesByKind[OverflowKind], want)
	}
	if nw.Stats.Msgs != 2 {
		t.Errorf("msgs = %d, want 2", nw.Stats.Msgs)
	}
	for kind := proto.Kind(0); kind < proto.KindCount; kind++ {
		if nw.Stats.ByKind[kind] != 0 {
			t.Errorf("kind %v polluted by overflow routing", kind)
		}
	}
}

// The fault injector's duplicate path creates a second wire copy; its
// accounting must mirror Send's — same counters, same overflow clamp —
// otherwise Stats.Bytes diverges from the traffic transmit actually models.
func TestFaultDuplicateCopiesAreCounted(t *testing.T) {
	k := sim.NewKernel()
	nw := New(k, DefaultConfig(), 2)
	delivered := 0
	nw.Register(0, func(m *proto.Msg) {})
	nw.Register(1, func(m *proto.Msg) { delivered++ })
	nw.SetFaults(&FaultPlan{Seed: 1, DupRate: 1.0})
	nw.Send(&proto.Msg{Kind: proto.KPageReq, From: 0, To: 1, Data: make([]byte, 32)})
	k.Run()
	if delivered != 2 {
		t.Fatalf("delivered = %d, want original + duplicate", delivered)
	}
	if nw.FaultStats().Duplicated != 1 {
		t.Fatalf("duplicated = %d", nw.FaultStats().Duplicated)
	}
	if nw.Stats.Msgs != 2 {
		t.Errorf("msgs = %d, want 2 (both wire copies)", nw.Stats.Msgs)
	}
	if nw.Stats.ByKind[proto.KPageReq] != 2 {
		t.Errorf("ByKind[KPageReq] = %d, want 2", nw.Stats.ByKind[proto.KPageReq])
	}
	if want := uint64(2 * (proto.HeaderSize + 32)); nw.Stats.Bytes != want {
		t.Errorf("bytes = %d, want %d", nw.Stats.Bytes, want)
	}
	if nw.Stats.BytesByKind[proto.KPageReq] != nw.Stats.Bytes {
		t.Errorf("per-kind bytes %d != total %d",
			nw.Stats.BytesByKind[proto.KPageReq], nw.Stats.Bytes)
	}
}

// An out-of-range kind surviving fault injection must land in the overflow
// bucket on the duplicate path too (the "mirror guard" of the Send one).
func TestFaultDuplicateOverflowKind(t *testing.T) {
	k := sim.NewKernel()
	nw := New(k, DefaultConfig(), 2)
	nw.Register(0, func(m *proto.Msg) {})
	nw.Register(1, func(m *proto.Msg) {})
	nw.SetFaults(&FaultPlan{Seed: 1, DupRate: 1.0})
	nw.Send(&proto.Msg{Kind: proto.KindCount + 3, From: 0, To: 1})
	k.Run()
	if nw.Stats.ByKind[OverflowKind] != 2 {
		t.Errorf("overflow bucket = %d, want 2 (original + duplicate)",
			nw.Stats.ByKind[OverflowKind])
	}
}

// TestAllocPerMessageHop: carrying a message from Send to its handler costs
// no heap object beyond the caller's Msg — the two events of an inter-node
// message (arrival, end of receive processing) and the one of a local message
// take the message as their argument and a handler made once in New. Each
// used to be a closure.
func TestAllocPerMessageHop(t *testing.T) {
	k := sim.NewKernel()
	nw := New(k, DefaultConfig(), 2)
	delivered := 0
	for id := 0; id < 2; id++ {
		nw.Register(id, func(*proto.Msg) { delivered++ })
	}
	remote := &proto.Msg{Kind: proto.KPageReq, From: 1, To: 0, Page: 7}
	local := &proto.Msg{Kind: proto.KPageReq, From: 0, To: 0, Page: 7}
	got := testing.AllocsPerRun(1000, func() {
		nw.Send(remote)
		nw.Send(local)
		k.Run()
	})
	if delivered != 2*1001 {
		t.Fatalf("%d messages delivered, want %d", delivered, 2*1001)
	}
	if got != 0 {
		t.Errorf("send→deliver of two messages allocates %v objects, want 0", got)
	}
}
