package netsim

import (
	"fmt"
	"math"
	"reflect"
	"testing"

	"dqemu/internal/proto"
	"dqemu/internal/sim"
)

// faultNet builds a 2-node network with the given plan and a recorder on
// node 1.
func faultNet(t *testing.T, plan FaultPlan) (*sim.Kernel, *Network, *[]uint64) {
	t.Helper()
	k := sim.NewKernel()
	nw := New(k, DefaultConfig(), 2)
	nw.SetFaults(&plan)
	var got []uint64
	nw.Register(0, func(m *proto.Msg) {})
	nw.Register(1, func(m *proto.Msg) { got = append(got, m.Page) })
	return k, nw, &got
}

func TestFaultDropIsDeterministic(t *testing.T) {
	schedule := func(seed int64) ([]uint64, FaultStats) {
		k, nw, got := faultNet(t, FaultPlan{Seed: seed, DropRate: 0.3})
		for i := 0; i < 100; i++ {
			nw.Send(&proto.Msg{Kind: proto.KPageReq, From: 0, To: 1, Page: uint64(i)})
		}
		k.Run()
		return *got, nw.FaultStats()
	}
	a, sa := schedule(42)
	b, sb := schedule(42)
	if !reflect.DeepEqual(a, b) || sa != sb {
		t.Fatal("same seed must reproduce the same fault schedule")
	}
	if sa.Dropped == 0 || len(a) == 100 {
		t.Fatalf("expected drops at 30%%: stats %+v", sa)
	}
	c, _ := schedule(43)
	if reflect.DeepEqual(a, c) {
		t.Fatal("different seeds should differ (100 msgs at 30% drop)")
	}
}

func TestFaultDuplication(t *testing.T) {
	k, nw, got := faultNet(t, FaultPlan{Seed: 7, DupRate: 1.0})
	nw.Send(&proto.Msg{Kind: proto.KPageReq, From: 0, To: 1, Page: 9})
	k.Run()
	if len(*got) != 2 || nw.FaultStats().Duplicated != 1 {
		t.Fatalf("got %v, stats %+v", *got, nw.FaultStats())
	}
}

func TestFaultReorder(t *testing.T) {
	// Only the first message is reordered (held back): with a decreasing
	// per-seed probability that's hard to arrange, so use jitter-free
	// deterministic reordering at rate 1 for one message, then rate 0.
	k := sim.NewKernel()
	nw := New(k, DefaultConfig(), 2)
	var got []uint64
	nw.Register(0, func(m *proto.Msg) {})
	nw.Register(1, func(m *proto.Msg) { got = append(got, m.Page) })
	// Hold back message 0 by a large delay via a plan that reorders every
	// message but send only the first under it.
	nw.SetFaults(&FaultPlan{Seed: 1, ReorderRate: 1.0, ReorderDelayNs: 10_000_000})
	nw.Send(&proto.Msg{Kind: proto.KPageReq, From: 0, To: 1, Page: 0})
	nw.fault = nil
	nw.Send(&proto.Msg{Kind: proto.KPageReq, From: 0, To: 1, Page: 1})
	k.Run()
	if len(got) != 2 || got[0] != 1 || got[1] != 0 {
		t.Fatalf("expected overtaking, got %v", got)
	}
}

func TestFaultLocalMessagesExempt(t *testing.T) {
	k := sim.NewKernel()
	nw := New(k, DefaultConfig(), 2)
	nw.SetFaults(&FaultPlan{Seed: 3, DropRate: 1.0})
	n := 0
	nw.Register(0, func(m *proto.Msg) { n++ })
	nw.Register(1, func(m *proto.Msg) {})
	for i := 0; i < 5; i++ {
		nw.Send(&proto.Msg{Kind: proto.KSyscallReq, From: 0, To: 0})
	}
	k.Run()
	if n != 5 {
		t.Fatalf("local messages must never be faulted: delivered %d/5", n)
	}
}

func TestFaultStallDefersDelivery(t *testing.T) {
	k, nw, got := faultNet(t, FaultPlan{
		Seed:   1,
		Stalls: []Window{{Node: 1, FromNs: 0, ToNs: 5_000_000}},
	})
	var at int64
	nw.Register(1, func(m *proto.Msg) { *got = append(*got, m.Page); at = k.Now() })
	nw.Send(&proto.Msg{Kind: proto.KPageReq, From: 0, To: 1, Page: 4})
	k.Run()
	if len(*got) != 1 || at < 5_000_000 {
		t.Fatalf("stalled delivery at %d ns (want >= 5ms), got=%v", at, *got)
	}
	if nw.FaultStats().Stalled != 1 {
		t.Fatalf("stats %+v", nw.FaultStats())
	}
}

func TestFaultCrashDropsTraffic(t *testing.T) {
	k, nw, got := faultNet(t, FaultPlan{
		Seed:    1,
		Crashes: []Crash{{Node: 1, AtNs: 1}},
	})
	k.Post(10, func() {
		nw.Send(&proto.Msg{Kind: proto.KPageReq, From: 0, To: 1, Page: 4})
		nw.Send(&proto.Msg{Kind: proto.KInvAck, From: 1, To: 0, Page: 4})
	})
	k.Run()
	if len(*got) != 0 || nw.FaultStats().CrashDropped != 2 {
		t.Fatalf("crashed node exchanged traffic: got=%v stats=%+v", *got, nw.FaultStats())
	}
}

// reliableOver stacks the reliable layer on a two-node network; what it
// delivers to node 1 goes to h1.
func reliableOver(k *sim.Kernel, nw *Network, pol RetryPolicy, h1 Handler) *Reliable {
	rel := NewReliable(k.Post, nw.Send, func(m *proto.Msg) {
		if m.To == 1 {
			h1(m)
		}
	}, pol)
	nw.Register(0, rel.Receive)
	nw.Register(1, rel.Receive)
	return rel
}

func TestReliableExactlyOnceUnderChaos(t *testing.T) {
	// Heavy loss, duplication and reordering: every message still arrives
	// exactly once, in order.
	k := sim.NewKernel()
	nw := New(k, DefaultConfig(), 2)
	nw.SetFaults(&FaultPlan{Seed: 99, DropRate: 0.25, DupRate: 0.25, JitterNs: 300_000, ReorderRate: 0.2})
	var got []uint64
	rel := reliableOver(k, nw, DefaultRetryPolicy(), func(m *proto.Msg) { got = append(got, m.Page) })
	const n = 200
	for i := 0; i < n; i++ {
		rel.Send(&proto.Msg{Kind: proto.KPageContent, From: 0, To: 1, Page: uint64(i)})
	}
	k.Run()
	if len(got) != n {
		t.Fatalf("delivered %d/%d (dup or loss leaked through)", len(got), n)
	}
	for i, p := range got {
		if p != uint64(i) {
			t.Fatalf("out of order at %d: got page %d", i, p)
		}
	}
	if rel.Stats.Retransmits == 0 || rel.Stats.DupDropped == 0 {
		t.Fatalf("chaos too gentle for the test to mean anything: %+v", rel.Stats)
	}
	if rel.Unacked() != 0 {
		t.Fatalf("%d messages unacked after quiesce", rel.Unacked())
	}
}

func TestReliableGiveUpFiresOnCrash(t *testing.T) {
	k := sim.NewKernel()
	nw := New(k, DefaultConfig(), 2)
	nw.SetFaults(&FaultPlan{Seed: 5, Crashes: []Crash{{Node: 1, AtNs: 1}}})
	pol := DefaultRetryPolicy()
	var lost *proto.Msg
	rel := reliableOver(k, nw, pol, func(m *proto.Msg) { t.Fatal("delivered to crashed node") })
	rel.OnGiveUp = func(m *proto.Msg) { lost = m }
	k.Post(10, func() {
		rel.Send(&proto.Msg{Kind: proto.KInvalidate, From: 0, To: 1, Page: 77})
	})
	k.Run()
	if lost == nil || lost.Page != 77 {
		t.Fatalf("give-up did not fire: %+v (stats %+v)", lost, rel.Stats)
	}
	if rel.Stats.Retransmits != uint64(pol.MaxAttempts-1) {
		t.Fatalf("retransmits = %d, want %d", rel.Stats.Retransmits, pol.MaxAttempts-1)
	}
}

func TestReliableNoRetryAblationLosesMessages(t *testing.T) {
	k := sim.NewKernel()
	nw := New(k, DefaultConfig(), 2)
	nw.SetFaults(&FaultPlan{Seed: 11, DropRate: 0.5})
	pol := DefaultRetryPolicy()
	pol.NoRetry = true
	var got int
	rel := reliableOver(k, nw, pol, func(m *proto.Msg) { got++ })
	for i := 0; i < 50; i++ {
		rel.Send(&proto.Msg{Kind: proto.KPageContent, From: 0, To: 1, Page: uint64(i)})
	}
	k.Run()
	if got >= 50 {
		t.Fatal("NoRetry should lose messages under 50% drop")
	}
}

func TestReliableNoDedupAblationLeaksDuplicates(t *testing.T) {
	k := sim.NewKernel()
	nw := New(k, DefaultConfig(), 2)
	nw.SetFaults(&FaultPlan{Seed: 13, DupRate: 1.0})
	pol := DefaultRetryPolicy()
	pol.NoDedup = true
	var got int
	rel := reliableOver(k, nw, pol, func(m *proto.Msg) { got++ })
	rel.Send(&proto.Msg{Kind: proto.KInvalidate, From: 0, To: 1, Page: 3})
	k.Run()
	if got < 2 {
		t.Fatalf("NoDedup must leak duplicates, delivered %d", got)
	}
}

func TestFaultPlanString(t *testing.T) {
	p := &FaultPlan{Seed: 42, DropRate: 0.1}
	if got := p.String(); got == "" || got != fmt.Sprintf("%v", p) {
		t.Fatalf("plan string: %q", got)
	}
}

// TestFaultPlanDelayBound: a delay the Injector could overflow on, or a rate
// that is not a number, is rejected, and every plan the torture generator
// makes is valid and active.
func TestFaultPlanDelayBound(t *testing.T) {
	for _, p := range []FaultPlan{{JitterNs: 1<<63 - 1}, {ReorderDelayNs: maxDelayNs + 1}, {DupRate: math.NaN()}} {
		if err := p.Validate(2); err == nil {
			t.Errorf("%+v validated", p)
		}
	}
	for seed := int64(1); seed <= 2000; seed++ {
		for slaves := 1; slaves <= 4; slaves++ {
			if p, _ := PlanForSeed(seed, slaves); p.Validate(slaves+1) != nil || !p.Active() {
				t.Fatalf("seed %d, %d slaves: %+v invalid (%v) or inactive", seed, slaves, p, p.Validate(slaves+1))
			}
		}
	}
}
