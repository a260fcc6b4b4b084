package live

import (
	"errors"
	"testing"
	"time"

	"dqemu/internal/abi"
	"dqemu/internal/core"
	"dqemu/internal/guestos"
	"dqemu/internal/proto"
)

// newTestMaster builds node 0 of a one-slave cluster behind the master-side
// replay filter, wired to a capturing transmit function instead of a TCP
// sender, so tests can inject frames "from slave 1" through the same
// boundary a reader goroutine feeds and observe exactly which frames leave.
func newTestMaster(t *testing.T) (*loop, *replayFilter, *[]*proto.Msg) {
	t.Helper()
	im := build(t, `long main() { return 0; }`)
	l := newLoop(0, nil)
	f := &replayFilter{l: l, cache: proto.NewReplayCache()}
	l.filter = f
	sent := &[]*proto.Msg{}
	l.out = func(m *proto.Msg) error { *sent = append(*sent, m); return nil }
	var err error
	if l.cl, err = core.NewLocal(im, core.Config{Slaves: 1}, 0, l); err != nil {
		t.Fatal(err)
	}
	return l, f, sent
}

// TestMasterDedupsRetransmittedSyscall: a duplicate of a COMPLETED request
// must be answered from the replay cache, not re-executed. mmap makes
// re-execution observable: every fresh execution hands out a new region, so
// a replayed request must return the same address and a genuinely new
// request (next seq) a different one.
func TestMasterDedupsRetransmittedSyscall(t *testing.T) {
	l, f, sent := newTestMaster(t)
	req := func(seq uint64) *proto.Msg {
		return &proto.Msg{
			Kind: proto.KSyscallReq, From: 1, To: 0, TID: 5, Seq: seq,
			Num: abi.SysMmap, Args: [6]uint64{0, 0x4000},
		}
	}
	l.deliver(req(1))
	l.deliver(req(1)) // slave timed out and retransmitted
	if len(*sent) != 2 {
		t.Fatalf("got %d replies, want 2 (original + replay)", len(*sent))
	}
	first, second := (*sent)[0], (*sent)[1]
	if first.Kind != proto.KSyscallReply || first.To != 1 || first.TID != 5 || first.Seq != 1 {
		t.Fatalf("unexpected first reply %+v", first)
	}
	if second.Ret != first.Ret || second.Seq != 1 {
		t.Fatalf("duplicate request re-executed: ret %#x then %#x", first.Ret, second.Ret)
	}
	if f.cache.Replayed != 1 {
		t.Fatalf("Replayed = %d, want 1", f.cache.Replayed)
	}
	// The next real request from the same thread must execute fresh.
	l.deliver(req(2))
	if len(*sent) != 3 || (*sent)[2].Ret == first.Ret || (*sent)[2].Seq != 2 {
		t.Fatalf("fresh request did not execute: replies %d, last %+v, first ret %#x",
			len(*sent), (*sent)[len(*sent)-1], first.Ret)
	}
}

// TestMasterSuppressesInFlightDuplicate: a duplicate of a request whose
// reply is PARKED (here a thread join on a live thread) must be dropped —
// the eventual reply answers both — and the reply must go out exactly once.
func TestMasterSuppressesInFlightDuplicate(t *testing.T) {
	l, f, sent := newTestMaster(t)
	join := func() *proto.Msg {
		return &proto.Msg{
			Kind: proto.KSyscallReq, From: 1, To: 0, TID: 5, Seq: 1,
			Num: abi.SysThreadJoin, Args: [6]uint64{uint64(guestos.MainTID)},
		}
	}
	l.deliver(join())
	l.deliver(join()) // retransmit while the join is parked
	if len(*sent) != 0 {
		t.Fatalf("parked join replied early: %+v", *sent)
	}
	if f.cache.Suppressed != 1 {
		t.Fatalf("Suppressed = %d, want 1", f.cache.Suppressed)
	}
	// The joined thread exits: exactly one reply, carrying the join's seq.
	l.deliver(&proto.Msg{
		Kind: proto.KSyscallReq, From: 1, To: 0, TID: guestos.MainTID,
		Num: abi.SysExit,
	})
	if len(*sent) != 1 {
		t.Fatalf("got %d frames after exit, want 1", len(*sent))
	}
	r := (*sent)[0]
	if r.Kind != proto.KSyscallReply || r.TID != 5 || r.Seq != 1 {
		t.Fatalf("unexpected reply %+v", r)
	}
}

// newTestSlave builds a slave-side loop (node 1) whose transmitted frames
// are captured. The retransmitter keeps its own request state, so the tests
// drive it with the frames core would send and receive.
func newTestSlave() (*loop, *retransmitter, *[]*proto.Msg) {
	l := newLoop(1, nil)
	r := newRetransmitter(l)
	l.filter = r
	sent := &[]*proto.Msg{}
	l.out = func(m *proto.Msg) error { *sent = append(*sent, m); return nil }
	return l, r, sent
}

// TestSlaveRetransmitAndReplyDedup drives the slave-side request state
// machine: seq stamping, retransmission ticks, stale-reply drops, and
// duplicate-reply drops after resumption.
func TestSlaveRetransmitAndReplyDedup(t *testing.T) {
	l, r, sent := newTestSlave()
	brk := &proto.Msg{Kind: proto.KSyscallReq, From: 1, To: 0, TID: 7, Num: abi.SysBrk}
	l.Send(brk)
	if len(*sent) != 1 || brk.Seq != 1 || r.pending[7] == nil {
		t.Fatalf("delegate: sent=%d seq=%d pending=%v", len(*sent), brk.Seq, r.pending[7])
	}
	if l.timers.Pending() != 1 {
		t.Fatalf("armed %d retransmission ticks, want 1", l.timers.Pending())
	}

	// A retransmission tick for the outstanding request re-sends it.
	r.tick(7, 1, syscallRTOBase)
	if len(*sent) != 2 || (*sent)[1] != brk || r.pending[7].attempts != 2 {
		t.Fatalf("retransmit: sent=%d attempts=%d", len(*sent), r.pending[7].attempts)
	}
	if l.timers.Pending() != 2 {
		t.Fatalf("the tick did not re-arm: %d timers", l.timers.Pending())
	}

	// A reply with the wrong seq is a stale duplicate: dropped, not fatal.
	if r.inbound(&proto.Msg{Kind: proto.KSyscallReply, TID: 7, Seq: 9, Ret: 1}) ||
		r.pending[7] == nil || l.err != nil {
		t.Fatalf("stale reply: pending=%v err=%v", r.pending[7], l.err)
	}

	// The matching reply passes through to core and retires the request.
	if !r.inbound(&proto.Msg{Kind: proto.KSyscallReply, TID: 7, Seq: 1, Ret: 42}) || r.pending[7] != nil {
		t.Fatalf("matching reply: pending=%v", r.pending[7])
	}

	// A second copy of the same reply (master replayed after a retransmit
	// raced the original answer) must be dropped before core sees a reply
	// for a thread that is no longer waiting.
	if r.inbound(&proto.Msg{Kind: proto.KSyscallReply, TID: 7, Seq: 1, Ret: 42}) || l.err != nil {
		t.Fatalf("duplicate reply passed (err=%v)", l.err)
	}

	// A leftover tick for the answered request is a no-op.
	r.tick(7, 1, syscallRTOBase)
	if len(*sent) != 2 {
		t.Fatalf("answered request retransmitted: sent=%d", len(*sent))
	}

	// The thread's next request takes a higher sequence number; exit is
	// fire-and-forget and stays unsequenced.
	next := &proto.Msg{Kind: proto.KSyscallReq, From: 1, To: 0, TID: 7, Num: abi.SysBrk}
	r.outbound(next)
	exit := &proto.Msg{Kind: proto.KSyscallReq, From: 1, To: 0, TID: 8, Num: abi.SysExit}
	r.outbound(exit)
	if next.Seq != 2 || exit.Seq != 0 || r.pending[8] != nil {
		t.Fatalf("next.Seq=%d exit.Seq=%d pending[8]=%v", next.Seq, exit.Seq, r.pending[8])
	}
}

// TestSlaveSyscallGiveUp: past the wall-clock horizon the node fails with a
// structured SyscallTimeoutError naming the request, instead of wedging
// until the run deadline.
func TestSlaveSyscallGiveUp(t *testing.T) {
	l, r, _ := newTestSlave()
	r.outbound(&proto.Msg{Kind: proto.KSyscallReq, From: 1, To: 0, TID: 3, Num: abi.SysBrk})
	r.pending[3].startNs = l.Now() - int64(syscallGiveUp+time.Second)
	r.tick(3, 1, syscallRTOMax)
	var te *SyscallTimeoutError
	if !errors.As(l.err, &te) {
		t.Fatalf("err = %v, want *SyscallTimeoutError", l.err)
	}
	if te.Node != 1 || te.TID != 3 || te.Num != abi.SysBrk || te.Seq != 1 {
		t.Fatalf("wrong error contents: %+v", te)
	}
}
