package live

import (
	"fmt"
	"math/rand"
	"time"

	"dqemu/internal/abi"
	"dqemu/internal/proto"
)

// Exactly-once delegated syscalls. A slave's KSyscallReq whose reply has
// not arrived is re-sent with exponential backoff; the master's replay
// cache (proto.ReplayCache) makes the duplicates harmless. Both halves are
// frame filters at the transport boundary, not core's business: under the
// simulator the reliable transport owns Msg.Seq, and RTO timers would fire
// during long futex waits and move every exact counter. The give-up horizon
// is wall-clock, not attempt-count: a reply may stay parked (a futex wait)
// for as long as the guest blocks.
const (
	syscallRTOBase = 50 * time.Millisecond
	syscallRTOMax  = 2 * time.Second
	syscallGiveUp  = 30 * time.Second
)

// SyscallTimeoutError reports a delegated syscall the master never answered
// within the give-up horizon despite retransmissions.
type SyscallTimeoutError struct {
	Node     int
	TID      int64
	Num      int64
	Seq      uint64
	Attempts int
	Elapsed  time.Duration
}

func (e *SyscallTimeoutError) Error() string {
	return fmt.Sprintf("live: node %d: syscall %d (tid %d, seq %d) unanswered after %d attempts over %v",
		e.Node, e.Num, e.TID, e.Seq, e.Attempts, e.Elapsed.Round(time.Millisecond))
}

// repliesTo reports whether a delegated syscall is ever answered: exit and
// exit_group are fire-and-forget, and stay unsequenced and unarmed.
func repliesTo(num int64) bool { return num != abi.SysExit && num != abi.SysExitGroup }

// delegation is one outstanding KSyscallReq of a thread on this slave.
type delegation struct {
	msg      *proto.Msg
	startNs  int64 // loop clock at the first transmission
	attempts int
}

// retransmitter is the slave-side filter: it stamps each delegated syscall
// with a sequence number that grows per thread (the master's dedup key),
// re-sends it until the matching reply arrives, and drops replies that match
// nothing outstanding — a retransmitted request can draw two answers (the
// original and a cache replay); exactly-once is the (tid, seq) pair's job.
type retransmitter struct {
	l       *loop
	seq     uint64 // last sequence number used on this node
	pending map[int64]*delegation
	// rng jitters the backoff (see tick). Live runs are wall-clock
	// scheduled, so a per-node seed costs no determinism.
	rng *rand.Rand
}

func newRetransmitter(l *loop) *retransmitter {
	seed := time.Now().UnixNano() ^ int64(l.id)<<32
	return &retransmitter{l: l, pending: map[int64]*delegation{}, rng: rand.New(rand.NewSource(seed))}
}

func (r *retransmitter) outbound(m *proto.Msg) {
	if m.Kind != proto.KSyscallReq || !repliesTo(m.Num) {
		return
	}
	r.seq++
	m.Seq = r.seq
	r.pending[m.TID] = &delegation{msg: m, startNs: r.l.Now(), attempts: 1}
	r.l.After(int64(syscallRTOBase), func() { r.tick(m.TID, m.Seq, syscallRTOBase) })
}

func (r *retransmitter) inbound(m *proto.Msg) bool {
	if m.Kind != proto.KSyscallReply {
		return true
	}
	d := r.pending[m.TID]
	if d == nil || (m.Seq != 0 && m.Seq != d.msg.Seq) {
		return false // stale: a duplicate, or the answer to a superseded request
	}
	delete(r.pending, m.TID)
	return true
}

// tick re-sends an unanswered request, doubling the RTO up to a cap, and
// fails the run with a structured error past the give-up horizon. The
// (tid, seq) pair makes a tick self-invalidating: once the request is
// answered or superseded it no-ops.
func (r *retransmitter) tick(tid int64, seq uint64, rto time.Duration) {
	d := r.pending[tid]
	if d == nil || d.msg.Seq != seq {
		return
	}
	if elapsed := time.Duration(r.l.Now() - d.startNs); elapsed > syscallGiveUp {
		r.l.fail(&SyscallTimeoutError{Node: r.l.id, TID: tid, Num: d.msg.Num, Seq: seq, Attempts: d.attempts, Elapsed: elapsed})
		return
	}
	d.attempts++
	r.l.transmit(d.msg)
	next := min(rto*2, syscallRTOMax)
	// Jitter into [next/2, next]: slaves whose requests all timed out on the
	// same stall would otherwise retransmit in phase and storm the master.
	next = next/2 + time.Duration(r.rng.Int63n(int64(next/2)+1))
	r.l.After(int64(next), func() { r.tick(tid, seq, next) })
}

// replayFilter is the master-side filter: proto.ReplayCache in front of
// delivery. A duplicate of a completed request is answered from the saved
// reply; a duplicate of one whose reply is still parked (a futex wait, a
// join) is dropped — the eventual reply answers both — so a non-idempotent
// syscall never runs twice.
type replayFilter struct {
	l     *loop
	cache *proto.ReplayCache
}

func (f *replayFilter) inbound(m *proto.Msg) bool {
	switch m.Kind {
	case proto.KSyscallReq:
		if !repliesTo(m.Num) {
			f.cache.Forget(m.TID) // the thread is gone; its dedup state goes with it
			return true
		}
		switch outcome, ret := f.cache.Admit(m.TID, m.Seq); outcome {
		case proto.Replay:
			f.l.transmit(&proto.Msg{
				Kind: proto.KSyscallReply, From: 0, To: m.From,
				TID: m.TID, Seq: m.Seq, Ret: ret,
			})
			return false
		case proto.Suppress:
			return false // in flight or superseded: the reply owed is on its way
		}
	case proto.KMigrateCtx:
		// The thread moves to a node whose sequence numbers start over. A
		// context ships only from a clean boundary (no syscall outstanding)
		// and the link is FIFO: no old duplicate can arrive behind this.
		f.cache.Forget(m.TID)
	}
	return true
}

// outbound stamps core's reply with the sequence number of the request it
// answers and saves it for replay.
func (f *replayFilter) outbound(m *proto.Msg) {
	if m.Kind != proto.KSyscallReply {
		return
	}
	if seq, ok := f.cache.Executing(m.TID); ok {
		m.Seq = seq
		f.cache.Complete(m.TID, seq, m.Ret)
	}
}
