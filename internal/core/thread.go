package core

import "dqemu/internal/tcg"

// threadState tracks where a guest thread is in its lifecycle.
type threadState uint8

const (
	tRunnable threadState = iota
	tRunning
	tBlockedPage    // waiting for the coherence protocol
	tBlockedSyscall // waiting for a delegated syscall reply (incl. futex)
	tBlockedTimer   // nanosleep
	tDead
)

func (s threadState) String() string {
	switch s {
	case tRunnable:
		return "runnable"
	case tRunning:
		return "running"
	case tBlockedPage:
		return "page-wait"
	case tBlockedSyscall:
		return "syscall-wait"
	case tBlockedTimer:
		return "sleeping"
	default:
		return "dead"
	}
}

// thread is one guest thread living on one node. The paper migrates
// contexts at creation time (§4.1); here a placed thread can also move later
// (Config.Adaptive): its CPU context ships through the master and a new
// thread value is made on the target node.
type thread struct {
	tid  int64
	cpu  *tcg.CPU
	node *node

	state      threadState
	needWrite  bool   // for tBlockedPage: waiting for write access
	waitPage   uint64 // for tBlockedPage
	blockStart int64

	// The completion slot: a thread has at most one quantum in flight, so
	// its result lives here and done — made once, in addThread — completes
	// it. node.dispatch hands done to Runtime.Ran without allocating.
	res  tcg.Result
	done func()

	// syscallRetry re-runs a node-local syscall whose guest-memory access
	// faulted; the faulting page has been requested and the handler repeats
	// once it arrives.
	syscallRetry func(t *thread)

	// migrating marks a thread the master has asked to move; its context
	// ships to the master the next time it reaches a clean runnable
	// boundary instead of being re-enqueued.
	migrating bool

	// Per-thread time breakdown (Fig. 8): execution, page-fault stall,
	// syscall stall, summed over every node the thread ran on.
	execNs    int64
	faultNs   int64
	syscallNs int64
}

// ThreadStats is the per-thread breakdown reported in results: Node is where
// the thread ended, the times cover every node it ran on.
type ThreadStats struct {
	TID       int64
	Node      int
	ExecNs    int64 `clock:"model"`
	FaultNs   int64
	SyscallNs int64
}
