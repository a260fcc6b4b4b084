package proto

// ReplayCache deduplicates delegated syscall requests on the master. A slave
// that retries a KSyscallReq after a timeout may deliver the same request
// twice; executing a non-idempotent syscall (futex wake, thread create,
// write) twice would corrupt guest state. The cache keys requests by
// (tid, seq): a duplicate of a completed request replays the saved reply, a
// duplicate of an in-flight request (e.g. a futex wait whose reply is
// parked) is dropped — the eventual reply answers both.
type ReplayCache struct {
	byTID map[int64]*replayEntry
	// Replayed counts duplicate requests answered from the cache.
	Replayed uint64
	// Suppressed counts duplicates of still-in-flight requests dropped.
	Suppressed uint64
}

type replayEntry struct {
	seq  uint64 // highest request seq seen for this tid
	done bool   // reply for seq already sent
	ret  uint64 // saved return value when done
}

// NewReplayCache returns an empty cache.
func NewReplayCache() *ReplayCache {
	return &ReplayCache{byTID: map[int64]*replayEntry{}}
}

// Outcome classifies an incoming request.
type Outcome int

const (
	// Execute: a fresh request; the caller must run it and call Complete.
	Execute Outcome = iota
	// Replay: a duplicate of a completed request; Ret holds the saved reply.
	Replay
	// Suppress: a duplicate of an in-flight request; drop it.
	Suppress
)

// Admit classifies a request with the given per-thread sequence number.
// Seq 0 is treated as unsequenced and always executes (legacy callers).
func (c *ReplayCache) Admit(tid int64, seq uint64) (Outcome, uint64) {
	if seq == 0 {
		return Execute, 0
	}
	e := c.byTID[tid]
	if e == nil {
		e = &replayEntry{}
		c.byTID[tid] = e
	}
	if seq > e.seq {
		e.seq, e.done, e.ret = seq, false, 0
		return Execute, 0
	}
	if seq == e.seq {
		if e.done {
			c.Replayed++
			return Replay, e.ret
		}
		c.Suppressed++
		return Suppress, 0
	}
	// Older than the newest request from this thread: the slave has moved
	// on, its reply can no longer be wanted.
	c.Suppressed++
	return Suppress, 0
}

// Complete records the reply for the thread's current request so later
// duplicates replay it instead of re-executing.
func (c *ReplayCache) Complete(tid int64, seq uint64, ret uint64) {
	if seq == 0 {
		return
	}
	e := c.byTID[tid]
	if e == nil || e.seq != seq {
		return
	}
	e.done, e.ret = true, ret
}

// Executing returns the sequence number of the thread's request that was
// admitted for execution and has not completed — the one the next reply to
// the thread answers.
func (c *ReplayCache) Executing(tid int64) (seq uint64, ok bool) {
	e := c.byTID[tid]
	if e == nil || e.done {
		return 0, false
	}
	return e.seq, true
}

// Forget drops a thread's state (thread exit).
func (c *ReplayCache) Forget(tid int64) { delete(c.byTID, tid) }
