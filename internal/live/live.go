// Package live runs a DQEMU cluster over real TCP with true concurrency,
// one node per goroutine or process. The protocol engine — node loop, page
// faults, syscall delegation, directory, placement, the wire layer — is
// internal/core's, the code the deterministic simulation runs; this package
// is the other core.Runtime: the wall clock, a timer heap, and
// length-prefixed frames (internal/proto) on sockets. What lives here is
// what is about sockets: the deadline-bounded handshake, senders with
// blocking backpressure, reader goroutines, the event loop, Timeout and
// Cancel, and exactly-once delegated syscalls across retransmission.
//
// Usage: the master listens, slaves connect (RunSlave); the master ships
// the guest image and the node configuration in a KInit frame, places
// threads, and the guest runs until exit_group. See cmd/dqemu-live.
package live

import (
	"fmt"
	"time"

	"dqemu/internal/core"
	"dqemu/internal/proto"
	"dqemu/internal/sim"
)

// Config configures a live cluster.
type Config struct {
	// Core is the cluster shape and every protocol knob, meaning what it
	// means under the simulator: Slaves is how many connections the master
	// waits for, Cancel aborts the run with ErrCanceled, Stdout receives the
	// console. The master ships the part slaves need (core.InitFrame). Net,
	// Cost and MaxTimeNs model time and do nothing here; Faults, Adaptive,
	// MaxSlaves > Slaves and Sanitizer are rejected (validate).
	Core core.Config

	// Timeout aborts a wedged run (default 2 minutes), boot included: a
	// slave that never connects fails RunMaster with a BootError.
	Timeout time.Duration
	// Files pre-populates the guest VFS.
	Files map[string][]byte
}

// validate rejects, naming the field, the four Config.Core settings whose
// implementation reads other nodes' state in-process or needs the simulated
// network: ignoring them would report a run that did not happen.
func (c *Config) validate() error {
	k := &c.Core
	for _, r := range []struct {
		set        bool
		field, why string
	}{
		{k.Faults.Active(), "Faults", "the fault plan is injected by the simulated network"},
		{k.Adaptive, "Adaptive", "the feedback scheduler steers by a metrics registry every node feeds in-process"},
		{k.MaxSlaves > k.Slaves, "MaxSlaves", "standby slaves are activated by the feedback scheduler"},
		{k.Sanitizer, "Sanitizer", "the race report is assembled from every node's shadow state in-process"},
	} {
		if r.set {
			return fmt.Errorf("live: Config.Core.%s is not supported over real sockets: %s", r.field, r.why)
		}
	}
	return nil
}

// Result reports a finished live run.
type Result struct {
	// Result is the master process's view: ExitCode, Console and the
	// directory and guest-OS statistics are cluster-wide; Nodes, Threads
	// and most of Metrics cover node 0 (RunSlave returns each slave's
	// NodeStats); TimeNs is wall nanoseconds; Net, Faults and Rel are zero.
	*core.Result
	Wall time.Duration
}

// ErrCanceled is what a node reports when Config.Core.Cancel closes mid-run
// (the simulator's sentinel too).
var ErrCanceled = core.ErrCanceled

// filter sits between the sockets and core and sees every frame that
// arrives from or leaves for another process (retry.go).
type filter interface {
	// inbound reports whether core should see the frame.
	inbound(m *proto.Msg) bool
	// outbound may stamp the frame before it is transmitted.
	outbound(m *proto.Msg)
}

// loop is the wall-clock core.Runtime of one node: one goroutine (run) owns
// the core.Cluster and all it reaches; connection readers only feed inbox.
// Two properties keep a cluster of loops live:
//
//   - run fires one due event — typically the completion of a guest
//     quantum, which dispatches the next — then handles at most one inbound
//     frame. A freshly granted page is thus usable before the revocation
//     queued behind it (draining the inbox first would let the fetch win
//     every time: a cross-node livelock), and a node spinning on a lock
//     still serves fetches.
//   - a frame a node addresses to itself (the master's own page requests
//     and delegated syscalls) is queued as an event, never delivered inside
//     Send: core's handlers are not re-entrant. The simulator posts such
//     frames at +LocalNs for the same reason.
type loop struct {
	id int
	cl *core.Cluster

	// timers serves as a heap of (wall ns since start, fn) events.
	timers     *sim.Kernel
	start      time.Time
	deadlineNs int64         // Now() past which the run fails; 0 = none
	timeout    time.Duration // the configured Timeout, for the message
	cancel     <-chan struct{}

	// inbox carries frames from the connection readers. Its buffer absorbs
	// a burst (a grant storm after a barrier) so readers, and through TCP
	// flow control the sending peers, rarely wait on this loop.
	inbox chan *proto.Msg
	// quit is closed when run returns, releasing readers blocked on inbox.
	quit chan struct{}

	out    func(*proto.Msg) error // transmits a frame to another process
	filter filter

	err error
}

func newLoop(id int, cancel <-chan struct{}) *loop {
	return &loop{
		id:     id,
		timers: sim.NewKernel(),
		start:  time.Now(),
		cancel: cancel,
		inbox:  make(chan *proto.Msg, 1024),
		quit:   make(chan struct{}),
	}
}

// ---- core.Runtime ----

func (l *loop) Now() int64                { return int64(time.Since(l.start)) }
func (l *loop) After(ns int64, fn func()) { l.timers.PostAt(l.Now()+ns, fn) }

// Ran completes an executed quantum at once (see core.Runtime).
func (l *loop) Ran(_ int64, fn func()) { l.After(0, fn) }

func (l *loop) Send(m *proto.Msg) {
	if int(m.To) == l.id {
		l.After(0, func() { l.cl.Deliver(m) })
		return
	}
	l.filter.outbound(m)
	l.transmit(m)
}

// transmit puts a frame on its connection; a transport error fails the run
// unless it is already over (peers hang up after shutdown).
func (l *loop) transmit(m *proto.Msg) {
	if err := l.out(m); err != nil && !l.cl.Done() {
		l.fail(fmt.Errorf("live: node %d send: %w", l.id, err))
	}
}

func (l *loop) fail(err error) {
	if l.err == nil {
		l.err = err
	}
}

func (l *loop) deliver(m *proto.Msg) {
	if l.filter.inbound(m) {
		l.cl.Deliver(m)
	}
}

// run drives the node until the guest exits, the master shuts the run down,
// a node or the transport fails, the deadline passes or cancel closes.
func (l *loop) run() error {
	defer close(l.quit)
	for l.err == nil && !l.cl.Done() {
		now := l.Now()
		if l.deadlineNs > 0 && now > l.deadlineNs {
			return fmt.Errorf("live: run exceeded %v; node %d state: %s", l.timeout, l.id, l.cl.ThreadDump())
		}
		select {
		case <-l.cancel: // nil channel when no canceler is attached
			return fmt.Errorf("live: node %d: %w", l.id, ErrCanceled)
		default:
		}
		if l.timers.Pending() > 0 && l.timers.NextAt() <= now {
			l.timers.Step()
			select {
			case m := <-l.inbox:
				l.deliver(m)
			default:
			}
			continue
		}
		// Idle until a frame, the next timer, or the deadline re-check.
		wait := time.Second
		if l.timers.Pending() > 0 {
			wait = min(wait, time.Duration(l.timers.NextAt()-now))
		}
		idle := time.NewTimer(wait)
		select {
		case m := <-l.inbox:
			l.deliver(m)
		case <-l.cancel:
		case <-idle.C:
		}
		idle.Stop()
	}
	l.fail(l.cl.Err()) // a transport failure, if any, came first and stays
	return l.err
}
