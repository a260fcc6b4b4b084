// Package live runs a DQEMU cluster over real TCP with true concurrency,
// one node per goroutine or process. The protocol engine — node loop, page
// faults, syscall delegation, directory, placement, the wire layer — is
// internal/core's, the code the deterministic simulation runs; this package
// is the other core.Runtime: the wall clock, a timer heap, and
// length-prefixed frames (internal/proto) on sockets. What lives here is
// what is about sockets: the deadline-bounded handshake, senders with
// blocking backpressure, reader goroutines, the event loop, Timeout and
// Cancel, a slave whose connection ends mid-run, and — under a fault plan —
// the master's end of every connection as the place the plan is injected.
//
// Frames make the round trip through the process's frame stock, as they do
// under the simulator (core.KeepFrame): a connection's reader reads every
// frame into one buffer and decodes it into a stock message, copying what
// the frame carries into stock memory (core.DecodeFrame), the node's
// handler gives the frame back when it returns, and a sender gives back
// every frame it has encoded. Under a fault plan the reliable layer keeps
// frames to send again, and neither end gives any back. The connections'
// buffers go to the next run's connections.
//
// Usage: the master listens (RunMaster), slaves connect (RunSlave); the
// master ships the guest image and its core.Config — shape, knobs, fault
// plan and retry policy, as JSON — in a KInit frame, so every slave runs the
// configuration the master runs, as every simulated node does. The master
// places threads, and the guest runs until exit_group. Run boots such a
// cluster inside one process; cmd/dqemu -listen/-connect runs one node per
// process. Each node ends its run in core.Cluster.End, which takes the
// node's core.Result and hands what the run allocated to the next run in
// the process; Run and RunMaster report that record, with TimeNs in wall
// nanoseconds.
package live

import (
	"errors"
	"fmt"
	"net"
	"time"

	"dqemu/internal/core"
	"dqemu/internal/image"
	"dqemu/internal/netsim"
	"dqemu/internal/proto"
	"dqemu/internal/sim"
)

// Config configures a live cluster.
type Config struct {
	// Core is the cluster shape and every protocol knob, meaning what it
	// means under the simulator: Slaves is how many connections the master
	// waits for, Cancel aborts the run with ErrCanceled, Stdout receives the
	// console. The master ships Shape, Knobs, Faults and Retry to every
	// slave (core.InitFrame); Stdout, Cancel and Tracer stay with the master.
	// Net models time and does nothing here; Adaptive and Sanitizer are
	// rejected (validate).
	//
	// Faults is injected by the master, on every frame it puts on or takes
	// off a socket — every link, since slaves only address the master — by
	// the decision code the simulated network runs (netsim.Injector), with
	// the plan's times read as wall nanoseconds since the run started. A
	// crashed slave is cut off, not killed: the run ends in a
	// *core.NodeLostError when the master's retransmissions to it give up.
	// A zero Retry becomes wallRetry.
	Core core.Config

	// Timeout aborts a wedged run (default 2 minutes), boot included: a
	// slave that never connects fails RunMaster with a BootError.
	Timeout time.Duration
	// Files pre-populates the guest VFS.
	Files map[string][]byte
}

// wallRetry is the reliable layer's policy on the wall clock, where a
// retransmission timeout has to outlast a descheduled peer, not 56 µs of
// modelled round trip: 50 ms doubling to 2 s, a peer declared lost after
// about 15 s of silence.
var wallRetry = netsim.RetryPolicy{
	BaseRTONs:   int64(50 * time.Millisecond),
	MaxRTONs:    int64(2 * time.Second),
	MaxAttempts: 12,
}

// validate rejects, before a connection is accepted, a cluster that could
// not boot im: an invalid Config.Core, an image whose pages would take the
// cluster over image.MaxMemBytes (core.CheckFootprint), and — naming the
// field — the two Config.Core settings whose implementation reads other
// nodes' state in-process: ignoring them would report a run that did not
// happen.
func (c *Config) validate(im *image.Image) error {
	k := &c.Core
	if err := k.Check(); err != nil {
		return err
	}
	if err := core.CheckFootprint(im, k.Slaves); err != nil {
		return err
	}
	for _, r := range []struct {
		set        bool
		field, why string
	}{
		{k.Adaptive, "Adaptive", "the feedback scheduler steers by a metrics registry every node feeds in-process"},
		{k.Sanitizer, "Sanitizer", "the race report is assembled from every node's shadow state in-process"},
	} {
		if r.set {
			return fmt.Errorf("live: Config.Core.%s is not supported over real sockets: %s", r.field, r.why)
		}
	}
	return nil
}

// ErrCanceled is what a node reports when Config.Core.Cancel closes mid-run
// (the simulator's sentinel too).
var ErrCanceled = core.ErrCanceled

// Run boots a whole cluster in this process — a master listening on
// loopback and cfg.Core.Slaves RunSlave goroutines dialling it — and runs
// im on it to completion. A master error is returned as it is, so errors.Is
// and errors.As find it first; the slaves' errors are joined after it, each
// naming its node if it ran one.
func Run(im *image.Image, cfg Config) (*core.Result, error) {
	if err := cfg.validate(im); err != nil {
		return nil, err
	}
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return nil, fmt.Errorf("live: %w", err)
	}
	type slaveEnd struct {
		stats core.NodeStats
		err   error
	}
	ends := make(chan slaveEnd, cfg.Core.Slaves)
	for range cfg.Core.Slaves {
		go func() {
			stats, err := RunSlave(ln.Addr().String())
			ends <- slaveEnd{stats, err}
		}()
	}
	// Cancel reaches the master's node loop, not its boot (accept, handshake):
	// closing the listener turns a cancel during boot into a BootError.
	mastered := make(chan struct{})
	go func() {
		select {
		case <-cfg.Core.Cancel:
			ln.Close()
		case <-mastered:
		}
	}()
	res, err := RunMaster(ln, im, cfg)
	close(mastered)
	// A boot failure leaves slaves in the accept backlog, whose handshake
	// reads fail only once the listener is closed.
	ln.Close()
	nodes := make([]core.NodeStats, 1+cfg.Core.Slaves) // by node id
	errs := []error{err}
	for range cfg.Core.Slaves {
		switch s := <-ends; {
		case s.err == nil:
			nodes[s.stats.Node] = s.stats
		case s.stats.Node == 0: // it failed before it ran a node
			errs = append(errs, fmt.Errorf("live: slave: %w", s.err))
		default:
			errs = append(errs, fmt.Errorf("live: slave node %d: %w", s.stats.Node, s.err))
		}
	}
	if len(errs) > 1 {
		err = errors.Join(errs...)
	}
	if err != nil {
		return nil, err
	}
	nodes[0] = res.Nodes[0]
	res.Nodes = nodes
	return res, nil
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

	// inbox carries frames from the connection readers. Its buffer
	// (queueDepth) absorbs a burst (a grant storm after a barrier) so
	// readers, and through TCP flow control the sending peers, rarely wait
	// on this loop.
	inbox chan *proto.Msg
	// quit is closed when run returns, releasing readers blocked on inbox.
	quit chan struct{}

	out func(*proto.Msg) error // puts a frame on its connection
	// deliverLocal hands a frame this node sent itself to the cluster; made
	// once, it is the handler of the timer event that carries the frame.
	deliverLocal func(any)
	// inj, on a master running a fault plan, decides the fate of every frame
	// that crosses a socket in either direction; nil elsewhere.
	inj *netsim.Injector
}

func newLoop(id int, cancel <-chan struct{}, faults bool) *loop {
	l := &loop{
		id:     id,
		timers: sim.NewKernel(),
		start:  time.Now(),
		cancel: cancel,
		inbox:  make(chan *proto.Msg, queueDepth(faults)),
		quit:   make(chan struct{}),
	}
	l.deliverLocal = func(m any) { l.cl.Deliver(m.(*proto.Msg)) }
	return l
}

// ---- core.Runtime ----

func (l *loop) Now() int64                { return int64(time.Since(l.start)) }
func (l *loop) After(ns int64, fn func()) { l.timers.PostAt(l.Now()+ns, fn) }

// Ran completes an executed quantum at once (see core.Runtime).
func (l *loop) Ran(_ int64, fn func()) { l.After(0, fn) }

func (l *loop) Send(m *proto.Msg) {
	if int(m.To) == l.id {
		l.timers.PostArgAt(l.Now(), l.deliverLocal, m)
		return
	}
	if l.inj == nil { // no method value is made per frame: it would be allocated
		l.transmit(m)
		return
	}
	l.inject(m, l.transmit)
}

// transmit puts a frame on its connection. A connection that fails has lost
// its peer, which the loop is told the way the connection's reader would
// tell it — as an event of its own: core's handlers, which call Send, are
// not re-entrant.
func (l *loop) transmit(m *proto.Msg) {
	to := m.To // once out takes m, its sender may give it back to the stock
	if l.out(m) != nil {
		l.After(0, func() { l.deliver(l.gone(to)) })
	}
}

// gone is the frame that tells the loop its connection to peer has ended: a
// KShutdown from it. For a slave that is the master's shutdown, sent or not:
// the run is over. For the master it is a lost node, unless the run is over.
func (l *loop) gone(peer int32) *proto.Msg {
	return &proto.Msg{Kind: proto.KShutdown, From: peer, To: int32(l.id)}
}

// inject passes a frame between core and a socket, in either direction,
// through the fault plan: what netsim.Network.Send does to a message of the
// simulation, with timers for the wire's delays.
func (l *loop) inject(m *proto.Msg, pass func(*proto.Msg)) {
	fate := l.inj.Decide(m.From, m.To, l.Now())
	if fate.Lost {
		return
	}
	l.After(fate.DelayNs, func() { l.arrive(m, pass) })
	if fate.Dup {
		c := *m
		l.After(fate.DupDelayNs, func() { l.arrive(&c, pass) })
	}
}

// arrive is the receiving end of inject: the frame is lost to a crashed
// node and waits out a stalled one.
func (l *loop) arrive(m *proto.Msg, pass func(*proto.Msg)) {
	now := l.Now()
	switch hold, lost := l.inj.Arrive(m.To, now); {
	case lost:
	case hold > 0:
		l.After(hold-now, func() { l.arrive(m, pass) })
	default:
		pass(m)
	}
}

// deliver takes a frame from a connection reader, or a connection's end
// (gone).
func (l *loop) deliver(m *proto.Msg) {
	if l.id == 0 && m.Kind == proto.KShutdown {
		l.cl.NodeGone(int(m.From))
		return
	}
	if l.inj == nil {
		l.cl.Deliver(m)
		return
	}
	l.inject(m, l.cl.Deliver)
}

// run drives the node until the guest exits, the master shuts the run down,
// a node or the transport fails, the deadline passes or cancel closes.
func (l *loop) run() error {
	defer close(l.quit)
	// One timer serves every idle pass, stopped and drained before each Reset:
	// under go.mod's go 1.22 a tick nobody read would end the next wait at once.
	idle := time.NewTimer(time.Hour)
	defer idle.Stop()
	for !l.cl.Done() {
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
		if !idle.Stop() {
			select {
			case <-idle.C:
			default:
			}
		}
		idle.Reset(wait)
		select {
		case m := <-l.inbox:
			l.deliver(m)
		case <-l.cancel:
		case <-idle.C:
		}
	}
	return l.cl.Err()
}
