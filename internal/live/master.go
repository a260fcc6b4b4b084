package live

import (
	"errors"
	"fmt"
	"net"
	"slices"
	"time"

	"dqemu/internal/core"
	"dqemu/internal/image"
	"dqemu/internal/netsim"
	"dqemu/internal/proto"
	"dqemu/internal/recycle"
)

// sender serializes writes to one connection. The outgoing queue absorbs
// bursts without blocking the node loop; when it fills, send applies bounded
// blocking backpressure (up to the node deadline) rather than dropping the
// frame — the protocol assumes a reliable channel, so a silently lost frame
// is corruption, not congestion control.
type sender struct {
	conn     net.Conn
	out      chan *proto.Msg
	err      chan error
	drained  chan struct{}
	deadline time.Time // zero = none; bounds blocking sends and close
}

// queueDepth is how many frames a queue of a connection — a sender's
// outgoing queue, a loop's inbox — holds before it blocks: 16 times the
// deepest either was measured to get. That is 32 frames fault-free, in
// TestLiveMatchesSimulation (9 on the benchmark's live_tcp jobs), and 89
// under a fault plan, whose retransmissions come in bursts (inboxes reached
// 75 there, 190 under the race detector). The queues are made per
// connection per run, so their size is paid on every job; a burst past it
// blocks, as any full queue does.
func queueDepth(faults bool) int {
	if faults {
		return 16 * 89
	}
	return 16 * 32
}

// newSender starts the sender of conn. Fault-free, a frame is the sender's
// once send takes it, and goes back to the frame stock as soon as it is
// encoded (core.KeepFrame); under a fault plan the reliable layer keeps
// frames to send again, and nothing is given back.
func newSender(conn net.Conn, deadline time.Time, faults bool) *sender {
	return newSenderSize(conn, deadline, queueDepth(faults), faults)
}

// newSenderSize exists so tests can exercise queue-overflow backpressure
// without manufacturing a full queue's worth of in-flight frames.
func newSenderSize(conn net.Conn, deadline time.Time, queue int, faults bool) *sender {
	s := &sender{
		conn:     conn,
		out:      make(chan *proto.Msg, queue),
		err:      make(chan error, 1),
		drained:  make(chan struct{}),
		deadline: deadline,
	}
	go func() {
		defer close(s.drained)
		// Every frame is encoded into this one buffer (ioBufs). Only this
		// goroutine sees it: Write does not keep it, the reliable layer keeps
		// messages.
		frame, _ := ioBufs.Get()
		defer func() { putBuf(frame) }()
		for m := range s.out {
			frame = m.AppendFrame(slices.Grow(frame[:0], m.FrameSize()))
			if !faults {
				core.KeepFrame(m)
			}
			if _, err := conn.Write(frame); err != nil {
				select {
				case s.err <- err:
				default:
				}
				return
			}
		}
	}()
	return s
}

// close flushes queued frames (with a deadline) and closes the connection.
func (s *sender) close() {
	close(s.out)
	select {
	case <-s.drained:
	case <-time.After(2 * time.Second):
	}
	s.conn.Close()
}

// abort closes the connection without draining the queue, for boot-failure
// cleanup: the peer is being discarded, so flushing frames to it is wasted
// work, and closing the conn also unblocks its reader goroutine.
func (s *sender) abort() {
	s.conn.Close()
	close(s.out)
	<-s.drained
}

// BackpressureError reports a frame that could not be enqueued before the
// run deadline: the peer stopped draining its connection for longer than the
// run is allowed to take.
type BackpressureError struct {
	Peer    string
	Waited  time.Duration
	Pending int
}

func (e *BackpressureError) Error() string {
	return fmt.Sprintf("live: peer %s stopped draining (%d frames pending, blocked %v)",
		e.Peer, e.Pending, e.Waited.Round(time.Millisecond))
}

func (s *sender) send(m *proto.Msg) error {
	select {
	case err := <-s.err:
		return err
	default:
	}
	select {
	case s.out <- m:
		return nil
	default:
	}
	// Queue full: block — bounded by the node deadline — instead of
	// dropping. TCP delivers every frame or errors; so must we.
	wait := time.Hour
	if !s.deadline.IsZero() {
		wait = time.Until(s.deadline)
	}
	if wait <= 0 {
		return &BackpressureError{Peer: peerName(s.conn), Waited: 0, Pending: len(s.out)}
	}
	start := time.Now()
	timer := time.NewTimer(wait)
	defer timer.Stop()
	select {
	case s.out <- m:
		return nil
	case err := <-s.err:
		return err
	case <-timer.C:
		return &BackpressureError{Peer: peerName(s.conn), Waited: time.Since(start), Pending: len(s.out)}
	}
}

func peerName(conn net.Conn) string {
	if addr := conn.RemoteAddr(); addr != nil {
		return addr.String()
	}
	return "?"
}

// RunMaster accepts cfg.Core.Slaves connections on ln, boots the cluster
// with the given guest image, and runs it to completion as node 0.
//
// The Result is the master process's view: ExitCode, Console and the
// directory and guest-OS statistics are cluster-wide; Threads and most of
// Metrics cover node 0; Nodes covers node 0 here and every node, in node-id
// order, under Run (RunSlave returns each slave's NodeStats). TimeNs is wall
// nanoseconds since the cluster was assembled and Net is zero. Under a fault
// plan Faults counts what the master's injector did to the cluster's frames
// and Rel what the reliable layer did on the master's links (each slave's
// own retransmissions stay in its process).
func RunMaster(ln net.Listener, im *image.Image, cfg Config) (*core.Result, error) {
	if err := cfg.validate(im); err != nil {
		return nil, err
	}
	if cfg.Timeout <= 0 {
		cfg.Timeout = 2 * time.Minute
	}
	deadline := time.Now().Add(cfg.Timeout)
	l := newLoop(0, cfg.Core.Cancel, cfg.Core.Faults.Active())
	if cfg.Core.Faults.Active() {
		l.inj = netsim.NewInjector(*cfg.Core.Faults)
		if cfg.Core.Retry.BaseRTONs <= 0 {
			cfg.Core.Retry = wallRetry
		}
	}

	// The whole boot must finish inside cfg.Timeout: a slave that never
	// connects (or wedges mid-handshake) fails the run with a BootError
	// instead of hanging Accept forever. Any early return tears down what
	// was already accepted — closing a connection also ends its reader
	// goroutine, so a failed boot leaks neither sockets nor goroutines.
	peers, err := bootSlaves(ln, im, cfg.Core, deadline, l)
	abort := func(err error) (*core.Result, error) {
		close(l.quit)
		for _, p := range peers {
			p.abort()
		}
		return nil, err
	}
	if err != nil {
		return abort(err)
	}
	l.out = func(m *proto.Msg) error { return peers[m.To-1].send(m) }

	// The wall clock starts when the cluster is assembled. Node 0 is built
	// last: building it runs the guest's first quantum.
	l.start = time.Now()
	l.deadlineNs, l.timeout = int64(deadline.Sub(l.start)), cfg.Timeout
	if l.cl, err = core.NewLocal(im, cfg.Core, 0, l); err != nil {
		return abort(err)
	}
	for path, data := range cfg.Files {
		l.cl.VFS().AddFile(path, data)
	}

	err = l.run()
	// The loop, the only goroutine that touched the cluster, has ended.
	res := l.cl.End()
	// Tear everything down, flushing the shutdown frames first.
	for _, p := range peers {
		p.close()
	}
	if err != nil {
		return nil, err
	}
	if l.inj != nil {
		res.Faults = l.inj.Stats
	}
	return res, nil
}

// BootError reports a cluster boot that failed while accepting or
// handshaking slave connections.
type BootError struct {
	Slave int    // 1-based id of the slave being booted
	Phase string // "accept" | "init" | "ack"
	Err   error
}

func (e *BootError) Error() string {
	return fmt.Sprintf("live: boot: slave %d: %s: %v", e.Slave, e.Phase, e.Err)
}

func (e *BootError) Unwrap() error { return e.Err }

// Timeout reports whether the boot failed because cfg.Timeout expired.
func (e *BootError) Timeout() bool {
	var ne net.Error
	return errors.As(e.Err, &ne) && ne.Timeout()
}

// bootSlaves accepts and handshakes cfg.Slaves connections, honoring the run
// deadline throughout. On success there is one sender per slave and a reader
// goroutine feeding l from each connection; on error the caller owns cleanup
// of the senders returned so far.
func bootSlaves(ln net.Listener, im *image.Image, cfg core.Config, deadline time.Time, l *loop) ([]*sender, error) {
	// Every stdlib stream listener supports accept deadlines.
	if dl, ok := ln.(interface{ SetDeadline(time.Time) error }); ok {
		dl.SetDeadline(deadline)
		defer dl.SetDeadline(time.Time{})
	}
	imgBytes := im.Encode()
	var peers []*sender
	for id := 1; id <= cfg.Slaves; id++ {
		conn, err := ln.Accept()
		if err != nil {
			return peers, &BootError{Slave: id, Phase: "accept", Err: err}
		}
		failed := func(phase string, err error) ([]*sender, error) {
			conn.Close()
			return peers, &BootError{Slave: id, Phase: phase, Err: err}
		}
		// The handshake itself is covered by the run deadline too; a slave
		// that connects and then stalls must not wedge the boot.
		conn.SetDeadline(deadline)
		if err := proto.WriteMsg(conn, core.InitFrame(cfg, id, imgBytes)); err != nil {
			return failed("init", err)
		}
		if ack, err := proto.ReadMsg(conn); err != nil {
			return failed("ack", err)
		} else if ack.Kind != proto.KInitAck {
			return failed("ack", fmt.Errorf("expected init ack, got %v", ack.Kind))
		}
		// Steady state: senders/readers run without I/O deadlines (the
		// loop enforces the run deadline itself).
		conn.SetDeadline(time.Time{})
		peers = append(peers, newSender(conn, deadline, cfg.Faults.Active()))
		go readFrames(conn, l, int32(id))
	}
	return peers, nil
}

// readFrames is the reader goroutine of the connection to peer: every frame
// goes to the loop, stamped with the link it arrived on — the connection,
// not the frame, says who is talking, and slaves only address the master.
// Frames are read into one buffer, decoded into stock frames that carry
// copies of what they need (core.DecodeFrame). When the connection ends
// (shutdown, or broken) the loop is told last.
func readFrames(conn net.Conn, l *loop, peer int32) {
	buf, _ := ioBufs.Get()
	defer func() { putBuf(buf) }()
	for {
		var m *proto.Msg
		var err error
		if buf, err = proto.ReadFrame(conn, buf); err == nil {
			m, err = core.DecodeFrame(buf)
		}
		if err != nil {
			m = l.gone(peer)
		}
		m.From, m.To = peer, int32(l.id)
		select {
		case l.inbox <- m:
		case <-l.quit:
			return
		}
		if err != nil {
			return
		}
	}
}

// ioBufs keeps, for the next run's connections, the buffers that readers
// read frames into and senders encode frames into. Its cap is the most in
// use at once in this package's tests, 16; on the benchmark it is 8
// (live_tcp's four connection ends of two slaves, each with a reader and a
// sender), none over 6 KiB. One grown past maxKeptBuf is left to the
// garbage collector.
var ioBufs = recycle.New[[]byte]("live.buffers", 16)

const maxKeptBuf = 64 << 10

func putBuf(b []byte) {
	if cap(b) <= maxKeptBuf {
		ioBufs.Put(b[:0])
	}
}
