package live

import (
	"bytes"
	"errors"
	"fmt"
	"net"
	"runtime"
	"testing"
	"time"
	"unsafe"

	"dqemu/internal/core"
	"dqemu/internal/proto"
)

// TestMasterAcceptTimeout: a slave that never connects must fail the master
// with a structured BootError within cfg.Timeout — not hang Accept forever.
func TestMasterAcceptTimeout(t *testing.T) {
	im := build(t, `long main() { return 0; }`)
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer ln.Close()

	start := time.Now()
	done := make(chan error, 1)
	go func() {
		_, err := RunMaster(ln, im, Config{Core: core.Config{Shape: core.Shape{Slaves: 1}}, Timeout: 300 * time.Millisecond})
		done <- err
	}()
	select {
	case err := <-done:
		if err == nil {
			t.Fatal("RunMaster succeeded with no slave")
		}
		var boot *BootError
		if !errors.As(err, &boot) {
			t.Fatalf("want BootError, got %T: %v", err, err)
		}
		if boot.Phase != "accept" || boot.Slave != 1 || !boot.Timeout() {
			t.Errorf("BootError = phase=%q slave=%d timeout=%v (%v)", boot.Phase, boot.Slave, boot.Timeout(), err)
		}
		if elapsed := time.Since(start); elapsed > 5*time.Second {
			t.Errorf("took %v, should fail near the 300ms deadline", elapsed)
		}
	case <-time.After(10 * time.Second):
		t.Fatal("RunMaster still hung 10s after a 300ms deadline")
	}
}

// TestMasterHandshakeFailureCleansUp: when a later slave dies mid-handshake,
// the master must close the already-accepted peer connections (which also
// ends their reader goroutines) before returning.
func TestMasterHandshakeFailureCleansUp(t *testing.T) {
	im := build(t, `long main() { return 0; }`)
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer ln.Close()
	addr := ln.Addr().String()

	before := runtime.NumGoroutine()

	// Slave 1 handshakes correctly, then just sits there.
	good, err := net.Dial("tcp", addr)
	if err != nil {
		t.Fatal(err)
	}
	defer good.Close()
	goodReady := make(chan error, 1)
	go func() {
		init, err := proto.ReadMsg(good)
		if err != nil {
			goodReady <- err
			return
		}
		if init.Kind != proto.KInit {
			goodReady <- errors.New("expected KInit")
			return
		}
		goodReady <- proto.WriteMsg(good, &proto.Msg{Kind: proto.KInitAck, From: int32(init.Num)})
	}()

	// Slave 2 connects and slams the door before acking.
	masterDone := make(chan error, 1)
	go func() {
		_, err := RunMaster(ln, im, Config{Core: core.Config{Shape: core.Shape{Slaves: 2}}, Timeout: 5 * time.Second})
		masterDone <- err
	}()
	if err := <-goodReady; err != nil {
		t.Fatal(err)
	}
	bad, err := net.Dial("tcp", addr)
	if err != nil {
		t.Fatal(err)
	}
	bad.Close()

	var bootErr error
	select {
	case bootErr = <-masterDone:
	case <-time.After(10 * time.Second):
		t.Fatal("master did not notice the dead slave")
	}
	if bootErr == nil {
		t.Fatal("RunMaster succeeded despite a slave dying mid-handshake")
	}
	var boot *BootError
	if !errors.As(bootErr, &boot) {
		t.Fatalf("want BootError, got %T: %v", bootErr, bootErr)
	}
	if boot.Slave != 2 {
		t.Errorf("failing slave = %d, want 2", boot.Slave)
	}

	// The healthy peer's connection must have been closed by the cleanup:
	// a read on it unblocks with an error instead of hanging.
	good.SetReadDeadline(time.Now().Add(5 * time.Second))
	if _, err := proto.ReadMsg(good); err == nil {
		t.Error("accepted peer connection still open after failed boot")
	} else if ne, ok := err.(net.Error); ok && ne.Timeout() {
		t.Error("accepted peer connection leaked: read timed out instead of seeing close")
	}

	// Reader goroutines must be gone too. Allow slack for unrelated runtime
	// goroutines; a leak per failed boot would show up as monotonic growth.
	deadline := time.Now().Add(5 * time.Second)
	for time.Now().Before(deadline) {
		if runtime.NumGoroutine() <= before+2 {
			return
		}
		time.Sleep(10 * time.Millisecond)
	}
	t.Errorf("goroutines: before boot %d, after failed boot %d", before, runtime.NumGoroutine())
}

// TestSlaveHangUpFailsFast: a slave whose connection ends mid-run must fail
// the run at once with a *core.NodeLostError naming it — not leave the master
// waiting out Timeout for replies that cannot come — and the master must
// leave neither goroutine nor socket behind.
func TestSlaveHangUpFailsFast(t *testing.T) {
	im := build(t, `
long worker(long a) { return 0; }
long main() {
	thread_join(thread_create((long)worker, 0));
	return 0;
}`)
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer ln.Close()
	before := runtime.NumGoroutine()

	const timeout = 30 * time.Second
	start := time.Now()
	masterDone := make(chan error, 1)
	go func() {
		_, err := RunMaster(ln, im, Config{Core: core.Config{Shape: core.Shape{Slaves: 1}}, Timeout: timeout})
		masterDone <- err
	}()

	// The slave, by hand: handshake, take the first frame of the run (the
	// worker thread's start), hang up.
	conn, err := net.Dial("tcp", ln.Addr().String())
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Close()
	conn.SetDeadline(time.Now().Add(10 * time.Second))
	if init, err := proto.ReadMsg(conn); err != nil || init.Kind != proto.KInit {
		t.Fatalf("handshake: %v, %v", init, err)
	}
	if err := proto.WriteMsg(conn, &proto.Msg{Kind: proto.KInitAck, From: 1}); err != nil {
		t.Fatal(err)
	}
	if m, err := proto.ReadMsg(conn); err != nil || m.Kind != proto.KThreadStart {
		t.Fatalf("first frame: %v, %v", m, err)
	}
	conn.Close()

	select {
	case err = <-masterDone:
	case <-time.After(timeout):
		t.Fatal("master still running")
	}
	var lost *core.NodeLostError
	if !errors.As(err, &lost) || lost.Node != 1 {
		t.Fatalf("want a NodeLostError naming node 1, got %T: %v", err, err)
	}
	if elapsed := time.Since(start); elapsed > timeout/10 {
		t.Errorf("took %v of a %v Timeout to notice", elapsed, timeout)
	}
	for deadline := time.Now().Add(5 * time.Second); runtime.NumGoroutine() > before+2; {
		if time.Now().After(deadline) {
			t.Fatalf("goroutines: before %d, after the failed run %d", before, runtime.NumGoroutine())
		}
		time.Sleep(10 * time.Millisecond)
	}
}

// TestSenderBackpressure: a full outgoing queue must block (bounded by the
// deadline) and then deliver — never silently drop a frame.
func TestSenderBackpressure(t *testing.T) {
	client, srv := net.Pipe()
	defer srv.Close()
	s := newSenderSize(client, time.Now().Add(30*time.Second), 1, false)

	// net.Pipe has no buffering: the writer goroutine blocks inside
	// WriteMsg on the first frame, the second fills the 1-slot queue, so
	// the third send must take the blocking path.
	msg := func(n int64) *proto.Msg { return &proto.Msg{Kind: proto.KRetry, Num: n} }
	if err := s.send(msg(1)); err != nil {
		t.Fatal(err)
	}
	// Wait for the writer goroutine to pull frame 1 and wedge in WriteMsg.
	deadline := time.Now().Add(2 * time.Second)
	for len(s.out) != 0 && time.Now().Before(deadline) {
		time.Sleep(time.Millisecond)
	}
	if err := s.send(msg(2)); err != nil {
		t.Fatal(err)
	}

	sent := make(chan error, 1)
	go func() { sent <- s.send(msg(3)) }()
	select {
	case err := <-sent:
		t.Fatalf("send returned %v with a full queue and no reader", err)
	case <-time.After(100 * time.Millisecond):
		// Blocked, as it must be.
	}

	// Start draining; every frame must arrive, in order.
	got := make(chan int64, 3)
	go func() {
		for i := 0; i < 3; i++ {
			m, err := proto.ReadMsg(srv)
			if err != nil {
				close(got)
				return
			}
			got <- m.Num
		}
	}()
	if err := <-sent; err != nil {
		t.Fatalf("blocked send failed after reader appeared: %v", err)
	}
	for want := int64(1); want <= 3; want++ {
		select {
		case num, ok := <-got:
			if !ok || num != want {
				t.Fatalf("frame %d: got %d (ok=%v)", want, num, ok)
			}
		case <-time.After(5 * time.Second):
			t.Fatalf("frame %d never delivered", want)
		}
	}
	s.close()
}

// TestSenderBackpressureDeadline: when the peer never drains, a blocked
// send must fail with a BackpressureError at the node deadline instead of
// blocking forever (or dropping silently).
func TestSenderBackpressureDeadline(t *testing.T) {
	client, srv := net.Pipe()
	defer srv.Close()
	defer client.Close()
	s := newSenderSize(client, time.Now().Add(200*time.Millisecond), 1, false)

	msg := func(n int64) *proto.Msg { return &proto.Msg{Kind: proto.KRetry, Num: n} }
	s.send(msg(1)) // writer wedges in WriteMsg
	deadline := time.Now().Add(2 * time.Second)
	for len(s.out) != 0 && time.Now().Before(deadline) {
		time.Sleep(time.Millisecond)
	}
	s.send(msg(2)) // fills the queue

	start := time.Now()
	err := s.send(msg(3))
	if err == nil {
		t.Fatal("send succeeded against a wedged peer")
	}
	var bp *BackpressureError
	if !errors.As(err, &bp) {
		t.Fatalf("want BackpressureError, got %T: %v", err, err)
	}
	if elapsed := time.Since(start); elapsed > 5*time.Second {
		t.Errorf("deadline send took %v, want ~200ms", elapsed)
	}
}

// frameSink is the connection end of a sender under test: it decodes each
// frame as it is written, notes which array it was written from, and checks
// that a page it carries is the 0xab page it was sent with.
type frameSink struct {
	net.Conn // nil: a sender only writes to its connection and closes it
	arrays   map[*byte]int
	nums     []int64
	err      error
}

func (f *frameSink) Write(p []byte) (int, error) {
	f.arrays[unsafe.SliceData(p)]++
	m, err := proto.ReadMsg(bytes.NewReader(p))
	if err != nil {
		f.err = err
		return 0, err
	}
	if m.Data != nil && !bytes.Equal(m.Data, bytes.Repeat([]byte{0xab}, 4096)) {
		f.err = fmt.Errorf("frame %d carries a page that is not the one sent", m.Num)
	}
	f.nums = append(f.nums, m.Num)
	return len(p), nil
}

func (f *frameSink) Close() error { return nil }

// TestAllocSenderFrames: the sender goroutine encodes every frame into the
// one buffer it owns. The first frame sizes it; the thousand behind it, none
// larger, are written from the same array — AppendFrame allocated nothing —
// and each arrives whole and in order although the buffer was rewritten under
// the one before, and each message, with its page, went back to the frame
// stock (poisoned, in a test binary) as soon as it was encoded.
func TestAllocSenderFrames(t *testing.T) {
	sink := &frameSink{arrays: map[*byte]int{}}
	s := newSender(sink, time.Time{}, false)
	page := bytes.Repeat([]byte{0xab}, 4096)
	for i := int64(0); i <= 1000; i++ {
		m := &proto.Msg{Kind: proto.KSyscallReply, Num: i}
		if i%3 == 0 {
			m.Kind, m.Data = proto.KPageContent, bytes.Clone(page)
		}
		if err := s.send(m); err != nil {
			t.Fatal(err)
		}
	}
	s.close() // returns once the queue is drained
	if sink.err != nil {
		t.Fatalf("a frame did not decode: %v", sink.err)
	}
	if len(sink.nums) != 1001 {
		t.Fatalf("%d of 1001 frames written", len(sink.nums))
	}
	for i, n := range sink.nums {
		if n != int64(i) {
			t.Fatalf("frame %d carries %d", i, n)
		}
	}
	if len(sink.arrays) != 1 {
		t.Errorf("1001 frames were written from %d buffers, want the sender's one", len(sink.arrays))
	}
}

// TestLiveCancel: closing Config.Cancel aborts a running cluster with
// ErrCanceled.
func TestLiveCancel(t *testing.T) {
	im := build(t, `
long main() {
	for (long i = 0; i < 1000000000; i++) { sleep_ns(1000000); }
	return 0;
}`)
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer ln.Close()
	cancel := make(chan struct{})
	done := make(chan error, 1)
	go func() {
		_, err := RunMaster(ln, im, Config{Core: core.Config{Shape: core.Shape{Slaves: 0}, Cancel: cancel}, Timeout: 30 * time.Second})
		done <- err
	}()
	time.Sleep(50 * time.Millisecond)
	close(cancel)
	select {
	case err := <-done:
		if !errors.Is(err, ErrCanceled) {
			t.Fatalf("want ErrCanceled, got %v", err)
		}
	case <-time.After(10 * time.Second):
		t.Fatal("cancel did not stop the master")
	}
}
