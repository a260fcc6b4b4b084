package live

import (
	"bytes"
	"fmt"
	"runtime"
	"testing"

	"dqemu/internal/core"
	"dqemu/internal/proto"
	"dqemu/internal/recycle"
)

// pingPongSrc is two threads in strict alternation on one page: on two
// slaves every handoff moves the page between them through the master.
func pingPongSrc(rounds int) string {
	return fmt.Sprintf(`
long counter;
long turn;
long worker(long idx) {
	for (long i = 0; i < %d; i++) {
		while (turn != idx) { }
		counter += 1;
		turn = 1 - idx;
	}
	return 0;
}
long main() {
	long tids[2];
	for (long i = 0; i < 2; i++) tids[i] = thread_create((long)worker, i);
	for (long i = 0; i < 2; i++) thread_join(tids[i]);
	print_long(counter);
	print_char('\n');
	return 0;
}`, rounds)
}

// TestAllocFramesRecycled: over sockets too, a frame makes the round trip
// through the process's frame stock. A reader decodes into a stock message
// and copies the payload into a stock container, the handler's return
// gives both back, and a sender gives back what it has encoded; the
// connections' buffers come from the run before. So a second run of a
// two-slave ping-pong allocates no message, container or frame buffer per
// frame: two such runs that differ only in how long they ping-pong differ,
// per extra page payload the master ships (a request, a fetch, its reply
// and a grant on the wire behind each: a message per frame would be some
// 400 bytes), by 20 to 28 bytes on an idle machine and up to 59 on a loaded
// one, mostly the page faults' mem.Fault values. It was 1,240 while every
// frame read got a new buffer and message, every grant a new container, and
// every frame a closure on its way to and from the wire.
func TestAllocFramesRecycled(t *testing.T) {
	run := func(rounds int) (allocated, payloads uint64) {
		im := build(t, pingPongSrc(rounds))
		cfg := Config{Core: core.Config{Shape: core.Shape{Slaves: 2}}}
		recycle.Drain()
		runLive(t, im, cfg) // the first run fills the stock
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		res := runLive(t, im, cfg)
		runtime.ReadMemStats(&after)
		if want := fmt.Sprintf("%d\n", 2*rounds); res.Console != want {
			t.Fatalf("console %q, want %q", res.Console, want)
		}
		w := res.Wire
		return after.TotalAlloc - before.TotalAlloc, w.SamePages + w.DeltaPages + w.RLEPages + w.FullPages
	}
	shortBytes, shortPayloads := run(50)
	longBytes, longPayloads := run(250)
	extra := int64(longPayloads) - int64(shortPayloads)
	if extra < 2*200 {
		t.Fatalf("200 more rounds shipped only %d more page payloads: not a ping-pong", extra)
	}
	perPayload := float64(int64(longBytes)-int64(shortBytes)) / float64(extra)
	t.Logf("%.0f bytes allocated per extra page payload (%d of them)", perPayload, extra)
	if limit := 96.0; perPayload > limit { // under half a 216-byte proto.Msg
		t.Errorf("%.0f bytes allocated per extra page payload, want under %.0f", perPayload, limit)
	}
}

// TestFramesPoisoned: in a test binary a container given back to the frame
// stock is filled with a poison byte, so this package's tests, the
// differential among them, run on poisoned frames: a reader or handler that
// kept a view of a frame it had given back would read poison. Here a reader
// decodes a one-byte page into a container a sender gave back: the poison
// is right behind it.
func TestFramesPoisoned(t *testing.T) {
	recycle.Drain()
	core.KeepFrame(&proto.Msg{Kind: proto.KFetchReply, Data: bytes.Repeat([]byte{1}, 4096)})
	m, err := core.DecodeFrame((&proto.Msg{Kind: proto.KFetchReply, Data: []byte{2}}).Encode()[4:])
	if err != nil {
		t.Fatal(err)
	}
	if d := m.Data[:cap(m.Data)]; len(d) != 4096 || d[0] != 2 || d[1] == 1 || d[1] == 0 {
		t.Errorf("decoded into a container of %d bytes starting % x, want the kept one, poisoned behind the byte", len(d), d[:min(len(d), 4)])
	}
}

// getpidSrc is a thread on the slave that calls getpid calls times: each
// call is delegated to the master, one syscall round trip.
func getpidSrc(calls int) string {
	return fmt.Sprintf(`
long worker(long arg) {
	long s = 0;
	for (long i = 0; i < %d; i++) s += getpid();
	return s;
}
long main() {
	thread_join(thread_create((long)worker, 0));
	return 0;
}`, calls)
}

// TestAllocSyscallRoundTrip: a delegated syscall crosses the sockets in
// stock frames. The slave's request and the master's reply are drawn from
// the frame stock, encoded into the connection's buffer and given back, and
// each reader decodes the one it receives into a stock message: the
// syscall words are fields of the message, so nothing of the round trip is
// allocated per frame. Two second runs that differ only in how many times a
// thread on the slave calls getpid differ, per extra call, by the master's
// reply closure and little else: 47 to 48 bytes. It was 302 while the
// request and the reply each carried a 64-byte syscall part, made by the
// sender and again by the reader.
func TestAllocSyscallRoundTrip(t *testing.T) {
	run := func(calls int) (allocated, global uint64) {
		im := build(t, getpidSrc(calls))
		cfg := Config{Core: core.Config{Shape: core.Shape{Slaves: 1}}}
		recycle.Drain()
		runLive(t, im, cfg) // the first run fills the stock
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		res := runLive(t, im, cfg)
		runtime.ReadMemStats(&after)
		if res.ExitCode != 0 {
			t.Fatalf("exit code %d", res.ExitCode)
		}
		return after.TotalAlloc - before.TotalAlloc, res.OS.Global
	}
	shortBytes, shortCalls := run(500)
	longBytes, longCalls := run(2500)
	if trips := longCalls - shortCalls; trips != 2000 {
		t.Fatalf("2,000 more calls made %d more delegated syscalls", trips)
	}
	perTrip := float64(int64(longBytes)-int64(shortBytes)) / 2000
	t.Logf("%.0f bytes allocated per extra round trip", perTrip)
	if limit := 60.0; perTrip > limit { // measured 48, plus a quarter
		t.Errorf("%.0f bytes allocated per extra round trip, want under %.0f", perTrip, limit)
	}
}
