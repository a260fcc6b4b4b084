package core

import (
	"fmt"
	"strings"
	"testing"

	"dqemu/internal/abi"
	"dqemu/internal/grt"
	"dqemu/internal/image"
	"dqemu/internal/trace"
)

// buildRun compiles a mini-C program and runs it on a cluster.
func buildRun(t *testing.T, src string, cfg Config) *Result {
	t.Helper()
	im := build(t, src)
	res, err := Run(im, cfg)
	if err != nil {
		t.Fatalf("run: %v", err)
	}
	return res
}

func build(t *testing.T, src string) *image.Image {
	t.Helper()
	im, err := grt.BuildProgram("test.mc", src)
	if err != nil {
		t.Fatalf("build: %v", err)
	}
	return im
}

func TestHelloSingleNode(t *testing.T) {
	res := buildRun(t, `
long main() {
	print_str("hello, cluster\n");
	return 0;
}`, DefaultConfig())
	if res.ExitCode != 0 {
		t.Errorf("exit = %d", res.ExitCode)
	}
	if res.Console != "hello, cluster\n" {
		t.Errorf("console = %q", res.Console)
	}
	if res.TimeNs <= 0 {
		t.Errorf("time = %d", res.TimeNs)
	}
}

func TestExitCode(t *testing.T) {
	res := buildRun(t, `long main() { return 42; }`, DefaultConfig())
	if res.ExitCode != 42 {
		t.Errorf("exit = %d", res.ExitCode)
	}
}

func TestPrinting(t *testing.T) {
	res := buildRun(t, `
long main() {
	print_long(-12345);
	print_char('\n');
	print_double(3.125);
	print_char('\n');
	print_long(0);
	print_char('\n');
	return 0;
}`, DefaultConfig())
	want := "-12345\n3.125000\n0\n"
	if res.Console != want {
		t.Errorf("console = %q, want %q", res.Console, want)
	}
}

func TestMallocAndHeap(t *testing.T) {
	res := buildRun(t, `
long main() {
	long *a = (long*)malloc(8000);
	long *b = (long*)malloc(16);
	if (a == 0 || b == 0) return 1;
	if ((long)b < (long)a + 8000) return 2;
	for (long i = 0; i < 1000; i++) a[i] = i;
	long s = 0;
	for (long i = 0; i < 1000; i++) s += a[i];
	print_long(s);
	return 0;
}`, DefaultConfig())
	if res.ExitCode != 0 || res.Console != "499500" {
		t.Errorf("exit=%d console=%q", res.ExitCode, res.Console)
	}
}

func TestThreadsSingleNode(t *testing.T) {
	res := buildRun(t, `
long counter;
long lock;
long worker(long arg) {
	for (long i = 0; i < 100; i++) {
		mutex_lock(&lock);
		counter += 1;
		mutex_unlock(&lock);
	}
	return arg;
}
long main() {
	long tids[4];
	for (long i = 0; i < 4; i++) tids[i] = thread_create((long)worker, i);
	for (long i = 0; i < 4; i++) thread_join(tids[i]);
	print_long(counter);
	print_char('\n');
	return 0;
}`, DefaultConfig())
	if res.Console != "400\n" {
		t.Errorf("console = %q", res.Console)
	}
}

func TestThreadsMultiNode(t *testing.T) {
	cfg := DefaultConfig()
	cfg.Slaves = 3
	res := buildRun(t, `
long counter;
long lock;
long worker(long arg) {
	for (long i = 0; i < 50; i++) {
		mutex_lock(&lock);
		counter += 1;
		mutex_unlock(&lock);
	}
	return 0;
}
long main() {
	long tids[6];
	for (long i = 0; i < 6; i++) tids[i] = thread_create((long)worker, i);
	for (long i = 0; i < 6; i++) thread_join(tids[i]);
	print_long(counter);
	return 0;
}`, cfg)
	if res.Console != "300" {
		t.Errorf("console = %q", res.Console)
	}
	// Threads actually landed on slaves.
	placed := 0
	for _, ns := range res.Nodes {
		if ns.Node != 0 {
			placed += ns.Threads
		}
	}
	if placed != 6 {
		t.Errorf("threads on slaves = %d, want 6", placed)
	}
	// DSM must have moved pages around.
	if res.Dir.Writes == 0 || res.Dir.Fetches == 0 {
		t.Errorf("dir stats: %+v", res.Dir)
	}
}

func TestBarrierAcrossNodes(t *testing.T) {
	cfg := DefaultConfig()
	cfg.Slaves = 2
	res := buildRun(t, `
long bar[3];
long phase[8];
long worker(long i) {
	phase[i] = 1;
	barrier_wait(bar);
	// After the barrier every thread must see every phase flag.
	long s = 0;
	for (long j = 0; j < 4; j++) s += phase[j];
	return s == 4 ? 0 : 1;
}
long main() {
	barrier_init(bar, 5);
	long tids[4];
	for (long i = 0; i < 4; i++) tids[i] = thread_create((long)worker, i);
	barrier_wait(bar);
	for (long i = 0; i < 4; i++) thread_join(tids[i]);
	print_str("done\n");
	return 0;
}`, cfg)
	if res.Console != "done\n" || res.ExitCode != 0 {
		t.Errorf("exit=%d console=%q", res.ExitCode, res.Console)
	}
}

func TestSharedDataVisibility(t *testing.T) {
	cfg := DefaultConfig()
	cfg.Slaves = 2
	res := buildRun(t, `
long data[512];
long sum;
long lock;
long worker(long i) {
	long s = 0;
	for (long j = 0; j < 512; j++) s += data[j];
	mutex_lock(&lock);
	sum += s;
	mutex_unlock(&lock);
	return 0;
}
long main() {
	for (long j = 0; j < 512; j++) data[j] = j;
	long tids[4];
	for (long i = 0; i < 4; i++) tids[i] = thread_create((long)worker, i);
	for (long i = 0; i < 4; i++) thread_join(tids[i]);
	print_long(sum);
	return 0;
}`, cfg)
	// 4 * sum(0..511) = 4 * 130816
	if res.Console != "523264" {
		t.Errorf("console = %q", res.Console)
	}
}

func TestFileIOFromGuest(t *testing.T) {
	im := build(t, `
long main() {
	long fd = open_file("/data/in.txt", 0);
	if (fd < 0) return 1;
	char buf[64];
	long n = sys_read(fd, buf, 64);
	close_file(fd);
	buf[n] = (char)0;
	print_str(buf);
	long out = open_file("/data/out.txt", 577);   // O_WRONLY|O_CREAT|O_TRUNC
	sys_write(out, buf, n);
	close_file(out);
	return 0;
}`)
	c, err := NewCluster(im, DefaultConfig())
	if err != nil {
		t.Fatal(err)
	}
	vfs := c.VFS()
	vfs.AddFile("/data/in.txt", []byte("file content"))
	res, err := c.Run()
	if err != nil {
		t.Fatal(err)
	}
	if res.Console != "file content" {
		t.Errorf("console = %q", res.Console)
	}
	out, ok := vfs.FileContent("/data/out.txt")
	if !ok || string(out) != "file content" {
		t.Errorf("out file = %q %v", out, ok)
	}
}

func TestGuestTimeAdvances(t *testing.T) {
	res := buildRun(t, `
long main() {
	long t0 = now_ns();
	long x = 0;
	for (long i = 0; i < 100000; i++) x += i;
	long t1 = now_ns();
	if (t1 <= t0) return 1;
	sleep_ns(5000000);   // 5 ms
	long t2 = now_ns();
	if (t2 - t1 < 5000000) return 2;
	return 0;
}`, DefaultConfig())
	if res.ExitCode != 0 {
		t.Errorf("exit = %d", res.ExitCode)
	}
}

func TestNodeIDAndNumNodes(t *testing.T) {
	cfg := DefaultConfig()
	cfg.Slaves = 2
	res := buildRun(t, `
long worker(long arg) { return node_id(); }
long main() {
	if (num_nodes() != 3) return 1;
	if (node_id() != 0) return 2;
	long t1 = thread_create((long)worker, 0);
	thread_join(t1);
	return 0;
}`, cfg)
	if res.ExitCode != 0 {
		t.Errorf("exit = %d", res.ExitCode)
	}
}

func TestDeadlockDetected(t *testing.T) {
	im := build(t, `
long lock = 1;   // locked, nobody will release
long main() {
	long dummy[2];
	dummy[0] = 0;
	mutex_lock(&lock);
	return 0;
}`)
	cfg := DefaultConfig()
	_, err := Run(im, cfg)
	if err == nil || !strings.Contains(err.Error(), "deadlock") {
		t.Errorf("expected deadlock error, got %v", err)
	}
}

func TestVirtualTimeLimit(t *testing.T) {
	im := build(t, `
long main() {
	while (1) {}
	return 0;
}`)
	c, err := NewCluster(im, DefaultConfig())
	if err != nil {
		t.Fatal(err)
	}
	_, err = c.simulate(1_000_000)
	if err == nil || !strings.Contains(err.Error(), "virtual time") {
		t.Errorf("expected time-limit error, got %v", err)
	}
}

func TestTracerRecordsClusterEvents(t *testing.T) {
	im := build(t, `
long data[2048];
long worker(long a) {
	for (long i = 0; i < 2048; i++) data[i] += 1;
	return 0;
}
long main() {
	thread_join(thread_create((long)worker, 0));
	return 0;
}`)
	cfg := DefaultConfig()
	cfg.Slaves = 1
	tr := trace.New(0, nil)
	cfg.Tracer = tr
	if _, err := Run(im, cfg); err != nil {
		t.Fatal(err)
	}
	if len(tr.Filter(trace.EvMsg)) == 0 {
		t.Error("no protocol messages traced")
	}
	if len(tr.Filter(trace.EvFault)) == 0 {
		t.Error("no faults traced")
	}
	if len(tr.Filter(trace.EvSyscall)) == 0 {
		t.Error("no syscalls traced")
	}
	if len(tr.Filter(trace.EvSched)) == 0 {
		t.Error("no scheduling events traced")
	}
}

// TestSyscallOnRemotePage: nanosleep and clock_gettime take their timespec
// from a global that another node wrote last, so on 2 slaves both handlers
// find the page missing, park in retryOnFault and re-run once it arrives.
// Each thread checks that it slept and that the clock was written; console
// and exit code must equal the single-node interpreter's.
func TestSyscallOnRemotePage(t *testing.T) {
	src := fmt.Sprintf(`
long ts[10];
long ok[5];
long check(long slot) {
	long t0 = now_ns();
	__syscall(%[1]d, (long)&ts[2 * slot], 0, 0, 0, 0, 0);
	long slept = now_ns() - t0 >= 200000;
	__syscall(%[2]d, 0, (long)&ts[2 * slot], 0, 0, 0, 0);
	ok[slot] = slept + (ts[2 * slot] * 1000000000 + ts[2 * slot + 1] >= t0 + 200000);
	return 0;
}
long main() {
	for (long i = 0; i < 5; i++) {
		ts[2 * i] = 0;
		ts[2 * i + 1] = 200000;
	}
	long tids[4];
	for (long i = 0; i < 4; i++) tids[i] = thread_create((long)check, i);
	for (long i = 0; i < 4; i++) thread_join(tids[i]);
	check(4);
	print_long(ok[0] + ok[1] + ok[2] + ok[3] + ok[4]);
	print_char('\n');
	return 5;
}`, abi.SysNanosleep, abi.SysClockGettime)
	im := build(t, src)
	want, err := Run(im, tierConfigs()["interp"])
	if err != nil {
		t.Fatal(err)
	}
	if want.Console != "10\n" || want.ExitCode != 5 {
		t.Fatalf("interpreter: exit %d console %q", want.ExitCode, want.Console)
	}
	cfg := DefaultConfig()
	cfg.Slaves = 2
	res, err := Run(im, cfg)
	if err != nil {
		t.Fatal(err)
	}
	if res.Console != want.Console || res.ExitCode != want.ExitCode {
		t.Errorf("2 slaves: exit %d console %q, interpreter: exit %d console %q",
			res.ExitCode, res.Console, want.ExitCode, want.Console)
	}
}

// TestExitWithParkedWaiter: main returning while it holds a mutex a worker
// is parked on is a clean exit_group. The parked thread does not keep the
// run alive or fail it.
func TestExitWithParkedWaiter(t *testing.T) {
	im := build(t, `
long lock;
long worker(long idx) {
	mutex_lock(&lock);
	print_str("worker got the lock\n");
	return 0;
}
long main() {
	mutex_lock(&lock);
	thread_create((long)worker, 0);
	sleep_ns(2000000);
	print_str("main exits holding the lock\n");
	return 0;
}`)
	for _, slaves := range []int{0, 2} {
		cfg := DefaultConfig()
		cfg.Slaves = slaves
		c, err := NewCluster(im, cfg)
		if err != nil {
			t.Fatal(err)
		}
		res, err := c.Run()
		if err != nil {
			t.Fatalf("%d slaves: %v", slaves, err)
		}
		if res.ExitCode != 0 || res.Console != "main exits holding the lock\n" {
			t.Errorf("%d slaves: exit %d console %q", slaves, res.ExitCode, res.Console)
		}
		if n := c.os.Futex().TotalWaiting(); n != 1 {
			t.Errorf("%d slaves: %d threads parked at exit, want the worker", slaves, n)
		}
	}
}
