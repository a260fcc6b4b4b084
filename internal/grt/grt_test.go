package grt_test

import (
	"strings"
	"testing"

	"dqemu/internal/asm"
	"dqemu/internal/core"
	"dqemu/internal/grt"
)

// runGuest builds and runs a mini-C program on a single-node cluster.
func runGuest(t *testing.T, src string) *core.Result {
	t.Helper()
	im, err := grt.BuildProgram("t.mc", src)
	if err != nil {
		t.Fatalf("build: %v", err)
	}
	res, err := core.Run(im, core.DefaultConfig())
	if err != nil {
		t.Fatalf("run: %v", err)
	}
	return res
}

func TestPrintFormats(t *testing.T) {
	res := runGuest(t, `
long main() {
	print_long(0);
	print_char(' ');
	print_long(-1);
	print_char(' ');
	print_long(9223372036854775807);
	print_char('\n');
	print_double(0.0);
	print_char(' ');
	print_double(-12.25);
	print_char(' ');
	print_double(1000000.5);
	print_char('\n');
	return 0;
}`)
	want := "0 -1 9223372036854775807\n0.000000 -12.250000 1000000.500000\n"
	if res.Console != want {
		t.Errorf("console = %q, want %q", res.Console, want)
	}
}

func TestStringHelpers(t *testing.T) {
	res := runGuest(t, `
char buf[64];
long main() {
	char *msg = "hello runtime";
	if (strlen(msg) != 13) return 1;
	memcpy(buf, msg, 13);
	if (strlen(buf) != 13) return 2;
	memset(buf + 5, '_', 1);
	print_str(buf);
	print_char('\n');
	return 0;
}`)
	if res.ExitCode != 0 || res.Console != "hello_runtime\n" {
		t.Errorf("exit=%d console=%q", res.ExitCode, res.Console)
	}
}

func TestMallocGrowsHeap(t *testing.T) {
	res := runGuest(t, `
long main() {
	// Allocate well past the initial break; every chunk must be usable and
	// disjoint.
	long total = 0;
	for (long i = 0; i < 40; i++) {
		long *p = (long*)malloc(100000);
		if (p == 0) return 1;
		p[0] = i;
		p[12499] = i;
		total += p[0];
	}
	print_long(total);
	return 0;
}`)
	if res.ExitCode != 0 || res.Console != "780" {
		t.Errorf("exit=%d console=%q", res.ExitCode, res.Console)
	}
}

func TestMallocAlignment(t *testing.T) {
	res := runGuest(t, `
long main() {
	for (long i = 1; i < 50; i += 7) {
		long p = malloc(i);
		if ((p & 15) != 0) return 1;
	}
	return 0;
}`)
	if res.ExitCode != 0 {
		t.Errorf("exit = %d", res.ExitCode)
	}
}

func TestRandDeterministic(t *testing.T) {
	res := runGuest(t, `
long main() {
	long s1 = 42;
	long s2 = 42;
	for (long i = 0; i < 100; i++) {
		long a = rand_next(&s1);
		long b = rand_next(&s2);
		if (a != b) return 1;
		if (a < 0) return 2;
	}
	long s3 = 43;
	if (rand_next(&s3) == rand_next(&s1)) return 3;
	return 0;
}`)
	if res.ExitCode != 0 {
		t.Errorf("exit = %d", res.ExitCode)
	}
}

func TestGettidAndPid(t *testing.T) {
	res := runGuest(t, `
long worker(long arg) { return gettid(); }
long main() {
	if (gettid() != 1) return 1;
	if (getpid() != 1) return 2;
	long t1 = thread_create((long)worker, 0);
	long t2 = thread_create((long)worker, 0);
	if (t1 == t2) return 3;
	thread_join(t1);
	thread_join(t2);
	return 0;
}`)
	if res.ExitCode != 0 {
		t.Errorf("exit = %d", res.ExitCode)
	}
}

func TestExitFromWorkerDoesNotKillProgram(t *testing.T) {
	res := runGuest(t, `
long worker(long arg) {
	exit(5);       // thread exit, not exit_group
	return 9;      // unreachable
}
long main() {
	long t1 = thread_create((long)worker, 0);
	thread_join(t1);
	print_str("main survived\n");
	return 0;
}`)
	if res.ExitCode != 0 || res.Console != "main survived\n" {
		t.Errorf("exit=%d console=%q", res.ExitCode, res.Console)
	}
}

func TestMutexMutualExclusion(t *testing.T) {
	// A classic lost-update check: without the lock the adds race across
	// nodes; with it, the count is exact.
	im, err := grt.BuildProgram("mx.mc", `
long lock;
long counter;
long worker(long arg) {
	for (long i = 0; i < 200; i++) {
		mutex_lock(&lock);
		long v = counter;
		v = v + 1;
		counter = v;
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
}`)
	if err != nil {
		t.Fatal(err)
	}
	cfg := core.DefaultConfig()
	cfg.Slaves = 3
	res, err := core.Run(im, cfg)
	if err != nil {
		t.Fatal(err)
	}
	if res.Console != "1200" {
		t.Errorf("counter = %q, want 1200", res.Console)
	}
}

func TestBarrierReuse(t *testing.T) {
	im, err := grt.BuildProgram("bar.mc", `
long bar[3];
long sums[16];
long grid[16];
long worker(long idx) {
	for (long round = 0; round < 5; round++) {
		grid[idx] = round + 1;
		barrier_wait(bar);
		long s = 0;
		for (long j = 0; j < 8; j++) s += grid[j];
		sums[idx] = s;
		barrier_wait(bar);
	}
	return 0;
}
long main() {
	barrier_init(bar, 8);
	long tids[8];
	for (long i = 0; i < 8; i++) tids[i] = thread_create((long)worker, i);
	for (long i = 0; i < 8; i++) thread_join(tids[i]);
	// After round 5 every thread must have seen 8*5 = 40.
	for (long i = 0; i < 8; i++) {
		if (sums[i] != 40) return 1;
	}
	print_str("barrier ok\n");
	return 0;
}`)
	if err != nil {
		t.Fatal(err)
	}
	cfg := core.DefaultConfig()
	cfg.Slaves = 2
	res, err := core.Run(im, cfg)
	if err != nil {
		t.Fatal(err)
	}
	if res.ExitCode != 0 || res.Console != "barrier ok\n" {
		t.Errorf("exit=%d console=%q", res.ExitCode, res.Console)
	}
}

func TestBuildAsmProgram(t *testing.T) {
	im, err := grt.BuildAsmProgram(asm.Source{Name: "m.s", Text: `
	.global main
main:
	la   a0, msg
	addi sp, sp, -16
	sd   ra, 8(sp)
	call print_str
	ld   ra, 8(sp)
	addi sp, sp, 16
	li   a0, 0
	ret
	.rodata
msg:	.asciz "asm + runtime\n"
`})
	if err != nil {
		t.Fatal(err)
	}
	res, err := core.Run(im, core.DefaultConfig())
	if err != nil {
		t.Fatal(err)
	}
	if res.Console != "asm + runtime\n" {
		t.Errorf("console = %q", res.Console)
	}
}

func TestPreludeMatchesRuntime(t *testing.T) {
	// Every function declared in the prelude must resolve at link time;
	// compiling a program that calls each one catches drift.
	calls := `
long main() {
	char buf[8];
	strlen("x"); print_str(""); print_char('x'); print_long(1);
	print_double(1.0); malloc(8); free(0); memset(buf, 0, 1);
	memcpy(buf, buf + 1, 1); gettid(); getpid(); node_id(); num_nodes();
	dq_hint(0); now_ns(); yield();
	sys_write(1, buf, 0); sys_read(0, buf, 0);
	long m;
	m = 0;
	mutex_lock(&m); mutex_unlock(&m);
	long b[3];
	barrier_init(b, 1); barrier_wait(b);
	long fd = open_file("/nope", 0);
	if (fd >= 0) close_file(fd);
	long st = 1;
	rand_next(&st);
	sleep_ns(1000);
	return 0;
}`
	res := runGuest(t, calls)
	if res.ExitCode != 0 {
		t.Errorf("exit = %d", res.ExitCode)
	}
	if !strings.Contains(grt.Prelude, "thread_create") {
		t.Error("prelude missing thread_create")
	}
}

// TestDiagnosticsCountUserLines: the Prelude goes in front of every
// workload, but a diagnostic names the line of the workload's own text.
func TestDiagnosticsCountUserLines(t *testing.T) {
	const src = "long main() {\n  return y;\n}\n"
	const want = `x.mc:2: undefined identifier "y"`
	if _, err := grt.BuildProgram("x.mc", src); err == nil || err.Error() != want {
		t.Errorf("BuildProgram: %v, want %s", err, want)
	}
	if _, err := grt.CompileProgram("x.mc", src); err == nil || err.Error() != want {
		t.Errorf("CompileProgram: %v, want %s", err, want)
	}
}

// TestAssemblerDiagnosticsNameMiniCLines: what the assembler finds wrong
// with a compiled workload names the mini-C file and the line of the
// definition, call or reference that caused it.
func TestAssemblerDiagnosticsNameMiniCLines(t *testing.T) {
	const prefix = "grt: assembling x.mc: x.mc:"
	for _, c := range []struct{ src, want string }{
		{"long n;\nlong strlen(char *s) { return 0; }\nlong main() { return 0; }\n", `2: label "strlen" redefined`},
		{"long n;\nlong strlen;\nlong main() { return 0; }\n", `2: label "strlen" redefined`},
		{"extern long nowhere();\nlong main() {\n  return nowhere();\n}\n", `3: undefined symbol "nowhere"`},
		{"extern long nowhere();\nlong main() {\n  long f = (long)nowhere;\n  return f;\n}\n", `3: undefined symbol "nowhere"`},
		{"long n;\nlong big[34359738368];\nlong main() { return 0; }\n", "2: .space: 274877906944 more bytes take the image over the 67108864-byte limit (image.MaxMemBytes)"},
	} {
		if _, err := grt.BuildProgram("x.mc", c.src); err == nil || err.Error() != prefix+c.want {
			t.Errorf("%q: %v, want %s%s", c.src, err, prefix, c.want)
		}
	}
}

func TestStackSizePerThread(t *testing.T) {
	// Deep recursion within the 1 MiB thread stack must work.
	res := runGuest(t, `
long depth(long n) {
	long pad[16];
	pad[0] = n;
	if (n == 0) return 0;
	return pad[0] - n + depth(n - 1);
}
long worker(long arg) { return depth(4000); }
long main() {
	long t1 = thread_create((long)worker, 0);
	thread_join(t1);
	print_str("deep ok\n");
	return 0;
}`)
	if res.Console != "deep ok\n" {
		t.Errorf("console = %q", res.Console)
	}
}
