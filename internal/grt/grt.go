// Package grt is the guest runtime: the statically linked "libc" of DQEMU
// guest programs. The paper's workloads are ARM binaries with all libraries
// statically linked (§6.1); grt plays the role of those libraries — startup
// code, a syscall veneer, console output, a heap, and pthread-style threads,
// mutexes and barriers built on the clone/futex syscalls that the cluster's
// delegation layer implements.
//
// BuildProgram compiles a mini-C workload, links it with the runtime and
// returns a loadable guest image.
package grt

import (
	"fmt"
	"sync"

	"dqemu/internal/abi"
	"dqemu/internal/asm"
	"dqemu/internal/image"
	"dqemu/internal/minicc"
)

// StackSize is the stack reserved for each guest thread.
const StackSize = image.StackSize

// startS is the program entry point and thread trampoline.
var startS = fmt.Sprintf(`
	.text
	.global _start
_start:
	; The loader points SP at the main thread's stack top.
	call __rt_init
	call main
	li   a7, %d          ; exit_group(main_result)
	svc  0

	; __thread_start is the trampoline every spawned thread begins at. The
	; kernel builds the child context as: PC=__thread_start, A0=fn, A1=arg,
	; SP=fresh stack top (§4.1).
	.global __thread_start
__thread_start:
	mv   t0, a0
	mv   a0, a1
	jalr ra, t0, 0
	li   a7, %d          ; exit(thread_result)
	svc  0

	; long __syscall(long n, long a, long b, long c, long d, long e, long f)
	.global __syscall
__syscall:
	mv   a7, a0
	mv   a0, a1
	mv   a1, a2
	mv   a2, a3
	mv   a3, a4
	mv   a4, a5
	mv   a5, a6
	svc  0
	ret
`, abi.SysExitGroup, abi.SysExit)

// Prelude declares the runtime API for workload sources. CompileProgram
// puts it in front of every workload; it is pure declarations, and
// diagnostics count lines from the workload's own first line.
const Prelude = `
extern long __syscall(long n, long a, long b, long c, long d, long e, long f);
extern long strlen(char *s);
extern void print_str(char *s);
extern void print_char(long c);
extern void print_long(long v);
extern void print_double(double x);
extern long malloc(long n);
extern void free(long p);
extern void memset(char *p, long c, long n);
extern void memcpy(char *dst, char *src, long n);
extern long thread_create(long fn, long arg);
extern void thread_join(long tid);
extern long gettid();
extern long getpid();
extern long node_id();
extern long num_nodes();
extern void dq_hint(long group);
extern long now_ns();
extern void sleep_ns(long ns);
extern void yield();
extern void mutex_lock(long *m);
extern void mutex_unlock(long *m);
extern void barrier_init(long *b, long total);
extern void barrier_wait(long *b);
extern void exit(long code);
extern long rand_next(long *state);
extern long sys_write(long fd, char *buf, long n);
extern long sys_read(long fd, char *buf, long n);
extern long open_file(char *path, long flags);
extern long close_file(long fd);
`

// runtimeC is the mini-C half of the runtime.
var runtimeC = fmt.Sprintf(`
extern long __syscall(long n, long a, long b, long c, long d, long e, long f);

// ---- syscall veneers ----

long sys_write(long fd, char *buf, long n) {
	return __syscall(%[1]d, fd, (long)buf, n, 0, 0, 0);
}

long sys_read(long fd, char *buf, long n) {
	return __syscall(%[2]d, fd, (long)buf, n, 0, 0, 0);
}

long open_file(char *path, long flags) {
	// openat(AT_FDCWD=-100, path, flags, 0666)
	return __syscall(%[3]d, -100, (long)path, flags, 438, 0, 0);
}

long close_file(long fd) {
	return __syscall(%[4]d, fd, 0, 0, 0, 0, 0);
}

void exit(long code) {
	__syscall(%[5]d, code, 0, 0, 0, 0, 0);
}

long gettid() { return __syscall(%[6]d, 0, 0, 0, 0, 0, 0); }
long getpid() { return __syscall(%[7]d, 0, 0, 0, 0, 0, 0); }
long node_id() { return __syscall(%[8]d, 0, 0, 0, 0, 0, 0); }
long num_nodes() { return __syscall(%[9]d, 0, 0, 0, 0, 0, 0); }
void dq_hint(long group) { __syscall(%[10]d, group, 0, 0, 0, 0, 0); }
void yield() { __syscall(%[11]d, 0, 0, 0, 0, 0, 0); }

long now_ns() {
	long ts[2];
	__syscall(%[12]d, 0, (long)ts, 0, 0, 0, 0);
	return ts[0] * 1000000000 + ts[1];
}

void sleep_ns(long ns) {
	long ts[2];
	ts[0] = ns / 1000000000;
	ts[1] = ns %% 1000000000;
	__syscall(%[13]d, (long)ts, 0, 0, 0, 0, 0);
}

// ---- strings and console ----

long strlen(char *s) {
	long n = 0;
	while (s[n]) n++;
	return n;
}

void memset(char *p, long c, long n) {
	for (long i = 0; i < n; i++) p[i] = (char)c;
}

void memcpy(char *dst, char *src, long n) {
	for (long i = 0; i < n; i++) dst[i] = src[i];
}

void print_str(char *s) { sys_write(1, s, strlen(s)); }

void print_char(long c) {
	char b[2];
	b[0] = (char)c;
	sys_write(1, b, 1);
}

long __fmt_long(char *buf, long v) {
	long i = 0;
	long neg = 0;
	if (v < 0) { neg = 1; v = -v; }
	char tmp[24];
	long n = 0;
	if (v == 0) { tmp[0] = '0'; n = 1; }
	while (v > 0) { tmp[n] = (char)('0' + v %% 10); v /= 10; n++; }
	if (neg) { buf[i] = '-'; i++; }
	while (n > 0) { n--; buf[i] = tmp[n]; i++; }
	return i;
}

void print_long(long v) {
	char buf[32];
	long n = __fmt_long(buf, v);
	sys_write(1, buf, n);
}

void print_double(double x) {
	char buf[64];
	long i = 0;
	if (x < 0.0) { buf[i] = '-'; i++; x = -x; }
	long ip = (long)x;
	i += __fmt_long(buf + i, ip);
	buf[i] = '.';
	i++;
	double fr = x - (double)ip;
	for (long d = 0; d < 6; d++) {
		fr = fr * 10.0;
		long dig = (long)fr;
		buf[i] = (char)('0' + dig);
		i++;
		fr -= (double)dig;
	}
	sys_write(1, buf, i);
}

// ---- heap ----

long __heap_cur;
long __heap_end;
long __heap_lock;

void __rt_init() {
	__heap_cur = __syscall(%[14]d, 0, 0, 0, 0, 0, 0);
	__heap_end = __heap_cur;
}

long malloc(long n) {
	mutex_lock(&__heap_lock);
	n = (n + 15) & ~15;
	if (__heap_end - __heap_cur < n) {
		long grow = n + 1048576;
		long nend = __syscall(%[14]d, __heap_end + grow, 0, 0, 0, 0, 0);
		if (nend < __heap_end + n) {
			mutex_unlock(&__heap_lock);
			return 0;
		}
		__heap_end = nend;
	}
	long p = __heap_cur;
	__heap_cur += n;
	mutex_unlock(&__heap_lock);
	return p;
}

void free(long p) {
	// Arena allocator: free is a no-op, like many static benchmark builds.
}

// ---- threads ----

long thread_create(long fn, long arg) {
	long stack = __syscall(%[15]d, 0, %[16]d, 3, 0x22, -1, 0);   // mmap
	if (stack < 0) return -1;
	return __syscall(%[17]d, fn, arg, stack + %[16]d, 0, 0, 0);  // dq_thread_create
}

void thread_join(long tid) {
	__syscall(%[18]d, tid, 0, 0, 0, 0, 0);
}

// ---- futex mutex (0 free, 1 locked, 2 contended) ----

void mutex_lock(long *m) {
	// Adaptive test-and-test-and-set mutex (paper §4.4: threads "spin and
	// wait ... may use the syscall futex_wait after certain period of
	// time"). The spin yields the core between attempts, so same-node
	// contention resolves cheaply; cross-node contention still ping-pongs
	// the lock page and eventually falls back to the delegated futex —
	// the asymmetry behind Fig. 6's worst case.
	long c = 1;
	for (long spin = 0; spin < 4; spin++) {
		if (*m == 0) {
			c = __cas(m, 0, 1);
			if (c == 0) return;
		}
		yield();
	}
	while (1) {
		if (c == 2) {
			__syscall(%[19]d, (long)m, %[20]d, 2, 0, 0, 0);
		} else {
			if (__cas(m, 1, 2) == 1) {
				__syscall(%[19]d, (long)m, %[20]d, 2, 0, 0, 0);
			}
		}
		c = __cas(m, 0, 2);
		if (c == 0) return;
	}
}

void mutex_unlock(long *m) {
	long old = __amoswap(m, 0);
	if (old == 2) {
		// Naive futex mutex: wake every waiter. The resulting cross-node
		// retry storm is the paper's worst-case behaviour (§6.1.1): all
		// sleeping nodes re-request the lock page, and most fall back to
		// another remote futex_wait.
		__syscall(%[19]d, (long)m, %[21]d, 1000000, 0, 0, 0);
	}
}

// ---- barrier: {arrived, generation, total} ----

void barrier_init(long *b, long total) {
	b[0] = 0;
	b[1] = 0;
	b[2] = total;
}

void barrier_wait(long *b) {
	long gen = b[1];
	long arrived = __amoadd(&b[0], 1) + 1;
	if (arrived == b[2]) {
		b[0] = 0;
		__fence();
		__amoadd(&b[1], 1);
		__syscall(%[19]d, (long)(b + 1), %[21]d, 1000000, 0, 0, 0);
		return;
	}
	while (b[1] == gen) {
		__syscall(%[19]d, (long)(b + 1), %[20]d, gen, 0, 0, 0);
	}
}

// ---- misc ----

long rand_next(long *state) {
	long x = *state;
	x = x ^ (x << 13);
	x = x ^ ((x >> 7) & 0x1ffffffffffffff);
	x = x ^ (x << 17);
	*state = x;
	if (x < 0) x = -x;
	return x;
}
`,
	abi.SysWrite, abi.SysRead, abi.SysOpenAt, abi.SysClose, abi.SysExit,
	abi.SysGetTID, abi.SysGetPID, abi.SysNodeID, abi.SysNumNodes, abi.SysHint,
	abi.SysSchedYield, abi.SysClockGettime, abi.SysNanosleep, abi.SysBrk,
	abi.SysMmap, StackSize, abi.SysThreadCreate, abi.SysThreadJoin,
	abi.SysFutex, abi.FutexWait, abi.FutexWake,
)

// prepared compiles the mini-C half of the runtime and assembles both
// halves, once per process: the sources are constants, and every image
// build continues from the assembler state after them.
var prepared = sync.OnceValues(func() (rt preparedRuntime, err error) {
	rtAsm, err := minicc.Compile("rt.mc", runtimeC)
	if err != nil {
		return rt, fmt.Errorf("grt: compiling runtime: %w", err)
	}
	rt.sources = []asm.Source{
		{Name: "start.s", Text: startS},
		{Name: "rt.s", Text: rtAsm},
	}
	if rt.prefix, err = asm.Prepare(asm.Options{}, rt.sources...); err != nil {
		return rt, fmt.Errorf("grt: assembling runtime: %w", err)
	}
	return rt, nil
})

type preparedRuntime struct {
	sources []asm.Source // start.s and rt.s
	prefix  *asm.Prefix  // the assembler's state after them
}

// RuntimeSources returns the runtime's assembly units in a slice of the
// caller's own (callers append their units to it).
func RuntimeSources() ([]asm.Source, error) {
	rt, err := prepared()
	return append([]asm.Source(nil), rt.sources...), err
}

// CompileProgram compiles a mini-C workload behind the Prelude to assembly
// text: the one place a workload meets the Prelude.
func CompileProgram(name, src string) (string, error) {
	return minicc.CompileWithPrelude(name, Prelude, src)
}

// BuildProgram compiles a mini-C workload behind the Prelude straight into
// the assembler, after the runtime, and links the guest image: the image
// CompileProgram's text assembles to, with no text in between.
func BuildProgram(name, src string) (*image.Image, error) {
	rt, err := prepared()
	if err != nil {
		return nil, err
	}
	// Straight-line mini-C makes under 4 bytes of code a byte; past 512 KiB
	// of source (blanks, say) the room stops growing.
	b := rt.prefix.Builder(name, 4*min(len(src), 512<<10))
	if err := minicc.Generate(name, Prelude, src, b); err != nil {
		return nil, err
	}
	im, err := b.Link()
	if err != nil {
		return nil, fmt.Errorf("grt: assembling %s: %w", name, err)
	}
	return im, nil
}

// BuildAsmProgram assembles raw assembly sources together with the runtime.
func BuildAsmProgram(sources ...asm.Source) (*image.Image, error) {
	rt, err := prepared()
	if err != nil {
		return nil, err
	}
	im, err := rt.prefix.Assemble(sources...)
	if err != nil {
		return nil, fmt.Errorf("grt: assembling: %w", err)
	}
	return im, nil
}
