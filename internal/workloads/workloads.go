// Package workloads holds the guest programs of the paper's evaluation
// (§6): the micro-benchmarks (π-by-Taylor scalability, mutex contention,
// memory walks, false sharing) and PARSEC-like kernels (blackscholes,
// swaptions, an x264-like pipelined encoder, a fluidanimate-like stencil).
// Each is written in mini-C against the guest runtime and compiled to a GA64
// image; parameters are spliced into the source so experiments can scale
// input sizes (the paper's native inputs are far too large for a simulated
// guest — EXPERIMENTS.md records the scaling).
package workloads

import (
	"fmt"

	"dqemu/internal/grt"
	"dqemu/internal/image"
)

// build compiles a workload source. It is a variable so a test can build
// every stock source both ways (grttest.DiffRoutes).
var build = func(name, src string) (*image.Image, error) {
	im, err := grt.BuildProgram(name, src)
	if err != nil {
		return nil, fmt.Errorf("workloads: %s: %w", name, err)
	}
	return im, nil
}

// Pi is the Fig. 5 scalability micro-benchmark: threads threads each
// compute π with a terms-term Leibniz/Taylor series, repeats times, with no
// data sharing and a final join. The paper uses 120 threads × 65536
// repetitions.
func Pi(threads, repeats, terms int) (*image.Image, error) {
	src := fmt.Sprintf(`
long THREADS = %d;
long REPEATS = %d;
long TERMS   = %d;
double results[256];
long pad1[512];

long worker(long idx) {
	double acc = 0.0;
	for (long r = 0; r < REPEATS; r++) {
		double pi = 0.0;
		double sign = 1.0;
		for (long k = 0; k < TERMS; k++) {
			pi += sign / (2.0 * (double)k + 1.0);
			sign = -sign;
		}
		acc = pi * 4.0;
	}
	results[idx %% 256] = acc;
	return 0;
}

long main() {
	long tids[256];
	for (long i = 0; i < THREADS; i++) tids[i %% 256] = thread_create((long)worker, i);
	for (long i = 0; i < THREADS; i++) thread_join(tids[i %% 256]);
	print_str("pi=");
	print_double(results[0]);
	print_char('\n');
	return 0;
}`, threads, repeats, terms)
	if threads > 256 {
		return nil, fmt.Errorf("workloads: pi supports at most 256 threads")
	}
	return build("pi.mc", src)
}

// LockBench is the Fig. 6 mutex micro-benchmark. In the worst case
// (private=false) all threads pound one global lock; in the best case each
// thread uses a page-isolated private lock. The paper uses 32 threads with
// 5 000 (worst) and 500 000 (best) acquisitions.
func LockBench(threads, acquires int, private bool) (*image.Image, error) {
	if threads > 64 {
		return nil, fmt.Errorf("workloads: lockbench supports at most 64 threads")
	}
	mode := 0
	if private {
		mode = 1
	}
	src := fmt.Sprintf(`
long THREADS  = %d;
long ACQUIRES = %d;
long PRIVATE  = %d;
long raw[33280];      // 64 page-aligned lock slots (one page each) + slack
long *locks;

long worker(long idx) {
	long *lock = locks;                  // shared: everyone uses slot 0
	if (PRIVATE) lock = locks + idx * 512;
	for (long i = 0; i < ACQUIRES; i++) {
		mutex_lock(lock);
		mutex_unlock(lock);
	}
	return 0;
}

long main() {
	locks = (long*)(((long)raw + 4095) & ~4095);
	long tids[64];
	for (long i = 0; i < THREADS; i++) tids[i] = thread_create((long)worker, i);
	for (long i = 0; i < THREADS; i++) thread_join(tids[i]);
	print_str("locks done\n");
	return 0;
}`, threads, acquires, mode)
	return build("lockbench.mc", src)
}

// MemWalk is the Table 1 sequential-walk micro-benchmark: the master
// initializes bytes bytes; one remote thread walks them byte by byte. The
// reported metric is bytes / guest time. The paper walks 1 GiB; default
// runs use a scaled region (the per-page cost is what matters).
func MemWalk(bytes int) (*image.Image, error) {
	src := fmt.Sprintf(`
long BYTES = %d;
char *region;
long sink;
long walkNs;

long worker(long arg) {
	long t0 = now_ns();
	// Walk with 8-byte loads: the mini-C stack-machine code generator costs
	// ~25 instructions per access, so byte-granular walking (as in the
	// paper) would be compute-bound instead of network-bound; word-granular
	// walking restores the paper's compute/transfer balance (EXPERIMENTS.md).
	long *p = (long*)region;
	long *end = (long*)(region + BYTES);
	long s = 0;
	while (p < end) {
		s += *p;
		p++;
	}
	sink = s;
	walkNs = now_ns() - t0;
	return 0;
}

long main() {
	region = (char*)malloc(BYTES + 4096);
	long *q = (long*)region;
	for (long i = 0; i < BYTES / 8; i++) q[i] = i & 63;
	long t1 = thread_create((long)worker, 0);
	thread_join(t1);
	print_str("sum=");
	print_long(sink);
	print_char('\n');
	print_str("walk_ns=");
	print_long(walkNs);
	print_char('\n');
	return 0;
}`, bytes)
	return build("memwalk.mc", src)
}

// LocalWalk is the single-node (QEMU) variant of MemWalk: the main thread
// walks its own memory, giving the "QEMU Sequential Access" row of Table 1.
func LocalWalk(bytes int) (*image.Image, error) {
	src := fmt.Sprintf(`
long BYTES = %d;
long sink;
long main() {
	char *region = (char*)malloc(BYTES + 4096);
	long *q = (long*)region;
	for (long i = 0; i < BYTES / 8; i++) q[i] = i & 63;
	long t0 = now_ns();
	long *p = (long*)region;
	long *end = (long*)(region + BYTES);
	long s = 0;
	while (p < end) {
		s += *p;
		p++;
	}
	long walkNs = now_ns() - t0;
	sink = s;
	print_str("sum=");
	print_long(sink);
	print_char('\n');
	print_str("walk_ns=");
	print_long(walkNs);
	print_char('\n');
	return 0;
}`, bytes)
	return build("localwalk.mc", src)
}

// FalseShare is the Table 1 false-sharing micro-benchmark: threads threads
// each repeatedly walk their own section bytes of the same page (the paper:
// 32 threads on 4 slave nodes, 128-byte sections, 20M single-byte accesses
// each). Sections are arranged so that the threads of one node (round-robin
// placement) own one contiguous chunk of the page, matching the paper's
// setup where splitting can fully separate the nodes.
func FalseShare(threads, nodes, section, rounds int) (*image.Image, error) {
	if threads*section > 4096 {
		return nil, fmt.Errorf("workloads: %d x %d exceeds one page", threads, section)
	}
	if nodes < 1 {
		nodes = 1
	}
	src := fmt.Sprintf(`
long THREADS = %d;
long NODES   = %d;
long SECTION = %d;
long ROUNDS  = %d;
long raw[1024];
char *pg;

long worker(long idx) {
	// Round-robin placement puts thread idx on node idx %% NODES; group the
	// sections of one node's threads together (bijective for any split).
	long base = THREADS / NODES;
	long rem = THREADS %% NODES;
	long n = idx %% NODES;
	long mn = n;
	if (mn > rem) mn = rem;
	long slot = n * base + mn + idx / NODES;
	char *mine = pg + slot * SECTION;
	for (long r = 0; r < ROUNDS; r++) {
		for (long i = 0; i < SECTION; i++) mine[i] = (char)(mine[i] + 1);
	}
	return 0;
}

long main() {
	pg = (char*)(((long)raw + 4095) & ~4095);
	long tids[64];
	long t0 = now_ns();
	for (long i = 0; i < THREADS; i++) tids[i] = thread_create((long)worker, i);
	for (long i = 0; i < THREADS; i++) thread_join(tids[i]);
	long elapsed = now_ns() - t0;
	long s = 0;
	for (long i = 0; i < THREADS * SECTION; i++) s += pg[i];
	print_str("sum=");
	print_long(s);
	print_char('\n');
	print_str("elapsed_ns=");
	print_long(elapsed);
	print_char('\n');
	return 0;
}`, threads, nodes, section, rounds)
	return build("falseshare.mc", src)
}
