package workloads

import (
	"fmt"

	"dqemu/internal/image"
)

// This file holds the sharing-pattern workloads added beyond the paper's
// four PARSEC-like kernels: canneal-like random pointer chasing (worst case
// for page coherence and the delta codec), a dedup-like producer/consumer
// pipeline (futex-heavy queue handoff), and streamcluster-like barrier
// phases (global synchronization storms). All three are written so their
// architecturally visible outcome — console output and final shared-memory
// contents — is schedule independent: cross-thread state combines only
// through commutative atomic adds, exactly-once CAS insertions, and
// barrier-separated single-writer phases. That makes them usable in the
// three-way tier differential tests, where different translation tiers
// produce different interleavings.

// Canneal is a canneal-like kernel: a netlist of elems elements is chased
// through a random permutation (built by the main thread with Fisher-Yates,
// so it is part of the deterministic input), and every step each thread
// reads a random element and atomically perturbs another. Reads and writes
// hop pages uniformly at random — the worst case for page coherence: no
// locality for the hint scheduler, no stable ownership for the directory,
// and scattered single-word dirty sets that stress the delta codec's
// miss/overflow/full-resend paths. Final memory is deterministic because
// every cross-thread write is a commutative __amoadd.
func Canneal(threads, elems, steps int, seed int64) (*image.Image, error) {
	if threads > 64 {
		return nil, fmt.Errorf("workloads: canneal supports at most 64 threads")
	}
	if elems < 64 {
		return nil, fmt.Errorf("workloads: canneal needs at least 64 elements")
	}
	src := fmt.Sprintf(`
long THREADS = %d;
long ELEMS   = %d;
long STEPS   = %d;
long SEED    = %d;

long *val;       // perturbation targets (commutative amoadds)
long *next;      // random permutation: the pointer-chase order
long chased[64]; // per-thread chase checksum (deterministic: next is read-only)

long worker(long idx) {
	long state = SEED + idx * 1000003;
	long pos = rand_next(&state) %% ELEMS;
	long sum = 0;
	for (long s = 0; s < STEPS; s++) {
		pos = next[pos];                          // random-page read hop
		sum += next[pos];                         // and another
		long r = rand_next(&state) %% ELEMS;      // random-page write
		long d = (rand_next(&state) & 1023) - 512;
		__amoadd(&val[r], d);
	}
	chased[idx] = sum;
	return 0;
}

long main() {
	val  = (long*)malloc(ELEMS * 8 + 4096);
	next = (long*)malloc(ELEMS * 8 + 4096);
	for (long i = 0; i < ELEMS; i++) {
		val[i] = i & 255;
		next[i] = i;
	}
	// Fisher-Yates with the runtime xorshift: a genuinely random
	// permutation, so consecutive chase steps land on unrelated pages.
	long state = SEED;
	for (long i = ELEMS - 1; i > 0; i--) {
		long j = rand_next(&state) %% (i + 1);
		long t = next[i];
		next[i] = next[j];
		next[j] = t;
	}
	long tids[64];
	for (long i = 0; i < THREADS; i++) tids[i] = thread_create((long)worker, i);
	for (long i = 0; i < THREADS; i++) thread_join(tids[i]);
	long total = 0;
	long hash = 0;
	for (long i = 0; i < ELEMS; i++) {
		total += val[i];
		hash = (hash * 31 + val[i]) & 0xffffffffffff;
	}
	long walk = 0;
	for (long i = 0; i < THREADS; i++) walk += chased[i];
	print_str("total=");
	print_long(total);
	print_char('\n');
	print_str("hash=");
	print_long(hash);
	print_char('\n');
	print_str("walk=");
	print_long(walk);
	print_char('\n');
	return 0;
}`, threads, elems, steps, seed)
	return build("canneal.mc", src)
}

// Dedup is a dedup-like three-stage pipeline: producers generate a
// duplicate-rich key stream, dedup workers pop keys from a bounded queue
// and insert them into a shared CAS-claimed hash set (each distinct key is
// inserted exactly once, whichever worker wins the race), and writers
// drain unique keys from a second queue, modeling the compress/output
// stage. Both queues are single-mutex bounded rings, so every handoff
// contends one lock word across all stage threads — the futex-heavy
// pattern of the paper's Fig. 6 worst case, now with real payload flowing
// through. Console output (unique count and commutative checksums) is
// schedule independent; the queues and hash table live in heap memory.
func Dedup(producers, consumers, writers, items, keyspace, qcap int) (*image.Image, error) {
	if producers < 1 || consumers < 1 || writers < 1 {
		return nil, fmt.Errorf("workloads: dedup needs at least one thread per stage")
	}
	if producers+consumers+writers > 64 {
		return nil, fmt.Errorf("workloads: dedup supports at most 64 threads")
	}
	if keyspace < 2 || items < 1 || qcap < 2 {
		return nil, fmt.Errorf("workloads: bad dedup shape items=%d keyspace=%d qcap=%d", items, keyspace, qcap)
	}
	// The hash set is open-addressed and never resizes: size it to a power
	// of two holding all possible distinct keys at < 50%% load.
	hsize := 64
	for hsize < 2*keyspace {
		hsize *= 2
	}
	src := fmt.Sprintf(`
long PRODUCERS = %d;
long CONSUMERS = %d;
long WRITERS   = %d;
long ITEMS     = %d;
long KEYSPACE  = %d;
long QCAP      = %d;
long HSIZE     = %d;

// Queue header: [head, tail, lock, done]; slots follow in a separate block.
long *q1;
long *q1s;
long *q2;
long *q2s;
long *htab;

long uniqueCount;
long uniqueSum;
long outCount;
long outSum;

void q_push(long *q, long *slots, long v) {
	while (1) {
		mutex_lock(q + 2);
		if (q[1] - q[0] < QCAP) {
			slots[q[1] %% QCAP] = v;
			q[1] = q[1] + 1;
			mutex_unlock(q + 2);
			return;
		}
		mutex_unlock(q + 2);
		yield();
	}
}

// q_trypop returns a key, or 0 when the queue was empty.
long q_trypop(long *q, long *slots) {
	mutex_lock(q + 2);
	if (q[0] < q[1]) {
		long v = slots[q[0] %% QCAP];
		q[0] = q[0] + 1;
		mutex_unlock(q + 2);
		return v;
	}
	mutex_unlock(q + 2);
	return 0;
}

long producer(long idx) {
	long state = 77777 + idx * 9176;
	for (long i = 0; i < ITEMS; i++) {
		long k = 1 + rand_next(&state) %% KEYSPACE;   // keys are >= 1; 0 = empty
		q_push(q1, q1s, k);
	}
	__amoadd(&q1[3], 1);
	return 0;
}

long dedup(long idx) {
	while (1) {
		long v = q_trypop(q1, q1s);
		if (v == 0) {
			// All producers done and the queue drained: no more input can
			// appear (each producer's last push precedes its done mark).
			if (q1[3] == PRODUCERS) {
				if (q1[0] == q1[1]) break;
			}
			yield();
			continue;
		}
		long h = (v * 40503) & (HSIZE - 1);
		long fresh = 0;
		while (1) {
			long cur = htab[h];
			if (cur == v) break;
			if (cur == 0) {
				if (__cas(&htab[h], 0, v) == 0) { fresh = 1; break; }
				continue;   // lost the slot race: re-examine the same slot
			}
			h = (h + 1) & (HSIZE - 1);
		}
		if (fresh) {
			__amoadd(&uniqueCount, 1);
			__amoadd(&uniqueSum, v);
			q_push(q2, q2s, v);
		}
	}
	__amoadd(&q2[3], 1);
	return 0;
}

long writer(long idx) {
	while (1) {
		long v = q_trypop(q2, q2s);
		if (v == 0) {
			if (q2[3] == CONSUMERS) {
				if (q2[0] == q2[1]) break;
			}
			yield();
			continue;
		}
		__amoadd(&outCount, 1);
		__amoadd(&outSum, (v * v) %% 1000003);
	}
	return 0;
}

long main() {
	q1   = (long*)malloc(4096);
	q1s  = (long*)malloc(QCAP * 8 + 4096);
	q2   = (long*)malloc(4096);
	q2s  = (long*)malloc(QCAP * 8 + 4096);
	htab = (long*)malloc(HSIZE * 8 + 4096);
	memset((char*)htab, 0, HSIZE * 8);
	long tids[64];
	long n = 0;
	for (long i = 0; i < PRODUCERS; i++) { tids[n] = thread_create((long)producer, i); n++; }
	for (long i = 0; i < CONSUMERS; i++) { tids[n] = thread_create((long)dedup, i); n++; }
	for (long i = 0; i < WRITERS; i++)   { tids[n] = thread_create((long)writer, i); n++; }
	for (long i = 0; i < n; i++) thread_join(tids[i]);
	print_str("unique=");
	print_long(uniqueCount);
	print_char('\n');
	print_str("usum=");
	print_long(uniqueSum);
	print_char('\n');
	print_str("out=");
	print_long(outCount);
	print_char('\n');
	print_str("osum=");
	print_long(outSum);
	print_char('\n');
	return 0;
}`, producers, consumers, writers, items, keyspace, qcap, hsize)
	return build("dedup.mc", src)
}

// Streamcluster is a streamcluster-like kernel: iters k-means-style
// refinement rounds over points one-dimensional integer points. Each round
// every thread assigns its chunk to the nearest of centers centers,
// accumulates per-center sums/counts and the assignment cost with
// commutative atomic adds, and meets a global barrier; the main thread
// alone recenters between a second pair of barriers. Two full-cluster
// barriers per round with the naive wake-everyone futex barrier is the
// global-synchronization-storm pattern: every round, every node's threads
// sleep on the same generation word and stampede the master when it flips.
func Streamcluster(threads, points, centers, iters int) (*image.Image, error) {
	if threads > 63 {
		return nil, fmt.Errorf("workloads: streamcluster supports at most 63 threads")
	}
	if centers < 1 || centers > 64 || points < threads || points < centers {
		return nil, fmt.Errorf("workloads: bad streamcluster shape points=%d centers=%d", points, centers)
	}
	src := fmt.Sprintf(`
long THREADS = %d;
long POINTS  = %d;
long CENTERS = %d;
long ITERS   = %d;

long *pts;
long centers[64];
long csum[64];
long ccnt[64];
long cost;
long totalCost;
long bar[3];

long worker(long idx) {
	long chunk = POINTS / THREADS;
	long lo = idx * chunk;
	long hi = lo + chunk;
	if (idx == THREADS - 1) hi = POINTS;
	long lsum[64];
	long lcnt[64];
	for (long it = 0; it < ITERS; it++) {
		for (long c = 0; c < CENTERS; c++) { lsum[c] = 0; lcnt[c] = 0; }
		long myCost = 0;
		for (long i = lo; i < hi; i++) {
			long p = pts[i];
			long best = 0;
			long bestd = p - centers[0];
			if (bestd < 0) bestd = -bestd;
			for (long c = 1; c < CENTERS; c++) {
				long d = p - centers[c];
				if (d < 0) d = -d;
				if (d < bestd) { bestd = d; best = c; }
			}
			myCost += bestd;
			lsum[best] += p;
			lcnt[best] += 1;
		}
		for (long c = 0; c < CENTERS; c++) {
			if (lcnt[c] > 0) {
				__amoadd(&csum[c], lsum[c]);
				__amoadd(&ccnt[c], lcnt[c]);
			}
		}
		__amoadd(&cost, myCost);
		barrier_wait(bar);   // all partial sums are in
		barrier_wait(bar);   // main has recentered
	}
	return 0;
}

long main() {
	pts = (long*)malloc(POINTS * 8 + 4096);
	long state = 424243;
	for (long i = 0; i < POINTS; i++) pts[i] = rand_next(&state) %% 100000;
	for (long c = 0; c < CENTERS; c++) centers[c] = (c * 100000) / CENTERS;
	barrier_init(bar, THREADS + 1);
	long tids[64];
	for (long i = 0; i < THREADS; i++) tids[i] = thread_create((long)worker, i);
	for (long it = 0; it < ITERS; it++) {
		barrier_wait(bar);
		// Single-writer phase: only main touches the centers between the
		// two barriers, so recentering is deterministic.
		totalCost += cost;
		cost = 0;
		for (long c = 0; c < CENTERS; c++) {
			if (ccnt[c] > 0) centers[c] = csum[c] / ccnt[c];
			csum[c] = 0;
			ccnt[c] = 0;
		}
		barrier_wait(bar);
	}
	for (long i = 0; i < THREADS; i++) thread_join(tids[i]);
	long chash = 0;
	for (long c = 0; c < CENTERS; c++) chash = (chash * 31 + centers[c]) & 0xffffffffffff;
	print_str("cost=");
	print_long(totalCost);
	print_char('\n');
	print_str("centers=");
	print_long(chash);
	print_char('\n');
	return 0;
}`, threads, points, centers, iters)
	return build("streamcluster.mc", src)
}
