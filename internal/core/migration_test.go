package core

import (
	"testing"

	"dqemu/internal/trace"
)

// skewSrc hints every worker into the same locality group, so hint
// scheduling piles all of them onto one node — the pathological placement
// the feedback scheduler's load-balance fallback is meant to fix.
const skewSrc = `
long results[16];
long worker(long idx) {
	double acc = 0.0;
	for (long i = 0; i < 60000; i++) acc += 1.0 / (double)(i + 1);
	results[idx] = (long)acc;
	return 0;
}
long main() {
	long tids[12];
	for (long i = 0; i < 12; i++) {
		dq_hint(7);
		tids[i] = thread_create((long)worker, i);
	}
	for (long i = 0; i < 12; i++) thread_join(tids[i]);
	long s = 0;
	for (long i = 0; i < 12; i++) s += results[i];
	print_long(s);
	print_char('\n');
	return 0;
}`

func TestMigrationRebalancesSkewedPlacement(t *testing.T) {
	base := DefaultConfig()
	base.Slaves = 3
	base.HintSched = true // all 12 workers land on one node
	skewed := buildRun(t, skewSrc, base)

	adaptive := base
	adaptive.Adaptive = true
	balanced := buildRun(t, skewSrc, adaptive)

	if skewed.Console != balanced.Console {
		t.Fatalf("results differ: %q vs %q", skewed.Console, balanced.Console)
	}
	if balanced.Migrations == 0 {
		t.Fatal("no migrations happened")
	}
	if balanced.TimeNs >= skewed.TimeNs {
		t.Errorf("rebalancing did not help: %d >= %d ns (migrations=%d)",
			balanced.TimeNs, skewed.TimeNs, balanced.Migrations)
	}
	// Threads must have ended up on several nodes.
	nodesUsed := 0
	for _, ns := range balanced.Nodes {
		if ns.Node != 0 && ns.Threads > 0 {
			nodesUsed++
		}
	}
	if nodesUsed < 2 {
		t.Errorf("threads ended up on %d node(s)", nodesUsed)
	}
}

// TestMigratedThreadKeepsBreakdown: a thread's row covers every node it ran
// on. The "exec" spans of each thread add up exactly to its ExecNs — except
// for a thread whose last quantum was still in flight at exit, whose span
// never closed.
func TestMigratedThreadKeepsBreakdown(t *testing.T) {
	cfg := DefaultConfig()
	cfg.Slaves = 3
	cfg.HintSched = true
	cfg.Adaptive = true
	cfg.Tracer = trace.New(0, nil)
	res := buildRun(t, skewSrc, cfg)
	if res.Migrations == 0 {
		t.Fatal("no migrations")
	}
	if cfg.Tracer.Dropped() != 0 {
		t.Fatalf("tracer dropped %d events", cfg.Tracer.Dropped())
	}
	spans := map[int64]int64{}
	open := map[int64]int64{} // tid -> begin of its quantum in flight
	for _, e := range cfg.Tracer.Filter(trace.EvSched) {
		switch {
		case e.Name != "exec":
		case e.Phase == trace.PhBegin:
			open[e.TID] = e.TimeNs
		case e.Phase == trace.PhEnd:
			spans[e.TID] += e.TimeNs - open[e.TID]
			delete(open, e.TID)
		}
	}
	checked := 0
	for _, ts := range res.Threads {
		if _, inFlight := open[ts.TID]; inFlight {
			continue
		}
		checked++
		if ts.ExecNs != spans[ts.TID] {
			t.Errorf("tid %d (ended on node %d): ExecNs %d, exec spans sum to %d", ts.TID, ts.Node, ts.ExecNs, spans[ts.TID])
		}
	}
	if checked < len(res.Threads)-1 {
		t.Errorf("checked %d of %d threads", checked, len(res.Threads))
	}
}

func TestMigrationPreservesBlockedThreads(t *testing.T) {
	// Threads that sleep and hold locks while the feedback scheduler moves
	// them must migrate without losing state.
	src := `
long lock;
long counter;
long worker(long idx) {
	for (long r = 0; r < 5; r++) {
		sleep_ns(500000);
		mutex_lock(&lock);
		counter += 1;
		mutex_unlock(&lock);
	}
	return 0;
}
long main() {
	long tids[8];
	for (long i = 0; i < 8; i++) {
		dq_hint(3);
		tids[i] = thread_create((long)worker, i);
	}
	for (long i = 0; i < 8; i++) thread_join(tids[i]);
	print_long(counter);
	return 0;
}`
	cfg := DefaultConfig()
	cfg.Slaves = 2
	cfg.HintSched = true
	cfg.Adaptive = true
	res := buildRun(t, src, cfg)
	if res.Console != "40" {
		t.Errorf("counter = %q, want 40", res.Console)
	}
	if res.Migrations == 0 {
		t.Error("expected some migrations")
	}
}

// TestAdaptivePingPongStable runs a two-thread lock ping-pong over a single
// shared page with the feedback scheduler on. Both threads' affinity points
// at the other's node every tick; without hysteresis the policy would bounce
// them forever. The run must stay deterministic across repeats and settle in
// a handful of migrations rather than one per control period.
func TestAdaptivePingPongStable(t *testing.T) {
	const src = `
long shared[1];
long l[1];
long worker(long idx) {
	for (long r = 0; r < 600; r++) {
		mutex_lock(l);
		shared[0] = shared[0] + 1;
		mutex_unlock(l);
	}
	return 0;
}
long main() {
	long t0 = thread_create((long)worker, 0);
	long t1 = thread_create((long)worker, 1);
	thread_join(t0);
	thread_join(t1);
	print_long(shared[0]);
	print_char('\n');
	return 0;
}`
	im := build(t, src)
	cfg := DefaultConfig()
	cfg.Slaves = 2
	cfg.Adaptive = true

	first, err := Run(im, cfg)
	if err != nil {
		t.Fatal(err)
	}
	if first.ExitCode != 0 {
		t.Fatalf("exit %d console %q", first.ExitCode, first.Console)
	}
	if first.Console != "1200\n" {
		t.Errorf("console = %q, want %q", first.Console, "1200\n")
	}
	if first.Sched.Ticks == 0 {
		t.Fatal("adaptive loop never ticked")
	}
	// The hysteresis bound: a pure ping-pong admits at most a few moves
	// (co-locate once, maybe re-settle after a phase of lock transfer),
	// nowhere near one per tick.
	if max := first.Sched.Ticks / 4; first.Sched.Migrations > 4 && first.Sched.Migrations > max {
		t.Errorf("policy thrashing: %d migrations over %d ticks",
			first.Sched.Migrations, first.Sched.Ticks)
	}

	second, err := Run(im, cfg)
	if err != nil {
		t.Fatal(err)
	}
	if second.Console != first.Console || second.TimeNs != first.TimeNs ||
		second.Sched != first.Sched {
		t.Errorf("adaptive ping-pong not deterministic:\n run1 %q t=%d %+v\n run2 %q t=%d %+v",
			first.Console, first.TimeNs, first.Sched,
			second.Console, second.TimeNs, second.Sched)
	}
}
