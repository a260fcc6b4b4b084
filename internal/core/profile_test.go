package core

import (
	"os"
	"reflect"
	"strings"
	"testing"

	"dqemu/internal/grt"
	"dqemu/internal/image"
	"dqemu/internal/metrics"
	"dqemu/internal/workloads"
)

// A multi-node workload with cross-node sharing and lock traffic must fill
// every section of the metrics snapshot: phase-split fault histograms, page
// heat, lock contention, per-thread rows and the Result's own rows.
func TestMetricsSnapshotFromClusterRun(t *testing.T) {
	// The critical section holds the lock across a sleep, far longer than
	// the futex-wait delegation round trip, so contending threads reliably
	// park instead of winning the EAGAIN re-check race (the lock profile
	// only sees contended acquisitions).
	src := `
long lock;
long counter;
long worker(long idx) {
	for (long r = 0; r < 3; r++) {
		mutex_lock(&lock);
		counter += 1;
		sleep_ns(800000);
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
}`
	cfg := DefaultConfig()
	cfg.Slaves = 2
	cfg.Metrics = true
	res := buildRun(t, src, cfg)
	if res.Console != "18" {
		t.Fatalf("console = %q, want 18", res.Console)
	}
	s := res.Metrics
	if s == nil {
		t.Fatal("Config.Metrics on but Result.Metrics is nil")
	}
	if err := s.Validate(MetricFaultE2E, MetricFaultDirWait, MetricFaultTransfer, MetricFaultApply, MetricMigrate); err != nil {
		t.Fatalf("Validate: %v", err)
	}

	e2e := s.Histograms[MetricFaultE2E]
	if e2e.Count == 0 {
		t.Fatal("no remote-fault latencies recorded on a 2-slave contended run")
	}
	if e2e.P50 <= 0 || e2e.P99 < e2e.P50 {
		t.Fatalf("fault e2e percentiles implausible: %+v", e2e)
	}
	dir := s.Histograms[MetricFaultDirWait]
	xfer := s.Histograms[MetricFaultTransfer]
	if dir.Count == 0 || xfer.Count == 0 {
		t.Fatalf("phase histograms empty: dir=%d xfer=%d", dir.Count, xfer.Count)
	}
	// The transfer phase includes wire latency, so its median must be on
	// the order of the configured one-way latency or more.
	if xfer.P50 < cfg.Net.LatencyNs/2 {
		t.Errorf("transfer p50 = %dns, implausibly below wire latency %dns", xfer.P50, cfg.Net.LatencyNs)
	}
	// E2E covers all phases: its p99 must not be below any single phase's.
	if e2e.Max < xfer.P50 {
		t.Errorf("e2e max %d < transfer p50 %d", e2e.Max, xfer.P50)
	}

	if len(s.PageHeat) == 0 {
		t.Fatal("page heat map empty despite cross-node sharing")
	}
	var sawMultiNode bool
	for _, row := range s.PageHeat {
		if row.Faults == 0 && row.Invals == 0 {
			t.Fatalf("zero-pressure row in heat map: %+v", row)
		}
		if row.Nodes >= 2 {
			sawMultiNode = true
		}
	}
	if !sawMultiNode {
		t.Error("no page faulted from two nodes; heat attribution looks wrong")
	}

	if len(s.Locks) == 0 {
		t.Fatal("lock contention table empty despite a contended mutex")
	}
	top := s.Locks[0]
	if top.Waits == 0 || top.Wakes == 0 || top.WaitNs <= 0 {
		t.Fatalf("lock row not populated: %+v", top)
	}
	if top.MaxWaiters < 1 {
		t.Fatalf("max waiters = %d", top.MaxWaiters)
	}

	if len(s.Threads) != 7 { // main + 6 workers
		t.Fatalf("thread rows = %d, want 7", len(s.Threads))
	}
	if want := res.Rows("virtual"); len(want) == 0 || !reflect.DeepEqual(s.Result, want) {
		t.Fatalf("snapshot carries %d result rows, want the %d of Result.Rows", len(s.Result), len(want))
	}
	var execTotal, translate, requests, invalidates int64
	for _, row := range s.Result {
		switch {
		case row.Key == "dir.reads" || row.Key == "dir.writes":
			requests += row.Value
		case row.Key == "dir.invalidates":
			invalidates = row.Value
		case strings.HasPrefix(row.Key, "threads.") && strings.HasSuffix(row.Key, ".exec_ns"):
			execTotal += row.Value
		case strings.HasPrefix(row.Key, "nodes.") && strings.HasSuffix(row.Key, ".engine.translate_ns"):
			translate += row.Value
		}
	}
	if execTotal == 0 || translate == 0 || len(res.Nodes) != 3 {
		t.Fatalf("per-thread exec %d ns, per-node translate %d ns over %d nodes", execTotal, translate, len(res.Nodes))
	}

	if requests == 0 {
		t.Error("no dir.reads or dir.writes row: no page request reached the directory")
	}
	if invalidates == 0 {
		t.Error("dir.invalidates row empty (write sharing must invalidate)")
	}
}

// TestRegistryAgreesWithResult: the registry's hooks fire exactly where the
// run's own counts are taken, so what the heat map and the migration
// histogram add up to is what Result says: page requests (dir.reads +
// dir.writes), invalidations (dir.invalidates) and landed migrations. The
// three registry counters that once re-counted these (fault.requests,
// inv.sent, migrate.started) agreed with Result on every run here before
// they went. The runs are every metrics-on configuration the repository
// runs: the phases-2s adaptive arm, the profile-smoke program and a
// 4-slave canneal.
func TestRegistryAgreesWithResult(t *testing.T) {
	src, err := os.ReadFile("../../cmd/dqemu/testdata/profile_smoke.mc")
	if err != nil {
		t.Fatal(err)
	}
	smoke, err := grt.BuildProgram("profile_smoke.mc", string(src))
	if err != nil {
		t.Fatal(err)
	}
	canneal, err := workloads.Canneal(4, 256, 40, 1)
	if err != nil {
		t.Fatal(err)
	}
	phases, err := workloads.Phases(8, 8)
	if err != nil {
		t.Fatal(err)
	}
	for _, tc := range []struct {
		name     string
		im       *image.Image
		slaves   int
		adaptive bool
	}{
		{"phases-2s adaptive", phases, 2, true},
		{"profile_smoke", smoke, 2, false},
		{"canneal", canneal, 4, false},
	} {
		cfg := DefaultConfig()
		cfg.Slaves = tc.slaves
		cfg.Forwarding, cfg.Splitting = true, true
		cfg.Adaptive, cfg.Metrics = tc.adaptive, true
		c, err := NewCluster(tc.im, cfg)
		if err != nil {
			t.Fatal(err)
		}
		res, err := c.simulate(maxTimeNs)
		if err != nil {
			t.Fatalf("%s: %v", tc.name, err)
		}
		var faults, invals uint64
		for _, row := range c.prof.reg.Pages().TopN(0) {
			faults += row.Faults
			invals += row.Invals
		}
		if want := res.Dir.Reads + res.Dir.Writes; faults != want || want == 0 {
			t.Errorf("%s: heat map counts %d page requests, dir.reads + dir.writes %d", tc.name, faults, want)
		}
		if invals != res.Dir.Invalidates || invals == 0 {
			t.Errorf("%s: heat map counts %d invalidations, dir.invalidates %d", tc.name, invals, res.Dir.Invalidates)
		}
		if got := c.prof.migrate.Count(); got != res.Migrations || tc.adaptive != (got > 0) {
			t.Errorf("%s: %d migrations in the histogram, %d landed", tc.name, got, res.Migrations)
		}
	}
}

// Migration latency lands in the migrate histogram and the per-thread rows.
func TestMetricsRecordMigrations(t *testing.T) {
	cfg := DefaultConfig()
	cfg.Slaves = 3
	cfg.HintSched = true
	cfg.Adaptive = true
	cfg.Metrics = true
	res := buildRun(t, skewSrc, cfg)
	if res.Migrations == 0 {
		t.Fatal("no migrations")
	}
	mg := res.Metrics.Histograms[MetricMigrate]
	if mg.Count == 0 || mg.Count > res.Migrations {
		t.Fatalf("migrate histogram count = %d, migrations = %d", mg.Count, res.Migrations)
	}
	if mg.Min <= 0 {
		t.Fatalf("migration transit min = %dns; shipping a context is never free", mg.Min)
	}
	var migNs int64
	for _, tr := range res.Metrics.Threads {
		migNs += tr.MigrateNs
	}
	if migNs != mg.Sum {
		t.Fatalf("per-thread migrate total %d != histogram sum %d", migNs, mg.Sum)
	}
}

// With metrics off the result carries no snapshot and delta ratio stays
// meaningful when the wire layer is active.
func TestMetricsDisabledIsNil(t *testing.T) {
	res := buildRun(t, `long main() { print_str("x"); return 0; }`, DefaultConfig())
	if res.Metrics != nil {
		t.Fatal("Result.Metrics should be nil with Config.Metrics off")
	}
}

// The instrumentation hooks live unconditionally in the fault/sched hot
// paths; with Config.Metrics off (nil profiler) they must not allocate.
func TestProfilerHooksZeroAllocWhenDisabled(t *testing.T) {
	var p *clusterProf
	if n := testing.AllocsPerRun(200, func() {
		p.reqArrived(1, 0x40000, true, 100)
		p.grantSent(1, 0x40000, 200)
		p.contentApplied(1, 0x40000, 300)
		p.faultResolved(1, 0x40000, 250, 350)
		p.requestDropped(1, 0x40000)
		p.invalidated(0x40000)
		p.migStarted(7, 100)
		p.migArrived(7, 400)
		if p.futexProfile() != nil {
			t.Fatal("nil profiler handed out a lock profile")
		}
	}); n != 0 {
		t.Fatalf("disabled profiler hooks allocated %v per run, want 0", n)
	}
	if p.snapshot(nil, "virtual") != nil {
		t.Fatal("nil profiler snapshot should be nil")
	}
	var _ *metrics.Snapshot = p.snapshot(nil, "virtual")
}
