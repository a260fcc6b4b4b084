package core

import (
	"bytes"
	"encoding/json"
	"reflect"
	"testing"

	"dqemu/internal/trace"
)

// runTraced executes the skewed-placement workload with the feedback
// scheduler, tracing and metrics on, and returns the full trace dump plus
// the result.
// Each call rebuilds the image from source so no state leaks between runs.
func runTraced(t *testing.T) (string, *Result) {
	t.Helper()
	cfg := DefaultConfig()
	cfg.Slaves = 3
	cfg.HintSched = true // all 12 workers land on one node -> migrations
	cfg.Adaptive = true
	cfg.Metrics = true
	tr := trace.New(0, nil)
	cfg.Tracer = tr
	res := buildRun(t, skewSrc, cfg)
	var dump bytes.Buffer
	if err := tr.Dump(&dump); err != nil {
		t.Fatal(err)
	}
	return dump.String(), res
}

// Two identically-seeded runs with the feedback scheduler migrating threads
// must be bit-for-bit reproducible: same trace log, same stats, same metrics
// snapshot. The scheduler's snapshot arrives in Go maps (thread placement,
// affinity counts); sched picks the most- and least-loaded nodes, the victim
// thread and the affinity target by iterating node ids and tids in sorted
// order (sortedTids, sortedNodes), never in map order, which would randomize
// tie-breaks between identically-seeded runs.
func TestRunToRunDeterminismWithAdaptiveMigration(t *testing.T) {
	dump1, res1 := runTraced(t)
	dump2, res2 := runTraced(t)

	if res1.Migrations == 0 {
		t.Fatal("workload produced no migrations; the test is not exercising the scheduler")
	}
	if dump1 != dump2 {
		// Find the first divergent line for a readable failure.
		l1, l2 := bytes.Split([]byte(dump1), []byte("\n")), bytes.Split([]byte(dump2), []byte("\n"))
		for i := 0; i < len(l1) && i < len(l2); i++ {
			if !bytes.Equal(l1[i], l2[i]) {
				t.Fatalf("trace logs diverge at line %d:\n  run1: %s\n  run2: %s", i+1, l1[i], l2[i])
			}
		}
		t.Fatalf("trace logs differ in length: %d vs %d lines", len(l1), len(l2))
	}

	if res1.ExitCode != res2.ExitCode || res1.TimeNs != res2.TimeNs || res1.Console != res2.Console {
		t.Fatalf("results diverge: exit %d/%d time %d/%d console %q/%q",
			res1.ExitCode, res2.ExitCode, res1.TimeNs, res2.TimeNs, res1.Console, res2.Console)
	}
	if res1.Migrations != res2.Migrations {
		t.Fatalf("migration counts diverge: %d vs %d", res1.Migrations, res2.Migrations)
	}
	if !reflect.DeepEqual(res1.Net, res2.Net) {
		t.Fatalf("network stats diverge:\n%+v\n%+v", res1.Net, res2.Net)
	}
	if !reflect.DeepEqual(res1.Dir, res2.Dir) {
		t.Fatalf("directory stats diverge:\n%+v\n%+v", res1.Dir, res2.Dir)
	}
	if !reflect.DeepEqual(res1.Threads, res2.Threads) {
		t.Fatalf("thread stats diverge:\n%+v\n%+v", res1.Threads, res2.Threads)
	}

	m1, err := json.Marshal(res1.Metrics)
	if err != nil {
		t.Fatal(err)
	}
	m2, err := json.Marshal(res2.Metrics)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(m1, m2) {
		t.Fatalf("metrics snapshots diverge:\n%s\n%s", m1, m2)
	}
}
