package core

import (
	"encoding/json"
	"reflect"
	"testing"

	"dqemu/internal/workloads"
)

// sanCfg is the standard sanitizer test cluster: two slaves so worker
// threads land on different nodes and shadow state must cross the wire.
func sanCfg(slaves int) Config {
	cfg := DefaultConfig()
	cfg.Slaves = slaves
	cfg.Sanitizer = true
	return cfg
}

// TestSanitizerRacyDetects runs the deliberately-racy workload on a
// three-node cluster and checks the acceptance bar: at least three distinct
// races, at least one of them between threads on different nodes, and zero
// reports against the mutex-protected control counter.
func TestSanitizerRacyDetects(t *testing.T) {
	im, err := workloads.Racy(4, 20, 1234)
	if err != nil {
		t.Fatalf("build: %v", err)
	}
	res, err := Run(im, sanCfg(2))
	if err != nil {
		t.Fatalf("run: %v", err)
	}
	if res.ExitCode != 0 {
		t.Fatalf("exit = %d, console:\n%s", res.ExitCode, res.Console)
	}
	if res.San == nil {
		t.Fatal("Sanitizer on but Result.San == nil")
	}
	if len(res.San.Races) < 3 {
		t.Fatalf("races = %d, want >= 3:\n%s", len(res.San.Races), dumpSan(t, res))
	}

	// Distinct: the summary dedups by (Kind, PC, PrevPC), so distinct
	// entries are distinct source race pairs. Sanity-check the PCs differ.
	pcs := map[uint64]bool{}
	for _, r := range res.San.Races {
		pcs[r.PC] = true
	}
	if len(pcs) < 3 {
		t.Errorf("distinct racy PCs = %d, want >= 3:\n%s", len(pcs), dumpSan(t, res))
	}

	// Cross-node: some race must pair threads placed on different nodes.
	nodeOf := map[int64]int{}
	for _, ts := range res.Threads {
		nodeOf[ts.TID] = ts.Node
	}
	cross := false
	for _, r := range res.San.Races {
		if r.TID != 0 && r.PrevTID != 0 && nodeOf[r.TID] != nodeOf[r.PrevTID] {
			cross = true
			break
		}
	}
	if !cross {
		t.Errorf("no cross-node race detected:\n%s", dumpSan(t, res))
	}
	if res.San.Stats.Loads == 0 || res.San.Stats.Stores == 0 || res.San.Stats.Atomics == 0 {
		t.Errorf("instrumentation counters look dead: %+v", res.San.Stats)
	}
}

// TestSanitizerDeterministic runs the racy workload twice with the same
// seed and requires byte-identical reports: the detector must be as
// reproducible as the simulator underneath it.
func TestSanitizerDeterministic(t *testing.T) {
	run := func() *Result {
		im, err := workloads.Racy(4, 10, 99)
		if err != nil {
			t.Fatalf("build: %v", err)
		}
		res, err := Run(im, sanCfg(2))
		if err != nil {
			t.Fatalf("run: %v", err)
		}
		return res
	}
	a, b := run(), run()
	if !reflect.DeepEqual(a.San, b.San) {
		t.Errorf("reports differ across identical runs:\n--- a ---\n%s--- b ---\n%s",
			dumpSan(t, a), dumpSan(t, b))
	}
	if len(a.San.Races) == 0 {
		t.Error("deterministic run found no races at all")
	}
}

// TestSanitizerCleanWorkloads is the false-positive regression: properly
// synchronized benchmarks must produce zero race reports on a multi-node
// cluster, where every futex, coherence transfer and migration path is hit.
func TestSanitizerCleanWorkloads(t *testing.T) {
	runWL := func(t *testing.T, name string, mk func() (*Result, error)) {
		t.Helper()
		res, err := mk()
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		if res.ExitCode != 0 {
			t.Fatalf("%s: exit = %d, console:\n%s", name, res.ExitCode, res.Console)
		}
		if res.San == nil {
			t.Fatalf("%s: Result.San == nil", name)
		}
		if len(res.San.Races) != 0 {
			t.Errorf("%s: false positives:\n%s", name, dumpSan(t, res))
		}
	}

	runWL(t, "blackscholes", func() (*Result, error) {
		im, err := workloads.Blackscholes(4, 16, 2, 3)
		if err != nil {
			return nil, err
		}
		return Run(im, sanCfg(2))
	})
	runWL(t, "swaptions", func() (*Result, error) {
		im, err := workloads.Swaptions(4, 8, 4, 3)
		if err != nil {
			return nil, err
		}
		return Run(im, sanCfg(2))
	})
	runWL(t, "torture", func() (*Result, error) {
		im, err := workloads.Torture(4, 24)
		if err != nil {
			return nil, err
		}
		return Run(im, sanCfg(2))
	})
}

// TestSanitizerShadowSurvivesSplitting turns on page splitting and checks
// that shadow state follows the remapped parts without wedging the run or
// fabricating reports on the torture workload. With 32 threads the 64-byte
// slots cover two parts of the false-sharing page, and 64 rounds ping-pong it
// past the splitter's default threshold.
func TestSanitizerShadowSurvivesSplitting(t *testing.T) {
	im, err := workloads.Torture(32, 64)
	if err != nil {
		t.Fatalf("build: %v", err)
	}
	cfg := sanCfg(2)
	cfg.Splitting = true
	cfg.SplitFactor = 4
	res, err := Run(im, cfg)
	if err != nil {
		t.Fatalf("run: %v", err)
	}
	if res.ExitCode != 0 {
		t.Fatalf("exit = %d, console:\n%s", res.ExitCode, res.Console)
	}
	if res.Dir.Splits == 0 {
		t.Errorf("no page split; the test is not exercising remapped shadow state")
	}
	if len(res.San.Races) != 0 {
		t.Errorf("false positives under splitting:\n%s", dumpSan(t, res))
	}
}

// TestSanitizerSurvivesMigration exercises shadow/clock transfer across
// dynamic thread migration: racy threads keep racing while the feedback
// scheduler moves them, and the run must still converge on race reports.
func TestSanitizerSurvivesMigration(t *testing.T) {
	im, err := workloads.Racy(6, 30, 7)
	if err != nil {
		t.Fatalf("build: %v", err)
	}
	cfg := sanCfg(2)
	cfg.Adaptive = true
	res, err := Run(im, cfg)
	if err != nil {
		t.Fatalf("run: %v", err)
	}
	if res.ExitCode != 0 {
		t.Fatalf("exit = %d, console:\n%s", res.ExitCode, res.Console)
	}
	if res.Migrations == 0 {
		t.Fatal("no migrations; the test is not exercising them")
	}
	if len(res.San.Races) == 0 {
		t.Error("no races detected under migration")
	}
}

// TestSanitizerOffIsFree checks the ablation: with Sanitizer off, Result.San
// is nil and no San bytes ride on the wire.
func TestSanitizerOffIsFree(t *testing.T) {
	im, err := workloads.Racy(4, 10, 5)
	if err != nil {
		t.Fatalf("build: %v", err)
	}
	cfg := DefaultConfig()
	cfg.Slaves = 2
	res, err := Run(im, cfg)
	if err != nil {
		t.Fatalf("run: %v", err)
	}
	if res.San != nil {
		t.Errorf("Sanitizer off but Result.San = %+v", res.San)
	}
}

func dumpSan(t *testing.T, res *Result) string {
	t.Helper()
	b, err := json.MarshalIndent(res.San, "", "  ")
	if err != nil {
		t.Fatalf("marshal: %v", err)
	}
	return string(b) + "\n"
}
