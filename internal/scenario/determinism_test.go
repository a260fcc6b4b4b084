package scenario

import (
	"bytes"
	"encoding/json"
	"fmt"
	"path/filepath"
	"testing"

	"dqemu/internal/core"
	"dqemu/internal/image"
	"dqemu/internal/netsim"
	"dqemu/internal/trace"
	"dqemu/internal/workloads"
)

// chaosSpec is the hardest determinism case: multiple slaves plus a seeded
// fault plan, so retries, duplicates, jitter, and reordering all perturb
// the event schedule. If this run is reproducible, the calm ones are too.
func chaosSpec() *Spec {
	return &Spec{
		Version:  SchemaVersion,
		Name:     "determinism-probe",
		Workload: Workload{Kind: "canneal", Args: map[string]int64{"threads": 4, "elems": 512, "steps": 60, "seed": 5}},
		Cluster:  Cluster{Slaves: 2},
		Faults: &netsim.FaultPlan{
			Seed: 11, DropRate: 0.02, DupRate: 0.02,
			JitterNs: 20_000, ReorderRate: 0.05, ReorderDelayNs: 30_000,
		},
	}
}

func runTraced(t *testing.T, s *Spec) (rowJSON, traceDump []byte) {
	t.Helper()
	tr := trace.New(1<<18, nil)
	rows, err := Run(s, Options{Tracer: tr})
	if err != nil {
		t.Fatal(err)
	}
	rowJSON, err = json.MarshalIndent(rows, "", "  ")
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if err := tr.Dump(&buf); err != nil {
		t.Fatal(err)
	}
	return rowJSON, buf.Bytes()
}

// TestRunnerDeterminism: the same spec at the same seed yields a
// byte-identical result row AND a byte-identical full event trace — not
// just equal summaries, the entire schedule replays.
func TestRunnerDeterminism(t *testing.T) {
	s := chaosSpec()
	row1, trace1 := runTraced(t, s)
	row2, trace2 := runTraced(t, s)
	if !bytes.Equal(row1, row2) {
		t.Errorf("result rows differ across identical runs:\nfirst:\n%s\nsecond:\n%s", row1, row2)
	}
	if len(trace1) == 0 {
		t.Fatal("tracer recorded nothing")
	}
	if !bytes.Equal(trace1, trace2) {
		t.Errorf("event traces differ across identical runs (%d vs %d bytes)", len(trace1), len(trace2))
	}
}

// TestSuiteReportDeterminism: two smoke runs over the checked-in regression
// suite serialize to byte-identical reports, and both it and the paper's
// figures and tables pass every gate at smoke scale — the shape claims of
// EXPERIMENTS.md are tier-1.
func TestSuiteReportDeterminism(t *testing.T) {
	if testing.Short() {
		t.Skip("whole-suite run in -short mode")
	}
	emit := func(dir string) []byte {
		specs, err := LoadDir(filepath.Join("..", "..", dir))
		if err != nil {
			t.Fatal(err)
		}
		rep, err := RunAll(specs, Options{Scale: Smoke})
		if err != nil {
			t.Fatal(err)
		}
		if n := rep.Fails(); n > 0 {
			var buf bytes.Buffer
			rep.Print(&buf)
			t.Fatalf("%d gate(s) failed at smoke scale:\n%s", n, buf.String())
		}
		var buf bytes.Buffer
		if err := rep.WriteJSON(&buf); err != nil {
			t.Fatal(err)
		}
		return buf.Bytes()
	}
	if !raceEnabled {
		emit(filepath.Join("scenarios", "paper"))
	}
	if !bytes.Equal(emit("scenarios"), emit("scenarios")) {
		t.Error("suite reports differ across identical runs")
	}
}

// TestSpecMatchesDirectRun pins subsumption: running a spec must be the
// same computation as hand-assembling the equivalent core.Config, cell by
// cell, so the data form replaces code-form experiments without changing
// results.
func TestSpecMatchesDirectRun(t *testing.T) {
	direct := func(name string, row *Row, im *image.Image, cfg core.Config) {
		t.Helper()
		res, err := core.Run(im, cfg)
		if err != nil {
			t.Fatal(err)
		}
		var insns uint64
		for _, n := range res.Nodes {
			insns += n.Engine.ExecInsns
		}
		if row.TimeNs != res.TimeNs || row.GuestInsns != insns ||
			row.ExitCode != res.ExitCode || row.TotalBytes != res.Net.Bytes {
			t.Errorf("%s: spec run (%d ns, %d insns, exit %d, %d bytes) != direct run (%d ns, %d insns, exit %d, %d bytes)",
				name, row.TimeNs, row.GuestInsns, row.ExitCode, row.TotalBytes,
				res.TimeNs, insns, res.ExitCode, res.Net.Bytes)
		}
	}

	// One arm of an unswept spec: the wire suite's full-layer row.
	s, err := Load(filepath.Join("..", "..", "scenarios", "wire-fluidanimate.json"))
	if err != nil {
		t.Fatal(err)
	}
	rows, err := Run(s, Options{})
	if err != nil {
		t.Fatal(err)
	}
	im, err := workloads.Fluidanimate(32, 192, 6, 4)
	if err != nil {
		t.Fatal(err)
	}
	cfg := core.DefaultConfig()
	cfg.Slaves = 4
	cfg.Forwarding = true
	cfg.HintSched = true
	if rows[3].Arm != "full" {
		t.Fatalf("row 3 is arm %q, want full", rows[3].Arm)
	}
	direct("wire-fluidanimate:full", rows[3], im, cfg)

	// A swept two-arm spec: Figure 7's swaptions at smoke scale, where the
	// partition count follows the cluster size.
	s, err = Load(filepath.Join("..", "..", "scenarios", "paper", "fig7-swaptions.json"))
	if err != nil {
		t.Fatal(err)
	}
	s.Sweep.Values = []int64{0, 3}
	s.Arms = s.Arms[1:]
	s.Compare = nil
	rows, err = Run(s, Options{Scale: Smoke})
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != 4 {
		t.Fatalf("2 values x 2 arms gave %d rows", len(rows))
	}
	for i, row := range rows {
		slaves, full := []int{0, 3}[i/2], i%2 == 1
		if row.Value != int64(slaves) || (row.Arm == "full") != full {
			t.Fatalf("row %d is %s@%d", i, row.Arm, row.Value)
		}
		im, err := workloads.Swaptions(32, 64, 600/smokeDiv, max(1, slaves))
		if err != nil {
			t.Fatal(err)
		}
		cfg := core.DefaultConfig()
		cfg.Slaves = slaves
		cfg.Forwarding = true
		cfg.Splitting = full
		direct(fmt.Sprintf("fig7-swaptions:%s@%d", row.Arm, slaves), row, im, cfg)
	}
}
