package core

import (
	"encoding/json"
	"fmt"
	"reflect"
	"strings"
	"testing"

	"dqemu/internal/image"
	"dqemu/internal/netsim"
	"dqemu/internal/workloads"
)

// The torture battery runs the self-checking torture guest on a simulated
// cluster under seeded fault plans (netsim.PlanForSeed). A recoverable plan
// must end in the fault-free run's exit code and console, and with
// checkCoherence clean. A crash plan must end in a *NodeLostError naming the
// crashed slave, or in the reference output when the crash lands after the
// guest finished. A seed fully determines the verdict, and a failure prints
// its plan as the JSON a scenario spec's "faults" block takes
// (scenarios/canneal-chaos.json is the model).

// chaosBudgetNs is the virtual time a battery run may take: one that
// outlives it is a liveness failure, reported instead of waited out.
const chaosBudgetNs = 20_000_000_000

// chaosVerdict is what one seeded run must reproduce.
type chaosVerdict struct {
	Class      string
	Plan       netsim.FaultPlan
	ExitCode   int64
	TimeNs     int64
	Faults     netsim.FaultStats
	Rel        netsim.RelStats
	Err        string
	Violations []string
}

func (v chaosVerdict) String() string {
	faults, _ := json.Marshal(v.Plan)
	return fmt.Sprintf("seed %d (%s): %v\n  \"faults\": %s", v.Plan.Seed, v.Class, v.Violations, faults)
}

// tortureGuest builds the battery's guest and its fault-free reference run.
func tortureGuest(t *testing.T) (*image.Image, *Result) {
	t.Helper()
	im, err := workloads.Torture(4, 24)
	if err != nil {
		t.Fatal(err)
	}
	ref, err := Run(im, chaosConfig(false, false))
	if err != nil {
		t.Fatalf("fault-free reference run: %v", err)
	}
	return im, ref
}

// chaosConfig is the battery's two-slave cluster, with the transport
// ablation it must catch when noRetry or noDedup is set.
func chaosConfig(noRetry, noDedup bool) Config {
	cfg := DefaultConfig()
	cfg.Slaves = 2
	if noRetry || noDedup {
		cfg.Retry = netsim.DefaultRetryPolicy()
		cfg.Retry.NoRetry, cfg.Retry.NoDedup = noRetry, noDedup
	}
	return cfg
}

// runChaos runs im under seed's plan and judges it against ref.
func runChaos(t *testing.T, im *image.Image, ref *Result, seed int64, cfg Config) chaosVerdict {
	t.Helper()
	plan, class := netsim.PlanForSeed(seed, cfg.Slaves)
	cfg.Faults = &plan
	c, err := NewCluster(im, cfg)
	if err != nil {
		t.Fatal(err)
	}
	res, runErr := c.simulate(chaosBudgetNs)
	v := chaosVerdict{Class: class, Plan: plan}
	if res != nil {
		v.ExitCode, v.TimeNs, v.Faults, v.Rel = res.ExitCode, res.TimeNs, res.Faults, res.Rel
	}
	bad := func(format string, args ...any) { v.Violations = append(v.Violations, fmt.Sprintf(format, args...)) }
	if runErr != nil {
		v.Err = runErr.Error()
		lost, isLost := runErr.(*NodeLostError)
		switch {
		case class != "crash":
			bad("run error: %v", runErr)
		case !isLost:
			bad("unstructured failure: %v", runErr)
		case int32(lost.Node) != plan.Crashes[0].Node:
			bad("wrong node reported lost: %d (crashed %d)", lost.Node, plan.Crashes[0].Node)
		}
		return v // a cut-short run proves nothing about coherence or races
	}
	if res.ExitCode != ref.ExitCode {
		bad("exit code %d != reference %d", res.ExitCode, ref.ExitCode)
	}
	if res.Console != ref.Console {
		bad("console diverged from fault-free reference:\n--- got ---\n%s--- want ---\n%s", res.Console, ref.Console)
	}
	if class == "recoverable" {
		if err := c.checkCoherence(); err != nil {
			bad("%v", err)
		}
	}
	// The torture guest is race-free, so the sanitizer must stay silent
	// whatever the transport did to the clock-carrying messages.
	if res.San != nil {
		for _, r := range res.San.Races {
			bad("sanitizer false positive under faults: %s tid%d@%#x vs tid%d@%#x", r.Kind, r.TID, r.PC, r.PrevTID, r.PrevPC)
		}
	}
	return v
}

// TestChaosShort: 60 seeded plans of both classes all pass, and the battery
// really injected faults rather than passing vacuously.
func TestChaosShort(t *testing.T) {
	im, ref := tortureGuest(t)
	passes, faulted, crashes := 0, 0, 0
	for seed := int64(1); seed <= 60; seed++ {
		v := runChaos(t, im, ref, seed, chaosConfig(false, false))
		if len(v.Violations) == 0 {
			passes++
		} else {
			t.Error(v)
		}
		if v.Faults.Dropped+v.Faults.Duplicated+v.Faults.Reordered+v.Faults.Stalled > 0 {
			faulted++
		}
		if v.Class == "crash" {
			crashes++
		}
	}
	if passes < 50 {
		t.Errorf("only %d passing fault plans, want >= 50", passes)
	}
	if faulted < 30 || crashes < 3 {
		t.Errorf("battery too gentle: %d faulted runs, %d crash runs", faulted, crashes)
	}
}

// TestChaosSanitized: dropped, duplicated or reordered clock-carrying
// messages must not fabricate a missing happens-before edge.
func TestChaosSanitized(t *testing.T) {
	im, ref := tortureGuest(t)
	cfg := chaosConfig(false, false)
	cfg.Sanitizer = true
	for seed := int64(1); seed <= 20; seed++ {
		if v := runChaos(t, im, ref, seed, cfg); len(v.Violations) != 0 {
			t.Error(v)
		}
	}
}

// TestChaosDeterministic: a seed reproduces its fault schedule, stats and
// verdict.
func TestChaosDeterministic(t *testing.T) {
	im, ref := tortureGuest(t)
	for _, seed := range []int64{2, 5, 11} { // two recoverable, one crash
		a := runChaos(t, im, ref, seed, chaosConfig(false, false))
		b := runChaos(t, im, ref, seed, chaosConfig(false, false))
		if !reflect.DeepEqual(a, b) {
			t.Errorf("seed %d not deterministic:\n%+v\n%+v", seed, a, b)
		}
	}
}

// TestChaosBrokenCaught: a battery that passes a broken transport is
// worthless, so each ablation must fail some seed in 1–10.
func TestChaosBrokenCaught(t *testing.T) {
	im, ref := tortureGuest(t)
	for _, broken := range []string{"NoRetry", "NoDedup"} {
		caught := 0
		for seed := int64(1); seed <= 10; seed++ {
			if v := runChaos(t, im, ref, seed, chaosConfig(broken == "NoRetry", broken == "NoDedup")); len(v.Violations) != 0 {
				caught++
			}
		}
		if caught == 0 {
			t.Errorf("%s slipped through 10 seeds undetected", broken)
		}
	}
}

// TestChaosCrashStructured: a crash-class plan ends in a NodeLostError that
// names the plan, not in a hang or a bare deadlock dump.
func TestChaosCrashStructured(t *testing.T) {
	var seed int64 = -1
	for s := int64(1); s <= 40; s++ {
		if _, class := netsim.PlanForSeed(s, 2); class == "crash" {
			seed = s
			break
		}
	}
	if seed < 0 {
		t.Fatal("no crash-class seed in 1..40")
	}
	im, ref := tortureGuest(t)
	v := runChaos(t, im, ref, seed, chaosConfig(false, false))
	if len(v.Violations) != 0 {
		t.Fatal(v)
	}
	if v.Err == "" {
		t.Skip("crash landed after workload completion")
	}
	if !strings.Contains(v.Err, "lost at t=") || !strings.Contains(v.Err, "seed=") {
		t.Fatalf("node-loss error not structured/reproducible: %q", v.Err)
	}
}

// TestNodeLostErrorFields exercises the structured error end to end with a
// hand-built plan: slave 1 owns pages, then dies; the error must name them.
func TestNodeLostErrorFields(t *testing.T) {
	im, err := workloads.Torture(4, 200)
	if err != nil {
		t.Fatal(err)
	}
	cfg := DefaultConfig()
	cfg.Slaves = 1
	cfg.Faults = &netsim.FaultPlan{
		Seed:    1,
		Crashes: []netsim.Crash{{Node: 1, AtNs: 5_000_000}},
	}
	c, err := NewCluster(im, cfg)
	if err != nil {
		t.Fatal(err)
	}
	_, runErr := c.simulate(chaosBudgetNs)
	nle, ok := runErr.(*NodeLostError)
	if !ok {
		t.Fatalf("want *NodeLostError, got %v", runErr)
	}
	if nle.Node != 1 {
		t.Fatalf("wrong node: %+v", nle)
	}
	if nle.AtNs < 5_000_000 {
		t.Fatalf("loss declared before the crash: %+v", nle)
	}
	if len(nle.LostPages) == 0 {
		t.Fatalf("slave 1 ran guest threads; expected lost pages: %+v", nle)
	}
}
