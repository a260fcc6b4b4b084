package chaos

import (
	"encoding/json"
	"fmt"
	"reflect"
	"strings"
	"testing"

	"dqemu/internal/core"
	"dqemu/internal/netsim"
	"dqemu/internal/workloads"
)

// reproduce renders a failed report with what replays it: the seed, for
// Run(Options{Seed: N}), and its fault plan as the JSON a scenario spec's
// "faults" block takes (scenarios/canneal-chaos.json is the model).
func reproduce(rep *Report) string {
	plan, _ := PlanForSeed(rep.Seed, 2)
	faults, _ := json.Marshal(plan)
	return fmt.Sprintf("seed %d (%s): %v\n  \"faults\": %s", rep.Seed, rep.Class, rep.Violations, faults)
}

// TestChaosShort is the CI battery: 60 seeded fault plans (mixing
// recoverable and crash classes) must all pass their class's checks.
func TestChaosShort(t *testing.T) {
	b, err := RunBattery(1, 60, Options{}, nil)
	if err != nil {
		t.Fatal(err)
	}
	if b.Fails != 0 {
		for _, rep := range b.Reports {
			if !rep.Pass {
				t.Error(reproduce(rep))
			}
		}
	}
	if b.Passes < 50 {
		t.Fatalf("only %d passing fault plans, want >= 50", b.Passes)
	}
	// The battery must actually have injected faults, not vacuously passed.
	var faulted, crashes int
	for _, rep := range b.Reports {
		if rep.Faults.Dropped+rep.Faults.Duplicated+rep.Faults.Reordered+rep.Faults.Stalled > 0 {
			faulted++
		}
		if rep.Class == "crash" {
			crashes++
		}
	}
	if faulted < 30 || crashes < 3 {
		t.Fatalf("battery too gentle: %d faulted runs, %d crash runs", faulted, crashes)
	}
}

// TestChaosSanitized: DQSan riding along under fault injection must stay
// silent — the torture workload is race-free, and dropped/duplicated/
// reordered clock-carrying messages must not fabricate a missing
// happens-before edge.
func TestChaosSanitized(t *testing.T) {
	b, err := RunBattery(1, 20, Options{Sanitize: true}, nil)
	if err != nil {
		t.Fatal(err)
	}
	for _, rep := range b.Reports {
		if !rep.Pass {
			t.Error(reproduce(rep))
		}
	}
}

// TestChaosDeterministic: the same seed must reproduce the identical fault
// schedule, stats and verdict.
func TestChaosDeterministic(t *testing.T) {
	for _, seed := range []int64{2, 5, 11} { // two recoverable + one crash class
		a, err := Run(Options{Seed: seed})
		if err != nil {
			t.Fatal(err)
		}
		b, err := Run(Options{Seed: seed})
		if err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(a, b) {
			t.Fatalf("seed %d not deterministic:\n%+v\n%+v", seed, a, b)
		}
	}
}

// TestChaosBrokenCaught: the deliberately-broken transport ablations must be
// detected by the suite — a chaos harness that passes a broken protocol is
// worthless.
func TestChaosBrokenCaught(t *testing.T) {
	for _, broken := range []string{"noretry", "nodedup"} {
		caught := 0
		for seed := int64(1); seed <= 10; seed++ {
			rep, err := Run(Options{Seed: seed, Broken: broken})
			if err != nil {
				t.Fatalf("%s seed %d: %v", broken, seed, err)
			}
			if !rep.Pass {
				caught++
			}
		}
		if caught == 0 {
			t.Errorf("ablation %q slipped through 10 seeds undetected", broken)
		}
	}
}

// TestChaosCrashStructured: a crash-class plan ends in a structured
// NodeLostError naming the dead node and the re-homed pages — not a hang,
// not a bare deadlock dump.
func TestChaosCrashStructured(t *testing.T) {
	var seed int64 = -1
	for s := int64(1); s <= 40; s++ {
		if _, class := PlanForSeed(s, 2); class == "crash" {
			seed = s
			break
		}
	}
	if seed < 0 {
		t.Fatal("no crash-class seed in 1..40")
	}
	rep, err := Run(Options{Seed: seed})
	if err != nil {
		t.Fatal(err)
	}
	if !rep.Pass {
		t.Fatalf("crash seed %d: %v", seed, rep.Violations)
	}
	if rep.Err == "" {
		t.Skip("crash landed after workload completion")
	}
	if !strings.Contains(rep.Err, "lost at t=") || !strings.Contains(rep.Err, "seed=") {
		t.Fatalf("node-loss error not structured/reproducible: %q", rep.Err)
	}
}

// TestNodeLostErrorFields exercises the structured error end to end with a
// hand-built plan: slave 1 owns pages, then dies; the master must re-home
// them and name them in the error.
func TestNodeLostErrorFields(t *testing.T) {
	im, err := workloads.Torture(4, 200)
	if err != nil {
		t.Fatal(err)
	}
	cfg := core.DefaultConfig()
	cfg.Slaves = 1
	cfg.Faults = &netsim.FaultPlan{
		Seed:    1,
		Crashes: []netsim.Crash{{Node: 1, AtNs: 5_000_000}},
	}
	cfg.MaxTimeNs = 20_000_000_000
	_, runErr := core.Run(im, cfg)
	nle, ok := runErr.(*core.NodeLostError)
	if !ok {
		t.Fatalf("want *core.NodeLostError, got %v", runErr)
	}
	if nle.Node != 1 {
		t.Fatalf("wrong node: %+v", nle)
	}
	if nle.AtNs < 5_000_000 {
		t.Fatalf("loss declared before the crash: %+v", nle)
	}
	if len(nle.RehomedPages) == 0 {
		t.Fatalf("slave 1 ran guest threads; expected re-homed pages: %+v", nle)
	}
}
