package core

import (
	"bytes"
	"testing"

	"dqemu/internal/image"
	"dqemu/internal/workloads"
)

// sharingImages builds tiny instances of the three sharing-pattern
// workloads (canneal-like pointer chasing, dedup-like pipeline,
// streamcluster-like barrier phases). The closure compiler had never
// executed pointer-chasing or barrier-storm traces before these; the shapes
// are small enough for the interpreter rung but still get hot enough to be
// compiled.
func sharingImages(t *testing.T) map[string]*image.Image {
	t.Helper()
	ims := map[string]*image.Image{}
	var err error
	if ims["canneal"], err = workloads.Canneal(4, 512, 60, 11); err != nil {
		t.Fatal(err)
	}
	if ims["dedup"], err = workloads.Dedup(2, 2, 1, 40, 32, 8); err != nil {
		t.Fatal(err)
	}
	if ims["streamcluster"], err = workloads.Streamcluster(4, 256, 4, 3); err != nil {
		t.Fatal(err)
	}
	return ims
}

// TestDifferentialSharingWorkloads is the three-way differential state test
// for the sharing-pattern workloads: the interpreter, cached blocks and
// compiled traces must leave bit-identical registers, writable memory, and
// console output. Different rungs pay different virtual translation time, so
// the interleavings (queue handoffs, barrier arrival orders, CAS winners)
// genuinely differ between rungs — the workloads' commutative-update
// design is what makes the final state comparable at all.
func TestDifferentialSharingWorkloads(t *testing.T) {
	tiers := tierConfigs()
	for name, im := range sharingImages(t) {
		want := runTier(t, im, tiers["interp"])
		for tier, cfg := range tiers {
			if tier == "interp" {
				continue
			}
			got := runTier(t, im, cfg)
			if tier == "compiled" && got.tier3Insns == 0 {
				t.Errorf("%s tier %s never executed compiled closures", name, tier)
			}
			if got.console != want.console || got.exitCode != want.exitCode {
				t.Fatalf("%s tier %s output diverged:\n got %q (exit %d)\nwant %q (exit %d)",
					name, tier, got.console, got.exitCode, want.console, want.exitCode)
			}
			if got.x != want.x || got.f != want.f || got.pc != want.pc {
				t.Fatalf("%s tier %s registers diverged:\n got pc=%#x x=%v\nwant pc=%#x x=%v",
					name, tier, got.pc, got.x, want.pc, want.x)
			}
			if !bytes.Equal(got.mem, want.mem) {
				for i := range got.mem {
					if got.mem[i] != want.mem[i] {
						t.Fatalf("%s tier %s memory diverged at writable-segment offset %#x: got %#x want %#x",
							name, tier, i, got.mem[i], want.mem[i])
					}
				}
			}
		}
	}
}

// TestStreamclusterSplitting is the Splitting arm of the differential for
// the barrier-phase workload: on 3 slaves with forwarding and page splitting
// the console and exit code must equal the single-node run's. The first
// shape is a pinned regression. A freshly split shadow page is owned by the
// master, so the master's first write to it is granted by SendReaffirm —
// which used to skip the local epoch SendContent opens, leaving the home
// copy modified in place under the version every slave's split twin
// carries. The next delta grant then lost a barrier increment and the run
// ended in "core: deadlock … futex-waiting=4".
func TestStreamclusterSplitting(t *testing.T) {
	pinned, err := workloads.Streamcluster(3, 96, 4, 2)
	if err != nil {
		t.Fatal(err)
	}
	for name, im := range map[string]*image.Image{
		"pinned(3,96,4,2)": pinned,
		"differential":     sharingImages(t)["streamcluster"],
	} {
		want, err := Run(im, DefaultConfig())
		if err != nil {
			t.Fatalf("%s single node: %v", name, err)
		}
		cfg := DefaultConfig()
		cfg.Slaves = 3
		cfg.Forwarding = true
		cfg.Splitting = true
		got, err := Run(im, cfg)
		if err != nil {
			t.Fatalf("%s on 3 slaves with splitting: %v", name, err)
		}
		if got.Dir.Splits == 0 {
			t.Errorf("%s: no page was split; the arm exercises nothing", name)
		}
		if got.Console != want.Console || got.ExitCode != want.ExitCode {
			t.Errorf("%s diverged under splitting:\n got %q (exit %d)\nwant %q (exit %d)",
				name, got.Console, got.ExitCode, want.Console, want.ExitCode)
		}
	}
}
