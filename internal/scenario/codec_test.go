package scenario

import (
	"bytes"
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"testing"

	"dqemu/internal/netsim"
)

var update = flag.Bool("update", false, "rewrite the golden spec fixtures under testdata/ and re-encode the checked-in specs canonically")

// goldenSpecs are the fixtures pinned byte-for-byte under testdata/. A
// change to the encoder or the field set changes these bytes, which is the
// loud failure the versioning rule wants: bump SchemaVersion and write a
// migration note in EXPERIMENTS.md ("Scenario suites") before regenerating
// with `go test ./internal/scenario -run Golden -update`.
func goldenSpecs() map[string]*Spec {
	return map[string]*Spec{
		"golden_minimal.json": {
			Version:  SchemaVersion,
			Name:     "minimal",
			Workload: Workload{Kind: "pi"},
		},
		"golden_full.json": {
			Version:     SchemaVersion,
			Name:        "full-everything",
			Description: "fixture exercising every spec field at once",
			Workload: Workload{
				Kind: "canneal",
				Args: map[string]int64{"threads": 4, "elems": 512, "steps": 40, "seed": 3},
			},
			Cluster: Cluster{Slaves: 3, Cores: 2, QuantumNs: 250_000, PageSize: 1024},
			Knobs: Knobs{
				Forwarding: true, Splitting: true, HintSched: true,
				Interp: false, NoSuperblock: false,
				ForwardTrigger: 3, SplitFactor: 8,
				NoDelta: true, NoCoalesce: true,
				Metrics: true, Sanitizer: true, Adaptive: true,
			},
			Faults: &netsim.FaultPlan{
				Seed: 9, DropRate: 0.02, DupRate: 0.01, JitterNs: 30_000,
				ReorderRate: 0.05, ReorderDelayNs: 40_000,
				Stalls:  []netsim.Window{{Node: 1, FromNs: 1_000, ToNs: 2_000}},
				Crashes: []netsim.Crash{{Node: 2, AtNs: 5_000_000}},
			},
			Gates: Gates{
				ExitCode:        0,
				ConsoleSHA256:   map[string]string{"quick": strings.Repeat("ab", 32)},
				MinInsnsPerVSec: 1e6,
				MaxTimeNs:       1e9,
				MinDeltaMisses:  1,
				MinFutexWaits:   2,
				MaxRaces:        3,
			},
		},
		"golden_matrix.json": {
			Version:  SchemaVersion,
			Name:     "matrix",
			Workload: Workload{Kind: "lockbench", Args: map[string]int64{"threads": 4}},
			Cluster:  Cluster{Slaves: 1},
			Sweep:    &Sweep{Field: "cluster.slaves", Values: []int64{0, 2}},
			Arms: []Arm{
				{Name: "global", Args: map[string]int64{"acquires": 40}},
				{Name: "private", Args: map[string]int64{"private": 1},
					Cluster: json.RawMessage(`{"quantum_ns":2000}`),
					Knobs:   json.RawMessage(`{"forwarding":true,"forward_trigger":2}`)},
			},
			Compare: []Compare{
				{Metric: "time_ns", Of: CellRef{Arm: "private"}, Over: &CellRef{Arm: "global"},
					Bounds: map[string]Bound{"quick": {Max: 1}, "smoke": {Min: 0.5, Max: 2}}},
				{Metric: "futex_waits", Of: CellRef{Arm: "global", Value: new(int64)}},
			},
			Show: []string{"time_ns", "futex_waits"},
		},
	}
}

// specPaths lists the checked-in suites: the regression scenarios and the
// paper's figures and tables.
func specPaths(t testing.TB) []string {
	var paths []string
	for _, dir := range []string{"scenarios", filepath.Join("scenarios", "paper")} {
		m, err := filepath.Glob(filepath.Join("..", "..", dir, "*.json"))
		if err != nil || len(m) == 0 {
			t.Fatalf("no checked-in specs in %s: %v", dir, err)
		}
		paths = append(paths, m...)
	}
	return paths
}

// TestGoldenSpecFixtures pins the canonical encoding of the fixture specs
// and proves decoding the fixture reproduces the exact in-memory value.
func TestGoldenSpecFixtures(t *testing.T) {
	for name, want := range goldenSpecs() {
		path := filepath.Join("testdata", name)
		var buf bytes.Buffer
		if err := want.Encode(&buf); err != nil {
			t.Fatalf("%s: encode: %v", name, err)
		}
		if *update {
			if err := os.WriteFile(path, buf.Bytes(), 0o644); err != nil {
				t.Fatalf("%s: update: %v", name, err)
			}
		}
		disk, err := os.ReadFile(path)
		if err != nil {
			t.Fatalf("%s: %v (run with -update to create)", name, err)
		}
		if !bytes.Equal(disk, buf.Bytes()) {
			t.Errorf("%s: golden bytes differ from Encode output; if the schema changed on purpose, bump SchemaVersion, add a migration note, and re-run with -update\ngolden:\n%s\nencode:\n%s",
				name, disk, buf.Bytes())
		}
		got, err := Decode(disk)
		if err != nil {
			t.Fatalf("%s: decode: %v", name, err)
		}
		if !reflect.DeepEqual(got, want) {
			t.Errorf("%s: decode(golden) != fixture value\ngot:  %+v\nwant: %+v", name, got, want)
		}
	}
}

// TestCheckedInSpecsCanonical requires every checked-in spec to be in the
// canonical encoding (what Encode emits), so diffs stay mechanical and the
// fuzz target's encode/decode fixpoint matches the files people edit.
func TestCheckedInSpecsCanonical(t *testing.T) {
	for _, p := range specPaths(t) {
		disk, err := os.ReadFile(p)
		if err != nil {
			t.Fatal(err)
		}
		s, err := Decode(disk)
		if err != nil {
			t.Fatalf("%s: %v", p, err)
		}
		var buf bytes.Buffer
		if err := s.Encode(&buf); err != nil {
			t.Fatalf("%s: %v", p, err)
		}
		if !bytes.Equal(disk, buf.Bytes()) && *update {
			if err := os.WriteFile(p, buf.Bytes(), 0o644); err != nil {
				t.Fatal(err)
			}
		} else if !bytes.Equal(disk, buf.Bytes()) {
			t.Errorf("%s is not in canonical form; re-encode it with `go test ./internal/scenario -run Canonical -update`", p)
		}
	}
}

// TestSpecRoundTrip: decode → encode → decode is the identity, and encode
// is a fixpoint, for every checked-in spec and golden fixture.
func TestSpecRoundTrip(t *testing.T) {
	goldens, err := filepath.Glob(filepath.Join("testdata", "golden_*.json"))
	if err != nil || len(goldens) != len(goldenSpecs()) {
		t.Fatalf("golden fixtures: found %d (%v)", len(goldens), err)
	}
	paths := append(specPaths(t), goldens...)
	for _, p := range paths {
		s1, err := Load(p)
		if err != nil {
			t.Fatalf("%s: %v", p, err)
		}
		var b1 bytes.Buffer
		if err := s1.Encode(&b1); err != nil {
			t.Fatalf("%s: %v", p, err)
		}
		s2, err := Decode(b1.Bytes())
		if err != nil {
			t.Fatalf("%s: re-decode: %v", p, err)
		}
		if !reflect.DeepEqual(s1, s2) {
			t.Errorf("%s: decode(encode(s)) != s", p)
		}
		var b2 bytes.Buffer
		if err := s2.Encode(&b2); err != nil {
			t.Fatalf("%s: %v", p, err)
		}
		if !bytes.Equal(b1.Bytes(), b2.Bytes()) {
			t.Errorf("%s: encode is not a fixpoint", p)
		}
	}
}

// TestDecodeRejects exercises the strict-decoding and validation paths the
// fuzz target relies on: all of these must error, never panic.
func TestDecodeRejects(t *testing.T) {
	// spec wraps extra top-level fields into an otherwise valid spec.
	spec := func(extra string) string {
		return `{"version":2,"name":"x","workload":{"kind":"pi"},"cluster":{"slaves":1}` + extra + `}`
	}
	if _, err := Decode([]byte(spec(""))); err != nil {
		t.Fatalf("control spec rejected: %v", err)
	}
	twoArms := `,"arms":[{"name":"a"},{"name":"b"}]`
	var wide []string
	for i := 0; i < 65; i++ {
		wide = append(wide, fmt.Sprint(i))
	}
	cases := []struct {
		name, in, wantSub string
	}{
		{"empty object", `{}`, "version"},
		{"old version", `{"version":1,"name":"x","workload":{"kind":"pi"}}`, "migration"},
		{"unknown top-level field", spec(`,"bogus":1`), "unknown field"},
		{"unknown knob", spec(`,"knobs":{"turbo":true}`), "unknown field"},
		{"deleted knob no_tier3", spec(`,"knobs":{"no_tier3":true}`), "unknown field"},
		{"deleted knob tier3_threshold", spec(`,"knobs":{"tier3_threshold":2}`), "unknown field"},
		{"deleted knob no_peephole", spec(`,"knobs":{"no_peephole":true}`), `unknown field "no_peephole"`},
		{"deleted knob no_chain", spec(`,"knobs":{"no_chain":true}`), `unknown field "no_chain"`},
		{"deleted knob rebalance_ns", spec(`,"knobs":{"rebalance_ns":2000000}`), `unknown field "rebalance_ns"`},
		{"deleted knob adapt_period_ns", spec(`,"knobs":{"adaptive":true,"adapt_period_ns":250000}`), `unknown field "adapt_period_ns"`},
		{"deleted knob max_slaves", spec(`,"knobs":{"max_slaves":4}`), `unknown field "max_slaves"`},
		{"deleted knob place_on_master", spec(`,"knobs":{"place_on_master":true}`), `unknown field "place_on_master"`},
		{"forward trigger out of range", spec(`,"knobs":{"forwarding":true,"forward_trigger":65}`), "forward_trigger 65 outside [0, 64]"},
		{"negative split factor", spec(`,"knobs":{"splitting":true,"split_factor":-1}`), "split_factor -1 outside [0, 64]"},
		{"deleted knob in an arm", spec(`,"arms":[{"name":"a","knobs":{"max_slaves":4}}]`), `unknown field "max_slaves"`},
		{"trailing data", spec("") + `{"version":2}`, "trailing data"},
		{"no name", `{"version":2,"workload":{"kind":"pi"}}`, "no name"},
		{"bad name charset", `{"version":2,"name":"X/Y","workload":{"kind":"pi"}}`, "lowercase"},
		{"unknown workload", `{"version":2,"name":"x","workload":{"kind":"doom"}}`, "unknown workload kind"},
		{"unknown workload arg", `{"version":2,"name":"x","workload":{"kind":"pi","args":{"cows":1}}}`, "no argument"},
		{"arg out of range", `{"version":2,"name":"x","workload":{"kind":"pi","args":{"threads":0}}}`, "outside"},
		{"too many slaves", `{"version":2,"name":"x","workload":{"kind":"pi"},"cluster":{"slaves":64}}`, "slaves outside"},
		{"odd page size", `{"version":2,"name":"x","workload":{"kind":"pi"},"cluster":{"slaves":1,"page_size":1000}}`, "power of two"},
		{"bad hash length", spec(`,"gates":{"console_sha256":{"quick":"abc"}}`), "sha256"},
		{"bad hash scale", spec(`,"gates":{"console_sha256":{"fast":"` + strings.Repeat("a", 64) + `"}}`), "not a scale"},
		{"fault rate over 1", spec(`,"faults":{"seed":1,"drop_rate":1.5}`), "drop_rate"},
		{"crash on master", spec(`,"faults":{"seed":1,"crashes":[{"node":0,"at_ns":5}]}`), "master"},
		{"crash on unknown node", spec(`,"faults":{"seed":1,"crashes":[{"node":7,"at_ns":5}]}`), "node"},
		{"not json", `version: 1`, "invalid character"},

		{"empty sweep", spec(`,"sweep":{"field":"cluster.slaves","values":[]}`), "no values"},
		{"repeated sweep value", spec(`,"sweep":{"field":"cluster.slaves","values":[1,2,1]}`), "repeated"},
		{"sweep field unknown", spec(`,"sweep":{"field":"cluster.racks","values":[1]}`), "unknown field"},
		{"sweep field ungrouped", spec(`,"sweep":{"field":"slaves","values":[1]}`), "sweep field"},
		{"sweep over a switch", spec(`,"sweep":{"field":"knobs.forwarding","values":[1]}`), "sweep field"},
		{"sweep value out of range", spec(`,"sweep":{"field":"cluster.slaves","values":[1,64]}`), "slaves outside"},
		{"sweep arg out of range", spec(`,"sweep":{"field":"args.threads","values":[0]}`), "outside"},
		{"more than 64 cells", spec(`,"sweep":{"field":"args.repeats","values":[` + strings.Join(wide, ",") + `]}`), "at most 64"},
		{"empty arm name", spec(`,"arms":[{"name":""}]`), "arm name"},
		{"repeated arm", spec(`,"arms":[{"name":"a"},{"name":"a"}]`), "repeated"},
		{"arm with unknown knob", spec(`,"arms":[{"name":"a","knobs":{"turbo":true}}]`), "unknown field"},
		{"arm out of range", spec(`,"arms":[{"name":"a","cluster":{"cores":999}}]`), "cores outside"},
		{"compare missing arm", spec(twoArms + `,"compare":[{"metric":"time_ns","of":{"arm":"c"}}]`), `no arm "c"`},
		{"compare missing value", spec(`,"sweep":{"field":"cluster.slaves","values":[1,2]},"compare":[{"metric":"time_ns","of":{"value":3}}]`), "not a sweep value"},
		{"compare value unswept", spec(`,"compare":[{"metric":"time_ns","of":{"value":1}}]`), "not a sweep value"},
		{"compare missing metric", spec(twoArms + `,"compare":[{"metric":"joules","of":{"arm":"a"}}]`), "no metric"},
		{"compare min over max", spec(twoArms + `,"compare":[{"metric":"time_ns","of":{"arm":"a"},"over":{"arm":"b"},"bounds":{"quick":{"min":2,"max":1}}}]`), "min 2 > max 1"},
		{"compare bad scale", spec(twoArms + `,"compare":[{"metric":"time_ns","of":{"arm":"a"},"bounds":{"fast":{"min":1}}}]`), "not a scale"},
		{"show missing metric", spec(`,"show":["joules"]`), "no metric"},
	}
	for _, tc := range cases {
		_, err := Decode([]byte(tc.in))
		if err == nil {
			t.Errorf("%s: accepted, want error containing %q", tc.name, tc.wantSub)
			continue
		}
		if !strings.Contains(err.Error(), tc.wantSub) {
			t.Errorf("%s: error %q does not contain %q", tc.name, err, tc.wantSub)
		}
	}
}

// TestLoadDir covers the suite loader: the checked-in directory parses,
// names are unique, and duplicate names across files are rejected.
func TestLoadDir(t *testing.T) {
	specs, err := LoadDir(filepath.Join("..", "..", "scenarios"))
	if err != nil {
		t.Fatal(err)
	}
	if len(specs) < 19 {
		t.Fatalf("scenarios/ holds %d specs, want >= 19", len(specs))
	}
	byName := map[string]*Spec{}
	for _, s := range specs {
		byName[s.Name] = s
	}
	// The canneal spec must demonstrably stress the delta codec's degraded
	// paths: its gate keeps that property from silently rotting.
	canneal, ok := byName["canneal-4s"]
	if !ok {
		t.Fatal("scenarios/ has no canneal-4s spec")
	}
	if canneal.Gates.MinDeltaMisses < 1 {
		t.Errorf("canneal-4s must gate on min_delta_misses >= 1, has %d", canneal.Gates.MinDeltaMisses)
	}

	dir := t.TempDir()
	one := `{"version":2,"name":"twin","workload":{"kind":"pi"},"cluster":{"slaves":0}}`
	for _, f := range []string{"a.json", "b.json"} {
		if err := os.WriteFile(filepath.Join(dir, f), []byte(one), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	if _, err := LoadDir(dir); err == nil || !strings.Contains(err.Error(), "already used") {
		t.Errorf("duplicate names not rejected: %v", err)
	}
	if _, err := LoadDir(t.TempDir()); err == nil {
		t.Error("empty suite directory not rejected")
	}
}

// TestNullArmOverlay: an arm overlay spelled null is no overlay — it must
// not detach the cell from the sweep value applied after it.
func TestNullArmOverlay(t *testing.T) {
	s, err := Decode([]byte(`{"version":2,"name":"x","workload":{"kind":"pi"},"cluster":{"slaves":1},
"arms":[{"name":"a","cluster":null,"knobs":null}],"sweep":{"field":"knobs.split_factor","values":[3]}}`))
	if err != nil {
		t.Fatal(err)
	}
	cells, err := s.cells()
	if err != nil || len(cells) != 1 || cells[0].spec.Knobs.SplitFactor != 3 || cells[0].spec.Cluster.Slaves != 1 {
		t.Fatalf("cells: %v %+v", err, cells)
	}
}
