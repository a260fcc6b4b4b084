package main

import (
	"bytes"
	"encoding/json"
	"io"
	"os"
	"regexp"
	"testing"
)

// benchmarkJSON mirrors ../BENCHMARK.json, the contract with the PR driver.
type benchmarkJSON struct {
	Command    []string `json:"command"`
	Paths      []string `json:"paths"`
	RunSeconds int      `json:"run_seconds"`
	Workloads  []struct {
		Name string `json:"name"`
		Why  string `json:"why"`
	} `json:"workloads"`
	EndToEnd []declared `json:"end_to_end"`
	PerLayer []declared `json:"per_layer"`
}

type declared struct {
	Name   string   `json:"name"`
	Unit   string   `json:"unit"`
	Better string   `json:"better"`
	Bound  *float64 `json:"bound"`
}

func loadBenchmarkJSON(t *testing.T) benchmarkJSON {
	t.Helper()
	data, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var b benchmarkJSON
	dec := json.NewDecoder(bytes.NewReader(data))
	dec.DisallowUnknownFields()
	if err := dec.Decode(&b); err != nil {
		t.Fatal(err)
	}
	return b
}

// TestSmokeEmitsWhatIsDeclared runs every workload at smoke scale, traced,
// and checks the two driver lines against BENCHMARK.json: every declared
// metric and workload is emitted with its declared unit and nothing
// undeclared is; the traced spans form a valid Chrome trace.
func TestSmokeEmitsWhatIsDeclared(t *testing.T) {
	b := loadBenchmarkJSON(t)
	nameRE := regexp.MustCompile(`^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$`)
	unitRE := regexp.MustCompile(`^[A-Za-z0-9_/%.-]{1,16}$`)
	if n := len(b.Workloads); n < 2 || n > 8 {
		t.Errorf("%d workloads, want 2..8", n)
	}
	if n := len(b.EndToEnd); n < 1 || n > 16 {
		t.Errorf("%d end-to-end metrics, want 1..16", n)
	}
	if n := len(b.PerLayer); n < 1 || n > 128 {
		t.Errorf("%d per-layer metrics, want 1..128", n)
	}
	if b.RunSeconds < 1 || b.RunSeconds > 60 {
		t.Errorf("run_seconds %d, want 1..60", b.RunSeconds)
	}
	seen := map[string]bool{}
	checkName := func(name string) {
		if !nameRE.MatchString(name) {
			t.Errorf("name %q does not match %v", name, nameRE)
		}
		if seen[name] {
			t.Errorf("name %q is used twice", name)
		}
		seen[name] = true
	}
	haveSetup := false
	for _, m := range b.EndToEnd {
		checkName(m.Name)
		if !unitRE.MatchString(m.Unit) {
			t.Errorf("%s: unit %q", m.Name, m.Unit)
		}
		if m.Bound == nil || *m.Bound < 0 || *m.Bound > 0.25 {
			t.Errorf("%s: bound %v, want 0..0.25", m.Name, m.Bound)
		}
		if m.Name == "setup_s" && m.Unit == "s" && m.Better == "lower" {
			haveSetup = true
		}
		if def, ok := findMetric(endToEnd, m.Name); !ok || m.Bound == nil || def.Bound != *m.Bound || def.Better != m.Better {
			t.Errorf("%s: BENCHMARK.json and the metric table disagree on bound or direction", m.Name)
		}
	}
	if !haveSetup {
		t.Error("end_to_end lacks setup_s in s, lower is better")
	}
	for _, m := range b.PerLayer {
		checkName(m.Name)
		if !unitRE.MatchString(m.Unit) {
			t.Errorf("%s: unit %q", m.Name, m.Unit)
		}
		if m.Bound != nil {
			t.Errorf("%s: a per-layer metric has no bound", m.Name)
		}
	}
	if len(b.Workloads) != len(workloadTable) {
		t.Errorf("BENCHMARK.json declares %d workloads, the table has %d", len(b.Workloads), len(workloadTable))
	}

	for _, decl := range b.Workloads {
		checkName(decl.Name)
		if len(decl.Why) == 0 || len(decl.Why) > 200 {
			t.Errorf("%s: why has %d characters, want 1..200", decl.Name, len(decl.Why))
		}
		w, ok := findWorkload(decl.Name)
		if !ok {
			t.Errorf("BENCHMARK.json declares unknown workload %q", decl.Name)
			continue
		}
		if w.Why != decl.Why {
			t.Errorf("%s: why differs between BENCHMARK.json and the workload table", decl.Name)
		}
		rec, tr, err := runWorkload(w, options{seed: defaultSeed, trace: true, smoke: true, log: io.Discard})
		if err != nil {
			t.Fatalf("%s: %v", decl.Name, err)
		}
		if rec.Failed != 0 || rec.Attempted == 0 {
			t.Errorf("%s: %d of %d failed", decl.Name, rec.Failed, rec.Attempted)
		}
		for _, c := range []struct {
			trace bool
			decls []declared
		}{{false, b.EndToEnd}, {true, b.PerLayer}} {
			line := driverLineFor(rec, c.trace)
			for _, m := range c.decls {
				got, ok := line.Metrics[m.Name]
				if !ok {
					t.Errorf("%s: trace=%v line lacks declared metric %s", decl.Name, c.trace, m.Name)
				} else if got.Unit != m.Unit {
					t.Errorf("%s: %s has unit %q, declared %q", decl.Name, m.Name, got.Unit, m.Unit)
				}
			}
			if len(line.Metrics) != len(c.decls) {
				t.Errorf("%s: trace=%v line has %d metrics, %d declared", decl.Name, c.trace, len(line.Metrics), len(c.decls))
			}
		}
		for _, name := range driverEndToEnd {
			if rec.EndToEnd[name].Value <= 0 {
				t.Errorf("%s: end-to-end %s = %v, must never be 0", decl.Name, name, rec.EndToEnd[name].Value)
			}
		}
		var buf bytes.Buffer
		if err := tr.writeChrome(&buf); err != nil {
			t.Fatal(err)
		}
		checkChrome(t, decl.Name, buf.Bytes())
	}
}

// checkChrome applies cmd/dqemu-trace-check's rules: B/E pairs balance per
// track with matching names and timestamps never go backwards on a track.
func checkChrome(t *testing.T, name string, data []byte) {
	t.Helper()
	var evs []chromeEvent
	if err := json.Unmarshal(data, &evs); err != nil {
		t.Fatalf("%s: trace: %v", name, err)
	}
	if len(evs) == 0 {
		t.Fatalf("%s: empty trace", name)
	}
	stacks := map[int][]string{}
	last := map[int]float64{}
	for i, e := range evs {
		if e.TS < last[e.TID] {
			t.Fatalf("%s: event %d goes backwards on track %d", name, i, e.TID)
		}
		last[e.TID] = e.TS
		switch e.Ph {
		case "B":
			stacks[e.TID] = append(stacks[e.TID], e.Name)
		case "E":
			st := stacks[e.TID]
			if len(st) == 0 || st[len(st)-1] != e.Name {
				t.Fatalf("%s: event %d: E %q does not close the open span on track %d", name, i, e.Name, e.TID)
			}
			stacks[e.TID] = st[:len(st)-1]
		default:
			t.Fatalf("%s: event %d: phase %q", name, i, e.Ph)
		}
	}
	for tid, st := range stacks {
		if len(st) > 0 {
			t.Errorf("%s: track %d has %d unclosed spans", name, tid, len(st))
		}
	}
}

// TestExpectedSmokeMatchesInterpreter recomputes every smoke-scale pinned
// reference with a fresh interpreter run.
func TestExpectedSmokeMatchesInterpreter(t *testing.T) {
	exp, err := loadExpected()
	if err != nil {
		t.Fatal(err)
	}
	fresh, err := interpReferences(true)
	if err != nil {
		t.Fatal(err)
	}
	for key, ref := range fresh {
		if got, ok := exp["smoke"][key]; !ok || got != ref {
			t.Errorf("%s: expected.json has %+v (present %v), interpreter says %+v", key, got, ok, ref)
		}
	}
	if len(fresh) != len(exp["smoke"]) || len(fresh) != len(exp["full"]) {
		t.Errorf("expected.json has %d smoke and %d full entries, the workloads have %d inputs",
			len(exp["smoke"]), len(exp["full"]), len(fresh))
	}
}

func TestVerdict(t *testing.T) {
	host, _ := findMetric(endToEnd, "host_s")
	mips, _ := findMetric(endToEnd, "guest_mips")
	setup, _ := findMetric(endToEnd, "setup_s")
	virt, _ := findMetric(endToEnd, "virt_ms")
	fail, _ := findMetric(endToEnd, "fail_ratio")
	st := func(value, firstHalf, secondHalf float64) stat {
		return stat{Value: value, Halves: [2]float64{firstHalf, secondHalf}, N: 10}
	}
	for _, c := range []struct {
		name string
		def  metricDef
		a, b stat
		want string
	}{
		{"within bound", host, st(1, 0.99, 1.01), st(1.05, 1.04, 1.06), "unchanged"},
		{"worse by more than the bound", host, st(1, 0.99, 1.01), st(1.3, 1.29, 1.31), "regressed"},
		{"better by more than the bound", host, st(1, 0.99, 1.01), st(0.7, 0.69, 0.71), "improved"},
		{"halves disagree by more than the bound", host, st(1, 0.8, 1.1), st(1.3, 1.29, 1.31), "unresolved"},
		{"higher is better", mips, st(100, 99, 101), st(70, 69, 71), "regressed"},
		{"below the floor", setup, st(0.01, 0.009, 0.011), st(0.03, 0.029, 0.031), "unchanged"},
		{"exact and equal", virt, st(5, 5, 5), st(5, 5, 5), "unchanged"},
		{"exact and moved", virt, st(5, 5, 5), st(5.0001, 5.0001, 5.0001), "regressed"},
		{"more failures", fail, st(0, 0, 0), st(0.01, 0.01, 0.01), "regressed"},
	} {
		if got := verdict(c.def, c.a, c.b); got != c.want {
			t.Errorf("%s: verdict %q, want %q", c.name, got, c.want)
		}
	}
}

// TestQuartilesMatchPython pins the quartile rule to
// statistics.quantiles([1, 2, 4, 7, 11, 16, 22, 29, 37, 46], n=4).
func TestQuartilesMatchPython(t *testing.T) {
	q1, med, q3 := quartiles([]float64{46, 1, 2, 37, 4, 7, 29, 11, 16, 22})
	if q1 != 3.5 || med != 13.5 || q3 != 31 {
		t.Errorf("quartiles = %v %v %v, want 3.5 13.5 31", q1, med, q3)
	}
}
