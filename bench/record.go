package main

import (
	"encoding/json"
	"fmt"
	"io"
	"math"
	"runtime"
	"runtime/debug"
	"sort"
)

// stat is one end-to-end metric of one workload. Value is the reported
// figure: the statistic Stat of the samples (one per timed iteration, or one
// per timed job for the latency percentiles). Halves is the same statistic
// over the first and over the second half of the timed loop: the run's own
// evidence of how steady the figure is, which -compare uses to refuse a
// verdict. Median and quartiles of the samples are printed beside it.
type stat struct {
	Unit    string     `json:"unit"`
	Clock   string     `json:"clock"` // "host", "virtual" or "-"
	Stat    string     `json:"stat"`
	Value   float64    `json:"value"`
	Halves  [2]float64 `json:"halves"`
	Median  float64    `json:"median"`
	Q1      float64    `json:"q1"`
	Q3      float64    `json:"q3"`
	N       int        `json:"n"`
	Samples []float64  `json:"samples,omitempty"`
}

// reducer returns the statistic a metric reports over its samples. "best"
// is the fastest iteration (lowest time, highest rate): on a shared machine
// other tenants only ever add time, in bursts of seconds, so the fastest of
// many iterations repeats between runs better than their median does
// (README, "Why the fastest iteration").
func reducer(def metricDef) func([]float64) float64 {
	switch def.Stat {
	case "best":
		return func(v []float64) float64 {
			best := v[0]
			for _, x := range v {
				if (x < best) == (def.Better == "lower") {
					best = x
				}
			}
			return best
		}
	case "p50":
		return func(v []float64) float64 { return percentile(v, 50) }
	case "p95":
		return func(v []float64) float64 { return percentile(v, 95) }
	}
	return median
}

func newStat(def metricDef, samples []float64) stat {
	reduce := reducer(def)
	st := stat{Unit: def.Unit, Clock: clock(def), Stat: def.Stat, Value: reduce(samples), N: len(samples)}
	st.Halves = [2]float64{st.Value, st.Value}
	if half := len(samples) / 2; half > 0 {
		st.Halves = [2]float64{reduce(samples[:half]), reduce(samples[half:])}
	}
	st.Q1, st.Median, st.Q3 = quartiles(samples)
	if len(samples) <= 128 {
		st.Samples = samples
	}
	return st
}

// layerValue is one per-layer metric from the traced iteration.
type layerValue struct {
	Unit  string  `json:"unit"`
	Value float64 `json:"value"`
	// Exact: a count that repeats bit for bit on the simulated workloads.
	Exact bool `json:"exact,omitempty"`
}

// inputRecord says what one input or job template ran as.
type inputRecord struct {
	Name    string `json:"name"`
	Backend string `json:"backend"` // "core" (direct), "sim" or "live" (through the daemon)
	Knobs   knobs  `json:"config"`
	// Reference is what every run of the input was checked against, and
	// where it came from: "pinned" (expected.json), "go" (computed by the
	// generator) or "interpreter" (a run under Config.Interp at set-up).
	Reference       reference `json:"reference"`
	ReferenceSource string    `json:"reference_source"`
}

type iterationsRecord struct {
	Unit   string `json:"unit"`
	Warmup int    `json:"warmup"`
	Timed  int    `json:"timed"`
	Traced int    `json:"traced"`
	Setups int    `json:"setups"`
}

type workloadRecord struct {
	Name       string           `json:"name"`
	Why        string           `json:"why"`
	Iterations iterationsRecord `json:"iterations"`
	Inputs     []inputRecord    `json:"inputs"`
	Attempted  int              `json:"attempted"`
	Failed     int              `json:"failed"`
	// ReferenceS is host time spent computing interpreter references for a
	// non-default seed; it is not part of setup_s.
	ReferenceS float64               `json:"reference_s"`
	WallS      float64               `json:"wall_s"`
	EndToEnd   map[string]stat       `json:"end_to_end"`
	PerLayer   map[string]layerValue `json:"per_layer,omitempty"`
	// SpansByInput is the mean self time, in ms, of one span of each name
	// per input or job template, from the traced iteration.
	SpansByInput map[string]map[string]float64 `json:"spans_by_input,omitempty"`
}

// record is the output file: everything needed to reproduce a row.
type record struct {
	Schema     int    `json:"schema"`
	Seed       int64  `json:"seed"`
	Scale      string `json:"scale"`
	Seconds    int    `json:"seconds"`
	Trace      bool   `json:"trace"`
	GoMaxProcs int    `json:"gomaxprocs"`
	NProc      int    `json:"nproc"`
	GoVersion  string `json:"go_version"`
	Commit     string `json:"commit"`
	// BaseConfig are the core.DefaultConfig() fields every input shares;
	// each input's "config" lists what it sets on top.
	BaseConfig map[string]int64 `json:"base_config"`
	Workloads  []workloadRecord `json:"workloads"`
}

func newRecord(o options) record {
	return record{
		Schema: 1, Seed: o.seed, Scale: o.scaleName(), Seconds: o.seconds, Trace: o.trace,
		GoMaxProcs: runtime.GOMAXPROCS(0), NProc: runtime.NumCPU(),
		GoVersion: runtime.Version(), Commit: commit(),
		BaseConfig: baseConfig(),
	}
}

func baseConfig() map[string]int64 {
	cfg := knobs{}.config()
	return map[string]int64{
		"cores": int64(cfg.Cores), "quantum_ns": cfg.QuantumNs, "page_size": int64(cfg.PageSize),
		"net_latency_ns": cfg.Net.LatencyNs, "net_bandwidth_bps": cfg.Net.BandwidthBps,
	}
}

// commit reads the VCS revision the toolchain stamped into the binary; a
// checkout that is not a repository has none.
func commit() string {
	rev, dirty := "unknown", ""
	if bi, ok := debug.ReadBuildInfo(); ok {
		for _, s := range bi.Settings {
			switch s.Key {
			case "vcs.revision":
				rev = s.Value
			case "vcs.modified":
				if s.Value == "true" {
					dirty = "+dirty"
				}
			}
		}
	}
	return rev + dirty
}

// driverLine is the last line of standard output: the contract of
// BENCHMARK.json's driver.
type driverLine struct {
	Correct   bool                   `json:"correct"`
	Attempted int                    `json:"attempted"`
	Failed    int                    `json:"failed"`
	Metrics   map[string]driverValue `json:"metrics"`
}

type driverValue struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// driverLineFor picks the metrics the driver asked for: the end-to-end ones
// BENCHMARK.json declares with -trace 0, every per-layer one with -trace 1.
// The driver wants every declared name from every workload, so a per-layer
// metric that does not apply to this workload is printed as 0 here; the
// record leaves it out.
func driverLineFor(w workloadRecord, trace bool) driverLine {
	line := driverLine{Correct: w.Failed == 0, Attempted: w.Attempted, Failed: w.Failed,
		Metrics: map[string]driverValue{}}
	if !trace {
		for _, name := range driverEndToEnd {
			st := w.EndToEnd[name]
			line.Metrics[name] = driverValue{Value: st.Value, Unit: st.Unit}
		}
		return line
	}
	for _, name := range driverExtraLayer {
		def, _ := findMetric(endToEnd, name)
		line.Metrics[name] = driverValue{Value: w.EndToEnd[name].Value, Unit: def.Unit}
	}
	for _, def := range perLayer {
		line.Metrics[def.Name] = driverValue{Value: w.PerLayer[def.Name].Value, Unit: def.Unit}
	}
	return line
}

// printWorkload writes every metric of one workload by name with its unit.
func printWorkload(out io.Writer, w workloadRecord) {
	fmt.Fprintf(out, "\n== %s: %d %s timed (%d warm-up, %d traced), %d attempted, %d failed, %.1f s wall\n",
		w.Name, w.Iterations.Timed, w.Iterations.Unit, w.Iterations.Warmup, w.Iterations.Traced,
		w.Attempted, w.Failed, w.WallS)
	fmt.Fprintf(out, "%-44s %-9s %-8s %14s %-7s %12s %12s %12s %6s\n", "end-to-end metric", "unit", "clock", "value", "is the", "median", "q1", "q3", "n")
	for _, def := range endToEnd {
		st, ok := w.EndToEnd[def.Name]
		if !ok {
			continue
		}
		fmt.Fprintf(out, "%-44s %-9s %-8s %14.6g %-7s %12.6g %12.6g %12.6g %6d\n", def.Name, st.Unit, st.Clock, st.Value, st.Stat, st.Median, st.Q1, st.Q3, st.N)
	}
	if len(w.PerLayer) == 0 {
		return
	}
	fmt.Fprintf(out, "%-44s %-9s %-8s %14s\n", "per-layer metric", "unit", "clock", "value")
	for _, def := range perLayer {
		v, ok := w.PerLayer[def.Name]
		if !ok {
			continue
		}
		note := ""
		if v.Exact {
			note = "  exact"
		}
		fmt.Fprintf(out, "%-44s %-9s %-8s %14.6g%s\n", def.Name, v.Unit, clock(def), v.Value, note)
	}
	names := make([]string, 0, len(w.SpansByInput))
	for n := range w.SpansByInput {
		names = append(names, n)
	}
	sort.Strings(names)
	for _, n := range names {
		fmt.Fprintf(out, "mean span ms, %-14s", n)
		spans := make([]string, 0, len(w.SpansByInput[n]))
		for s := range w.SpansByInput[n] {
			spans = append(spans, s)
		}
		sort.Strings(spans)
		for _, s := range spans {
			fmt.Fprintf(out, "  %s=%.3f", s, w.SpansByInput[n][s])
		}
		fmt.Fprintln(out)
	}
}

func writeJSON(w io.Writer, v any) error {
	enc := json.NewEncoder(w)
	enc.SetIndent("", " ")
	return enc.Encode(v)
}

// finite replaces NaN and infinities, which JSON cannot carry, by 0.
func finite(v float64) float64 {
	if math.IsNaN(v) || math.IsInf(v, 0) {
		return 0
	}
	return v
}
