// Package scenario makes experiments data instead of code: a versioned
// JSON spec names a workload and its arguments, a cluster shape, the
// core.Config knobs and ablations, an optional netsim fault plan, and a
// set of acceptance gates. A spec may sweep one numeric field and run
// named arms (partial overlays of args, cluster and knobs); every
// (sweep value, arm) pair is one cell, and compare gates bound the ratio
// of a metric between two cells. One runner loads the spec, assembles each
// cell's cluster, executes it deterministically under virtual time,
// evaluates the gates, and emits one flat row per cell. Every figure and
// table of the paper's evaluation is a spec under scenarios/paper/; adding
// an experiment is a new JSON file, not new Go code.
//
// Schema versioning: SchemaVersion is bumped on any incompatible change
// to the spec layout, with a migration note in EXPERIMENTS.md ("Scenario
// suites"). Decoding is strict — unknown fields are errors — so schema
// drift fails loudly in the golden-file tests rather than being silently
// ignored at run time.
package scenario

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"maps"
	"os"
	"path/filepath"
	"sort"
	"strings"

	"dqemu/internal/core"
	"dqemu/internal/netsim"
)

// SchemaVersion is the current spec layout version.
//
// History:
//
//	1 — initial layout (workload/cluster/knobs/faults/gates).
//	2 — sweep, arms, compare and show; nodes/groups arguments follow the
//	    cluster size when omitted; knobs gain forward_trigger/split_factor.
const SchemaVersion = 2

// Spec is one scenario: everything needed to reproduce a run and judge it.
type Spec struct {
	// Version must equal SchemaVersion (see the package comment).
	Version int `json:"version"`
	// Name is the row label ("bench" in the emitted JSON). Required,
	// unique within a suite directory.
	Name string `json:"name"`
	// Description says what the scenario pins, for humans.
	Description string `json:"description,omitempty"`

	Workload Workload `json:"workload"`
	Cluster  Cluster  `json:"cluster"`
	Knobs    Knobs    `json:"knobs,omitempty"`
	// Faults, when present, is injected via Config.Faults; the reliable
	// transport layers in automatically, as in the torture battery
	// (netsim.PlanForSeed makes its plans).
	Faults *netsim.FaultPlan `json:"faults,omitempty"`
	// Gates are judged on every cell.
	Gates Gates `json:"gates,omitempty"`

	// Sweep, when present, runs the spec once per value of one field.
	Sweep *Sweep `json:"sweep,omitempty"`
	// Arms, when present, run every sweep value once per arm.
	Arms []Arm `json:"arms,omitempty"`
	// Compare gates relate cells to each other.
	Compare []Compare `json:"compare,omitempty"`
	// Show names the row metrics Print renders as sweep × arm matrices
	// (default: time_ns).
	Show []string `json:"show,omitempty"`
}

// Sweep varies one numeric field: "cluster.<field>", "knobs.<field>" or
// "args.<name>", named as in the spec's own JSON. The value is applied
// after the arm's overlay.
type Sweep struct {
	Field  string  `json:"field"`
	Values []int64 `json:"values"`
}

// Arm is a named partial overlay: only the fields it spells out replace
// the spec's, so an arm can turn a knob off as well as on.
type Arm struct {
	Name    string           `json:"name"`
	Args    map[string]int64 `json:"args,omitempty"`
	Cluster json.RawMessage  `json:"cluster,omitempty"`
	Knobs   json.RawMessage  `json:"knobs,omitempty"`
}

// CellRef names cells by arm and sweep value. A coordinate left out ranges
// over all of its values; left out on both sides of a Compare it ranges
// over them in step.
type CellRef struct {
	Arm   string `json:"arm,omitempty"`
	Value *int64 `json:"value,omitempty"`
}

// Compare bounds Metric(Of) / Metric(Over) — or Metric(Of) itself when
// Over is absent. Metric is a dotted path of row JSON field names
// ("time_ns", "sched.Migrations", "console.walk_ns").
type Compare struct {
	Metric string   `json:"metric"`
	Of     CellRef  `json:"of"`
	Over   *CellRef `json:"over,omitempty"`
	// Bounds is keyed by run scale like Gates.ConsoleSHA256; at a scale
	// without an entry the value is reported and not judged.
	Bounds map[string]Bound `json:"bounds,omitempty"`
}

// Bound is an inclusive range; a zero side is open.
type Bound struct {
	Min float64 `json:"min,omitempty"`
	Max float64 `json:"max,omitempty"`
}

// maxCells bounds the runs one spec can ask for (hostile-input bound).
const maxCells = 64

// Workload names a registered guest program and its build arguments.
type Workload struct {
	// Kind is a key of the workload registry (see Kinds).
	Kind string `json:"kind"`
	// Args overrides the kind's defaults; unknown names and out-of-range
	// values are validation errors. Args marked scalable by the registry
	// are divided down under Smoke scale.
	Args map[string]int64 `json:"args,omitempty"`
}

// Cluster is the machine shape, under its JSON names; zero fields select
// core's defaults.
type Cluster = core.Shape

// Knobs are the core.Config switches a spec sets, under their JSON names.
type Knobs = core.Knobs

// Gates are the acceptance checks evaluated on the finished run. Every
// quantity gated here is virtual-time deterministic: two runs of the same
// spec produce byte-identical gate outcomes.
type Gates struct {
	// ExitCode is the required guest exit code (default 0).
	ExitCode int64 `json:"exit_code,omitempty"`
	// ConsoleSHA256 pins the guest console output, keyed by run scale
	// ("quick", "smoke"); scales without an entry skip the check.
	ConsoleSHA256 map[string]string `json:"console_sha256,omitempty"`
	// MinInsnsPerVSec is the minimum guest instructions retired per
	// *virtual* second — a deterministic throughput floor tied to the cost
	// model, not to host speed.
	MinInsnsPerVSec float64 `json:"min_insns_per_vsec,omitempty"`
	// MaxTimeNs bounds the guest's virtual completion time.
	MaxTimeNs int64 `json:"max_time_ns,omitempty"`
	// MinDeltaMisses requires the run to exercise the delta codec's
	// miss/full-resend paths at least this often (delta misses + twin
	// mismatch resends + directory full re-grants).
	MinDeltaMisses uint64 `json:"min_delta_misses,omitempty"`
	// MinFutexWaits requires at least this many futex syscalls — proof a
	// lock/barrier-heavy scenario actually hit the delegated slow path.
	MinFutexWaits uint64 `json:"min_futex_waits,omitempty"`
	// MaxRaces bounds DQSan findings (only meaningful with the sanitizer
	// knob on; zero means "no races allowed" when the sanitizer runs).
	MaxRaces uint64 `json:"max_races,omitempty"`
}

// Scale selects input sizes for a suite run.
type Scale int

const (
	// Quick runs the spec's arguments as written.
	Quick Scale = iota
	// Smoke divides scalable arguments down for CI smoke runs.
	Smoke
)

// String names the scale as used in Gates.ConsoleSHA256 keys.
func (s Scale) String() string {
	if s == Smoke {
		return "smoke"
	}
	return "quick"
}

// Decode parses and validates one spec. Unknown fields, version skew, an
// unregistered workload kind, out-of-range arguments, and nonsensical
// fault plans are all errors; hostile input must never panic the runner.
func Decode(data []byte) (*Spec, error) {
	dec := json.NewDecoder(bytes.NewReader(data))
	dec.DisallowUnknownFields()
	var s Spec
	if err := dec.Decode(&s); err != nil {
		return nil, fmt.Errorf("scenario: %w", err)
	}
	// Trailing garbage after the object is malformed input, not a suite.
	if dec.More() {
		return nil, fmt.Errorf("scenario: trailing data after spec object")
	}
	// Arm overlays are kept as written apart from whitespace, so a decoded
	// spec equals the value that encoded it; a null overlay is none.
	for i := range s.Arms {
		for _, raw := range []*json.RawMessage{&s.Arms[i].Cluster, &s.Arms[i].Knobs} {
			var b bytes.Buffer
			if json.Compact(&b, *raw) != nil || b.String() == "null" {
				*raw = nil
			} else {
				*raw = b.Bytes()
			}
		}
	}
	if err := s.Validate(); err != nil {
		return nil, err
	}
	return &s, nil
}

// Validate checks semantic constraints after decoding: the matrix the spec
// spans, then every cell of it against the field ranges.
func (s *Spec) Validate() error {
	if s.Version != SchemaVersion {
		return fmt.Errorf("scenario: spec version %d, runner speaks %d (see the migration notes in EXPERIMENTS.md)",
			s.Version, SchemaVersion)
	}
	if s.Name == "" {
		return fmt.Errorf("scenario: spec has no name")
	}
	if !isLabel(s.Name) {
		return fmt.Errorf("scenario: name %q: use lowercase, digits, '-', '_'", s.Name)
	}
	if s.Gates.MaxTimeNs < 0 || s.Gates.MinInsnsPerVSec < 0 {
		return fmt.Errorf("scenario: negative gate bound")
	}
	for scale, h := range s.Gates.ConsoleSHA256 {
		if !isScale(scale) {
			return fmt.Errorf("scenario: console_sha256 key %q is not a scale", scale)
		}
		if len(h) != 64 {
			return fmt.Errorf("scenario: console_sha256[%s] is not a hex sha256", scale)
		}
		for _, r := range h {
			if !(r >= '0' && r <= '9' || r >= 'a' && r <= 'f') {
				return fmt.Errorf("scenario: console_sha256[%s] is not lowercase hex", scale)
			}
		}
	}
	if err := s.validateMatrix(); err != nil {
		return err
	}
	cells, err := s.cells()
	if err != nil {
		return err
	}
	for _, c := range cells {
		if err := c.spec.validateCell(); err != nil {
			return fmt.Errorf("%w (cell %s)", err, c.label())
		}
	}
	return nil
}

func isLabel(s string) bool {
	for _, r := range s {
		if !(r >= 'a' && r <= 'z' || r >= '0' && r <= '9' || r == '-' || r == '_') {
			return false
		}
	}
	return s != ""
}

func isScale(s string) bool { return s == Quick.String() || s == Smoke.String() }

// validateMatrix checks the sweep, the arms, and that every compare and
// show entry names cells and metrics the spec has.
func (s *Spec) validateMatrix() error {
	values := map[int64]bool{}
	if s.Sweep != nil {
		if len(s.Sweep.Values) == 0 {
			return fmt.Errorf("scenario: sweep over %q has no values", s.Sweep.Field)
		}
		for _, v := range s.Sweep.Values {
			if values[v] {
				return fmt.Errorf("scenario: sweep value %d repeated", v)
			}
			values[v] = true
		}
	}
	arms := map[string]bool{}
	for _, a := range s.Arms {
		if !isLabel(a.Name) {
			return fmt.Errorf("scenario: arm name %q: use lowercase, digits, '-', '_'", a.Name)
		}
		if arms[a.Name] {
			return fmt.Errorf("scenario: arm %q repeated", a.Name)
		}
		arms[a.Name] = true
	}
	if n := max(1, len(values)) * max(1, len(arms)); n > maxCells {
		return fmt.Errorf("scenario: %d cells, at most %d per spec", n, maxCells)
	}
	for _, m := range s.Show {
		if !knownMetric(m) {
			return fmt.Errorf("scenario: show: rows have no metric %q", m)
		}
	}
	for _, c := range s.Compare {
		if !knownMetric(c.Metric) {
			return fmt.Errorf("scenario: compare: rows have no metric %q", c.Metric)
		}
		for _, ref := range []*CellRef{&c.Of, c.Over} {
			if ref == nil {
				continue
			}
			if ref.Arm != "" && !arms[ref.Arm] {
				return fmt.Errorf("scenario: compare %s: no arm %q", c.Metric, ref.Arm)
			}
			if ref.Value != nil && !values[*ref.Value] {
				return fmt.Errorf("scenario: compare %s: %d is not a sweep value", c.Metric, *ref.Value)
			}
		}
		for scale, b := range c.Bounds {
			if !isScale(scale) {
				return fmt.Errorf("scenario: compare %s: bounds key %q is not a scale", c.Metric, scale)
			}
			if b.Min != 0 && b.Max != 0 && b.Min > b.Max {
				return fmt.Errorf("scenario: compare %s: min %g > max %g", c.Metric, b.Min, b.Max)
			}
		}
	}
	return nil
}

// validateCell range-checks one flat (sweep- and arm-free) spec: what core
// refuses to build, then the spec's own stricter cluster bounds.
func (s *Spec) validateCell() error {
	if err := s.config().Check(); err != nil {
		return err
	}
	if s.Cluster.QuantumNs < 0 || s.Cluster.PageSize < 0 {
		return fmt.Errorf("scenario: negative quantum or page size")
	}
	if ps := s.Cluster.PageSize; ps != 0 && (ps < 256 || ps > 65536 || ps&(ps-1) != 0) {
		return fmt.Errorf("scenario: page size %d is not a power of two in [256, 65536]", ps)
	}
	_, err := s.Workload.resolve(Quick, s.Cluster.Slaves)
	return err
}

// cell is one run of a spec: the flat spec an (arm, sweep value) pair
// selects.
type cell struct {
	arm   string
	value int64
	spec  *Spec
}

// label names the cell as compare gates and error messages print it.
func (c *cell) label() string { return label(c.spec.Name, c.arm, c.spec.Sweep != nil, c.value) }

func label(name, arm string, swept bool, value int64) string {
	if arm != "" {
		if name != "" {
			name += ":"
		}
		name += arm
	}
	if swept {
		name += fmt.Sprintf("@%d", value)
	}
	return name
}

// short is label without the spec's name, for compare results printed
// under it.
func (c *cell) short() string { return label("", c.arm, c.spec.Sweep != nil, c.value) }

// overlay decodes raw onto dst strictly; fields raw does not spell out
// keep their values.
func overlay(dst interface{}, raw []byte) error {
	dec := json.NewDecoder(bytes.NewReader(raw))
	dec.DisallowUnknownFields()
	return dec.Decode(dst)
}

// cells expands the spec into its runs, sweep-major and arm-minor (the
// order rows are reported in). Each cell's spec keeps Sweep only as the
// label of what was varied.
func (s *Spec) cells() ([]cell, error) {
	arms, values := s.Arms, []int64{0}
	if len(arms) == 0 {
		arms = []Arm{{}}
	}
	if s.Sweep != nil {
		values = s.Sweep.Values
	}
	var out []cell
	for _, v := range values {
		for _, a := range arms {
			c := *s
			c.Arms, c.Compare = nil, nil
			c.Workload.Args = maps.Clone(s.Workload.Args)
			// view is the cell as an arm (and a sweep field) addresses it.
			view := struct {
				Name    string            `json:"name"`
				Args    *map[string]int64 `json:"args"`
				Cluster *Cluster          `json:"cluster"`
				Knobs   *Knobs            `json:"knobs"`
			}{"", &c.Workload.Args, &c.Cluster, &c.Knobs}
			raw, err := json.Marshal(a)
			if err == nil {
				err = overlay(&view, raw)
			}
			if err != nil {
				return nil, fmt.Errorf("scenario: arm %q: %w", a.Name, err)
			}
			if s.Sweep != nil {
				group, name, _ := strings.Cut(s.Sweep.Field, ".")
				if err := overlay(&view, []byte(fmt.Sprintf("{%q:{%q:%d}}", group, name, v))); err != nil {
					return nil, fmt.Errorf("scenario: sweep field %q: %w", s.Sweep.Field, err)
				}
			}
			out = append(out, cell{arm: a.Name, value: v, spec: &c})
		}
	}
	return out, nil
}

// Encode renders the spec in the canonical checked-in form (two-space
// indent, trailing newline), the form the golden-file tests pin.
func (s *Spec) Encode(w io.Writer) error {
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	return enc.Encode(s)
}

// config assembles the core.Config a flat spec describes.
func (s *Spec) config() core.Config {
	cfg := core.Config{Shape: s.Cluster, Knobs: s.Knobs}
	if s.Faults != nil {
		plan := *s.Faults // the cluster must not alias the spec
		cfg.Faults = &plan
	}
	return cfg
}

// Load reads and validates one spec file.
func Load(path string) (*Spec, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	s, err := Decode(data)
	if err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	return s, nil
}

// LoadDir loads every *.json spec in dir, sorted by filename, and rejects
// duplicate scenario names (rows must be uniquely labeled).
func LoadDir(dir string) ([]*Spec, error) {
	entries, err := os.ReadDir(dir)
	if err != nil {
		return nil, err
	}
	var paths []string
	for _, e := range entries {
		if !e.IsDir() && strings.HasSuffix(e.Name(), ".json") {
			paths = append(paths, filepath.Join(dir, e.Name()))
		}
	}
	sort.Strings(paths)
	if len(paths) == 0 {
		return nil, fmt.Errorf("scenario: no *.json specs in %s", dir)
	}
	seen := map[string]string{}
	var specs []*Spec
	for _, p := range paths {
		s, err := Load(p)
		if err != nil {
			return nil, err
		}
		if prev, dup := seen[s.Name]; dup {
			return nil, fmt.Errorf("%s: scenario name %q already used by %s", p, s.Name, prev)
		}
		seen[s.Name] = p
		specs = append(specs, s)
	}
	return specs, nil
}
