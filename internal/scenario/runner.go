package scenario

import (
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"io"
	"reflect"
	"strconv"
	"strings"

	"dqemu/internal/abi"
	"dqemu/internal/core"
	"dqemu/internal/metrics"
	"dqemu/internal/netsim"
	"dqemu/internal/proto"
	"dqemu/internal/sched"
	"dqemu/internal/trace"
)

// Options configure a suite run.
type Options struct {
	// Scale selects input sizes (Quick runs specs as written).
	Scale Scale
	// Progress, if non-nil, receives one line per finished cell.
	Progress io.Writer
	// Tracer, if non-nil, is attached to every run; the determinism test
	// uses it to pin the full event schedule, not just the result row.
	Tracer *trace.Tracer
	// Verify forces translate-time translation validation on for every
	// spec, regardless of its knobs; each run then carries the implicit
	// verify_clean gate (zero demotions, zero rejected compilations).
	Verify bool
}

func (o *Options) logf(format string, args ...interface{}) {
	if o.Progress != nil {
		fmt.Fprintf(o.Progress, format+"\n", args...)
	}
}

// Row is one cell's result. Every field is virtual-time deterministic:
// re-running the same spec at the same scale yields byte-identical JSON.
type Row struct {
	Bench string `json:"bench"`
	// Arm and Value label the cell; Sweep names the swept field.
	Arm      string `json:"arm,omitempty"`
	Sweep    string `json:"sweep,omitempty"`
	Value    int64  `json:"value"`
	Workload string `json:"workload"`
	Scale    string `json:"scale"`

	ExitCode   int64  `json:"exit_code"`
	GuestInsns uint64 `json:"guest_insns"`
	TimeNs     int64  `json:"time_ns"`
	// InsnsPerSec is guest instructions per *virtual* second.
	InsnsPerSec float64 `json:"insns_per_sec"`

	// CohWireBytes is what the netsim bandwidth model bills the coherence
	// protocol; CohPayloadBytes is the same past the fixed message headers.
	CohWireBytes    uint64 `json:"coh_wire_bytes"`
	CohPayloadBytes uint64 `json:"coh_payload_bytes"`
	CohMsgs         uint64 `json:"coh_msgs"`
	TotalBytes      uint64 `json:"total_bytes"`
	// SlavePageFaults and SlavePageWaitNs sum the remote-fault stalls of
	// the slave nodes; MeanFaultNs is their quotient.
	SlavePageFaults uint64  `json:"slave_page_faults"`
	SlavePageWaitNs int64   `json:"slave_page_wait_ns"`
	MeanFaultNs     float64 `json:"mean_fault_ns"`
	// Worker*Ns average the per-thread time split over every thread but
	// the main one.
	WorkerExecNs    int64 `json:"worker_exec_ns"`
	WorkerFaultNs   int64 `json:"worker_fault_ns"`
	WorkerSyscallNs int64 `json:"worker_syscall_ns"`
	// DeltaMisses aggregates the delta codec's degraded paths: encode-side
	// misses, receiver twin-mismatch resends, and directory full re-grants.
	DeltaMisses uint64 `json:"delta_misses"`
	FutexWaits  uint64 `json:"futex_waits"`
	Migrations  uint64 `json:"migrations"`
	// Races counts DQSan findings; CrossNodeRaces those whose two threads
	// ran on different nodes.
	Races          uint64 `json:"races"`
	CrossNodeRaces uint64 `json:"cross_node_races"`

	// Translation-validation counters (zero unless verify is on).
	VerifiedSuperblocks uint64 `json:"verified_superblocks,omitempty"`
	VerifyDemotions     uint64 `json:"verify_demotions,omitempty"`
	VerifiedTier3       uint64 `json:"verified_tier3,omitempty"`
	Tier3CheckFailures  uint64 `json:"tier3_check_failures,omitempty"`

	Wire   core.WireStats    `json:"wire"`
	Faults netsim.FaultStats `json:"faults"`
	Sched  sched.Stats       `json:"sched"`

	// Console holds every "key=<int>" line the guest printed (the
	// micro-benchmarks time themselves: walk_ns, elapsed_ns).
	Console       map[string]int64 `json:"console,omitempty"`
	ConsoleSHA256 string           `json:"console_sha256"`
	// Metrics is the observability snapshot (metrics knob on).
	Metrics *metrics.Snapshot `json:"metrics,omitempty"`

	Gates []GateResult `json:"gates,omitempty"`
}

// GateResult is one evaluated gate.
type GateResult struct {
	Name   string `json:"name"`
	Pass   bool   `json:"pass"`
	Detail string `json:"detail"`
}

// Fails counts failed gates in the row.
func (r *Row) Fails() int {
	n := 0
	for _, g := range r.Gates {
		if !g.Pass {
			n++
		}
	}
	return n
}

// jsonField returns the field of struct v that encodes under name.
func jsonField(v reflect.Value, name string) reflect.Value {
	t := v.Type()
	for i := 0; i < t.NumField(); i++ {
		tag, _, _ := strings.Cut(t.Field(i).Tag.Get("json"), ",")
		if tag == name || tag == "" && t.Field(i).Name == name {
			return v.Field(i)
		}
	}
	return reflect.Value{}
}

// knownMetric reports whether rows have a top-level field for the path.
func knownMetric(path string) bool {
	head, _, _ := strings.Cut(path, ".")
	return jsonField(reflect.ValueOf(Row{}), head).IsValid()
}

// Metric resolves a dotted path of JSON field names to a number: struct
// fields by name, then a map by the rest of the path as its key.
func (r *Row) Metric(path string) (float64, bool) {
	v := reflect.ValueOf(r)
	for {
		switch v.Kind() {
		case reflect.Ptr:
			if v.IsNil() {
				return 0, false
			}
			v = v.Elem()
		case reflect.Struct:
			var head string
			head, path, _ = strings.Cut(path, ".")
			if v = jsonField(v, head); !v.IsValid() {
				return 0, false
			}
		case reflect.Map:
			if v.Type().Key().Kind() != reflect.String {
				return 0, false
			}
			if v = v.MapIndex(reflect.ValueOf(path)); !v.IsValid() {
				return 0, false
			}
			path = ""
		default:
			switch {
			case path != "":
			case v.CanInt():
				return float64(v.Int()), true
			case v.CanUint():
				return float64(v.Uint()), true
			case v.CanFloat():
				return v.Float(), true
			}
			return 0, false
		}
	}
}

// Report is a finished suite: one flat row per cell, in spec then
// sweep-major order.
type Report struct {
	Scale string `json:"scale"`
	Rows  []*Row `json:"rows"`
	// specs are what produced Rows, for Print's matrices.
	specs []*Spec
}

// cohKinds are the message kinds that make up the DSM coherence protocol.
var cohKinds = []proto.Kind{
	proto.KPageReq, proto.KPageContent, proto.KInvalidate, proto.KInvAck,
	proto.KFetch, proto.KFetchReply, proto.KRetry, proto.KRemap, proto.KPush,
	proto.KInvBatch, proto.KInvAckBatch,
}

// Run executes every cell of one spec and evaluates its gates. A failed
// gate is reported in the row, not as an error; errors mean the scenario
// could not run.
func Run(s *Spec, o Options) ([]*Row, error) {
	if err := s.Validate(); err != nil {
		return nil, err
	}
	cells, err := s.cells()
	if err != nil {
		return nil, err
	}
	rows := make([]*Row, len(cells))
	for i := range cells {
		row, err := runCell(&cells[i], o)
		if err != nil {
			return nil, fmt.Errorf("scenario %s: %w", cells[i].label(), err)
		}
		rows[i] = row
		status := "ok"
		if n := row.Fails(); n > 0 {
			status = fmt.Sprintf("%d GATE(S) FAILED", n)
		}
		o.logf("scenario %-32s %10.1fM insns  %8.3fs virtual  %8.1f KB coh  %s",
			cells[i].label(), float64(row.GuestInsns)/1e6, float64(row.TimeNs)/1e9,
			float64(row.CohWireBytes)/1e3, status)
	}
	evalCompares(s, o.Scale, cells, rows)
	return rows, nil
}

func runCell(c *cell, o Options) (*Row, error) {
	s := c.spec
	im, err := s.Workload.buildImage(o.Scale, s.Cluster.Slaves)
	if err != nil {
		return nil, err
	}
	cfg := s.config()
	cfg.Tracer = o.Tracer
	if o.Verify {
		cfg.Verify = true
	}
	res, err := core.Run(im, cfg)
	if err != nil {
		return nil, err
	}

	sum := sha256.Sum256([]byte(res.Console))
	row := &Row{
		Bench:         s.Name,
		Arm:           c.arm,
		Value:         c.value,
		Workload:      s.Workload.Kind,
		Scale:         o.Scale.String(),
		ExitCode:      res.ExitCode,
		TimeNs:        res.TimeNs,
		TotalBytes:    res.Net.Bytes,
		DeltaMisses:   res.Wire.DeltaMisses + res.Wire.Resends + res.Dir.FullResends,
		Migrations:    res.Migrations,
		Wire:          res.Wire,
		Faults:        res.Faults,
		Sched:         res.Sched,
		ConsoleSHA256: hex.EncodeToString(sum[:]),
		Metrics:       res.Metrics,
	}
	if s.Sweep != nil {
		row.Sweep = s.Sweep.Field
	}
	for _, n := range res.Nodes {
		row.GuestInsns += n.Engine.ExecInsns
		row.VerifiedSuperblocks += n.Engine.VerifiedSuperblocks
		row.VerifyDemotions += n.Engine.VerifyDemotions
		row.VerifiedTier3 += n.Engine.VerifiedTier3
		row.Tier3CheckFailures += n.Engine.Tier3CheckFailures
		if n.Node != 0 {
			row.SlavePageFaults += n.PageFaults
			row.SlavePageWaitNs += n.PageWaitNs
		}
	}
	if res.TimeNs > 0 {
		row.InsnsPerSec = float64(row.GuestInsns) / (float64(res.TimeNs) / 1e9)
	}
	if row.SlavePageFaults > 0 {
		row.MeanFaultNs = float64(row.SlavePageWaitNs) / float64(row.SlavePageFaults)
	}
	for _, k := range cohKinds {
		row.CohMsgs += res.Net.ByKind[k]
		row.CohWireBytes += res.Net.BytesByKind[k]
	}
	row.CohPayloadBytes = row.CohWireBytes - uint64(proto.HeaderSize)*row.CohMsgs
	nodeOf := map[int64]int{}
	var workers int64
	for _, t := range res.Threads {
		nodeOf[t.TID] = t.Node
		if t.TID != 1 {
			row.WorkerExecNs += t.ExecNs
			row.WorkerFaultNs += t.FaultNs
			row.WorkerSyscallNs += t.SyscallNs
			workers++
		}
	}
	if workers > 0 {
		row.WorkerExecNs /= workers
		row.WorkerFaultNs /= workers
		row.WorkerSyscallNs /= workers
	}
	if res.OS.ByNum != nil {
		row.FutexWaits = res.OS.ByNum[abi.SysFutex]
	}
	if res.San != nil {
		row.Races = uint64(len(res.San.Races))
		for _, r := range res.San.Races {
			if r.TID != 0 && r.PrevTID != 0 && nodeOf[r.TID] != nodeOf[r.PrevTID] {
				row.CrossNodeRaces++
			}
		}
	}
	for _, line := range strings.Split(res.Console, "\n") {
		if key, val, ok := strings.Cut(line, "="); ok {
			if n, err := strconv.ParseInt(strings.TrimSpace(val), 10, 64); err == nil {
				if row.Console == nil {
					row.Console = map[string]int64{}
				}
				row.Console[key] = n
			}
		}
	}
	row.Gates = evalGates(s, o.Scale, row, s.Knobs.Verify || o.Verify)
	return row, nil
}

// evalGates judges the row against the spec's per-cell gates. verified
// marks runs with translation validation on, which adds the implicit
// verify_clean gate.
func evalGates(s *Spec, scale Scale, row *Row, verified bool) []GateResult {
	g := s.Gates
	var out []GateResult
	add := func(name string, pass bool, format string, args ...interface{}) {
		out = append(out, GateResult{Name: name, Pass: pass, Detail: fmt.Sprintf(format, args...)})
	}
	add("exit_code", row.ExitCode == g.ExitCode, "got %d want %d", row.ExitCode, g.ExitCode)
	if want, ok := g.ConsoleSHA256[scale.String()]; ok {
		add("console_sha256", row.ConsoleSHA256 == want, "got %s want %s", row.ConsoleSHA256, want)
	}
	if g.MinInsnsPerVSec > 0 {
		add("min_insns_per_vsec", row.InsnsPerSec >= g.MinInsnsPerVSec,
			"got %.0f want >= %.0f", row.InsnsPerSec, g.MinInsnsPerVSec)
	}
	if g.MaxTimeNs > 0 {
		add("max_time_ns", row.TimeNs <= g.MaxTimeNs, "got %d want <= %d", row.TimeNs, g.MaxTimeNs)
	}
	if g.MinDeltaMisses > 0 {
		add("min_delta_misses", row.DeltaMisses >= g.MinDeltaMisses,
			"got %d want >= %d", row.DeltaMisses, g.MinDeltaMisses)
	}
	if g.MinFutexWaits > 0 {
		add("min_futex_waits", row.FutexWaits >= g.MinFutexWaits,
			"got %d want >= %d", row.FutexWaits, g.MinFutexWaits)
	}
	if s.Knobs.Sanitizer {
		add("max_races", row.Races <= g.MaxRaces, "got %d want <= %d", row.Races, g.MaxRaces)
	}
	if verified {
		add("verify_clean", row.VerifyDemotions == 0 && row.Tier3CheckFailures == 0,
			"traces proved=%d demoted=%d, compilations checked=%d rejected=%d",
			row.VerifiedSuperblocks, row.VerifyDemotions, row.VerifiedTier3, row.Tier3CheckFailures)
	}
	return out
}

// comparePrefix marks compare results among a row's gates.
const comparePrefix = "compare "

// evalCompares judges the spec's compare gates and files each result on
// the row of its Of cell. rows[i] is the result of cells[i].
func evalCompares(s *Spec, scale Scale, cells []cell, rows []*Row) {
	// pick returns the index of the cell ref names, its open coordinates
	// taken from cell i.
	pick := func(ref *CellRef, i int) int {
		arm, value := cells[i].arm, cells[i].value
		if ref.Arm != "" {
			arm = ref.Arm
		}
		if ref.Value != nil {
			value = *ref.Value
		}
		for j := range cells {
			if cells[j].arm == arm && cells[j].value == value {
				return j
			}
		}
		return -1 // unreachable: Validate checked the names
	}
	for _, c := range s.Compare {
		seen := map[[2]int]bool{}
		for i := range cells {
			of, over := pick(&c.Of, i), -1
			if c.Over != nil {
				over = pick(c.Over, i)
			}
			if seen[[2]int{of, over}] {
				continue
			}
			seen[[2]int{of, over}] = true
			x, ok := rows[of].Metric(c.Metric)
			what := cells[of].short()
			if over >= 0 {
				y, ok2 := rows[over].Metric(c.Metric)
				x, ok = x/y, ok && ok2
				what += " / " + cells[over].short()
			}
			res := GateResult{Name: comparePrefix + c.Metric, Pass: ok,
				Detail: fmt.Sprintf("%s = %.4g", what, x)}
			if !ok {
				res.Detail = what + ": metric not reported"
			} else if b, bounded := c.Bounds[scale.String()]; bounded {
				if b.Min != 0 {
					res.Pass = x >= b.Min
					res.Detail += fmt.Sprintf(" want >= %g", b.Min)
				}
				if b.Max != 0 {
					res.Pass = res.Pass && x <= b.Max
					res.Detail += fmt.Sprintf(" want <= %g", b.Max)
				}
			}
			rows[of].Gates = append(rows[of].Gates, res)
		}
	}
}

// RunAll executes a list of specs (LoadDir order) into one report.
func RunAll(specs []*Spec, o Options) (*Report, error) {
	rep := &Report{Scale: o.Scale.String(), specs: specs}
	for _, s := range specs {
		rows, err := Run(s, o)
		if err != nil {
			return nil, err
		}
		rep.Rows = append(rep.Rows, rows...)
	}
	return rep, nil
}

// Fails counts failed gates across the suite.
func (rep *Report) Fails() int {
	n := 0
	for _, r := range rep.Rows {
		n += r.Fails()
	}
	return n
}

// formatMetric renders one matrix entry: *_ns metrics in seconds.
func formatMetric(name string, x float64, ok bool) string {
	switch {
	case !ok:
		return "-"
	case strings.HasSuffix(name, "_ns"):
		return fmt.Sprintf("%.9f", x/1e9)
	case x == float64(int64(x)):
		return fmt.Sprintf("%d", int64(x))
	}
	return fmt.Sprintf("%.2f", x)
}

// Print renders each spec as one sweep × arm matrix per shown metric,
// followed by its compare results and any failed gate.
func (rep *Report) Print(w io.Writer) {
	rows := rep.Rows
	for _, s := range rep.specs {
		arms := max(1, len(s.Arms))
		n := arms
		if s.Sweep != nil {
			n *= len(s.Sweep.Values)
		}
		mine := rows[:n]
		rows = rows[n:]
		fmt.Fprintf(w, "%s (%s, %s scale)\n", s.Name, s.Workload.Kind, rep.Scale)
		show := s.Show
		if len(show) == 0 {
			show = []string{"time_ns"}
		}
		for _, m := range show {
			head := m
			if strings.HasSuffix(m, "_ns") {
				head = strings.TrimSuffix(m, "_ns") + " (s)"
			}
			fmt.Fprintf(w, "  %-26s", head)
			for _, r := range mine[:arms] {
				fmt.Fprintf(w, " %-14s", r.Arm)
			}
			for i, r := range mine {
				if i%arms == 0 {
					label := ""
					if r.Sweep != "" {
						label = fmt.Sprintf("%s=%d", r.Sweep, r.Value)
					}
					fmt.Fprintf(w, "\n  %-26s", label)
				}
				x, ok := r.Metric(m)
				fmt.Fprintf(w, " %-14s", formatMetric(m, x, ok))
			}
			fmt.Fprintln(w)
		}
		for _, r := range mine {
			for _, g := range r.Gates {
				switch {
				case !g.Pass:
					fmt.Fprintf(w, "  FAILED %s [%s]: %s\n", g.Name,
						label(r.Bench, r.Arm, r.Sweep != "", r.Value), g.Detail)
				case strings.HasPrefix(g.Name, comparePrefix):
					fmt.Fprintf(w, "  %s: %s\n", g.Name, g.Detail)
				}
			}
		}
	}
	if n := rep.Fails(); n > 0 {
		fmt.Fprintf(w, "SCENARIO GATES FAILED: %d\n", n)
	}
}

// WriteJSON emits the machine-readable report.
func (rep *Report) WriteJSON(w io.Writer) error {
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	return enc.Encode(rep)
}
