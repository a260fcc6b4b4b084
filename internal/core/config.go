// Package core is DQEMU's distributed DBT itself: a cluster of emulator
// instances — one master plus N slaves — that run the threads of a single
// guest binary against a distributed shared memory (§4). Each node couples a
// TCG engine (internal/tcg) to a software MMU (internal/mem); the master
// additionally hosts the coherence directory (internal/dsm), the delegated
// syscall engine (internal/guestos), and the thread placement policy,
// including the hint-based locality-aware scheduler (§5.3).
//
// The protocol engine here (node.go, master.go, wire.go) runs against a
// small Runtime seam (runtime.go). NewCluster drives it with a deterministic
// discrete-event simulation (internal/sim + internal/netsim): guest
// execution, translation, page faults, network traffic and syscalls all
// advance one virtual clock, so experiment results are reproducible and
// reported in virtual time. internal/live drives the same engine, one node
// per process, with the wall clock and TCP frames (NewLocal). This package
// never reads the host clock — cmd/dqlint checks that.
package core

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"

	"dqemu/internal/netsim"
	"dqemu/internal/proto"
	"dqemu/internal/trace"
)

// Knobs are the switches that select what the cluster does: the paper's
// optimizations (§5.1-§5.3), the ablations, and the observability layers.
// This is their one declaration: a scenario spec's "knobs" object decodes
// into it (the JSON tags are the spec's field names; a rename is a schema
// change), and the CLIs and the job daemon set its fields directly. The
// zero value is every knob off at its default.
type Knobs struct {
	// Forwarding enables data forwarding (§5.2).
	Forwarding bool `json:"forwarding,omitempty"`
	// ForwardTrigger is the sequential-page count that arms read-ahead and
	// SplitFactor the number of shadow pages a split produces; 0 selects
	// the defaults.
	ForwardTrigger int `json:"forward_trigger,omitempty"`
	// Splitting enables page splitting for false sharing (§5.1).
	Splitting   bool `json:"splitting,omitempty"`
	SplitFactor int  `json:"split_factor,omitempty"`
	// HintSched enables hint-based locality-aware placement (§5.3). When
	// off, threads are placed round-robin.
	HintSched bool `json:"hint_sched,omitempty"`

	// Interp disables the translation cache (ablation).
	Interp bool `json:"interp,omitempty"`
	// NoSuperblock disables promotion of hot blocks to compiled traces
	// (ablation): everything runs on the block interpreter.
	NoSuperblock bool `json:"no_superblock,omitempty"`
	// Verify enables translate-time translation validation: every lowered
	// trace (ADDI chains folded, compare+branch pairs fused) is symbolically
	// proved equivalent to the per-instruction reference semantics (compiled
	// from the reference lowering instead, with a diagnostic, on failure),
	// and its closure compilation is structurally checked against the uop
	// sequence it was compiled from (not installed on failure: the trace's
	// head stays on the block interpreter). Adds translation-time cost only; the
	// execution hot path is unchanged.
	Verify bool `json:"verify,omitempty"`

	// NoDelta disables delta page transfers (ablation): every grant, push
	// and fetch reply carries its page whole (EncFull), nodes keep no twins,
	// and no version information is exchanged. The pages still travel in
	// payload containers and are counted in Result.Wire.
	NoDelta bool `json:"no_delta,omitempty"`
	// NoCoalesce disables the invalidation hold and push piggybacking
	// (ablation): every invalidation goes out the moment the directory
	// issues it instead of waiting coalesceWindowNs, and grants/pushes go
	// one page per message. Either way each invalidation is its own
	// KInvalidate answered by its own KInvAck. The hold is what this switch
	// is kept for: sending every invalidation at once made the dedup-2s
	// scenario take 1.704 s of virtual time instead of 1.448 s, with 66.6M
	// guest instructions instead of 49.1M (more lock spinning). Only the
	// master reads it.
	NoCoalesce bool `json:"no_coalesce,omitempty"`

	// Metrics enables the cluster observability layer (internal/metrics):
	// fault-latency histograms split by phase, per-page heat maps, futex
	// contention profiles and per-thread time breakdowns, reported in
	// Result.Metrics. Off by default; when off the instrumented hot paths
	// cost zero allocations (every hook no-ops on the nil profiler).
	Metrics bool `json:"metrics,omitempty"`
	// Sanitizer enables DQSan (internal/sanitizer): translate-time IR lint
	// passes plus the distributed happens-before guest race detector. Guest
	// accesses are instrumented, vector clocks and shadow pages piggyback on
	// protocol messages, and Result.San carries the findings. Off by default
	// (the NoSanitizer baseline): instrumentation costs host time and wire
	// bytes; scenarios/sanitizer-*.json report the wire-byte overhead.
	Sanitizer bool `json:"sanitizer,omitempty"`

	// Adaptive enables the feedback scheduler (internal/sched): every
	// sched.PeriodNs of virtual time the master reads the metrics registry,
	// migrates threads toward the pages they fault on (with a load-balance
	// fallback), and proactively splits false-sharing pages. Implies
	// Metrics. The NoAdaptive ablation is simply Adaptive=false: placement
	// stays where StartThread put it and splits wait for the splitter's
	// fixed threshold.
	Adaptive bool `json:"adaptive,omitempty"`
}

// Shape is the cluster's size and timing. Like Knobs it is declared once:
// a scenario spec's "cluster" object decodes into it and the KInit frame
// ships it to slaves, under the same JSON names. Zero fields select the
// defaults (normalize).
type Shape struct {
	// Slaves is the number of slave nodes. 0 emulates the single-node
	// QEMU baseline: every thread runs on the master with no DSM traffic.
	Slaves int `json:"slaves"`
	// Cores is the number of cores per node (the paper's testbed: 4); 0
	// selects it. Check bounds it to [0, 256].
	Cores int `json:"cores,omitempty"`
	// QuantumNs is the node scheduler's time slice (default 100 µs).
	QuantumNs int64 `json:"quantum_ns,omitempty"`
	// PageSize is the coherence granularity (default 4096).
	PageSize int `json:"page_size,omitempty"`
}

// Config describes a cluster.
type Config struct {
	Shape

	Net netsim.Config

	Knobs

	// Stdout, if set, receives guest console output as it appears.
	Stdout io.Writer

	// NoTier3 is an alias of NoSuperblock, folded into it by normalize. It
	// selected the uop dispatch loop, which is gone; the frozen bench/ still
	// sets it by name, and it goes at ROADMAP 1(c)'s unfreeze.
	NoTier3 bool

	// Faults, when set to an active plan, injects deterministic seeded
	// faults (drop/dup/jitter/reorder, node stalls and crashes) into the
	// interconnect — the simulated network, or every frame crossing the
	// live master's sockets — and layers the reliable transport (per-link
	// sequencing, retransmission with exponential backoff, duplicate
	// suppression) between the engine and the runtime's wire. Fault-free
	// runs bypass both, keeping default message counts and timings
	// unchanged. Times in the plan are on the runtime's clock.
	Faults *netsim.FaultPlan
	// Retry tunes the reliable transport when Faults is active. The zero
	// value selects netsim.DefaultRetryPolicy (virtual time; internal/live
	// substitutes a wall-clock policy); the NoRetry/NoDedup fields are
	// deliberate-breakage ablations the torture battery must catch
	// (TestChaosBrokenCaught).
	Retry netsim.RetryPolicy

	// Cancel, when non-nil, aborts the run when closed: Cluster.Run returns
	// an error wrapping ErrCanceled at the next event boundary. The channel
	// is polled between simulation events, never inside them, so it cannot
	// perturb the deterministic schedule of a run that completes — the
	// control-plane daemon uses it to cancel and time out jobs from host
	// time without touching the virtual clock.
	Cancel <-chan struct{}

	// Tracer, if set, records protocol messages, faults, syscalls and
	// scheduling events for debugging (see internal/trace). With a tracer
	// attached the cluster also records typed begin/end spans (exec quanta,
	// page stalls, syscall waits) for the Chrome trace exporter.
	Tracer *trace.Tracer
}

// DefaultConfig mirrors the paper's testbed: quad-core nodes on gigabit
// Ethernet, all optimizations off (they are evaluated separately).
func DefaultConfig() Config {
	var c Config
	c.normalize()
	return c
}

// Nodes returns the cluster size including the master.
func (c *Config) Nodes() int { return c.Slaves + 1 }

// Check rejects configurations no cluster can be built from, as NewCluster
// and NewLocal would: it checks a normalized copy of c. It is the gate for
// configurations that arrive from outside the program — a scenario spec, a
// job request, a KInit frame — as much as for a caller's.
func (c Config) Check() error {
	// Cores is checked as given, before normalize makes a negative count
	// the default. A huge one overflows the feedback scheduler's load cap.
	if c.Cores < 0 || c.Cores > 256 {
		return fmt.Errorf("core: %d cores outside [0, 256]", c.Cores)
	}
	c.normalize()
	if c.Slaves < 0 || c.Slaves > 63 {
		return fmt.Errorf("core: %d slaves outside [0, 63]", c.Slaves)
	}
	// 64 KiB is the largest page a scenario spec may ask for; a larger one
	// from a KInit frame would have InstallImage allocate it, and a page of
	// 2^40 bytes kills the process.
	if ps := c.PageSize; ps < 64 || ps > 64<<10 || ps&(ps-1) != 0 {
		return fmt.Errorf("core: page size %d is not a power of two in [64, 65536]", ps)
	}
	if c.ForwardTrigger < 0 || c.ForwardTrigger > 64 {
		return fmt.Errorf("core: forward_trigger %d outside [0, 64]", c.ForwardTrigger)
	}
	if c.SplitFactor < 0 || c.SplitFactor > 64 {
		return fmt.Errorf("core: split_factor %d outside [0, 64]", c.SplitFactor)
	}
	return c.Faults.Validate(c.Nodes())
}

// normalize fills defaulted fields.
func (c *Config) normalize() {
	if c.Cores <= 0 {
		c.Cores = 4
	}
	if c.QuantumNs <= 0 {
		c.QuantumNs = 100_000
	}
	if c.PageSize == 0 {
		c.PageSize = 4096
	}
	if c.Net == (netsim.Config{}) {
		c.Net = netsim.DefaultConfig()
	}
	if c.NoTier3 {
		c.NoSuperblock = true
	}
	if c.Adaptive {
		// The feedback scheduler steers by the metrics registry; without it
		// there are no sensors to read.
		c.Metrics = true
	}
}

// initRecord is what a KInit frame carries, as JSON, next to the image:
// the node's id and every part of Config a node reads. Under the simulator
// every node reads one Config; a slave process reads this copy of the
// master's.
type initRecord struct {
	ID      int                `json:"id"`
	Cluster Shape              `json:"cluster"`
	Knobs   Knobs              `json:"knobs"`
	Faults  *netsim.FaultPlan  `json:"faults,omitempty"`
	Retry   netsim.RetryPolicy `json:"retry"`
}

// InitFrame is the KInit frame that boots slave id of a cfg-shaped cluster
// in another process: the encoded guest image in Data and cfg's Shape,
// Knobs, fault plan and retry policy in San. What stays behind is the
// master process's own: its console (Stdout), its canceler, its tracer, and
// Net, which models time only the simulator keeps.
func InitFrame(cfg Config, id int, img []byte) *proto.Msg {
	cfg.normalize()
	rec, _ := json.Marshal(initRecord{id, cfg.Shape, cfg.Knobs, cfg.Faults, cfg.Retry}) // numbers, none NaN once Check passed: cannot fail
	return &proto.Msg{Kind: proto.KInit, From: 0, To: int32(id), Data: img, San: rec}
}

// ConfigFromInit is InitFrame's inverse on the slave: the Config to hand
// NewLocal and the node id this process was assigned. The record is decoded
// strictly and checked as any Config from outside the program is: a field
// this build does not know comes from a master of another build, and is
// refused, not ignored.
func ConfigFromInit(frame *proto.Msg) (cfg Config, id int, err error) {
	var rec initRecord
	dec := json.NewDecoder(bytes.NewReader(frame.San))
	dec.DisallowUnknownFields()
	if err := dec.Decode(&rec); err != nil {
		return Config{}, 0, fmt.Errorf("core: decoding init frame: %w", err)
	}
	cfg = Config{Shape: rec.Cluster, Knobs: rec.Knobs, Faults: rec.Faults, Retry: rec.Retry}
	if err := cfg.Check(); err != nil {
		return Config{}, 0, err
	}
	return cfg, rec.ID, nil
}
