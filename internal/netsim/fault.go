package netsim

import (
	"fmt"
	"math/rand"
)

// FaultPlan describes deterministic fault injection for the cluster's
// interconnect (an Injector applies it). All randomness comes from one seeded
// generator consumed in Send order, so under the simulator a given (seed,
// workload) pair replays the exact same fault schedule; over live sockets
// the draws are the same and the order is the interleaving's. Times are on
// the run's clock: virtual under the simulator, wall over sockets. Local
// (From==To) messages are never faulted: they model intra-node function
// calls, not the wire.
// The JSON tags are the plan's stable wire form: scenario specs
// (internal/scenario) embed fault plans as data, so renaming a field here
// is a spec schema change and needs a migration note (EXPERIMENTS.md).
type FaultPlan struct {
	// Seed drives the per-message random draws.
	Seed int64 `json:"seed"`
	// DropRate is the probability a unicast message silently vanishes.
	DropRate float64 `json:"drop_rate,omitempty"`
	// DupRate is the probability a message is delivered twice.
	DupRate float64 `json:"dup_rate,omitempty"`
	// JitterNs adds a uniform extra delay in [0, JitterNs] to each message.
	JitterNs int64 `json:"jitter_ns,omitempty"`
	// ReorderRate is the probability a message is held back by an extra
	// ReorderDelayNs, letting later messages on the same link overtake it.
	ReorderRate float64 `json:"reorder_rate,omitempty"`
	// ReorderDelayNs is the hold-back for reordered messages. Defaults to
	// 4×JitterNs or 200 µs, whichever is larger.
	ReorderDelayNs int64 `json:"reorder_delay_ns,omitempty"`
	// Stalls freeze a node's receive processing for a window of time:
	// messages arriving during the window are deferred to its end
	// (GC pause / scheduling hiccup model).
	Stalls []Window `json:"stalls,omitempty"`
	// Crashes kill a node permanently at a point in time: all
	// traffic from it is dropped at the sender and to it at delivery.
	Crashes []Crash `json:"crashes,omitempty"`
}

// PlanForSeed derives a torture plan for a cluster of slaves+1 nodes from a
// seed. Roughly one seed in five is a crash-class plan, in which one slave
// dies within the first 40 ms; the rest are recoverable: drop, duplication,
// jitter and reorder rates plus up to two stall windows, all of which the
// reliable transport must absorb.
func PlanForSeed(seed int64, slaves int) (FaultPlan, string) {
	rng := rand.New(rand.NewSource(seed))
	plan := FaultPlan{Seed: seed}
	if rng.Intn(5) == 0 && slaves > 0 {
		plan.Crashes = []Crash{{
			Node: int32(1 + rng.Intn(slaves)),
			AtNs: 1_000_000 + rng.Int63n(39_000_000),
		}}
		return plan, "crash"
	}
	plan.DropRate = rng.Float64() * 0.15
	plan.DupRate = rng.Float64() * 0.15
	plan.JitterNs = rng.Int63n(400_000)
	plan.ReorderRate = rng.Float64() * 0.10
	for i := rng.Intn(3); i > 0; i-- {
		node := int32(rng.Intn(slaves + 1))
		from := rng.Int63n(30_000_000)
		plan.Stalls = append(plan.Stalls, Window{
			Node: node, FromNs: from, ToNs: from + 1_000_000 + rng.Int63n(10_000_000),
		})
	}
	return plan, "recoverable"
}

// Window is a [FromNs, ToNs) interval of the run's clock on one node.
type Window struct {
	Node   int32 `json:"node"`
	FromNs int64 `json:"from_ns"`
	ToNs   int64 `json:"to_ns"`
}

// Crash is a permanent node failure at AtNs.
type Crash struct {
	Node int32 `json:"node"`
	AtNs int64 `json:"at_ns"`
}

// maxDelayNs bounds a plan's jitter and reorder delay at one hour, the
// default run budget, so that no delay the Injector sums can overflow.
const maxDelayNs = 3_600_000_000_000

// Validate rejects plans that decoded from data (scenario specs) but make
// no physical sense; hand-built plans in Go code are assumed well formed.
func (p *FaultPlan) Validate(nodes int) error {
	if p == nil {
		return nil
	}
	for name, r := range map[string]float64{
		"drop_rate": p.DropRate, "dup_rate": p.DupRate, "reorder_rate": p.ReorderRate,
	} {
		if !(r >= 0 && r <= 1) { // NaN too: it has no JSON form for a KInit frame
			return fmt.Errorf("netsim: %s %v outside [0, 1]", name, r)
		}
	}
	if p.JitterNs < 0 || p.ReorderDelayNs < 0 || p.JitterNs > maxDelayNs || p.ReorderDelayNs > maxDelayNs {
		return fmt.Errorf("netsim: jitter/reorder delay outside [0, %d] ns", maxDelayNs)
	}
	for _, w := range p.Stalls {
		if w.Node < 0 || int(w.Node) >= nodes {
			return fmt.Errorf("netsim: stall on unknown node %d", w.Node)
		}
		if w.FromNs < 0 || w.ToNs < w.FromNs {
			return fmt.Errorf("netsim: bad stall window [%d, %d)", w.FromNs, w.ToNs)
		}
	}
	for _, c := range p.Crashes {
		// The master (node 0) cannot crash: it owns the directory.
		if c.Node <= 0 || int(c.Node) >= nodes {
			return fmt.Errorf("netsim: crash on unknown or master node %d", c.Node)
		}
		if c.AtNs < 0 {
			return fmt.Errorf("netsim: negative crash time %d", c.AtNs)
		}
	}
	return nil
}

// CrashedAt reports whether the plan has node dead at time now.
func (p *FaultPlan) CrashedAt(node int32, now int64) bool {
	if p == nil {
		return false
	}
	for _, c := range p.Crashes {
		if c.Node == node && now >= c.AtNs {
			return true
		}
	}
	return false
}

// Active reports whether the plan injects any fault at all.
func (p *FaultPlan) Active() bool {
	if p == nil {
		return false
	}
	return p.DropRate > 0 || p.DupRate > 0 || p.JitterNs > 0 ||
		p.ReorderRate > 0 || len(p.Stalls) > 0 || len(p.Crashes) > 0
}

// String summarizes the plan for error reports ("reproduce with -seed N").
func (p *FaultPlan) String() string {
	return fmt.Sprintf("seed=%d drop=%.3f dup=%.3f jitter=%dns reorder=%.3f stalls=%d crashes=%d",
		p.Seed, p.DropRate, p.DupRate, p.JitterNs, p.ReorderRate, len(p.Stalls), len(p.Crashes))
}

// FaultStats counts injected faults.
type FaultStats struct {
	Dropped      uint64 // messages silently discarded
	Duplicated   uint64 // messages delivered twice
	Reordered    uint64 // messages held back past later traffic
	Stalled      uint64 // deliveries deferred by a stall window
	CrashDropped uint64 // messages to/from a crashed node
}

// Injector applies a FaultPlan one frame at a time. It is the decision code
// both transports share: Network asks it what happens to every inter-node
// message of the simulation, the live master (internal/live) asks it the
// same of every frame that crosses its sockets. It owns the plan's one random
// stream, so the schedule is a pure function of the seed and the order of
// Decide calls; now is the caller's clock, nanoseconds since the run started.
type Injector struct {
	plan  FaultPlan
	rng   *rand.Rand
	Stats FaultStats
}

// NewInjector arms p, which must be Active.
func NewInjector(p FaultPlan) *Injector {
	if p.ReorderDelayNs == 0 {
		p.ReorderDelayNs = max(4*p.JitterNs, 200_000)
	}
	return &Injector{plan: p, rng: rand.New(rand.NewSource(p.Seed))}
}

// Fate is what the plan does to one frame as it leaves its sender.
type Fate struct {
	// Lost: an endpoint has crashed, or the frame was dropped. Nothing else
	// is set.
	Lost bool
	// DelayNs is the extra time the frame spends in flight (jitter, plus the
	// hold-back when it is reordered).
	DelayNs int64
	// Dup asks for a second copy, in flight DupDelayNs longer than normal.
	Dup        bool
	DupDelayNs int64
}

// Decide applies the sender-side faults (crash, drop, duplication, jitter,
// reorder) to one frame. The random draws happen in a fixed order per frame.
func (f *Injector) Decide(from, to int32, now int64) Fate {
	if f.plan.CrashedAt(from, now) || f.plan.CrashedAt(to, now) {
		f.Stats.CrashDropped++
		return Fate{Lost: true}
	}
	drop := f.plan.DropRate > 0 && f.rng.Float64() < f.plan.DropRate
	dup := f.plan.DupRate > 0 && f.rng.Float64() < f.plan.DupRate
	var fate Fate
	if f.plan.JitterNs > 0 {
		fate.DelayNs = f.rng.Int63n(f.plan.JitterNs + 1)
	}
	reorder := f.plan.ReorderRate > 0 && f.rng.Float64() < f.plan.ReorderRate
	if drop {
		f.Stats.Dropped++
		return Fate{Lost: true}
	}
	if reorder {
		f.Stats.Reordered++
		fate.DelayNs += f.plan.ReorderDelayNs
	}
	if dup {
		f.Stats.Duplicated++
		fate.Dup = true
		if f.plan.JitterNs > 0 {
			fate.DupDelayNs = f.rng.Int63n(f.plan.JitterNs + 1)
		}
	}
	return fate
}

// Arrive applies the receiver-side faults to a frame reaching node to: lost
// when the node has crashed, held until holdNs (> now) when it is inside a
// stall window — the caller asks again then — and free to go otherwise.
func (f *Injector) Arrive(to int32, now int64) (holdNs int64, lost bool) {
	if f.plan.CrashedAt(to, now) {
		f.Stats.CrashDropped++
		return 0, true
	}
	for _, w := range f.plan.Stalls {
		if w.Node == to && now >= w.FromNs && now < w.ToNs && w.ToNs > holdNs {
			holdNs = w.ToNs
		}
	}
	if holdNs > 0 {
		f.Stats.Stalled++
	}
	return holdNs, false
}
