package core

import (
	"dqemu/internal/netsim"
	"dqemu/internal/proto"
	"dqemu/internal/sim"
	"dqemu/internal/trace"
)

// Runtime is everything the protocol engine (node.go, master.go, wire.go)
// takes from whatever drives it: a clock, timers and a wire. There are two
// implementations. simRuntime below is the deterministic one — the sim
// kernel's virtual clock and the modelled network — and is what NewCluster
// uses. internal/live supplies the other: the wall clock and TCP frames.
//
// All four methods are called from the single goroutine that drives the
// cluster, and callbacks must run on that goroutine too: the engine holds no
// locks. A frame a node addresses to itself must be queued like any other,
// never delivered inside Send — the handlers are not re-entrant.
type Runtime interface {
	// Now is nanoseconds since the run started.
	Now() int64
	// After runs fn ns nanoseconds from now (nanosleep, the invalidation
	// coalescing window, the rebalance/adapt/drain periods).
	After(ns int64, fn func())
	// Ran completes a guest quantum that has already executed and whose
	// modelled cost is costNs. The simulator charges the cost as a delay;
	// a wall-clock runtime runs fn as soon as it can — the host already
	// spent the real time executing the quantum, and waiting out the cost
	// model on top would cap live throughput at the model's speed.
	Ran(costNs int64, fn func())
	// Send puts m on the wire towards m.To. Delivery is reliable and
	// FIFO per (sender, receiver) pair.
	Send(m *proto.Msg)
}

// simRuntime is the deterministic Runtime: one virtual clock for the whole
// cluster, the modelled interconnect, and the reliable transport over it
// when fault injection is active.
type simRuntime struct {
	k   *sim.Kernel
	net *netsim.Network
	// rel is layered over net when Config.Faults is active; nil otherwise.
	rel *netsim.Reliable
}

func newSimRuntime(cfg *Config) *simRuntime {
	s := &simRuntime{k: sim.NewKernel()}
	// The transport is sized once, over the physical node set: elastic
	// standby slaves exist from the start (registered, image installed) and
	// merely take no threads until the feedback scheduler activates them.
	s.net = netsim.New(s.k, cfg.Net, cfg.PhysNodes())
	if tr := cfg.Tracer; tr != nil {
		s.net.Trace = func(now int64, m *proto.Msg) {
			tr.Record(now, trace.EvMsg, int(m.From), m.TID,
				"%v -> node%d page=%#x num=%d", m.Kind, m.To, m.Page, m.Num)
		}
	}
	if cfg.Faults.Active() {
		s.net.SetFaults(cfg.Faults)
		s.rel = netsim.NewReliable(s.k, s.net, cfg.Retry)
	}
	return s
}

func (s *simRuntime) Now() int64                { return s.k.Now() }
func (s *simRuntime) After(ns int64, fn func()) { s.k.Post(ns, fn) }
func (s *simRuntime) Ran(cost int64, fn func()) { s.k.Post(cost, fn) }

// Send routes a protocol message through the reliable transport when fault
// injection is active, or straight onto the modelled wire otherwise.
func (s *simRuntime) Send(m *proto.Msg) {
	if s.rel != nil {
		s.rel.Send(m)
		return
	}
	s.net.Send(m)
}

// register installs a node's handler on the active transport.
func (s *simRuntime) register(node int, h netsim.Handler) {
	if s.rel != nil {
		s.rel.Register(node, h)
		return
	}
	s.net.Register(node, h)
}
