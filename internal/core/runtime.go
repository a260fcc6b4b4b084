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
	// coalescing window, the feedback scheduler's control period).
	After(ns int64, fn func())
	// Ran completes a guest quantum that has already executed and whose
	// modelled cost is costNs. The simulator charges the cost as a delay;
	// a wall-clock runtime runs fn as soon as it can — the host already
	// spent the real time executing the quantum, and waiting out the cost
	// model on top would cap live throughput at the model's speed. fn is
	// called once; the caller keeps it and may pass the same func again for
	// a later quantum, so a Runtime must not hold it past the call.
	Ran(costNs int64, fn func())
	// Send puts m on the wire towards m.To. Delivery is reliable and FIFO
	// per (sender, receiver) pair, except under Config.Faults: then the
	// engine's frames reach Send through netsim.Reliable, which repairs
	// what the plan makes the wire lose, repeat and reorder.
	Send(m *proto.Msg)
}

// reliableRuntime is a Runtime whose Send goes through the reliable layer
// (netsim.Reliable) before it reaches the runtime's own wire. newCluster
// stacks it on either runtime whenever Config.Faults is active.
type reliableRuntime struct {
	Runtime
	rel *netsim.Reliable
}

func (r reliableRuntime) Send(m *proto.Msg) { r.rel.Send(m) }

// simRuntime is the deterministic Runtime: one virtual clock for the whole
// cluster and the modelled interconnect, fault injector included.
type simRuntime struct {
	k   *sim.Kernel
	net *netsim.Network
}

func newSimRuntime(cfg *Config) *simRuntime {
	s := &simRuntime{k: sim.NewKernel()}
	s.net = netsim.New(s.k, cfg.Net, cfg.Nodes())
	if tr := cfg.Tracer; tr != nil {
		s.net.Trace = func(now int64, m *proto.Msg) {
			tr.Record(now, trace.EvMsg, int(m.From), m.TID,
				"%v -> node%d page=%#x num=%d", m.Kind, m.To, m.Page, m.Num)
		}
	}
	s.net.SetFaults(cfg.Faults)
	return s
}

func (s *simRuntime) Now() int64                { return s.k.Now() }
func (s *simRuntime) After(ns int64, fn func()) { s.k.Post(ns, fn) }
func (s *simRuntime) Ran(cost int64, fn func()) { s.k.Post(cost, fn) }
func (s *simRuntime) Send(m *proto.Msg)         { s.net.Send(m) }
