// Package netsim models the cluster interconnect: a switched Ethernet like
// the paper's testbed (1 Gb/s, ~55 µs TCP round trip, §6.1). Messages pay
// serialization (size/bandwidth) on the sender's NIC, propagation latency,
// and software processing time at the receiver, where the communicator /
// manager helper threads handle protocol messages one at a time (§4).
//
// The defaults are calibrated so a remote page fault costs ≈410 µs end to
// end, matching Table 1.
package netsim

import (
	"fmt"

	"dqemu/internal/proto"
	"dqemu/internal/sim"
)

// Config describes the interconnect.
type Config struct {
	// LatencyNs is one-way propagation delay (≈ half the TCP RTT).
	LatencyNs int64
	// BandwidthBps is the link bandwidth in bits per second.
	BandwidthBps int64
	// ProcNs is the receiver-side software cost of handling one protocol
	// message on the fault path (signal handling, (de)serialization, page
	// table updates — the bulk of the paper's 410 µs remote fault).
	ProcNs int64
	// StreamProcNs is the receiver-side cost for pipelined stream messages
	// (forwarded pages, remap broadcasts), which are installed in batch by
	// the helper threads off the fault path.
	StreamProcNs int64
	// LocalNs is the delivery cost of a node messaging itself (master's own
	// requests to its directory).
	LocalNs int64
}

// DefaultConfig matches the paper's testbed.
func DefaultConfig() Config {
	return Config{
		LatencyNs:    28_000, // 56 µs RTT
		BandwidthBps: 1_000_000_000,
		ProcNs:       150_000,
		StreamProcNs: 5_000,
		LocalNs:      1_000,
	}
}

// OverflowKind is the shared per-kind bucket for messages whose Kind falls
// outside [0, proto.KindCount). Every accounting path — plain sends and
// fault-injected duplicate copies alike — clamps to this bucket instead of
// panicking or silently skipping, so a malformed kind shows up in the stats
// it would otherwise corrupt.
const OverflowKind = int(proto.KindCount)

// Stats counts network activity. The per-kind tables are sized from
// proto.KindCount plus the shared overflow bucket, so a new message kind can
// never silently fall off the end (netsim_test.go additionally checks every
// kind is counted).
type Stats struct {
	Msgs  uint64
	Bytes uint64
	// ByKind / BytesByKind count messages and wire bytes per message kind;
	// payload bytes for kind k are BytesByKind[k] - proto.HeaderSize*ByKind[k].
	// Index OverflowKind collects out-of-range kinds.
	ByKind      [proto.KindCount + 1]uint64
	BytesByKind [proto.KindCount + 1]uint64
	BusyTxNs    int64
}

// count records one wire copy of m. It is the single accounting point shared
// by Send and the fault injector's duplicate path, so their overflow
// handling cannot drift apart again.
func (s *Stats) count(m *proto.Msg) {
	size := uint64(m.WireSize())
	s.Msgs++
	s.Bytes += size
	k := int(m.Kind)
	if k < 0 || k >= OverflowKind {
		k = OverflowKind
	}
	s.ByKind[k]++
	s.BytesByKind[k] += size
}

// Handler receives delivered messages.
type Handler func(*proto.Msg)

// Network connects n nodes through the simulated switch.
type Network struct {
	k        *sim.Kernel
	cfg      Config
	handlers []Handler
	// Trace, if set, observes every message as it is sent.
	Trace    func(now int64, m *proto.Msg)
	txFreeAt []int64
	// rxFreeAt serializes receive processing per (receiver, sender) link:
	// the master runs one manager thread per slave (§4), so requests from
	// different slaves are handled concurrently while messages from the
	// same peer are handled in order. Indexed to*len(handlers)+from.
	rxFreeAt []int64
	// onReceive and onDeliver are the two event handlers of a message in
	// flight, made once: the message is the event's argument (sim.PostArgAt),
	// so a hop allocates nothing.
	onReceive, onDeliver func(any)
	Stats                Stats
	// fault, when set via SetFaults, injects seeded drop/dup/jitter/reorder
	// and node stall/crash events into every inter-node message.
	fault *Injector
}

// New builds a network for n nodes on the given kernel.
func New(k *sim.Kernel, cfg Config, n int) *Network {
	if cfg.BandwidthBps <= 0 {
		panic("netsim: bandwidth must be positive")
	}
	nw := &Network{
		k:        k,
		cfg:      cfg,
		handlers: make([]Handler, n),
		txFreeAt: make([]int64, n),
		rxFreeAt: make([]int64, n*n),
	}
	nw.onReceive = func(m any) { nw.receive(m.(*proto.Msg)) }
	nw.onDeliver = func(m any) { nw.deliver(m.(*proto.Msg)) }
	return nw
}

// Register installs the message handler for a node.
func (nw *Network) Register(node int, h Handler) {
	nw.handlers[node] = h
}

// SetFaults arms deterministic fault injection. Pass an active plan before
// any Send; passing nil or an inactive plan leaves the network fault-free.
func (nw *Network) SetFaults(p *FaultPlan) {
	if !p.Active() {
		nw.fault = nil
		return
	}
	nw.fault = NewInjector(*p)
}

// FaultStats counts the faults injected so far.
func (nw *Network) FaultStats() FaultStats {
	if nw.fault == nil {
		return FaultStats{}
	}
	return nw.fault.Stats
}

// Send queues m for delivery to m.To. Delivery invokes the destination
// handler after serialization, propagation and receive processing.
func (nw *Network) Send(m *proto.Msg) {
	if int(m.To) < 0 || int(m.To) >= len(nw.handlers) {
		panic(fmt.Sprintf("netsim: send to unknown node %d", m.To))
	}
	if nw.Trace != nil {
		nw.Trace(nw.k.Now(), m)
	}
	nw.Stats.count(m)
	if m.From == m.To {
		nw.k.PostArgAt(nw.k.Now()+nw.cfg.LocalNs, nw.onDeliver, m)
		return
	}
	if nw.fault == nil {
		nw.transmit(m, 0)
		return
	}
	fate := nw.fault.Decide(m.From, m.To, nw.k.Now())
	if fate.Lost {
		return
	}
	nw.transmit(m, fate.DelayNs)
	if fate.Dup {
		// The duplicate is a real wire copy: account it exactly like the
		// original (only the first copy is counted above).
		c := *m
		nw.Stats.count(&c)
		nw.transmit(&c, fate.DupDelayNs)
	}
}

// transmit models the wire: sender NIC serialization, propagation (plus any
// injected extra delay), then serialized receive processing on the
// destination's helper thread for this link.
func (nw *Network) transmit(m *proto.Msg, extraNs int64) {
	now := nw.k.Now()
	txStart := max64(now, nw.txFreeAt[m.From])
	txTime := m.WireSize() * 8 * 1_000_000_000 / nw.cfg.BandwidthBps
	txDone := txStart + txTime
	nw.txFreeAt[m.From] = txDone
	nw.Stats.BusyTxNs += txTime

	nw.k.PostArgAt(txDone+nw.cfg.LatencyNs+extraNs, nw.onReceive, m)
}

// receive runs at arrival time: it applies receiver-side fault checks
// (crash, stall windows) and then queues the message behind the link's
// helper-thread processing.
func (nw *Network) receive(m *proto.Msg) {
	now := nw.k.Now()
	if nw.fault != nil {
		hold, lost := nw.fault.Arrive(m.To, now)
		if lost {
			return
		}
		if hold > 0 {
			nw.k.PostArgAt(hold, nw.onReceive, m)
			return
		}
	}
	proc := nw.cfg.ProcNs
	switch m.Kind {
	case proto.KPush, proto.KRemap, proto.KThreadStart:
		// Streamed installs handled in batch by helper threads, off the
		// fault path.
		proc = nw.cfg.StreamProcNs
	case proto.KAck:
		// Acks are cheap bookkeeping, not fault-path protocol work.
		proc = nw.cfg.StreamProcNs
	}
	// The helper thread for this link serializes its message handling.
	link := int(m.To)*len(nw.handlers) + int(m.From)
	done := max64(now, nw.rxFreeAt[link]) + proc
	nw.rxFreeAt[link] = done
	nw.k.PostArgAt(done, nw.onDeliver, m)
}

func (nw *Network) deliver(m *proto.Msg) {
	h := nw.handlers[m.To]
	if h == nil {
		panic(fmt.Sprintf("netsim: no handler registered for node %d", m.To))
	}
	h(m)
}

func max64(a, b int64) int64 {
	if a > b {
		return a
	}
	return b
}
