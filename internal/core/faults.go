package core

import (
	"fmt"

	"dqemu/internal/proto"
)

// NodeLostError is the structured "graceful degradation" outcome when a peer
// stops answering: the reliable transport exhausted its retransmission
// budget on a message, the master re-homed the pages the dead node owned,
// and the run stopped with this report instead of hanging.
type NodeLostError struct {
	// Node is the unreachable peer.
	Node int
	// AtNs is the virtual time the loss was declared.
	AtNs int64
	// LastKind/LastPage/LastTID identify the message that gave up.
	LastKind proto.Kind
	LastPage uint64
	LastTID  int64
	// RehomedPages lists pages the dead node owned in Modified state; their
	// unsynced writes are lost and the home copy is authoritative again.
	RehomedPages []uint64
	// Plan summarizes the active fault plan for reproduction.
	Plan string
}

func (e *NodeLostError) Error() string {
	return fmt.Sprintf("core: node %d lost at t=%dns (gave up on %v page=%#x tid=%d); re-homed %d pages [%s]",
		e.Node, e.AtNs, e.LastKind, e.LastPage, e.LastTID, len(e.RehomedPages), e.Plan)
}

// nodeLost handles a reliable-transport give-up: declare the peer dead,
// re-home its pages, and stop the run with a structured error.
func (c *Cluster) nodeLost(m *proto.Msg) {
	if c.done || c.lostNodes[m.To] {
		return
	}
	// A crashed node's own retransmit timers still fire in the simulation;
	// a dead peer has no standing to declare anyone else lost.
	if c.cfg.Faults.CrashedAt(m.From, c.rt.Now()) {
		return
	}
	c.lostNodes[m.To] = true
	e := &NodeLostError{
		Node:     int(m.To),
		AtNs:     c.rt.Now(),
		LastKind: m.Kind,
		LastPage: m.Page,
		LastTID:  m.TID,
	}
	if c.cfg.Faults != nil {
		e.Plan = c.cfg.Faults.String()
	}
	if m.To != 0 {
		e.RehomedPages = c.master.dir.ReclaimNode(int(m.To))
	}
	c.fail(e)
}
