package core

import (
	"fmt"

	"dqemu/internal/proto"
)

// NodeLostError is the structured "graceful degradation" outcome when a peer
// stops answering: the reliable transport exhausted its retransmission
// budget on a message, or the runtime saw the peer go (NodeGone). The run
// stops with this report instead of hanging; it is not repaired.
type NodeLostError struct {
	// Node is the unreachable peer.
	Node int
	// AtNs is the time on the runtime's clock the loss was declared.
	AtNs int64
	// LastKind/LastPage/LastTID identify the message that gave up (KInvalid:
	// none did, the connection ended).
	LastKind proto.Kind
	LastPage uint64
	LastTID  int64
	// LostPages lists, sorted, the pages the dead node held in Modified
	// state: their only current copy was there.
	LostPages []uint64
	// Plan summarizes the active fault plan for reproduction.
	Plan string
}

func (e *NodeLostError) Error() string {
	why := fmt.Sprintf("gave up on %v page=%#x tid=%d", e.LastKind, e.LastPage, e.LastTID)
	if e.LastKind == proto.KInvalid {
		why = "its connection ended"
	}
	return fmt.Sprintf("core: node %d lost at t=%dns (%s); lost %d pages [%s]",
		e.Node, e.AtNs, why, len(e.LostPages), e.Plan)
}

// NodeGone declares a peer lost on the runtime's word — a live connection
// that ended before the run did — with the consequences of a give-up.
func (c *Cluster) NodeGone(node int) {
	c.mustLive()
	c.nodeLost(&proto.Msg{From: int32(c.nodes[0].id), To: int32(node)})
}

// nodeLost handles a reliable-transport give-up: declare the peer dead and
// stop the run with a structured error naming the pages lost with it.
func (c *Cluster) nodeLost(m *proto.Msg) {
	if c.done {
		return
	}
	// A crashed node's own retransmit timers still fire in the simulation;
	// a dead peer has no standing to declare anyone else lost.
	if c.cfg.Faults.CrashedAt(m.From, c.rt.Now()) {
		return
	}
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
		e.LostPages = c.master.dir.OwnedBy(int(m.To))
	}
	c.fail(e)
}
