package netsim

import "dqemu/internal/proto"

// RetryPolicy tunes the reliable transport's retransmission behaviour.
type RetryPolicy struct {
	// BaseRTONs is the first retransmission timeout.
	BaseRTONs int64
	// MaxRTONs caps the exponential backoff.
	MaxRTONs int64
	// MaxAttempts bounds transmissions of one message (first send plus
	// retries). Exhausting it declares the peer lost and fires OnGiveUp.
	MaxAttempts int
	// NoRetry is an ablation: messages are sequenced but never
	// retransmitted, so an injected drop becomes a permanent protocol hole.
	NoRetry bool
	// NoDedup is an ablation: the receiver delivers every copy it sees, in
	// arrival order, so duplicates and reordering reach the protocol layer.
	NoDedup bool
}

// DefaultRetryPolicy gives up after roughly one second of virtual time:
// 1ms + 2 + 4 + 8 + 16 + 32 + 64 + 100×3 ≈ 430 ms of backoff.
func DefaultRetryPolicy() RetryPolicy {
	return RetryPolicy{
		BaseRTONs:   1_000_000,
		MaxRTONs:    100_000_000,
		MaxAttempts: 10,
	}
}

// RelStats counts reliable-transport activity.
type RelStats struct {
	Sent        uint64 // sequenced messages accepted from the app
	Retransmits uint64
	DupDropped  uint64 // received copies below or at the delivery cursor
	Buffered    uint64 // out-of-order messages parked for reassembly
	Acks        uint64 // acks sent
	GiveUps     uint64 // messages abandoned after MaxAttempts
}

// Reliable layers exactly-once, in-order delivery on top of a lossy wire:
// per-link sequence numbers, a receive-side reorder buffer with duplicate
// suppression, cumulative acks, and per-message retransmission timers with
// exponential backoff. When a message exhausts its attempts the OnGiveUp
// hook fires so the cluster can declare the peer dead instead of hanging.
// Local (From==To) messages bypass the layer entirely.
//
// It takes from its surroundings only a timer and the wire below, so the
// same layer runs over the simulated Network on virtual time and over TCP
// frames on the wall clock; it may hold the links of every node (the
// simulator) or of one (a live process).
type Reliable struct {
	after   func(ns int64, fn func()) // runs fn ns from now
	lower   func(*proto.Msg)          // the lossy wire
	deliver Handler                   // the protocol layer above
	pol     RetryPolicy
	tx      map[[2]int32]*txLink
	rx      map[[2]int32]*rxLink
	// OnGiveUp is called when a message to a peer exhausts MaxAttempts.
	OnGiveUp func(m *proto.Msg)
	Stats    RelStats
}

type txLink struct {
	nextSeq uint64
	unacked map[uint64]*pending
}

type pending struct {
	m        *proto.Msg
	attempts int
	rtoNs    int64
}

type rxLink struct {
	delivered uint64 // highest contiguous seq handed to the app
	buf       map[uint64]*proto.Msg
}

// NewReliable builds the layer between a lossy wire (lower) and the protocol
// (deliver), retransmitting on after's clock. Sends go through Send; every
// message the wire hands up, acks included, goes through Receive.
func NewReliable(after func(ns int64, fn func()), lower func(*proto.Msg), deliver Handler, pol RetryPolicy) *Reliable {
	if pol.BaseRTONs <= 0 {
		pol = DefaultRetryPolicy()
	}
	return &Reliable{
		after:   after,
		lower:   lower,
		deliver: deliver,
		pol:     pol,
		tx:      map[[2]int32]*txLink{},
		rx:      map[[2]int32]*rxLink{},
	}
}

// Send queues m for reliable delivery to m.To.
func (r *Reliable) Send(m *proto.Msg) {
	if m.From == m.To {
		r.lower(m)
		return
	}
	link := [2]int32{m.From, m.To}
	l := r.tx[link]
	if l == nil {
		l = &txLink{nextSeq: 1, unacked: map[uint64]*pending{}}
		r.tx[link] = l
	}
	m.Seq = l.nextSeq
	l.nextSeq++
	p := &pending{m: m, attempts: 1, rtoNs: r.pol.BaseRTONs}
	l.unacked[m.Seq] = p
	r.Stats.Sent++
	c := *m
	r.lower(&c)
	if !r.pol.NoRetry {
		r.armTimer(l, m.Seq, p)
	}
}

func (r *Reliable) armTimer(l *txLink, seq uint64, p *pending) {
	r.after(p.rtoNs, func() {
		if l.unacked[seq] != p {
			return // acked meanwhile
		}
		if p.attempts >= r.pol.MaxAttempts {
			delete(l.unacked, seq)
			r.Stats.GiveUps++
			if r.OnGiveUp != nil {
				r.OnGiveUp(p.m)
			}
			return
		}
		p.attempts++
		r.Stats.Retransmits++
		c := *p.m
		r.lower(&c)
		p.rtoNs *= 2
		if p.rtoNs > r.pol.MaxRTONs {
			p.rtoNs = r.pol.MaxRTONs
		}
		r.armTimer(l, seq, p)
	})
}

// Receive takes one message off the wire: acks are consumed, sequenced
// messages are deduplicated and handed up in order, the rest pass through.
func (r *Reliable) Receive(m *proto.Msg) {
	if m.Kind == proto.KAck {
		r.onAck(m)
		return
	}
	if m.From == m.To || m.Seq == 0 {
		// Local or unsequenced: straight through.
		r.deliver(m)
		return
	}
	link := [2]int32{m.To, m.From}
	l := r.rx[link]
	if l == nil {
		l = &rxLink{buf: map[uint64]*proto.Msg{}}
		r.rx[link] = l
	}
	if r.pol.NoDedup {
		// Ablation: no reorder buffer, no duplicate suppression. Still ack
		// so the sender's retransmission eventually stops.
		if m.Seq > l.delivered {
			l.delivered = m.Seq
		}
		r.sendAck(m.To, m.From, l.delivered)
		r.deliver(m)
		return
	}
	switch {
	case m.Seq <= l.delivered:
		// Duplicate (retransmit of something we already delivered, or a
		// network-injected copy): drop, but re-ack — the sender is
		// retransmitting because our ack was lost.
		r.Stats.DupDropped++
		r.sendAck(m.To, m.From, l.delivered)
	case m.Seq == l.delivered+1:
		l.delivered++
		r.deliver(m)
		// Drain any buffered successors that are now contiguous.
		for {
			next, ok := l.buf[l.delivered+1]
			if !ok {
				break
			}
			delete(l.buf, l.delivered+1)
			l.delivered++
			r.deliver(next)
		}
		r.sendAck(m.To, m.From, l.delivered)
	default:
		// Gap: park until the missing predecessors arrive. Ack the cursor
		// so the sender keeps retransmitting only the hole.
		if _, dup := l.buf[m.Seq]; dup {
			r.Stats.DupDropped++
		} else {
			l.buf[m.Seq] = m
			r.Stats.Buffered++
		}
		r.sendAck(m.To, m.From, l.delivered)
	}
}

func (r *Reliable) onAck(m *proto.Msg) {
	link := [2]int32{m.To, m.From}
	l := r.tx[link]
	if l == nil {
		return
	}
	for seq := range l.unacked {
		if seq <= m.Seq {
			delete(l.unacked, seq)
		}
	}
}

func (r *Reliable) sendAck(from, to int32, seq uint64) {
	r.Stats.Acks++
	r.lower(&proto.Msg{Kind: proto.KAck, From: from, To: to, Seq: seq})
}

// Unacked reports the number of in-flight (sent, not yet acknowledged)
// messages across all links — useful for quiescence checks in tests.
func (r *Reliable) Unacked() int {
	n := 0
	for _, l := range r.tx {
		n += len(l.unacked)
	}
	return n
}
