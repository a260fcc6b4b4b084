package core

import (
	"bytes"
	"testing"

	"dqemu/internal/mem"
	"dqemu/internal/proto"
	"dqemu/internal/recycle"
)

// The frame stock: delivered frames kept for the next sends, one stock per
// process. Every cluster in the process draws its messages, and the payload
// containers of the page-carrying kinds, from it (send, container), and
// gives back each frame whose handler has returned (KeepFrame, from
// dispatch). Over sockets a frame crosses between processes, so internal/live
// closes the loop at both ends of a connection: its readers decode into
// stock frames (DecodeFrame) and its senders give back each frame once it is
// encoded. The stock is shared because the traffic is lopsided: the master
// sends grants but receives few containers, a slave receives them but sends
// few, so a stock per node would leave the master allocating a container for
// every grant while each slave's stock fills and drops frames.
var (
	stockMsgs = recycle.New[*proto.Msg]("core.frame-msgs", maxKeptMsgs)
	stockData = recycle.New[[]byte]("core.frame-data", maxKeptContainers)
)

// The caps on the stock, from the high-water marks it reached: 37 messages
// and 15 containers on shared_cluster, 11 and 8 on live_tcp (three nodes and
// their connections sharing the stock), 35 and 33 in internal/live's tests.
// A container above maxKeptContainer bytes (a batch of more than two pages;
// 21 of 100,000 on shared_cluster) is left to the garbage collector.
const (
	maxKeptMsgs       = 64
	maxKeptContainers = 64
	maxKeptContainer  = 2 * mem.DefaultPageSize
)

// poisonFrames fills every kept container with poisonByte in a test binary: a
// handler or reader that kept a view of a delivered payload past its return
// then reads garbage instead of what it was sent, and the differential and
// chaos tests of every package that runs a cluster see the run go wrong.
var poisonFrames = testing.Testing()

const poisonByte = 0xdb

// newMsg returns a message with m's fields: a kept one when there is one.
func newMsg(m proto.Msg) *proto.Msg {
	p, ok := stockMsgs.Get()
	if !ok {
		p = new(proto.Msg)
	}
	*p = m
	return p
}

// container returns a kept payload container, empty, to append a payload
// container to (proto.AppendPayloads); nil when none is kept.
func container() []byte {
	d, _ := stockData.Get()
	return d
}

// KeepFrame gives back a frame nothing reads any more: the message, zeroed,
// and the container of a KPageContent, KPush or KFetchReply. Its Sys and Aux
// parts are not kept: onMigrateCtx relays an arriving Aux as it is. A frame
// that a reliable layer keeps to send again (Config.Faults) is never given
// back.
func KeepFrame(m *proto.Msg) {
	switch d := m.Data; m.Kind {
	case proto.KPageContent, proto.KPush, proto.KFetchReply:
		if d == nil || cap(d) > maxKeptContainer {
			break
		}
		if poisonFrames {
			d = d[:cap(d)]
			for i := range d {
				d[i] = poisonByte
			}
		}
		stockData.Put(d[:0])
	}
	*m = proto.Msg{}
	stockMsgs.Put(m)
}

// DecodeFrame decodes a frame a connection reader read (proto.ReadFrame)
// into a stock message. The reader reads its next frame into the same
// buffer, so what the message carries is copied out: Data into a stock
// container, the CPU context and San anew.
func DecodeFrame(frame []byte) (*proto.Msg, error) {
	m := newMsg(proto.Msg{})
	if err := proto.DecodeInto(m, frame); err != nil {
		return nil, err
	}
	if m.Data != nil {
		m.Data = append(container(), m.Data...)
	}
	if a := m.Aux; a != nil {
		a.CPU, a.San = bytes.Clone(a.CPU), bytes.Clone(a.San)
	}
	return m, nil
}

// send puts a message with m's fields on the wire, in a kept frame when
// there is one.
func (c *Cluster) send(m proto.Msg) { c.rt.Send(newMsg(m)) }
