package core

import (
	"dqemu/internal/mem"
	"dqemu/internal/proto"
	"dqemu/internal/recycle"
)

// frames is a cluster's stock of delivered frames for its next sends: the
// messages, and the payload containers of the page-carrying kinds, that
// dispatch took back once their handler returned. Plain slices: one
// goroutine drives a cluster, so drawing and keeping take no lock.
type frames struct {
	msgs []*proto.Msg
	data [][]byte // each cut to length 0
}

// The caps on one cluster's stock, from the benchmark's workloads: at most
// 37 messages and 15 containers are kept at once on shared_cluster. On a
// live node, where frames received become frames sent, a slave receives
// more containers (grants, pushes) than it sends (fetch replies), and its
// stock grows to the cap: 72 after 4 s of live_tcp. A container above
// maxKeptContainer bytes (a batch of more than two pages; 21 of 100,000 on
// shared_cluster) is left to the garbage collector.
const (
	maxKeptMsgs       = 64
	maxKeptContainers = 64
	maxKeptContainer  = 2 * mem.DefaultPageSize
)

// frameSets carries a finished cluster's frames to the next cluster built in
// the process, one set per cluster: at most 3 are held at once on the
// benchmark (live_tcp's three in-process nodes).
var frameSets = recycle.New[frames]("core.frames", 8)

// poisonFrames, set by this package's tests, fills every kept container
// with poisonByte: a handler that kept a view of a delivered payload past
// its return then reads garbage instead of what it was sent.
var poisonFrames bool

const poisonByte = 0xdb

// msg returns a message with m's fields: a kept one when there is one.
func (f *frames) msg(m proto.Msg) *proto.Msg {
	var p *proto.Msg
	if n := len(f.msgs); n > 0 {
		p = f.msgs[n-1]
		f.msgs[n-1] = nil
		f.msgs = f.msgs[:n-1]
	} else {
		p = new(proto.Msg)
	}
	*p = m
	return p
}

// container returns a kept payload container, empty, to append a payload
// container to (proto.AppendPayloads); nil when none is kept.
func (f *frames) container() []byte {
	n := len(f.data)
	if n == 0 {
		return nil
	}
	d := f.data[n-1]
	f.data[n-1] = nil
	f.data = f.data[:n-1]
	return d
}

// keep takes back a frame whose handler has returned: the message, zeroed,
// and the container of a KPageContent, KPush or KFetchReply. Its Sys and
// Aux parts are not kept: onMigrateCtx relays an arriving Aux as it is.
func (f *frames) keep(m *proto.Msg) {
	switch d := m.Data; m.Kind {
	case proto.KPageContent, proto.KPush, proto.KFetchReply:
		if d == nil || cap(d) > maxKeptContainer || len(f.data) >= maxKeptContainers {
			break
		}
		if poisonFrames {
			d = d[:cap(d)]
			for i := range d {
				d[i] = poisonByte
			}
		}
		f.data = append(f.data, d[:0])
	}
	*m = proto.Msg{}
	if len(f.msgs) < maxKeptMsgs {
		f.msgs = append(f.msgs, m)
	}
}

// send puts a message with m's fields on the wire, in a kept frame when
// there is one.
func (c *Cluster) send(m proto.Msg) { c.rt.Send(c.frames.msg(m)) }
