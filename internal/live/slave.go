package live

import (
	"fmt"
	"net"
	"time"

	"dqemu/internal/core"
	"dqemu/internal/image"
	"dqemu/internal/proto"
)

// RunSlave connects to a live master, receives its node id, configuration
// and the guest image, and serves as a cluster node until the master shuts
// the run down. It returns what its node executed, so whoever started the
// slaves can account for the whole cluster.
func RunSlave(addr string) (none core.NodeStats, err error) {
	conn, err := net.Dial("tcp", addr)
	if err != nil {
		return none, fmt.Errorf("live: dial master: %w", err)
	}
	defer conn.Close()

	init, err := proto.ReadMsg(conn)
	if err != nil {
		return none, fmt.Errorf("live: handshake: %w", err)
	}
	if init.Kind != proto.KInit {
		return none, fmt.Errorf("live: expected init, got %v", init.Kind)
	}
	im, err := image.Decode(init.Data)
	if err != nil {
		return none, fmt.Errorf("live: decoding image: %w", err)
	}
	cfg, id, err := core.ConfigFromInit(init)
	if err != nil {
		return none, fmt.Errorf("live: init: %w", err)
	}
	l := newLoop(id, nil, cfg.Faults.Active())
	if l.cl, err = core.NewLocal(im, cfg, id, l); err != nil {
		return none, fmt.Errorf("live: init: %w", err)
	}
	if err := proto.WriteMsg(conn, &proto.Msg{Kind: proto.KInitAck, From: int32(id)}); err != nil {
		l.cl.End()
		return none, fmt.Errorf("live: ack: %w", err)
	}

	out := newSender(conn, time.Time{}, cfg.Faults.Active())
	l.out = out.send
	go readFrames(conn, l, 0)

	err = l.run()
	stats := l.cl.End().Nodes[0]
	out.close()
	return stats, err
}
