package server

import (
	"errors"
	"fmt"
	"net"
	"time"

	"dqemu/internal/core"
	"dqemu/internal/image"
	"dqemu/internal/live"
	"dqemu/internal/metrics"
)

// RunSpec is a fully admitted job: the compiled guest image and the cluster
// configuration both backends run. Admission builds the program and checks
// the configuration (and rejects either with 400), so by the time a worker
// sees a RunSpec the only failures left are runtime ones.
type RunSpec struct {
	Image  *image.Image
	Files  map[string][]byte
	Config core.Config
}

// RunOutcome is what a backend reports for a finished guest.
type RunOutcome struct {
	ExitCode   int64
	Console    string
	GuestInsns uint64 // cluster-wide; billed against the tenant's instruction budget
	TimeNs     int64  // guest virtual time (sim backend only)
	Metrics    *metrics.Snapshot
}

// Backend runs one admitted job to completion. Implementations must honor
// cancel (closed on API cancel, job timeout, and forced drain) by returning
// promptly with an error wrapping ErrJobCanceled, and must be safe for
// concurrent Run calls: the daemon runs many jobs at once.
type Backend interface {
	Name() string
	Run(cancel <-chan struct{}, spec RunSpec) (*RunOutcome, error)
}

// ErrJobCanceled is what backends report when cancel fired first.
var ErrJobCanceled = errors.New("job canceled")

// SimBackend executes jobs on the deterministic discrete-event simulation
// (internal/core). It is the default: no sockets, reproducible results,
// and the full metrics surface of the bench suite.
type SimBackend struct {
	// MaxVirtualNs caps guest virtual time per job (0 = core default, 1h).
	MaxVirtualNs int64
}

func (b *SimBackend) Name() string { return "sim" }

func (b *SimBackend) Run(cancel <-chan struct{}, spec RunSpec) (*RunOutcome, error) {
	cfg := spec.Config
	cfg.Cancel = cancel
	if b.MaxVirtualNs > 0 {
		cfg.MaxTimeNs = b.MaxVirtualNs
	}
	cl, err := core.NewCluster(spec.Image, cfg)
	if err != nil {
		return nil, err
	}
	for path, data := range spec.Files {
		cl.VFS().AddFile(path, data)
	}
	res, err := cl.Run()
	if err != nil {
		if errors.Is(err, core.ErrCanceled) {
			return nil, fmt.Errorf("sim backend: %w", ErrJobCanceled)
		}
		return nil, err
	}
	out := &RunOutcome{
		ExitCode: res.ExitCode,
		Console:  res.Console,
		TimeNs:   res.TimeNs,
		Metrics:  res.Metrics,
	}
	for _, n := range res.Nodes {
		out.GuestInsns += n.Engine.ExecInsns
	}
	return out, nil
}

// LiveBackend spawns a real-socket cluster per job: a master listening on
// loopback plus spec.Config.Slaves slave loops, each node a genuinely concurrent
// event loop running the same protocol engine as SimBackend and exchanging
// length-prefixed frames over TCP. It exists to keep the service honest
// against the hardened transport — the same BootError / backpressure /
// cancellation semantics a multi-machine deployment sees.
type LiveBackend struct {
	// Timeout bounds each live run (live.Config.Timeout; default 2 min).
	Timeout time.Duration
}

func (b *LiveBackend) Name() string { return "live" }

func (b *LiveBackend) Run(cancel <-chan struct{}, spec RunSpec) (*RunOutcome, error) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return nil, fmt.Errorf("live backend: %w", err)
	}
	defer ln.Close()
	addr := ln.Addr().String()
	type slaveEnd struct {
		stats core.NodeStats
		err   error
	}
	cfg := live.Config{Core: spec.Config, Timeout: b.Timeout, Files: spec.Files}
	cfg.Core.Cancel = cancel
	slaves := make(chan slaveEnd, cfg.Core.Slaves)
	for i := 0; i < cfg.Core.Slaves; i++ {
		go func() {
			stats, err := live.RunSlave(addr)
			slaves <- slaveEnd{stats, err}
		}()
	}
	// The master's node loop honors cancel, but the boot (accept/handshake)
	// is bounded only by cfg.Timeout; closing the listener turns a cancel
	// during boot into an immediate BootError.
	masterDone := make(chan struct{})
	go func() {
		select {
		case <-cancel:
			ln.Close()
		case <-masterDone:
		}
	}()
	res, err := live.RunMaster(ln, spec.Image, cfg)
	close(masterDone)
	// Close the listener before draining the slaves: a boot failure leaves
	// un-accepted connections parked in the accept backlog, and their
	// handshake reads only fail once the listening socket is gone.
	ln.Close()
	var insns uint64
	for i := 0; i < cfg.Core.Slaves; i++ {
		s := <-slaves
		insns += s.stats.Engine.ExecInsns
		if s.err != nil && err == nil {
			err = fmt.Errorf("live backend: slave: %w", s.err)
		}
	}
	if err != nil {
		if errors.Is(err, live.ErrCanceled) {
			return nil, fmt.Errorf("live backend: %w", ErrJobCanceled)
		}
		return nil, err
	}
	// The slaves are goroutines of this process, so the bill covers the
	// whole cluster: node 0 from the master's result, the rest from theirs.
	return &RunOutcome{
		ExitCode:   res.ExitCode,
		Console:    res.Console,
		GuestInsns: insns + res.Nodes[0].Engine.ExecInsns,
		Metrics:    res.Metrics,
	}, nil
}
