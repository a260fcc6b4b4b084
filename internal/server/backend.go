package server

import (
	"errors"
	"fmt"

	"dqemu/internal/core"
	"dqemu/internal/image"
	"dqemu/internal/live"
	"dqemu/internal/metrics"
)

// RunSpec is a fully admitted job: the compiled guest image and the cluster
// configuration both backends run. Admission builds the program and checks
// the configuration (and rejects either with 400), so by the time a worker
// sees a RunSpec the only failures left are runtime ones.
//
// Timeout bounds the run's host time: the request's timeout_ms, clamped to
// Options.MaxTimeout, or Options.DefaultTimeout. The daemon cancels the job
// when it passes, and the live backend's cluster has it as its deadline.
type RunSpec struct {
	Image *image.Image
	live.Config
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
	Run(cancel <-chan struct{}, spec RunSpec) (*RunOutcome, error)
}

// ErrJobCanceled is what backends report when cancel fired first.
var ErrJobCanceled = errors.New("job canceled")

// SimBackend executes jobs on the deterministic discrete-event simulation
// (internal/core). It is the default: no sockets, reproducible results,
// and the full metrics surface of the bench suite.
type SimBackend struct{}

func (b *SimBackend) Run(cancel <-chan struct{}, spec RunSpec) (*RunOutcome, error) {
	cfg := spec.Core
	cfg.Cancel = cancel
	cl, err := core.NewCluster(spec.Image, cfg)
	if err != nil {
		return nil, err
	}
	for path, data := range spec.Files {
		cl.VFS().AddFile(path, data)
	}
	res, err := cl.Run()
	out, err := outcome("sim", res, err)
	if out != nil {
		out.TimeNs = res.TimeNs // virtual time is the simulator's alone
	}
	return out, err
}

// outcome is what the backend called name reports of a run that ended in
// res or err: a canceled run is ErrJobCanceled, and a finished one is billed
// for every node res reports.
func outcome(name string, res *core.Result, err error) (*RunOutcome, error) {
	if errors.Is(err, core.ErrCanceled) {
		return nil, fmt.Errorf("%s backend: %w", name, ErrJobCanceled)
	}
	if err != nil {
		return nil, err
	}
	out := &RunOutcome{ExitCode: res.ExitCode, Console: res.Console, Metrics: res.Metrics}
	for _, n := range res.Nodes {
		out.GuestInsns += n.Engine.ExecInsns
	}
	return out, nil
}

// LiveBackend spawns a real-socket cluster per job (live.Run): a master
// listening on loopback plus spec.Core.Slaves slave loops, each node a
// genuinely concurrent event loop running the same protocol engine as
// SimBackend and exchanging length-prefixed frames over TCP. It exists to
// keep the service honest against the hardened transport — the same
// BootError / backpressure / cancellation semantics a multi-machine
// deployment sees. Each run is bounded by the job's own timeout.
type LiveBackend struct{}

func (b *LiveBackend) Run(cancel <-chan struct{}, spec RunSpec) (*RunOutcome, error) {
	spec.Core.Cancel = cancel
	res, err := live.Run(spec.Image, spec.Config)
	if err != nil {
		return outcome("live", nil, err)
	}
	// The slaves are goroutines of this process, so res reports, and the
	// bill covers, the whole cluster.
	return outcome("live", res, nil)
}
