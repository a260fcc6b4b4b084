// Package server is the dqemud control plane: emulation as a service on
// top of the DQEMU cluster. Tenants submit guest programs over a REST/JSON
// API; the daemon compiles them at admission, queues them through a bounded
// admission queue, and runs them on a worker pool against one of two
// backends behind the Backend interface — the deterministic simulation
// (internal/core, the default) or a per-job real-socket cluster
// (internal/live). Per-tenant quotas cap concurrent jobs and total guest
// instructions; a panicking job fails alone; SIGTERM drains gracefully.
//
// The shape follows the podman server/pkg/api split: transport-independent
// job lifecycle here in Server, HTTP marshalling in api.go, the daemon
// process in cmd/dqemud, the client in cmd/dqemu-submit.
package server

import (
	"context"
	"errors"
	"fmt"
	"net/http"
	"runtime/debug"
	"sort"
	"sync"
	"time"

	"dqemu/internal/asm"
	"dqemu/internal/core"
	"dqemu/internal/grt"
	"dqemu/internal/image"
	"dqemu/internal/live"
)

// Quota bounds one tenant. Zero fields fall back to the server defaults;
// a MaxInsns of 0 means unlimited.
type Quota struct {
	// MaxConcurrent caps the tenant's running jobs; further admitted jobs
	// wait in the queue until a slot frees.
	MaxConcurrent int `json:"max_concurrent"`
	// MaxQueued caps the tenant's queued (admitted, not yet running) jobs;
	// submissions beyond it are rejected with 429.
	MaxQueued int `json:"max_queued"`
	// MaxInsns is the tenant's lifetime guest-instruction budget; once
	// exhausted, further submissions are rejected with 429.
	MaxInsns uint64 `json:"max_insns"`
}

// Options configures a Server.
type Options struct {
	// Workers is the size of the job-running pool (default 4).
	Workers int
	// QueueDepth bounds the global admission queue (default 64): the
	// backstop that keeps a burst from growing daemon memory without bound,
	// per-tenant fairness is MaxQueued's job.
	QueueDepth int
	// DefaultQuota applies to tenants without an explicit entry in Quotas.
	DefaultQuota Quota
	// Quotas holds per-tenant overrides.
	Quotas map[string]Quota
	// DefaultTimeout bounds each job's host run time when the request does
	// not say (default 2 minutes); MaxTimeout clamps what requests may ask
	// for (default 10 minutes).
	DefaultTimeout time.Duration
	MaxTimeout     time.Duration
	// MaxSlaves clamps the cluster size a request may ask for (default 16).
	MaxSlaves int
	// Backends maps names to implementations; nil selects the default
	// {"sim": &SimBackend{}, "live": &LiveBackend{}}.
	Backends map[string]Backend
	// Logf, when set, receives one line per lifecycle event.
	Logf func(format string, args ...any)
}

func (o *Options) normalize() {
	if o.Workers <= 0 {
		o.Workers = 4
	}
	if o.QueueDepth <= 0 {
		o.QueueDepth = 64
	}
	if o.DefaultQuota.MaxConcurrent <= 0 {
		o.DefaultQuota.MaxConcurrent = 2
	}
	if o.DefaultQuota.MaxQueued <= 0 {
		o.DefaultQuota.MaxQueued = 16
	}
	if o.DefaultTimeout <= 0 {
		o.DefaultTimeout = 2 * time.Minute
	}
	if o.MaxTimeout <= 0 {
		o.MaxTimeout = 10 * time.Minute
	}
	if o.MaxSlaves <= 0 {
		o.MaxSlaves = 16
	}
	if o.Backends == nil {
		o.Backends = map[string]Backend{
			"sim":  &SimBackend{},
			"live": &LiveBackend{},
		}
	}
}

// tenantState is one tenant's accounting, guarded by Server.mu.
type tenantState struct {
	queued    int
	running   int
	usedInsns uint64
	rejected  uint64 // quota/queue rejections (observability + tests)
	jobs      uint64 // total admitted
}

// Server owns the job table, the admission queue and the worker pool. All
// mutable state is guarded by mu; cond is signalled whenever a worker might
// have something new to do (submission, completion, cancellation, drain).
type Server struct {
	opts Options

	mu      sync.Mutex
	cond    *sync.Cond
	jobs    map[string]*job
	order   []*job // submission order, for listing
	pending []*job // FIFO admission queue
	tenants map[string]*tenantState
	nextID  uint64

	draining bool
	closed   bool
	wg       sync.WaitGroup
}

// New builds a Server and starts its worker pool.
func New(opts Options) *Server {
	opts.normalize()
	s := &Server{
		opts:    opts,
		jobs:    map[string]*job{},
		tenants: map[string]*tenantState{},
	}
	s.cond = sync.NewCond(&s.mu)
	for i := 0; i < opts.Workers; i++ {
		s.wg.Add(1)
		go s.worker()
	}
	return s
}

func (s *Server) logf(format string, args ...any) {
	if s.opts.Logf != nil {
		s.opts.Logf(format, args...)
	}
}

func (s *Server) quota(tenant string) Quota {
	q, ok := s.opts.Quotas[tenant]
	if !ok {
		q = s.opts.DefaultQuota
	}
	if q.MaxConcurrent <= 0 {
		q.MaxConcurrent = s.opts.DefaultQuota.MaxConcurrent
	}
	if q.MaxQueued <= 0 {
		q.MaxQueued = s.opts.DefaultQuota.MaxQueued
	}
	return q
}

func (s *Server) tenant(name string) *tenantState {
	ts := s.tenants[name]
	if ts == nil {
		ts = &tenantState{}
		s.tenants[name] = ts
	}
	return ts
}

// buildImage turns the request's program payload into a guest image.
func buildImage(req *JobRequest) (*image.Image, error) {
	set := 0
	for _, ok := range []bool{req.Source != "", req.Asm != "", len(req.Image) > 0} {
		if ok {
			set++
		}
	}
	if set != 1 {
		return nil, fmt.Errorf("exactly one of source, asm, image must be set")
	}
	name := req.Name
	if name == "" {
		name = "job"
	}
	switch {
	case req.Source != "":
		return grt.BuildProgram(name+".mc", req.Source)
	case req.Asm != "":
		return grt.BuildAsmProgram(asm.Source{Name: name + ".s", Text: req.Asm})
	default:
		return image.Decode(req.Image)
	}
}

// Submit admits one job for tenant, or rejects it with an *APIError:
// 400 for a bad request (unbuildable program, impossible shape), 429 for
// quota or queue pressure, 503 while draining. Admission compiles the
// program so workers only ever see runnable specs.
func (s *Server) Submit(tenant string, req *JobRequest) (JobStatus, error) {
	if tenant == "" {
		tenant = "default"
	}
	backendName := req.Backend
	if backendName == "" {
		backendName = "sim"
	}
	if _, ok := s.opts.Backends[backendName]; !ok {
		return JobStatus{}, &APIError{Status: http.StatusBadRequest, Message: fmt.Sprintf("unknown backend %q", backendName)}
	}
	if req.Slaves < 0 || req.Slaves > s.opts.MaxSlaves {
		return JobStatus{}, &APIError{Status: http.StatusBadRequest, Message: fmt.Sprintf("slaves must be in [0, %d]", s.opts.MaxSlaves)}
	}
	cfg := core.DefaultConfig()
	cfg.Slaves, cfg.Cores = req.Slaves, req.Cores
	cfg.Forwarding, cfg.Splitting, cfg.HintSched = req.Forwarding, req.Splitting, req.HintSched
	cfg.Metrics = req.Metrics
	if err := cfg.Check(); err != nil {
		return JobStatus{}, &APIError{Status: http.StatusBadRequest, Message: err.Error()}
	}
	timeout := s.opts.DefaultTimeout
	if req.TimeoutMs > 0 {
		timeout = time.Duration(req.TimeoutMs) * time.Millisecond
	}
	if timeout > s.opts.MaxTimeout {
		timeout = s.opts.MaxTimeout
	}
	im, err := buildImage(req)
	if err != nil {
		return JobStatus{}, &APIError{Status: http.StatusBadRequest, Message: fmt.Sprintf("building guest program: %v", err)}
	}
	if err := core.CheckFootprint(im, cfg.Slaves); err != nil {
		return JobStatus{}, &APIError{Status: http.StatusBadRequest, Message: err.Error()}
	}

	s.mu.Lock()
	defer s.mu.Unlock()
	if s.draining || s.closed {
		return JobStatus{}, &APIError{Status: http.StatusServiceUnavailable, Message: "server is draining"}
	}
	ts := s.tenant(tenant)
	q := s.quota(tenant)
	if len(s.pending) >= s.opts.QueueDepth {
		ts.rejected++
		return JobStatus{}, &APIError{Status: http.StatusTooManyRequests, Message: "admission queue full"}
	}
	if ts.queued >= q.MaxQueued {
		ts.rejected++
		return JobStatus{}, &APIError{Status: http.StatusTooManyRequests, Message: fmt.Sprintf("tenant %q queue quota (%d) exhausted", tenant, q.MaxQueued)}
	}
	if q.MaxInsns > 0 && ts.usedInsns >= q.MaxInsns {
		ts.rejected++
		return JobStatus{}, &APIError{Status: http.StatusTooManyRequests, Message: fmt.Sprintf("tenant %q instruction budget (%d) exhausted", tenant, q.MaxInsns)}
	}

	s.nextID++
	j := &job{
		id:       fmt.Sprintf("job-%06d", s.nextID),
		tenant:   tenant,
		name:     req.Name,
		backend:  backendName,
		spec:     RunSpec{Image: im, Config: live.Config{Core: cfg, Timeout: timeout, Files: req.Files}},
		state:    StateQueued,
		queuedAt: time.Now(),
		cancel:   make(chan struct{}),
		done:     make(chan struct{}),
	}
	s.jobs[j.id] = j
	s.order = append(s.order, j)
	s.pending = append(s.pending, j)
	ts.queued++
	ts.jobs++
	s.cond.Broadcast()
	s.logf("job %s: queued (tenant=%s backend=%s slaves=%d)", j.id, tenant, j.backend, req.Slaves)
	return j.status(), nil
}

// worker pulls runnable jobs until the server shuts down.
func (s *Server) worker() {
	defer s.wg.Done()
	for {
		j, ok := s.next()
		if !ok {
			return
		}
		s.runJob(j)
	}
}

// next blocks until a queued job whose tenant has a free concurrency slot
// exists, then claims it. It returns ok=false when the pool should exit:
// the server is closed, or draining with nothing left to run.
func (s *Server) next() (*job, bool) {
	s.mu.Lock()
	defer s.mu.Unlock()
	for {
		if s.closed {
			return nil, false
		}
		for i, j := range s.pending {
			q := s.quota(j.tenant)
			ts := s.tenant(j.tenant)
			if ts.running >= q.MaxConcurrent {
				continue // tenant at cap; later tenants may still be eligible
			}
			s.pending = append(s.pending[:i], s.pending[i+1:]...)
			ts.queued--
			ts.running++
			j.state = StateRunning
			j.started = time.Now()
			return j, true
		}
		if s.draining && len(s.pending) == 0 {
			return nil, false
		}
		s.cond.Wait()
	}
}

// runJob executes one claimed job with crash isolation: a panicking
// backend (or guest-triggered bug) fails this job, not the daemon.
func (s *Server) runJob(j *job) {
	timer := time.AfterFunc(j.spec.Timeout, func() {
		s.cancelWith(j, fmt.Errorf("job exceeded its %v timeout", j.spec.Timeout))
	})
	defer timer.Stop()
	backend := s.opts.Backends[j.backend]
	res, err := func() (out *RunOutcome, err error) {
		defer func() {
			if r := recover(); r != nil {
				err = fmt.Errorf("job panicked: %v\n%s", r, debug.Stack())
			}
		}()
		return backend.Run(j.cancel, j.spec)
	}()
	s.complete(j, res, err)
}

// complete moves a finished job to its terminal state and releases its
// tenant's concurrency slot.
func (s *Server) complete(j *job, res *RunOutcome, err error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	ts := s.tenant(j.tenant)
	ts.running--
	j.finished = time.Now()
	switch {
	case err == nil:
		j.state = StateSucceeded
		j.res = res
		ts.usedInsns += res.GuestInsns
	case errors.Is(err, ErrJobCanceled):
		j.state = StateCanceled
		if j.err == nil { // cancelWith may have recorded the reason already
			j.err = err
		}
	default:
		j.state = StateFailed
		j.err = err
	}
	j.dropProgram()
	close(j.done)
	s.cond.Broadcast()
	s.logf("job %s: %s (err=%v)", j.id, j.state, err)
}

// cancelWith asks a job to stop. A queued job goes terminal immediately;
// a running one gets its cancel channel closed and goes terminal when the
// backend returns.
func (s *Server) cancelWith(j *job, reason error) bool {
	s.mu.Lock()
	defer s.mu.Unlock()
	switch j.state {
	case StateQueued:
		for i, p := range s.pending {
			if p == j {
				s.pending = append(s.pending[:i], s.pending[i+1:]...)
				break
			}
		}
		s.tenant(j.tenant).queued--
		j.state = StateCanceled
		j.err = reason
		j.finished = time.Now()
		j.dropProgram()
		close(j.cancel)
		close(j.done)
		s.cond.Broadcast()
		s.logf("job %s: canceled while queued (%v)", j.id, reason)
		return true
	case StateRunning:
		if j.err == nil {
			j.err = reason
		}
		select {
		case <-j.cancel:
		default:
			close(j.cancel)
		}
		return true
	default:
		return false
	}
}

// Cancel cancels a job by id via the API.
func (s *Server) Cancel(id string) error {
	s.mu.Lock()
	j := s.jobs[id]
	s.mu.Unlock()
	if j == nil {
		return &APIError{Status: http.StatusNotFound, Message: fmt.Sprintf("no job %q", id)}
	}
	if !s.cancelWith(j, fmt.Errorf("%w via API", ErrJobCanceled)) {
		return &APIError{Status: http.StatusConflict, Message: fmt.Sprintf("job %s already %s", id, j.state)}
	}
	return nil
}

// Job returns a job's status.
func (s *Server) Job(id string) (JobStatus, error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	j := s.jobs[id]
	if j == nil {
		return JobStatus{}, &APIError{Status: http.StatusNotFound, Message: fmt.Sprintf("no job %q", id)}
	}
	return j.status(), nil
}

// Result returns a job's status plus console output and metrics.
func (s *Server) Result(id string) (JobResult, error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	j := s.jobs[id]
	if j == nil {
		return JobResult{}, &APIError{Status: http.StatusNotFound, Message: fmt.Sprintf("no job %q", id)}
	}
	return j.result(), nil
}

// Wait blocks until the job reaches a terminal state, d elapses or ctx ends
// (the client hung up), then returns the current status.
func (s *Server) Wait(ctx context.Context, id string, d time.Duration) (JobStatus, error) {
	s.mu.Lock()
	j := s.jobs[id]
	s.mu.Unlock()
	if j == nil {
		return JobStatus{}, &APIError{Status: http.StatusNotFound, Message: fmt.Sprintf("no job %q", id)}
	}
	if d > 0 {
		timer := time.NewTimer(d)
		defer timer.Stop()
		select {
		case <-j.done:
		case <-timer.C:
		case <-ctx.Done():
		}
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	return j.status(), nil
}

// Jobs lists jobs in submission order, optionally filtered by tenant.
func (s *Server) Jobs(tenant string) []JobStatus {
	s.mu.Lock()
	defer s.mu.Unlock()
	var out []JobStatus
	for _, j := range s.order {
		if tenant != "" && j.tenant != tenant {
			continue
		}
		out = append(out, j.status())
	}
	return out
}

// TenantStatus is one tenant's row in the daemon status report.
type TenantStatus struct {
	Tenant     string `json:"tenant"`
	Quota      Quota  `json:"quota"`
	Running    int    `json:"running"`
	Queued     int    `json:"queued"`
	UsedInsns  uint64 `json:"used_insns"`
	Rejections uint64 `json:"rejections"`
	Jobs       uint64 `json:"jobs"`
}

// Status is the daemon status report.
type Status struct {
	Workers    int            `json:"workers"`
	QueueDepth int            `json:"queue_depth"`
	Queued     int            `json:"queued"`
	Running    int            `json:"running"`
	Draining   bool           `json:"draining"`
	Tenants    []TenantStatus `json:"tenants"`
}

// ServerStatus reports queue pressure and per-tenant accounting.
func (s *Server) ServerStatus() Status {
	s.mu.Lock()
	defer s.mu.Unlock()
	st := Status{
		Workers:    s.opts.Workers,
		QueueDepth: s.opts.QueueDepth,
		Queued:     len(s.pending),
		Draining:   s.draining,
	}
	names := make([]string, 0, len(s.tenants))
	for name := range s.tenants {
		names = append(names, name)
	}
	sort.Strings(names)
	for _, name := range names {
		ts := s.tenants[name]
		st.Running += ts.running
		st.Tenants = append(st.Tenants, TenantStatus{
			Tenant: name, Quota: s.quota(name),
			Running: ts.running, Queued: ts.queued,
			UsedInsns: ts.usedInsns, Rejections: ts.rejected, Jobs: ts.jobs,
		})
	}
	return st
}

// Drain stops admissions and runs the queue dry: already-admitted jobs
// finish normally. If grace elapses first, every remaining job is canceled
// and Drain waits for the workers to observe it. Safe to call once; the
// worker pool is gone when it returns.
func (s *Server) Drain(grace time.Duration) {
	s.mu.Lock()
	if s.closed {
		s.mu.Unlock()
		s.wg.Wait()
		return
	}
	s.draining = true
	s.cond.Broadcast()
	s.mu.Unlock()
	s.logf("drain: admissions stopped")

	done := make(chan struct{})
	go func() { s.wg.Wait(); close(done) }()
	var timeout <-chan time.Time
	if grace > 0 {
		timer := time.NewTimer(grace)
		defer timer.Stop()
		timeout = timer.C
	}
	select {
	case <-done:
	case <-timeout:
		s.logf("drain: grace expired, canceling remaining jobs")
		s.mu.Lock()
		var live []*job
		for _, j := range s.order {
			if !j.state.Terminal() {
				live = append(live, j)
			}
		}
		s.mu.Unlock()
		for _, j := range live {
			s.cancelWith(j, fmt.Errorf("%w by drain", ErrJobCanceled))
		}
		<-done
	}
	s.mu.Lock()
	s.closed = true
	s.cond.Broadcast()
	s.mu.Unlock()
	s.logf("drain: complete")
}
