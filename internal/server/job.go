package server

import (
	"fmt"
	"time"

	"dqemu/internal/metrics"
)

// State is a job's lifecycle position. The transitions are strictly
// forward: Queued → Running → one of the terminal states, or Queued →
// Canceled directly when a job is canceled before a worker picks it up.
// Submissions that fail admission (full queue, quota) never become jobs at
// all — the API rejects them with 429 so a misbehaving tenant cannot grow
// daemon state.
type State string

const (
	StateQueued    State = "queued"
	StateRunning   State = "running"
	StateSucceeded State = "succeeded" // guest ran to exit_group (any exit code)
	StateFailed    State = "failed"    // backend error, panic, or bad program
	StateCanceled  State = "canceled"  // canceled via the API or by job timeout
)

// Terminal reports whether a job in this state will never change again.
func (s State) Terminal() bool {
	switch s {
	case StateSucceeded, StateFailed, StateCanceled:
		return true
	}
	return false
}

// JobRequest is the POST /v1/jobs body: exactly one of Source (mini-C),
// Asm (GA64 assembly) or Image (an encoded guest image) must be set.
type JobRequest struct {
	Name string `json:"name,omitempty"`

	Source string `json:"source,omitempty"`
	Asm    string `json:"asm,omitempty"`
	Image  []byte `json:"image,omitempty"` // base64 in JSON

	// Files pre-populates the guest VFS (values base64 in JSON).
	Files map[string][]byte `json:"files,omitempty"`

	// Backend selects "sim" (default: the deterministic simulation) or
	// "live" (a real-socket cluster spawned for this job).
	Backend string `json:"backend,omitempty"`

	Slaves     int  `json:"slaves,omitempty"`
	Cores      int  `json:"cores,omitempty"`
	Forwarding bool `json:"forwarding,omitempty"`
	Splitting  bool `json:"splitting,omitempty"`
	HintSched  bool `json:"hint_sched,omitempty"`

	// TimeoutMs bounds the job's host run time once started (0 = server
	// default). Expiry cancels the job.
	TimeoutMs int64 `json:"timeout_ms,omitempty"`

	// Metrics asks the backend for the observability snapshot the bench
	// suite emits (fault-latency histograms, page heat, contention). On the
	// live backend it covers what the master process sees: the
	// directory-side fault phases for every node, everything else for node 0.
	Metrics bool `json:"metrics,omitempty"`
}

// JobStatus is the API view of a job.
type JobStatus struct {
	ID      string `json:"id"`
	Tenant  string `json:"tenant"`
	Name    string `json:"name,omitempty"`
	Backend string `json:"backend"`
	State   State  `json:"state"`

	QueuedAtNs   int64 `json:"queued_at_ns"`
	StartedAtNs  int64 `json:"started_at_ns,omitempty"`
	FinishedAtNs int64 `json:"finished_at_ns,omitempty"`

	ExitCode *int64 `json:"exit_code,omitempty"`
	Error    string `json:"error,omitempty"`

	// GuestInsns is what the job was billed against the tenant's
	// instruction budget; TimeNs is guest virtual time (sim backend only).
	GuestInsns uint64 `json:"guest_insns,omitempty"`
	TimeNs     int64  `json:"time_ns,omitempty"`
	WallNs     int64  `json:"wall_ns,omitempty"`
}

// JobResult is the GET /v1/jobs/{id}/result body: the status plus the
// payloads too heavy for list responses.
type JobResult struct {
	JobStatus
	Console string            `json:"console,omitempty"`
	Metrics *metrics.Snapshot `json:"metrics,omitempty"`
}

// job is the server-side record. The Server's mutex guards every field
// after construction; the done channel closes exactly once, on the
// transition to a terminal state.
type job struct {
	id      string
	tenant  string
	name    string
	backend string
	spec    RunSpec

	state    State
	queuedAt time.Time
	started  time.Time
	finished time.Time

	res *RunOutcome
	err error

	cancel chan struct{} // closed by API cancel / drain / timeout
	done   chan struct{} // closed on terminal transition
}

// dropProgram lets go of a terminal job's image and input files, which
// nothing reads again. Timeout stays: runJob's timer reads it.
func (j *job) dropProgram() {
	j.spec.Image, j.spec.Files = nil, nil
}

func (j *job) status() JobStatus {
	st := JobStatus{
		ID: j.id, Tenant: j.tenant, Name: j.name, Backend: j.backend,
		State:      j.state,
		QueuedAtNs: j.queuedAt.UnixNano(),
	}
	if !j.started.IsZero() {
		st.StartedAtNs = j.started.UnixNano()
	}
	if !j.finished.IsZero() {
		st.FinishedAtNs = j.finished.UnixNano()
		if !j.started.IsZero() {
			st.WallNs = j.finished.Sub(j.started).Nanoseconds()
		}
	}
	if j.err != nil {
		st.Error = j.err.Error()
	}
	if j.res != nil {
		code := j.res.ExitCode
		st.ExitCode = &code
		st.GuestInsns = j.res.GuestInsns
		st.TimeNs = j.res.TimeNs
	}
	return st
}

func (j *job) result() JobResult {
	r := JobResult{JobStatus: j.status()}
	if j.res != nil {
		r.Console = j.res.Console
		r.Metrics = j.res.Metrics
	}
	return r
}

// APIError is the JSON error body every non-2xx response carries.
type APIError struct {
	Status  int    `json:"status"`
	Message string `json:"message"`
}

func (e *APIError) Error() string { return fmt.Sprintf("%d: %s", e.Status, e.Message) }
