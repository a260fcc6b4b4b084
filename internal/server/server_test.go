package server

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"slices"
	"strings"
	"sync"
	"testing"
	"time"

	"dqemu/internal/core"
	"dqemu/internal/image"
	"dqemu/internal/live"
)

// testClient drives the real HTTP surface, as tenants would.
type testClient struct {
	t      *testing.T
	base   string
	tenant string
}

func (c *testClient) req(method, path string, body any) (*http.Response, []byte) {
	c.t.Helper()
	var rd io.Reader
	if body != nil {
		data, err := json.Marshal(body)
		if err != nil {
			c.t.Fatal(err)
		}
		rd = bytes.NewReader(data)
	}
	req, err := http.NewRequest(method, c.base+path, rd)
	if err != nil {
		c.t.Fatal(err)
	}
	if c.tenant != "" {
		req.Header.Set(TenantHeader, c.tenant)
	}
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		c.t.Fatal(err)
	}
	defer resp.Body.Close()
	data, err := io.ReadAll(resp.Body)
	if err != nil {
		c.t.Fatal(err)
	}
	return resp, data
}

// submit posts a job and requires the given HTTP status.
func (c *testClient) submit(req *JobRequest, wantStatus int) JobStatus {
	c.t.Helper()
	resp, data := c.req("POST", "/v1/jobs", req)
	if resp.StatusCode != wantStatus {
		c.t.Fatalf("submit: HTTP %d (want %d): %s", resp.StatusCode, wantStatus, data)
	}
	var st JobStatus
	if wantStatus == http.StatusAccepted {
		if err := json.Unmarshal(data, &st); err != nil {
			c.t.Fatal(err)
		}
	}
	return st
}

// wait long-polls a job to a terminal state.
func (c *testClient) wait(id string) JobStatus {
	c.t.Helper()
	deadline := time.Now().Add(60 * time.Second)
	for time.Now().Before(deadline) {
		resp, data := c.req("GET", "/v1/jobs/"+id+"?wait_ms=1000", nil)
		if resp.StatusCode != http.StatusOK {
			c.t.Fatalf("wait: HTTP %d: %s", resp.StatusCode, data)
		}
		var st JobStatus
		if err := json.Unmarshal(data, &st); err != nil {
			c.t.Fatal(err)
		}
		if st.State.Terminal() {
			return st
		}
	}
	c.t.Fatalf("job %s never reached a terminal state", id)
	return JobStatus{}
}

func (c *testClient) result(id string) JobResult {
	c.t.Helper()
	resp, data := c.req("GET", "/v1/jobs/"+id+"/result", nil)
	if resp.StatusCode != http.StatusOK {
		c.t.Fatalf("result: HTTP %d: %s", resp.StatusCode, data)
	}
	var res JobResult
	if err := json.Unmarshal(data, &res); err != nil {
		c.t.Fatal(err)
	}
	return res
}

func (c *testClient) daemonStatus() Status {
	c.t.Helper()
	resp, data := c.req("GET", "/v1/status", nil)
	if resp.StatusCode != http.StatusOK {
		c.t.Fatalf("status: HTTP %d: %s", resp.StatusCode, data)
	}
	var st Status
	if err := json.Unmarshal(data, &st); err != nil {
		c.t.Fatal(err)
	}
	return st
}

func startServer(t *testing.T, opts Options) (*Server, *httptest.Server) {
	t.Helper()
	srv := New(opts)
	ts := httptest.NewServer(srv.Handler())
	t.Cleanup(func() {
		srv.Drain(5 * time.Second)
		ts.Close()
	})
	return srv, ts
}

func countingSource(idx int) string {
	return fmt.Sprintf(`
long main() {
	long s = 0;
	for (long i = 0; i < 20000; i++) s += i ^ %d;
	print_str("job ");
	print_long(%d);
	print_char('\n');
	return 0;
}`, idx, idx)
}

// TestJobLifecycleHTTP pushes one job through the full REST surface.
func TestJobLifecycleHTTP(t *testing.T) {
	_, ts := startServer(t, Options{})
	c := &testClient{t: t, base: ts.URL, tenant: "alice"}

	st := c.submit(&JobRequest{Name: "hello", Source: countingSource(7), Slaves: 1}, http.StatusAccepted)
	if st.State != StateQueued && st.State != StateRunning {
		t.Errorf("fresh job state = %s", st.State)
	}
	if st.Tenant != "alice" || st.Backend != "sim" {
		t.Errorf("tenant=%q backend=%q", st.Tenant, st.Backend)
	}
	fin := c.wait(st.ID)
	if fin.State != StateSucceeded {
		t.Fatalf("state = %s (err %q)", fin.State, fin.Error)
	}
	if fin.ExitCode == nil || *fin.ExitCode != 0 {
		t.Errorf("exit code = %v", fin.ExitCode)
	}
	if fin.GuestInsns == 0 || fin.TimeNs == 0 {
		t.Errorf("missing accounting: insns=%d time=%d", fin.GuestInsns, fin.TimeNs)
	}
	res := c.result(st.ID)
	if res.Console != "job 7\n" {
		t.Errorf("console = %q", res.Console)
	}

	// Console as plain text too.
	resp, body := c.req("GET", "/v1/jobs/"+st.ID+"/output", nil)
	if resp.StatusCode != http.StatusOK || string(body) != "job 7\n" {
		t.Errorf("output: HTTP %d %q", resp.StatusCode, body)
	}
	if got := resp.Header.Get("X-DQEMU-Exit-Code"); got != "0" {
		t.Errorf("exit code header = %q", got)
	}

	// Unknown job is a JSON 404.
	resp, body = c.req("GET", "/v1/jobs/nope", nil)
	if resp.StatusCode != http.StatusNotFound {
		t.Errorf("missing job: HTTP %d %s", resp.StatusCode, body)
	}
}

// TestConcurrentTenantsE2E is the acceptance scenario: two tenants drive
// three concurrent jobs each through the REST API; every job reaches a
// terminal state with the right output, and a third tenant's instruction
// budget runs out mid-sequence with an observable 429.
func TestConcurrentTenantsE2E(t *testing.T) {
	_, ts := startServer(t, Options{
		Workers: 6,
		Quotas: map[string]Quota{
			"broke": {MaxInsns: 1}, // one job's worth and no more
		},
	})

	type outcome struct {
		tenant string
		idx    int
		res    JobResult
	}
	results := make(chan outcome, 6)
	var wg sync.WaitGroup
	for _, tenant := range []string{"alice", "bob"} {
		for idx := 0; idx < 3; idx++ {
			wg.Add(1)
			go func(tenant string, idx int) {
				defer wg.Done()
				c := &testClient{t: t, base: ts.URL, tenant: tenant}
				st := c.submit(&JobRequest{
					Name:   fmt.Sprintf("%s-%d", tenant, idx),
					Source: countingSource(idx),
				}, http.StatusAccepted)
				c.wait(st.ID)
				results <- outcome{tenant, idx, c.result(st.ID)}
			}(tenant, idx)
		}
	}
	wg.Wait()
	close(results)
	seen := 0
	for out := range results {
		seen++
		if out.res.State != StateSucceeded {
			t.Errorf("%s job %d: state %s (%s)", out.tenant, out.idx, out.res.State, out.res.Error)
			continue
		}
		if want := fmt.Sprintf("job %d\n", out.idx); out.res.Console != want {
			t.Errorf("%s job %d: console %q want %q", out.tenant, out.idx, out.res.Console, want)
		}
		if out.res.Tenant != out.tenant {
			t.Errorf("job %d leaked across tenants: %q", out.idx, out.res.Tenant)
		}
	}
	if seen != 6 {
		t.Fatalf("only %d/6 jobs completed", seen)
	}

	// The broke tenant gets one job through (the budget is charged at
	// completion), then admission refuses.
	broke := &testClient{t: t, base: ts.URL, tenant: "broke"}
	st := broke.submit(&JobRequest{Source: countingSource(0)}, http.StatusAccepted)
	if fin := broke.wait(st.ID); fin.State != StateSucceeded {
		t.Fatalf("broke tenant's first job: %s (%s)", fin.State, fin.Error)
	}
	broke.submit(&JobRequest{Source: countingSource(1)}, http.StatusTooManyRequests)

	ds := broke.daemonStatus()
	var found bool
	for _, row := range ds.Tenants {
		if row.Tenant == "broke" {
			found = true
			if row.Rejections == 0 || row.UsedInsns == 0 {
				t.Errorf("broke tenant accounting: %+v", row)
			}
		}
	}
	if !found {
		t.Error("broke tenant missing from /v1/status")
	}
}

// blockingBackend parks every job until released (or canceled), making
// queue and concurrency states deterministic for quota tests.
type blockingBackend struct {
	mu      sync.Mutex
	started int
	release chan struct{}
}

func newBlockingBackend() *blockingBackend {
	return &blockingBackend{release: make(chan struct{})}
}

func (b *blockingBackend) Run(cancel <-chan struct{}, spec RunSpec) (*RunOutcome, error) {
	b.mu.Lock()
	b.started++
	b.mu.Unlock()
	select {
	case <-b.release:
		return &RunOutcome{ExitCode: 0, Console: "released\n", GuestInsns: 10}, nil
	case <-cancel:
		return nil, fmt.Errorf("blocking backend: %w", ErrJobCanceled)
	}
}

func (b *blockingBackend) startedCount() int {
	b.mu.Lock()
	defer b.mu.Unlock()
	return b.started
}

const trivialSource = `long main() { return 0; }`

// TestQuotaConcurrencyAndQueue pins the admission math: MaxConcurrent=1
// and MaxQueued=1 admit exactly two jobs (one running, one queued); the
// third is rejected 429 while an unrelated tenant still gets in.
func TestQuotaConcurrencyAndQueue(t *testing.T) {
	backend := newBlockingBackend()
	_, ts := startServer(t, Options{
		Workers:      4,
		DefaultQuota: Quota{MaxConcurrent: 1, MaxQueued: 1},
		Backends:     map[string]Backend{"sim": backend},
	})
	c := &testClient{t: t, base: ts.URL, tenant: "alice"}

	first := c.submit(&JobRequest{Source: trivialSource}, http.StatusAccepted)
	// Wait until the worker has actually claimed the first job, so the
	// tenant's running/queued split is deterministic.
	deadline := time.Now().Add(10 * time.Second)
	for backend.startedCount() < 1 && time.Now().Before(deadline) {
		time.Sleep(time.Millisecond)
	}
	if backend.startedCount() != 1 {
		t.Fatal("first job never started")
	}
	second := c.submit(&JobRequest{Source: trivialSource}, http.StatusAccepted)
	c.submit(&JobRequest{Source: trivialSource}, http.StatusTooManyRequests)

	// Another tenant is unaffected by alice's full queue.
	other := &testClient{t: t, base: ts.URL, tenant: "bob"}
	third := other.submit(&JobRequest{Source: trivialSource}, http.StatusAccepted)

	// MaxConcurrent=1: the second job must not start while the first runs.
	time.Sleep(100 * time.Millisecond)
	if got := backend.startedCount(); got != 2 { // alice's first + bob's
		t.Errorf("started %d jobs, want 2 (alice serialized, bob running)", got)
	}
	st := c.daemonStatus()
	if st.Running != 2 || st.Queued != 1 {
		t.Errorf("daemon status: running=%d queued=%d, want 2/1", st.Running, st.Queued)
	}

	close(backend.release)
	for _, id := range []string{first.ID, second.ID, third.ID} {
		if fin := c.wait(id); fin.State != StateSucceeded {
			t.Errorf("job %s: %s (%s)", id, fin.State, fin.Error)
		}
	}
}

// TestCancelAndTimeout covers DELETE on running and queued jobs plus the
// per-job timeout.
func TestCancelAndTimeout(t *testing.T) {
	backend := newBlockingBackend()
	_, ts := startServer(t, Options{
		Workers:      2,
		DefaultQuota: Quota{MaxConcurrent: 1},
		Backends:     map[string]Backend{"sim": backend},
	})
	c := &testClient{t: t, base: ts.URL, tenant: "alice"}

	running := c.submit(&JobRequest{Source: trivialSource}, http.StatusAccepted)
	deadline := time.Now().Add(10 * time.Second)
	for backend.startedCount() < 1 && time.Now().Before(deadline) {
		time.Sleep(time.Millisecond)
	}
	queued := c.submit(&JobRequest{Source: trivialSource}, http.StatusAccepted)

	// Cancel the queued job first: it must go terminal without running.
	resp, data := c.req("DELETE", "/v1/jobs/"+queued.ID, nil)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("cancel queued: HTTP %d: %s", resp.StatusCode, data)
	}
	if fin := c.wait(queued.ID); fin.State != StateCanceled {
		t.Errorf("queued job after cancel: %s", fin.State)
	}

	resp, data = c.req("DELETE", "/v1/jobs/"+running.ID, nil)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("cancel running: HTTP %d: %s", resp.StatusCode, data)
	}
	if fin := c.wait(running.ID); fin.State != StateCanceled {
		t.Errorf("running job after cancel: %s", fin.State)
	}
	// Double cancel conflicts.
	resp, _ = c.req("DELETE", "/v1/jobs/"+running.ID, nil)
	if resp.StatusCode != http.StatusConflict {
		t.Errorf("second cancel: HTTP %d, want 409", resp.StatusCode)
	}

	// Timeout: a job that outlives timeout_ms is canceled by the daemon.
	timed := c.submit(&JobRequest{Source: trivialSource, TimeoutMs: 50}, http.StatusAccepted)
	fin := c.wait(timed.ID)
	if fin.State != StateCanceled {
		t.Errorf("timed-out job: %s (%s)", fin.State, fin.Error)
	}
	if fin.Error == "" {
		t.Error("timed-out job carries no reason")
	}
}

// TestTerminalJobDropsProgram: a job that has ended — succeeded, failed,
// canceled while queued or while running — no longer holds its guest image
// or input files, which nothing reads again, so a daemon that keeps every
// job's record does not keep every job's program. The timeout stays.
func TestTerminalJobDropsProgram(t *testing.T) {
	backend := newBlockingBackend()
	srv, ts := startServer(t, Options{
		Workers:      2,
		DefaultQuota: Quota{MaxConcurrent: 1},
		Backends:     map[string]Backend{"sim": backend, "good": &SimBackend{}, "bad": panicBackend{}},
	})
	c := &testClient{t: t, base: ts.URL, tenant: "alice"}
	files := map[string][]byte{"in.txt": []byte("input")}
	submit := func(be string) string {
		return c.submit(&JobRequest{Source: trivialSource, Backend: be, Files: files}, http.StatusAccepted).ID
	}
	ended := map[string]State{}
	for be, want := range map[string]State{"good": StateSucceeded, "bad": StateFailed} {
		id := submit(be)
		if fin := c.wait(id); fin.State != want {
			t.Fatalf("%s backend: job %s, want %s (%s)", be, fin.State, want, fin.Error)
		}
		ended[id] = want
	}
	running := submit("sim")
	deadline := time.Now().Add(10 * time.Second)
	for backend.startedCount() < 1 && time.Now().Before(deadline) {
		time.Sleep(time.Millisecond)
	}
	queued := submit("sim")
	for _, id := range []string{queued, running} {
		if resp, data := c.req("DELETE", "/v1/jobs/"+id, nil); resp.StatusCode != http.StatusOK {
			t.Fatalf("cancel %s: HTTP %d: %s", id, resp.StatusCode, data)
		}
		if fin := c.wait(id); fin.State != StateCanceled {
			t.Fatalf("job %s after cancel: %s", id, fin.State)
		}
		ended[id] = StateCanceled
	}
	srv.mu.Lock()
	defer srv.mu.Unlock()
	for id, state := range ended {
		j := srv.jobs[id]
		if j.spec.Image != nil || j.spec.Files != nil {
			t.Errorf("%s job %s still holds its image (%v) or files (%v)", state, id, j.spec.Image != nil, j.spec.Files)
		}
		if j.spec.Timeout == 0 {
			t.Errorf("%s job %s lost its timeout", state, id)
		}
	}
}

// TestWaitEndsWithClient: a long poll on a running job returns as soon as
// its request's context ends (the client hung up), not when the job ends or
// the wait runs out.
func TestWaitEndsWithClient(t *testing.T) {
	backend := newBlockingBackend()
	defer close(backend.release)
	srv, ts := startServer(t, Options{Workers: 1, Backends: map[string]Backend{"sim": backend}})
	c := &testClient{t: t, base: ts.URL, tenant: "alice"}
	st := c.submit(&JobRequest{Source: trivialSource}, http.StatusAccepted)
	deadline := time.Now().Add(10 * time.Second)
	for backend.startedCount() < 1 && time.Now().Before(deadline) {
		time.Sleep(time.Millisecond)
	}
	ctx, cancel := context.WithCancel(context.Background())
	cancel()

	start := time.Now()
	got, err := srv.Wait(ctx, st.ID, 20*time.Second)
	if err != nil || got.State != StateRunning {
		t.Errorf("Wait: %+v, %v; want the running job", got, err)
	}
	req := httptest.NewRequest("GET", "/v1/jobs/"+st.ID+"?wait_ms=20000", nil).WithContext(ctx)
	rec := httptest.NewRecorder()
	srv.Handler().ServeHTTP(rec, req)
	if rec.Code != http.StatusOK || !strings.Contains(rec.Body.String(), `"state": "running"`) {
		t.Errorf("GET with a canceled request: HTTP %d %s", rec.Code, rec.Body)
	}
	if d := time.Since(start); d > 5*time.Second {
		t.Errorf("two waits on a gone client took %v", d)
	}
}

// TestWaitMsBounds: wait_ms is milliseconds that fit a time.Duration. A
// larger value is a 400; it used to wrap negative and return at once.
func TestWaitMsBounds(t *testing.T) {
	_, ts := startServer(t, Options{Workers: 1})
	c := &testClient{t: t, base: ts.URL, tenant: "alice"}
	st := c.wait(c.submit(&JobRequest{Source: trivialSource}, http.StatusAccepted).ID)
	for ms, want := range map[string]int{
		"9223372036854":  http.StatusOK, // the job is done, so even the longest wait returns at once
		"9223372036855":  http.StatusBadRequest,
		"10000000000000": http.StatusBadRequest,
		"-1":             http.StatusBadRequest,
	} {
		if resp, data := c.req("GET", "/v1/jobs/"+st.ID+"?wait_ms="+ms, nil); resp.StatusCode != want {
			t.Errorf("wait_ms=%s: HTTP %d %s, want %d", ms, resp.StatusCode, data, want)
		}
	}
}

// TestJobList: GET /v1/jobs lists every tenant's jobs in submission order,
// ?tenant= keeps one tenant's, and a tenant with none gets [], not null.
func TestJobList(t *testing.T) {
	_, ts := startServer(t, Options{Workers: 2})
	alice := &testClient{t: t, base: ts.URL, tenant: "alice"}
	bob := &testClient{t: t, base: ts.URL, tenant: "bob"}
	var ids []string
	for _, c := range []*testClient{alice, bob, alice} {
		ids = append(ids, c.submit(&JobRequest{Source: trivialSource}, http.StatusAccepted).ID)
	}
	list := func(query string) []string {
		resp, data := alice.req("GET", "/v1/jobs"+query, nil)
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("list%s: HTTP %d %s", query, resp.StatusCode, data)
		}
		if query == "?tenant=nobody" && strings.TrimSpace(string(data)) != "[]" {
			t.Errorf("list%s = %s, want []", query, data)
		}
		var jobs []JobStatus
		if err := json.Unmarshal(data, &jobs); err != nil {
			t.Fatal(err)
		}
		var got []string
		for _, j := range jobs {
			got = append(got, j.ID)
		}
		return got
	}
	for query, want := range map[string][]string{
		"":               ids,
		"?tenant=alice":  {ids[0], ids[2]},
		"?tenant=bob":    {ids[1]},
		"?tenant=nobody": nil,
	} {
		if got := list(query); !slices.Equal(got, want) {
			t.Errorf("list%s = %v, want %v", query, got, want)
		}
	}
}

// TestSimCancelPropagates cancels a genuinely running simulation: the
// cancel channel must reach core.Cluster.Run and stop it mid-guest.
func TestSimCancelPropagates(t *testing.T) {
	_, ts := startServer(t, Options{Workers: 1})
	c := &testClient{t: t, base: ts.URL, tenant: "alice"}
	st := c.submit(&JobRequest{Source: `
long main() {
	long s = 0;
	for (long i = 0; i < 4000000000; i++) s += i;
	print_long(s);
	return 0;
}`}, http.StatusAccepted)
	// Give the job a moment to enter the cluster loop, then cancel.
	time.Sleep(200 * time.Millisecond)
	resp, data := c.req("DELETE", "/v1/jobs/"+st.ID, nil)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("cancel: HTTP %d: %s", resp.StatusCode, data)
	}
	start := time.Now()
	fin := c.wait(st.ID)
	if fin.State != StateCanceled {
		t.Fatalf("state = %s (%s)", fin.State, fin.Error)
	}
	if took := time.Since(start); took > 10*time.Second {
		t.Errorf("cancellation took %v to land", took)
	}
}

// panicBackend blows up on every job.
type panicBackend struct{}

func (panicBackend) Run(<-chan struct{}, RunSpec) (*RunOutcome, error) {
	panic("backend exploded")
}

// TestCrashIsolation: a panicking job must fail alone; the daemon keeps
// serving and running other jobs.
func TestCrashIsolation(t *testing.T) {
	_, ts := startServer(t, Options{
		Workers: 2,
		Backends: map[string]Backend{
			"sim":  panicBackend{},
			"good": &SimBackend{},
		},
	})
	c := &testClient{t: t, base: ts.URL, tenant: "alice"}

	st := c.submit(&JobRequest{Source: trivialSource}, http.StatusAccepted)
	fin := c.wait(st.ID)
	if fin.State != StateFailed {
		t.Fatalf("panicked job state = %s", fin.State)
	}
	if fin.Error == "" || fin.ExitCode != nil {
		t.Errorf("panicked job: err=%q exit=%v", fin.Error, fin.ExitCode)
	}

	// The daemon survived: a healthy backend still runs jobs.
	st = c.submit(&JobRequest{Source: countingSource(1), Backend: "good"}, http.StatusAccepted)
	if fin := c.wait(st.ID); fin.State != StateSucceeded {
		t.Errorf("post-panic job: %s (%s)", fin.State, fin.Error)
	}
}

// TestLiveBackendJob runs one job on a real-socket per-job cluster and
// checks what the merged engine gives live jobs: a metrics snapshot when
// asked for one — with the master-side fault phases populated, since the
// worker's page requests all pass through the master's directory — and a
// bill that covers the whole cluster. Nearly every instruction of this guest
// retires on the slave, so a master-only count would be a small fraction of
// what the same job costs on the sim backend.
func TestLiveBackendJob(t *testing.T) {
	_, ts := startServer(t, Options{Workers: 2})
	c := &testClient{t: t, base: ts.URL, tenant: "alice"}
	const src = `
long cells[1024];
long worker(long a) {
	long s = 0;
	for (long i = 0; i < 200000; i++) { cells[i & 1023] += i; s += cells[(i * 7) & 1023]; }
	return s;
}
long main() {
	thread_join(thread_create((long)worker, 0));
	print_str("job ");
	print_long(cells[5]);
	print_char('\n');
	return 0;
}`
	run := func(backend string) (JobStatus, JobResult) {
		st := c.submit(&JobRequest{Source: src, Backend: backend, Slaves: 1, Metrics: true}, http.StatusAccepted)
		fin := c.wait(st.ID)
		if fin.State != StateSucceeded {
			t.Fatalf("%s job: %s (%s)", backend, fin.State, fin.Error)
		}
		return fin, c.result(st.ID)
	}
	simFin, simRes := run("sim")
	liveFin, liveRes := run("live")
	if liveRes.Console != simRes.Console || liveRes.Console == "" {
		t.Errorf("live console = %q, sim console = %q", liveRes.Console, simRes.Console)
	}
	if liveFin.GuestInsns < simFin.GuestInsns*9/10 {
		t.Errorf("live job billed %d insns, the sim backend %d: the slave's share is missing",
			liveFin.GuestInsns, simFin.GuestInsns)
	}
	if liveFin.TimeNs != 0 {
		t.Errorf("live job reports %d ns of virtual time; it has no virtual clock", liveFin.TimeNs)
	}
	if liveRes.Metrics == nil {
		t.Fatal("live job with metrics:true returned no snapshot")
	}
	for _, name := range []string{core.MetricFaultDirWait, core.MetricFaultE2E} {
		if liveRes.Metrics.Histograms[name].Count == 0 {
			t.Errorf("live snapshot: histogram %s is empty", name)
		}
	}
}

// specBackend records the spec of every job it runs, and succeeds at once.
type specBackend struct {
	mu    sync.Mutex
	specs []RunSpec
}

func (b *specBackend) Run(_ <-chan struct{}, spec RunSpec) (*RunOutcome, error) {
	b.mu.Lock()
	defer b.mu.Unlock()
	b.specs = append(b.specs, spec)
	return &RunOutcome{}, nil
}

// TestLiveJobTimeout: the job's timeout bounds a live run, not live.Config's
// two-minute default. A job admitted with 3 minutes gets a live cluster
// configured with 3 minutes, and a spinning guest whose spec allows 300 ms
// ends well within 2 s with the live cluster's deadline error.
func TestLiveJobTimeout(t *testing.T) {
	rec := &specBackend{}
	_, ts := startServer(t, Options{Workers: 1, Backends: map[string]Backend{"sim": rec}})
	c := &testClient{t: t, base: ts.URL, tenant: "alice"}
	st := c.submit(&JobRequest{Source: trivialSource, TimeoutMs: 180_000}, http.StatusAccepted)
	if fin := c.wait(st.ID); fin.State != StateSucceeded {
		t.Fatalf("job: %s (%s)", fin.State, fin.Error)
	}
	rec.mu.Lock()
	spec := rec.specs[0]
	rec.mu.Unlock()
	if spec.Timeout != 3*time.Minute {
		t.Errorf("a job admitted with timeout_ms 180000 has a live.Config with Timeout %v, want 3m0s", spec.Timeout)
	}

	im, err := buildImage(&JobRequest{Name: "spin", Source: "long main() { while (1) {} return 0; }"})
	if err != nil {
		t.Fatal(err)
	}
	cfg := core.DefaultConfig()
	cfg.Slaves = 1
	start := time.Now()
	_, err = (&LiveBackend{}).Run(make(chan struct{}), RunSpec{Image: im, Config: live.Config{Core: cfg, Timeout: 300 * time.Millisecond}})
	if err == nil || !strings.Contains(err.Error(), "exceeded 300ms") {
		t.Errorf("spinning guest with a 300ms spec timeout: %v, want the live deadline error", err)
	}
	if took := time.Since(start); took > 2*time.Second {
		t.Errorf("spinning guest with a 300ms spec timeout ran %v", took)
	}
}

// TestDrain: admitted jobs finish, new submissions bounce with 503, and
// the worker pool exits cleanly.
func TestDrain(t *testing.T) {
	backend := newBlockingBackend()
	srv, ts := startServer(t, Options{
		Workers:  2,
		Backends: map[string]Backend{"sim": backend},
	})
	c := &testClient{t: t, base: ts.URL, tenant: "alice"}

	a := c.submit(&JobRequest{Source: trivialSource}, http.StatusAccepted)
	b := c.submit(&JobRequest{Source: trivialSource}, http.StatusAccepted)

	drained := make(chan struct{})
	go func() { srv.Drain(30 * time.Second); close(drained) }()

	// Draining: admissions must bounce while in-flight jobs still report.
	deadline := time.Now().Add(10 * time.Second)
	for !c.daemonStatus().Draining && time.Now().Before(deadline) {
		time.Sleep(time.Millisecond)
	}
	c.submit(&JobRequest{Source: trivialSource}, http.StatusServiceUnavailable)

	select {
	case <-drained:
		t.Fatal("drain finished with jobs still running")
	case <-time.After(100 * time.Millisecond):
	}
	close(backend.release)
	select {
	case <-drained:
	case <-time.After(30 * time.Second):
		t.Fatal("drain never finished after jobs were released")
	}
	for _, id := range []string{a.ID, b.ID} {
		if fin := c.wait(id); fin.State != StateSucceeded {
			t.Errorf("job %s after drain: %s", id, fin.State)
		}
	}
}

// TestDrainGraceCancels: when the grace period expires, still-running jobs
// are canceled rather than blocking shutdown forever.
func TestDrainGraceCancels(t *testing.T) {
	backend := newBlockingBackend() // never released
	srv, ts := startServer(t, Options{
		Workers:  1,
		Backends: map[string]Backend{"sim": backend},
	})
	c := &testClient{t: t, base: ts.URL, tenant: "alice"}
	st := c.submit(&JobRequest{Source: trivialSource}, http.StatusAccepted)
	deadline := time.Now().Add(10 * time.Second)
	for backend.startedCount() < 1 && time.Now().Before(deadline) {
		time.Sleep(time.Millisecond)
	}
	done := make(chan struct{})
	go func() { srv.Drain(200 * time.Millisecond); close(done) }()
	select {
	case <-done:
	case <-time.After(30 * time.Second):
		t.Fatal("forced drain hung")
	}
	if fin := c.wait(st.ID); fin.State != StateCanceled {
		t.Errorf("job after forced drain: %s", fin.State)
	}
}

// TestBadRequests: admission rejects malformed programs and shapes with
// 400s, never creating daemon state. A shape inside the daemon's MaxSlaves
// that core cannot build is refused at admission, not failed at run time.
func TestBadRequests(t *testing.T) {
	for _, tc := range []struct {
		opts    Options
		req     *JobRequest
		wantSub string
	}{
		{Options{MaxSlaves: 4}, &JobRequest{}, "exactly one of"},                               // no program
		{Options{MaxSlaves: 4}, &JobRequest{Source: "long main( {", Name: "bad"}, "building"},  // does not compile
		{Options{MaxSlaves: 4}, &JobRequest{Source: trivialSource, Slaves: 99}, "slaves must"}, // over MaxSlaves
		{Options{MaxSlaves: 4}, &JobRequest{Source: trivialSource, Backend: "xx"}, "backend"},  // unknown backend
		{Options{MaxSlaves: 100}, &JobRequest{Source: trivialSource, Slaves: 64}, "64 slaves"}, // a shape core refuses
		{Options{MaxSlaves: 4}, &JobRequest{Source: trivialSource, Cores: 100000}, "100000 cores"},
		// The diagnostic names the line of the job's own text.
		{Options{MaxSlaves: 4}, &JobRequest{Source: "long main() {\n  return y;\n}\n", Name: "x"}, `x.mc:2: undefined identifier \"y\"`},
	} {
		_, ts := startServer(t, tc.opts)
		c := &testClient{t: t, base: ts.URL, tenant: "alice"}
		resp, data := c.req("POST", "/v1/jobs", tc.req)
		if resp.StatusCode != http.StatusBadRequest || !bytes.Contains(data, []byte(tc.wantSub)) {
			t.Errorf("req %+v: HTTP %d %s, want 400 containing %q", tc.req, resp.StatusCode, data, tc.wantSub)
		}
		if jobs := c.daemonStatus(); jobs.Queued != 0 || jobs.Running != 0 {
			t.Errorf("rejected submission %+v left daemon state: %+v", tc.req, jobs)
		}
	}
}

// TestHugeReservationRejected: a job whose program reserves more memory
// than an image may hold (image.MaxMemBytes) is a 400 at admission — as
// assembly, as mini-C and as a prebuilt image with a forged MemSize — and
// the daemon then runs a normal job. The first two used to make the
// assembler allocate the reservation (256 GiB here: a fatal out-of-memory
// no recover catches); the third made the loader back every page.
func TestHugeReservationRejected(t *testing.T) {
	_, ts := startServer(t, Options{MaxSlaves: 4})
	c := &testClient{t: t, base: ts.URL, tenant: "mallory"}

	forged := image.New()
	if err := forged.AddSegment(image.Segment{Name: "text", Addr: 0x10000, Data: []byte{0, 0, 0, 0}}); err != nil {
		t.Fatal(err)
	}
	forged.Segments[0].MemSize = 1 << 38
	for name, req := range map[string]*JobRequest{
		"asm":    {Name: "huge", Asm: "main:\tret\n\t.bss\nbig: .space 0x4000000000\n"},
		"mini-C": {Name: "huge", Source: "long big[34359738368];\nlong main() { return 0; }\n"},
		"image":  {Name: "huge", Image: forged.Encode()},
	} {
		resp, data := c.req("POST", "/v1/jobs", req)
		if resp.StatusCode != http.StatusBadRequest || !bytes.Contains(data, []byte("image.MaxMemBytes")) {
			t.Errorf("%s: HTTP %d %s, want 400 naming image.MaxMemBytes", name, resp.StatusCode, data)
		}
	}

	st := c.submit(&JobRequest{Source: countingSource(7)}, http.StatusAccepted)
	if st = c.wait(st.ID); st.State != StateSucceeded {
		t.Fatalf("the job after the rejected ones: %+v", st)
	}
	if res := c.result(st.ID); res.Console != "job 7\n" {
		t.Errorf("console %q", res.Console)
	}
}
