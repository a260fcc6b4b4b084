package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"math/rand"
	"net/http"
	"net/http/httptest"
	"sync"
	"time"

	"dqemu/internal/core"
	"dqemu/internal/grt"
	"dqemu/internal/image"
	"dqemu/internal/server"
)

// builtTemplate is a job template ready to submit.
type builtTemplate struct {
	tpl   *jobTemplate
	count int    // jobs of this template per batch at the current scale
	image []byte // encoded guest image, for templates that ship one
	// want is the pinned reference of a prebuilt image; source templates
	// predict a reference per job.
	want     reference
	wantFrom string
	// nominal are the counters of a deterministic simulated run of the
	// template with the same knobs: the "nominal" guest work of one job,
	// which is what guest_mips and the exact per-layer rows of a job
	// workload are made of (the daemon does not expose engine counters, and
	// the live backend has no virtual clock).
	nominal simCounts
	prof    profCounts
}

// job is one submission of a batch.
type job struct {
	tpl  *builtTemplate
	body []byte
	want reference
}

// jobDriver runs a job workload: the daemon in process behind httptest,
// driven over HTTP by closed-loop clients.
type jobDriver struct {
	w      *workload
	o      options
	tpls   []*builtTemplate
	srv    *server.Server
	ts     *httptest.Server
	rng    *rand.Rand
	serial int // makes every generated source distinct within the run
	held   int // jobs submitted to the current server
	batch  simCounts
	prof   profCounts
}

func (d *jobDriver) batchSize() int {
	n := 0
	for _, t := range d.tpls {
		n += t.count
	}
	return n
}

func (d *jobDriver) unit() string {
	return fmt.Sprintf("batches of %d jobs (%d closed-loop clients)", d.batchSize(), d.w.Jobs.Clients)
}

// setup builds and encodes the prebuilt images and starts the server.
func (d *jobDriver) setup(tr *tracer) error {
	d.tpls = d.tpls[:0]
	d.rng = rand.New(rand.NewSource(d.o.seed))
	d.serial = int(d.o.seed%1000) * 100
	for i := range d.w.Jobs.Templates {
		tpl := &d.w.Jobs.Templates[i]
		bt := &builtTemplate{tpl: tpl, count: tpl.Count}
		if d.o.smoke {
			bt.count = (tpl.Count + 9) / 10
		}
		if tpl.Build != nil {
			id := tr.begin("grt.build", tpl.Name, -1, 0, 0)
			im, err := tpl.Build(d.o.smoke)
			tr.end(id)
			if err != nil {
				return fmt.Errorf("building %s: %w", tpl.Name, err)
			}
			id = tr.begin("image.codec", tpl.Name, -1, 0, 0)
			bt.image = im.Encode()
			tr.end(id)
		}
		d.tpls = append(d.tpls, bt)
	}
	d.startServer()
	return nil
}

func (d *jobDriver) startServer() {
	d.srv = server.New(server.Options{Workers: 2})
	d.ts = httptest.NewServer(d.srv.Handler())
	d.held = 0
}

// teardown stops the server and waits for its workers.
func (d *jobDriver) teardown() {
	if d.ts != nil {
		d.ts.Close()
		d.srv.Drain(30 * time.Second)
		d.ts, d.srv = nil, nil
	}
}

// references pins what each prebuilt template must print, and measures each
// template's nominal guest work with one direct simulated run.
func (d *jobDriver) references(exp expectedFile) (float64, error) {
	d.batch, d.prof = simCounts{}, profCounts{}
	for _, bt := range d.tpls {
		var im *image.Image
		var err error
		key := d.w.Name + "/" + bt.tpl.Name
		if bt.tpl.Source != nil {
			src, ref := bt.tpl.Source(0)
			bt.want, bt.wantFrom = ref, "go"
			im, err = grt.BuildProgram(bt.tpl.Name+".mc", src)
		} else {
			if bt.want, err = exp.pinned(d.o.scaleName(), key); err != nil {
				return 0, err
			}
			bt.wantFrom = "pinned"
			im, err = image.Decode(bt.image)
		}
		if err != nil {
			return 0, fmt.Errorf("%s: %w", key, err)
		}
		cfg := bt.tpl.Knobs.config()
		cfg.Metrics = true
		res, err := core.Run(im, cfg)
		if err != nil {
			return 0, fmt.Errorf("%s: nominal simulated run: %w", key, err)
		}
		if !bt.want.check(res.ExitCode, res.Console) {
			return 0, fmt.Errorf("%s: nominal simulated run: exit %d, console sha256 %s; want %+v",
				key, res.ExitCode, sha(res.Console), bt.want)
		}
		bt.nominal, bt.prof = countsOf(res), profOf(res.Metrics)
		d.batch = d.batch.plus(bt.nominal, bt.count)
		for i := 0; i < bt.count; i++ {
			d.prof = d.prof.plus(bt.prof)
		}
	}
	return 0, nil
}

func (d *jobDriver) inputRecords() []inputRecord {
	var out []inputRecord
	for _, bt := range d.tpls {
		out = append(out, inputRecord{Name: bt.tpl.Name, Backend: d.w.Jobs.Backend, Knobs: bt.tpl.Knobs,
			Reference: bt.want, ReferenceSource: bt.wantFrom})
	}
	return out
}

// makeBatch draws one batch: fixed counts per template, order shuffled by
// the seed, each source-template job with its own text.
func (d *jobDriver) makeBatch() ([]job, error) {
	var jobs []job
	for _, bt := range d.tpls {
		for i := 0; i < bt.count; i++ {
			req := server.JobRequest{
				Name: bt.tpl.Name, Backend: d.w.Jobs.Backend, Slaves: bt.tpl.Knobs.Slaves,
				Forwarding: bt.tpl.Knobs.Forwarding, Splitting: bt.tpl.Knobs.Splitting, HintSched: bt.tpl.Knobs.HintSched,
			}
			want := bt.want
			if bt.tpl.Source != nil {
				d.serial++
				req.Source, want = bt.tpl.Source(d.serial)
			} else {
				req.Image = bt.image
			}
			body, err := json.Marshal(&req)
			if err != nil {
				return nil, err
			}
			jobs = append(jobs, job{tpl: bt, body: body, want: want})
		}
	}
	d.rng.Shuffle(len(jobs), func(i, j int) { jobs[i], jobs[j] = jobs[j], jobs[i] })
	return jobs, nil
}

// iterate submits one batch through Clients closed-loop clients: each sends
// its next job only after the previous one's result is decoded.
func (d *jobDriver) iterate(tr *tracer, iterID int) (iteration, error) {
	it := iteration{parts: map[string][]float64{}}
	// The daemon never evicts a finished job (ROADMAP 4c): its heap grows
	// with every job, 790 MB after 5000, and latency with it. So that a
	// batch costs the same whenever it runs, the server is replaced every
	// 1000 jobs, outside the timed window.
	if d.held >= 1000 {
		d.teardown()
		d.startServer()
	}
	id := tr.begin("gen", "", -1, iterID, 0)
	jobs, err := d.makeBatch()
	d.held += len(jobs)
	tr.end(id)
	if err != nil {
		return it, err
	}
	var mu sync.Mutex
	next := 0
	var wg sync.WaitGroup
	t0 := time.Now()
	for c := 0; c < d.w.Jobs.Clients; c++ {
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			for {
				mu.Lock()
				i := next
				next++
				mu.Unlock()
				if i >= len(jobs) {
					return
				}
				j := &jobs[i]
				t := time.Now()
				st, err := d.runJob(j, tr, iterID, c)
				ms := float64(time.Since(t)) / 1e6
				mu.Lock()
				it.attempted++
				if err != nil {
					it.failed++
					fmt.Fprintf(d.o.log, "bench: %s/%s: %v\n", d.w.Name, j.tpl.tpl.Name, err)
				} else {
					it.parts[j.tpl.tpl.Name] = append(it.parts[j.tpl.tpl.Name], ms)
					it.virtNs += float64(st.TimeNs)
				}
				mu.Unlock()
			}
		}(c)
	}
	wg.Wait()
	it.hostS = time.Since(t0).Seconds()
	it.insns = d.batch[cExecInsns]
	return it, nil
}

// runJob is one request as a tenant sees it: POST /v1/jobs, wait for a
// terminal state, GET the result and decode it.
func (d *jobDriver) runJob(j *job, tr *tracer, iterID, client int) (server.JobStatus, error) {
	name := j.tpl.tpl.Name
	root := tr.begin("job", name, -1, iterID, 2*client)
	defer tr.end(root)

	var st server.JobStatus
	id := tr.begin("server.submit", name, root, iterID, 2*client)
	err := d.call(http.MethodPost, "/v1/jobs", j.body, http.StatusAccepted, &st)
	tr.end(id)
	if err != nil {
		return st, err
	}
	id = tr.begin("server.wait", name, root, iterID, 2*client)
	deadline := time.Now().Add(2 * time.Minute)
	for !st.State.Terminal() && err == nil {
		if time.Now().After(deadline) {
			err = fmt.Errorf("job %s still %s after 2 minutes", st.ID, st.State)
			break
		}
		err = d.call(http.MethodGet, "/v1/jobs/"+st.ID+"?wait_ms=10000", nil, http.StatusOK, &st)
	}
	tr.end(id)
	if err != nil {
		return st, err
	}
	var res server.JobResult
	id = tr.begin("server.fetch", name, root, iterID, 2*client)
	err = d.call(http.MethodGet, "/v1/jobs/"+st.ID+"/result", nil, http.StatusOK, &res)
	tr.end(id)
	if err != nil {
		return st, err
	}
	// The server's own timestamps split the wait into queueing and running;
	// they go on a track of their own because queueing starts inside the
	// POST.
	if tr != nil && st.StartedAtNs > 0 && st.FinishedAtNs > 0 {
		queued, started, finished := time.Unix(0, st.QueuedAtNs), time.Unix(0, st.StartedAtNs), time.Unix(0, st.FinishedAtNs)
		tr.add("server.queue", name, queued, started, -1, iterID, 2*client+1)
		tr.add("server.run", name, started, finished, -1, iterID, 2*client+1)
	}
	switch {
	case res.State != server.StateSucceeded:
		return st, fmt.Errorf("job %s %s: %s", st.ID, res.State, res.Error)
	case res.ExitCode == nil:
		return st, fmt.Errorf("job %s has no exit code", st.ID)
	case !j.want.check(*res.ExitCode, res.Console):
		return st, fmt.Errorf("job %s: exit %d, console sha256 %s; want %+v", st.ID, *res.ExitCode, sha(res.Console), j.want)
	}
	return res.JobStatus, nil
}

// call does one HTTP exchange with the daemon and decodes the JSON reply.
func (d *jobDriver) call(method, path string, body []byte, wantStatus int, into any) error {
	req, err := http.NewRequest(method, d.ts.URL+path, bytes.NewReader(body))
	if err != nil {
		return err
	}
	req.Header.Set(server.TenantHeader, "bench")
	resp, err := d.ts.Client().Do(req)
	if err != nil {
		return err
	}
	defer resp.Body.Close()
	if resp.StatusCode != wantStatus {
		msg, _ := io.ReadAll(io.LimitReader(resp.Body, 512)) // diagnostic only
		return fmt.Errorf("%s %s: status %d: %s", method, path, resp.StatusCode, bytes.TrimSpace(msg))
	}
	return json.NewDecoder(resp.Body).Decode(into)
}

func (d *jobDriver) counts() (simCounts, profCounts) { return d.batch, d.prof }

// partRows adds the per-template latency medians over the timed jobs.
func (d *jobDriver) partRows(into map[string]float64, parts map[string][]float64) {
	for _, bt := range d.tpls {
		into["job."+bt.tpl.Name+".p50_ms"] = median(parts[bt.tpl.Name])
	}
}

// compiledPerBatch counts the jobs of one batch whose source the daemon
// compiles at admission.
func (d *jobDriver) compiledPerBatch() int {
	n := 0
	for _, bt := range d.tpls {
		if bt.tpl.Source != nil {
			n += bt.count
		}
	}
	return n
}
