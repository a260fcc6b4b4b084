package main

import (
	"fmt"
	"io"
	"runtime"
	"syscall"
	"time"
)

// options are the settings of one run.
type options struct {
	seed    int64
	seconds int  // the timed loop lasts at least this long
	trace   bool // run the traced iteration and the layer replays
	smoke   bool
	log     io.Writer // diagnostics (failed runs)
}

func (o options) scaleName() string {
	if o.smoke {
		return "smoke"
	}
	return "full"
}

// iteration is what one pass over a workload's inputs (or one batch of
// jobs) measured.
type iteration struct {
	hostS     float64
	insns     float64 // nominal guest instructions retired
	virtNs    float64
	attempted int
	failed    int
	// parts holds, per input, its host seconds (sim) or, per job template,
	// each job's latency in ms.
	parts map[string][]float64
}

// driver is what the common measuring loop needs from a workload kind; the
// simulated and the job workloads implement it.
type driver interface {
	unit() string
	setup(tr *tracer) error
	teardown()
	references(exp expectedFile) (interpreterS float64, err error)
	inputRecords() []inputRecord
	iterate(tr *tracer, iterID int) (iteration, error)
	counts() (simCounts, profCounts)
	partRows(into map[string]float64, parts map[string][]float64)
}

func newDriver(w *workload, o options) driver {
	if w.Sim != nil {
		return &simDriver{w: w, o: o}
	}
	return &jobDriver{w: w, o: o}
}

// cpuSeconds is the process's user+system CPU time.
func cpuSeconds() float64 {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	tv := func(t syscall.Timeval) float64 { return float64(t.Sec) + float64(t.Usec)/1e6 }
	return tv(ru.Utime) + tv(ru.Stime)
}

// runWorkload measures one workload in this process: set-up, references,
// warm-up, the timed untraced iterations that give every end-to-end number,
// and, with o.trace, one traced iteration plus the layer replays for the
// per-layer numbers.
func runWorkload(w *workload, o options) (workloadRecord, *tracer, error) {
	began := time.Now()
	rec := workloadRecord{Name: w.Name, Why: w.Why, EndToEnd: map[string]stat{}}
	exp, err := loadExpected()
	if err != nil {
		return rec, nil, err
	}
	d := newDriver(w, o)
	defer d.teardown()

	var tr *tracer
	if o.trace {
		tr = newTracer()
	}
	// The measuring driver's set-up carries the spans when tracing, so it is
	// not a setup_s sample; those come from a driver of their own (timedLoop).
	if err := d.setup(tr); err != nil {
		return rec, nil, err
	}
	if rec.ReferenceS, err = d.references(exp); err != nil {
		return rec, nil, err
	}
	rec.Inputs = d.inputRecords()
	rec.Iterations.Unit = d.unit()

	iterID := 0
	run := func(tr *tracer) (iteration, error) {
		iterID++
		it, err := d.iterate(tr, iterID)
		rec.Attempted += it.attempted
		rec.Failed += it.failed
		return it, err
	}
	if !o.smoke {
		rec.Iterations.Warmup = w.Warmup
	}
	for i := 0; i < rec.Iterations.Warmup; i++ {
		if _, err := run(nil); err != nil {
			return rec, nil, err
		}
	}
	loop, err := timedLoop(w, o, func() (iteration, error) { return run(nil) })
	if err != nil {
		return rec, nil, err
	}
	rec.Iterations.Timed, rec.Iterations.Setups = len(loop.timed), len(loop.setupS)
	parts := endToEndRows(w, &rec, loop)
	if o.trace {
		traced, err := run(tr)
		if err != nil {
			return rec, nil, err
		}
		rec.Iterations.Traced = 1
		if rec.PerLayer, err = perLayerRows(w, o, d, tr, loop, traced, rec.EndToEnd["host_s"].Value, parts); err != nil {
			return rec, nil, err
		}
		rec.SpansByInput = tr.meanMsByInput()
	}
	def, _ := findMetric(endToEnd, "fail_ratio")
	fr := newStat(def, []float64{float64(rec.Failed) / float64(rec.Attempted)})
	fr.N = rec.Attempted
	rec.EndToEnd["fail_ratio"] = fr
	rec.WallS = time.Since(began).Seconds()
	return rec, tr, nil
}

// loopResult is what the timed loop measured.
type loopResult struct {
	timed   []iteration
	setupS  []float64 // seconds of each sampled set-up
	allocMB []float64 // TotalAlloc delta of each iteration
	// Over the timed iterations alone, set-up samples excluded:
	wallS, cpuS float64
	gcCycles    uint32
	mallocs     uint64
}

// timedLoop runs untraced iterations (Config.Metrics off) for at least
// o.seconds and at least w.Timed iterations. Set-up is cheap next to a run,
// so setup_s is the median over many set-ups, made on a driver of their own
// between the timed iterations (up to a tenth of the loop's time): spread
// over the whole loop, one burst of interference cannot shift every sample.
func timedLoop(w *workload, o options, run func() (iteration, error)) (loopResult, error) {
	var lr loopResult
	budget := time.Duration(o.seconds) * time.Second
	if o.trace {
		budget /= 2 // the traced iteration and the replays take the rest
	}
	sampler := newDriver(w, o)
	defer sampler.teardown()
	sampleSetup := func() (float64, error) {
		sampler.teardown()
		t0 := time.Now()
		err := sampler.setup(nil)
		s := time.Since(t0).Seconds()
		lr.setupS = append(lr.setupS, s)
		return s, err
	}
	if _, err := sampleSetup(); err != nil {
		return lr, err
	}
	loop0, setupSpent := time.Now(), 0.0
	done := func() bool {
		if o.smoke {
			return len(lr.timed) >= 1
		}
		return len(lr.timed) >= w.Timed && time.Since(loop0) >= budget
	}
	var before, after runtime.MemStats
	for !done() {
		runtime.ReadMemStats(&before)
		cpu0, t0 := cpuSeconds(), time.Now()
		it, err := run()
		if err != nil {
			return lr, err
		}
		lr.wallS += time.Since(t0).Seconds()
		lr.cpuS += cpuSeconds() - cpu0
		runtime.ReadMemStats(&after)
		lr.allocMB = append(lr.allocMB, float64(after.TotalAlloc-before.TotalAlloc)/1e6)
		lr.gcCycles += after.NumGC - before.NumGC
		lr.mallocs += after.Mallocs - before.Mallocs
		lr.timed = append(lr.timed, it)
		for !o.smoke && setupSpent < 0.1*time.Since(loop0).Seconds() && len(lr.setupS) < 200 {
			s, err := sampleSetup()
			if err != nil {
				return lr, err
			}
			setupSpent += s
		}
	}
	return lr, nil
}

// endToEndRows fills rec.EndToEnd from the timed loop and returns the pooled
// per-input (or per-template) samples.
func endToEndRows(w *workload, rec *workloadRecord, loop loopResult) map[string][]float64 {
	parts := map[string][]float64{}
	var hostS, mips, virtMs, jobsPerS, lat []float64
	for _, it := range loop.timed {
		hostS = append(hostS, it.hostS)
		mips = append(mips, it.insns/1e6/it.hostS)
		virtMs = append(virtMs, it.virtNs/1e6)
		for name, v := range it.parts {
			parts[name] = append(parts[name], v...)
		}
		if w.Jobs != nil {
			jobsPerS = append(jobsPerS, float64(it.attempted-it.failed)/it.hostS)
			for _, in := range rec.Inputs { // template order, so the samples stay in loop order
				lat = append(lat, it.parts[in.Name]...)
			}
		}
	}
	row := func(name string, samples []float64) {
		def, _ := findMetric(endToEnd, name)
		rec.EndToEnd[name] = newStat(def, samples)
	}
	row("setup_s", loop.setupS)
	row("host_s", hostS)
	row("guest_mips", mips)
	row("alloc_mb", loop.allocMB)
	if w.Jobs == nil || w.Jobs.Backend == "sim" {
		row("virt_ms", virtMs)
	}
	if w.Jobs != nil {
		row("jobs_per_s", jobsPerS)
		row("job_p50_ms", lat)
		row("job_p95_ms", lat)
	}
	return parts
}

// perLayerRows assembles the per-layer metrics: spans and exact counters of
// the traced iteration, the layer replays, the modelled shares and the host
// runtime figures of the timed loop.
func perLayerRows(w *workload, o options, d driver, tr *tracer, loop loopResult, traced iteration,
	hostS float64, parts map[string][]float64) (map[string]layerValue, error) {
	layer := map[string]float64{}
	spans := tr.selfMsByName()
	for _, name := range []string{"gen", "grt.build", "image.codec", "core.new_cluster", "core.run",
		"server.submit", "server.queue", "server.run", "server.fetch"} {
		if v, ok := spans[name]; ok {
			layer["span."+name+"_ms"] = v
		}
	}
	var untraced []float64
	for _, it := range loop.timed {
		untraced = append(untraced, it.hostS)
	}
	layer["trace.overhead_pct"] = 100 * (traced.hostS/median(untraced) - 1) // against the typical untraced iteration
	counts, prof := d.counts()
	for name, v := range counts.layerMetrics() {
		layer[name] = v
	}
	for name, v := range prof.layerMetrics() {
		layer[name] = v
	}
	d.partRows(layer, parts)
	kern, err := runKernels(o)
	if err != nil {
		return nil, err
	}
	for name, v := range kern {
		layer[name] = v
	}
	compiled := 0
	if jd, ok := d.(*jobDriver); ok {
		compiled = jd.compiledPerBatch()
	}
	for name, v := range estimates(counts, kern, hostS, compiled, w) {
		layer[name] = v
	}
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	layer["host.peak_heap_mb"] = float64(ms.HeapSys) / 1e6
	layer["host.gc_cycles"] = float64(loop.gcCycles)
	layer["host.gc_cpu_pct"] = 100 * ms.GCCPUFraction
	layer["host.mallocs_per_iter"] = float64(loop.mallocs) / float64(len(loop.timed))
	layer["host.cpu_s_per_wall_s"] = loop.cpuS / loop.wallS

	out := map[string]layerValue{}
	for name, v := range layer {
		def, ok := findMetric(perLayer, name)
		if !ok {
			return nil, fmt.Errorf("internal: per-layer metric %q is not declared", name)
		}
		out[name] = layerValue{Unit: def.Unit, Value: finite(v), Exact: def.Exact && w.Sim != nil}
	}
	return out, nil
}
