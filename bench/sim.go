package main

import (
	"fmt"
	"time"

	"dqemu/internal/core"
	"dqemu/internal/grt"
	"dqemu/internal/image"
	"dqemu/internal/metrics"
)

// Indices into simCounts.
const (
	cVirtNs = iota
	cExecInsns
	cBlocks
	cTranslatedInsns
	cSuperblocks
	cSuperblockInsns
	cTier3Superblocks
	cTier3Insns
	cJumpHits
	cJumpMisses
	cTier3Demotions
	cPeepApplied
	cPageFaults
	cLLSCFalse
	cPageWaitNs
	cReads
	cWrites
	cFetches
	cInvalidates
	cPushes
	cSplits
	cFullResends
	cForwardHits
	cForwardWasted
	cBodyBytes
	cRawBytes
	cSamePages
	cDeltaPages
	cRLEPages
	cFullPages
	cDeltaMisses
	cPiggyPushes
	cInvBatches
	cInvBatchPages
	cMsgs
	cBytes
	cBusyTxNs
	cGlobalSyscalls
	nCounts
)

// simCounts are the raw counters of one simulated run, summed across the
// inputs of an iteration. Every entry is virtual time or a count, so a run
// of the same image and config repeats them exactly; the array is
// comparable, so the determinism self-check is one ==.
type simCounts [nCounts]float64

func countsOf(r *core.Result) simCounts {
	var c simCounts
	set := func(i int, v uint64) { c[i] += float64(v) }
	c[cVirtNs] = float64(r.TimeNs)
	set(cReads, r.Dir.Reads)
	set(cWrites, r.Dir.Writes)
	set(cFetches, r.Dir.Fetches)
	set(cInvalidates, r.Dir.Invalidates)
	set(cPushes, r.Dir.Pushes)
	set(cSplits, r.Dir.Splits)
	set(cFullResends, r.Dir.FullResends)
	set(cForwardHits, r.Dir.ForwardHits)
	set(cForwardWasted, r.Dir.ForwardWasted)
	set(cBodyBytes, r.Wire.BodyBytes)
	set(cRawBytes, r.Wire.RawBytes)
	set(cSamePages, r.Wire.SamePages)
	set(cDeltaPages, r.Wire.DeltaPages)
	set(cRLEPages, r.Wire.RLEPages)
	set(cFullPages, r.Wire.FullPages)
	set(cDeltaMisses, r.Wire.DeltaMisses)
	set(cPiggyPushes, r.Wire.PiggyPushes)
	set(cInvBatches, r.Wire.InvBatches)
	set(cInvBatchPages, r.Wire.InvBatchPages)
	set(cMsgs, r.Net.Msgs)
	set(cBytes, r.Net.Bytes)
	c[cBusyTxNs] = float64(r.Net.BusyTxNs)
	set(cGlobalSyscalls, r.OS.Global)
	for _, n := range r.Nodes {
		e := n.Engine
		set(cExecInsns, e.ExecInsns)
		set(cBlocks, e.Blocks)
		set(cTranslatedInsns, e.TranslatedInsns)
		set(cSuperblocks, e.Superblocks)
		set(cSuperblockInsns, e.SuperblockInsns)
		set(cTier3Superblocks, e.Tier3Superblocks)
		set(cTier3Insns, e.Tier3Insns)
		set(cJumpHits, e.JumpCacheHits)
		set(cJumpMisses, e.JumpCacheMisses)
		set(cTier3Demotions, e.Tier3Demotions)
		set(cPeepApplied, e.PeepApplied)
		set(cPageFaults, n.PageFaults)
		set(cLLSCFalse, n.LLSCFalse)
		c[cPageWaitNs] += float64(n.PageWaitNs)
	}
	return c
}

// plus returns c + n*d (n jobs of one template in a batch).
func (c simCounts) plus(d simCounts, n int) simCounts {
	for i := range c {
		c[i] += float64(n) * d[i]
	}
	return c
}

// diff names the first per-layer row that differs between two runs of one
// input, for the determinism self-check's message.
func (c simCounts) diff(d simCounts) string {
	if c[cVirtNs] != d[cVirtNs] {
		return fmt.Sprintf("virt_ms: %v != %v", c[cVirtNs]/1e6, d[cVirtNs]/1e6)
	}
	cm, dm := c.layerMetrics(), d.layerMetrics()
	for _, def := range perLayer {
		if cm[def.Name] != dm[def.Name] {
			return fmt.Sprintf("%s: %v != %v", def.Name, cm[def.Name], dm[def.Name])
		}
	}
	return "a raw counter no per-layer row reads"
}

// profCounts are the per-layer numbers that need Config.Metrics, so only
// the traced iteration has them.
type profCounts struct {
	FutexWaits   uint64
	RemoteFaults uint64  // fault.e2e_ns sample count
	P50Ns, P99Ns float64 // weighted by RemoteFaults when summed
}

func profOf(s *metrics.Snapshot) profCounts {
	var p profCounts
	if s == nil {
		return p
	}
	for _, l := range s.Locks {
		p.FutexWaits += l.Waits
	}
	h := s.Histograms[core.MetricFaultE2E]
	p.RemoteFaults = h.Count
	p.P50Ns, p.P99Ns = float64(h.P50), float64(h.P99)
	return p
}

// plus merges two profiles; percentiles of different inputs cannot be
// merged exactly, so the workload row is their fault-count-weighted mean.
func (p profCounts) plus(q profCounts) profCounts {
	n := p.RemoteFaults + q.RemoteFaults
	if n > 0 {
		p.P50Ns = (p.P50Ns*float64(p.RemoteFaults) + q.P50Ns*float64(q.RemoteFaults)) / float64(n)
		p.P99Ns = (p.P99Ns*float64(p.RemoteFaults) + q.P99Ns*float64(q.RemoteFaults)) / float64(n)
	}
	p.RemoteFaults = n
	p.FutexWaits += q.FutexWaits
	return p
}

// layerMetrics derives the exact per-layer rows from the raw counters.
func (c simCounts) layerMetrics() map[string]float64 {
	pages := c[cSamePages] + c[cDeltaPages] + c[cRLEPages] + c[cFullPages]
	return map[string]float64{
		"tcg.exec_insns":            c[cExecInsns],
		"tcg.blocks":                c[cBlocks],
		"tcg.translated_insns":      c[cTranslatedInsns],
		"tcg.superblocks":           c[cSuperblocks],
		"tcg.tier3_superblocks":     c[cTier3Superblocks],
		"tcg.tier3_insn_share":      ratio(c[cTier3Insns], c[cExecInsns]),
		"tcg.superblock_insn_share": ratio(c[cSuperblockInsns], c[cExecInsns]),
		"tcg.jump_cache_hit_ratio":  ratio(c[cJumpHits], c[cJumpHits]+c[cJumpMisses]),
		"tcg.tier3_demotions":       c[cTier3Demotions],
		"tcg.peep_applied":          c[cPeepApplied],
		"core.page_faults":          c[cPageFaults],
		"core.page_wait_virt_ms":    c[cPageWaitNs] / 1e6,
		"core.llsc_false":           c[cLLSCFalse],
		"dsm.reads":                 c[cReads],
		"dsm.writes":                c[cWrites],
		"dsm.fetches":               c[cFetches],
		"dsm.invalidates":           c[cInvalidates],
		"dsm.pushes":                c[cPushes],
		"dsm.splits":                c[cSplits],
		"dsm.full_resends":          c[cFullResends],
		"dsm.forward_useful_ratio":  ratio(c[cForwardHits], c[cForwardHits]+c[cForwardWasted]),
		"wire.delta_ratio":          ratio(c[cBodyBytes], c[cRawBytes]),
		"wire.full_page_share":      ratio(c[cFullPages], pages),
		"wire.delta_misses":         c[cDeltaMisses],
		"wire.inv_pages_per_batch":  ratio(c[cInvBatchPages], c[cInvBatches]),
		"wire.piggy_pushes":         c[cPiggyPushes],
		"netsim.msgs":               c[cMsgs],
		"netsim.bytes":              c[cBytes],
		"netsim.busy_tx_virt_ms":    c[cBusyTxNs] / 1e6,
		"netsim.insns_per_msg":      ratio(c[cExecInsns], c[cMsgs]),
		"guestos.global_syscalls":   c[cGlobalSyscalls],
	}
}

func (p profCounts) layerMetrics() map[string]float64 {
	return map[string]float64{
		"core.remote_fault_p50_virt_us": p.P50Ns / 1e3,
		"core.remote_fault_p99_virt_us": p.P99Ns / 1e3,
		"guestos.futex_waits":           float64(p.FutexWaits),
	}
}

// preparedInput is a built input with the reference its runs are checked
// against and its first run's counters, which every later run must equal.
type preparedInput struct {
	in       *simInput
	im       *image.Image
	goRef    *reference
	want     reference
	wantFrom string
	baseline simCounts
	haveBase bool
	profBase profCounts
	haveProf bool
}

// simDriver runs one of the three simulated workloads.
type simDriver struct {
	w      *workload
	o      options
	inputs []*preparedInput
	// last and lastProf hold the counters of the most recent (traced)
	// iteration.
	last     simCounts
	lastProf profCounts
}

func (d *simDriver) unit() string { return "passes over the input set" }

// setup generates and builds every input. It is repeatable: setup_s is the
// median over several calls.
func (d *simDriver) setup(tr *tracer) error {
	d.inputs = d.inputs[:0]
	for i := range d.w.Sim.Inputs {
		in := &d.w.Sim.Inputs[i]
		p := &preparedInput{in: in}
		var err error
		if in.Gen != nil {
			id := tr.begin("gen", in.Name, -1, 0, 0)
			src, ref := in.Gen(d.o.seed, d.o.smoke)
			tr.end(id)
			p.goRef = &ref
			id = tr.begin("grt.build", in.Name, -1, 0, 0)
			p.im, err = grt.BuildProgram(in.Name+".mc", src)
			tr.end(id)
		} else {
			id := tr.begin("grt.build", in.Name, -1, 0, 0)
			p.im, err = in.Build(d.o.seed, d.o.smoke)
			tr.end(id)
		}
		if err != nil {
			return fmt.Errorf("building %s: %w", in.Name, err)
		}
		d.inputs = append(d.inputs, p)
	}
	return nil
}

func (d *simDriver) teardown() {}

// references attaches to every input what its runs must produce.
func (d *simDriver) references(exp expectedFile) (float64, error) {
	var spent time.Duration
	for _, p := range d.inputs {
		key := d.w.Name + "/" + p.in.Name
		switch {
		case p.in.Seeded && d.o.seed != defaultSeed && p.goRef != nil:
			p.want, p.wantFrom = *p.goRef, "go"
		case p.in.Seeded && d.o.seed != defaultSeed:
			t0 := time.Now()
			ref, err := interpReference(p.im)
			spent += time.Since(t0)
			if err != nil {
				return 0, fmt.Errorf("%s: %w", key, err)
			}
			p.want, p.wantFrom = ref, "interpreter"
		default:
			pinned, err := exp.pinned(d.o.scaleName(), key)
			if err != nil {
				return 0, err
			}
			p.want, p.wantFrom = pinned, "pinned"
			if p.goRef != nil && *p.goRef != pinned {
				return 0, fmt.Errorf("%s: the generator's Go reference %+v disagrees with the pinned interpreter reference %+v",
					key, *p.goRef, pinned)
			}
		}
	}
	return spent.Seconds(), nil
}

func (d *simDriver) inputRecords() []inputRecord {
	var out []inputRecord
	for _, p := range d.inputs {
		out = append(out, inputRecord{Name: p.in.Name, Backend: "core", Knobs: p.in.Knobs,
			Reference: p.want, ReferenceSource: p.wantFrom})
	}
	return out
}

// iterate runs every input once, NewCluster + Run per input, and checks
// each run against the reference and against the input's first run.
func (d *simDriver) iterate(tr *tracer, iterID int) (iteration, error) {
	it := iteration{parts: map[string][]float64{}}
	var sum simCounts
	var prof profCounts
	root := tr.begin("iteration", "", -1, iterID, 0)
	for _, p := range d.inputs {
		cfg := p.in.Knobs.config()
		cfg.Metrics = tr != nil // fault histograms and futex counts: traced iteration only
		t0 := time.Now()
		id := tr.begin("core.new_cluster", p.in.Name, root, iterID, 0)
		cl, err := core.NewCluster(p.im, cfg)
		tr.end(id)
		var res *core.Result
		if err == nil {
			id = tr.begin("core.run", p.in.Name, root, iterID, 0)
			res, err = cl.Run()
			tr.end(id)
		}
		host := time.Since(t0).Seconds()
		it.hostS += host
		it.parts[p.in.Name] = []float64{host}
		it.attempted++
		if err != nil {
			it.failed++
			fmt.Fprintf(d.o.log, "bench: %s/%s: %v\n", d.w.Name, p.in.Name, err)
			continue
		}
		if !p.want.check(res.ExitCode, res.Console) {
			it.failed++
			fmt.Fprintf(d.o.log, "bench: %s/%s: exit %d, console sha256 %s; want %+v\n",
				d.w.Name, p.in.Name, res.ExitCode, sha(res.Console), p.want)
			continue
		}
		c := countsOf(res)
		if !p.haveBase {
			p.baseline, p.haveBase = c, true
		} else if c != p.baseline {
			return it, fmt.Errorf("determinism check: %s/%s differs between iterations: %s",
				d.w.Name, p.in.Name, p.baseline.diff(c))
		}
		if res.Metrics != nil {
			pc := profOf(res.Metrics)
			if !p.haveProf {
				p.profBase, p.haveProf = pc, true
			} else if pc != p.profBase {
				return it, fmt.Errorf("determinism check: %s/%s profile differs between traced iterations: %+v != %+v",
					d.w.Name, p.in.Name, p.profBase, pc)
			}
			prof = prof.plus(pc)
		}
		sum = sum.plus(c, 1)
	}
	tr.end(root)
	it.insns = sum[cExecInsns]
	it.virtNs = sum[cVirtNs]
	d.last = sum
	if tr != nil {
		d.lastProf = prof
	}
	return it, nil
}

func (d *simDriver) counts() (simCounts, profCounts) { return d.last, d.lastProf }

// partRows adds the per-input rows: median host seconds over the timed
// iterations and the (exact) virtual time.
func (d *simDriver) partRows(into map[string]float64, parts map[string][]float64) {
	for _, p := range d.inputs {
		into["input."+p.in.Name+".host_s"] = median(parts[p.in.Name])
		into["input."+p.in.Name+".virt_ms"] = p.baseline[cVirtNs] / 1e6
	}
}
