package main

import (
	"fmt"
	"io"
	"math/rand"
	"runtime"
	"time"

	"dqemu/internal/asm"
	"dqemu/internal/core"
	"dqemu/internal/dsm"
	"dqemu/internal/grt"
	"dqemu/internal/image"
	"dqemu/internal/isa"
	"dqemu/internal/mem"
	"dqemu/internal/metrics"
	"dqemu/internal/minicc"
	"dqemu/internal/netsim"
	"dqemu/internal/proto"
	"dqemu/internal/sim"
	"dqemu/internal/trace"
	"dqemu/internal/workloads"
)

// sink keeps the compiler from discarding a replayed call's result.
var sink any

// replay measures one operation the way testing.Benchmark does: fn(n)
// performs n operations and returns how long they took (so it can leave its
// own preparation out); n doubles until a sample lasts 10 ms, then the
// median of 5 samples is reported in ns per operation. At smoke scale one
// sample of one operation only proves the replay runs.
func replay(o options, fn func(n int) time.Duration) float64 {
	if o.smoke {
		return float64(fn(1))
	}
	n := 1
	for fn(n) < 10*time.Millisecond && n < 1<<24 {
		n *= 2
	}
	var samples []float64
	for i := 0; i < 5; i++ {
		samples = append(samples, float64(fn(n))/float64(n))
	}
	return median(samples)
}

// timeN times a plain loop of n calls.
func timeN(n int, op func(i int)) time.Duration {
	t0 := time.Now()
	for i := 0; i < n; i++ {
		op(i)
	}
	return time.Since(t0)
}

// allocsPer counts heap allocations per call of op.
func allocsPer(o options, op func(i int)) float64 {
	n := 1000
	if o.smoke {
		n = 10
	}
	var a, b runtime.MemStats
	runtime.ReadMemStats(&a)
	for i := 0; i < n; i++ {
		op(i)
	}
	runtime.ReadMemStats(&b)
	return float64(b.Mallocs-a.Mallocs) / float64(n)
}

// nullEnv is a dsm.Env that sends nothing, so a directory replay times the
// protocol logic alone.
type nullEnv struct{}

func (nullEnv) SendContent(int, uint64, mem.Perm)  {}
func (nullEnv) SendReaffirm(int, uint64, mem.Perm) {}
func (nullEnv) SendInvalidate(int, uint64)         {}
func (nullEnv) SendFetch(int, uint64, bool)        {}
func (nullEnv) SendRetry(int, uint64, int64)       {}
func (nullEnv) HomeWriteback(uint64, []byte)       {}
func (nullEnv) HomeSetPerm(uint64, mem.Perm)       {}
func (nullEnv) BroadcastRemap(uint64, []uint64)    {}
func (nullEnv) PushPage(int, uint64)               {}
func (nullEnv) SplitHome(uint64, []uint64)         {}

// replayFailed carries an error out of a replay's timing loop; runKernels
// turns it back into its error result.
type replayFailed struct{ err error }

// runKernels replays each layer's public functions on inputs taken from the
// workloads and returns the kernel.* rows. The inputs do not depend on which
// workload is being measured, so the rows compare across workloads.
func runKernels(o options) (k map[string]float64, err error) {
	defer func() {
		if r := recover(); r != nil {
			failed, ok := r.(replayFailed)
			if !ok {
				panic(r)
			}
			err = fmt.Errorf("layer replay: %w", failed.err)
		}
	}()
	k = map[string]float64{}
	// loop replays a plain operation; replay itself is for the ones that
	// keep their preparation out of the time.
	loop := func(op func(i int)) float64 {
		return replay(o, func(n int) time.Duration { return timeN(n, op) })
	}
	must := func(err error) {
		if err != nil {
			panic(replayFailed{err})
		}
	}

	// Toolchain, on the cold_code generator's text.
	funcs := 60
	if o.smoke {
		funcs = 6
	}
	cold := genCold(defaultSeed, funcs, 15, 1)
	full := grt.Prelude + cold.Source
	k["kernel.minicc.compile_mb_s"] = float64(len(full)) * 1e3 / loop(func(int) {
		s, err := minicc.Compile("cold.mc", full)
		must(err)
		sink = s
	})
	userAsm, err := minicc.Compile("cold.mc", full)
	must(err)
	rt, err := grt.RuntimeSources()
	must(err)
	sources := append(rt, asm.Source{Name: "cold.s", Text: userAsm})
	coldIm, err := asm.Assemble(sources...)
	must(err)
	text, _ := coldIm.Text()
	k["kernel.asm.assemble_kinsn_s"] = float64(len(text.Data)/4) * 1e6 / loop(func(int) {
		im, err := asm.Assemble(sources...)
		must(err)
		sink = im
	})
	tiny, _ := tinySource(1)
	k["kernel.grt.build_small_ms"] = loop(func(int) {
		im, err := grt.BuildProgram("tiny.mc", tiny)
		must(err)
		sink = im
	}) / 1e6
	enc := coldIm.Encode()
	k["kernel.image.encode_mb_s"] = float64(len(enc)) * 1e3 / loop(func(int) { sink = coldIm.Encode() })
	k["kernel.image.decode_mb_s"] = float64(len(enc)) * 1e3 / loop(func(int) {
		im, err := image.Decode(enc)
		must(err)
		sink = im
	})

	// isa: decode the generated program's text segment end to end.
	insns := 0
	for off := 0; off < len(text.Data); {
		_, size, err := isa.Decode(text.Data[off:])
		must(err)
		off += size
		insns++
	}
	k["kernel.isa.decode_ns"] = loop(func(int) {
		for off := 0; off < len(text.Data); {
			ins, size, _ := isa.Decode(text.Data[off:])
			off += size
			sink = ins.Op
		}
	}) / float64(insns)

	// mem: softmmu accesses over 64 resident pages, faults on absent ones.
	space := mem.NewSpace(4096)
	for p := uint64(16); p < 80; p++ {
		space.EnsurePage(p, mem.PermReadWrite)
	}
	addr := func(i int) uint64 { return 16<<12 + uint64(i*264)%(64<<12)&^7 }
	k["kernel.mem.load_ns"] = loop(func(i int) { v, _ := space.Load(addr(i), 8); sink = v })
	k["kernel.mem.store_ns"] = loop(func(i int) { space.Store(addr(i), uint64(i), 8) })
	k["kernel.mem.fault_ns"] = loop(func(i int) { _, f := space.Load(1<<30+uint64(i)<<12, 8); sink = f })
	page := make([]byte, 4096)
	k["kernel.mem.install_drop_ns"] = loop(func(i int) {
		space.InstallPage(1<<20+uint64(i&1023), page, mem.PermRead)
		space.DropPage(1<<20 + uint64(i&1023))
	})

	// tcg: host ns per guest instruction with the ladder cut at each rung,
	// on reduced-scale hot_compute inputs, and the cost of translating code
	// that runs once.
	options, rounds, repeats := 256, 4, 200
	if o.smoke {
		options, rounds, repeats = 32, 1, 10
	}
	bsIm, err := workloads.Blackscholes(4, options, rounds, 1)
	must(err)
	piIm, err := workloads.Pi(4, repeats, 100)
	must(err)
	perInsn := func(ims []*image.Image, reps int, set func(*core.Config), per func(*core.Result) float64) float64 {
		var samples []float64
		for r := 0; r < reps; r++ {
			var ns, work float64
			for _, im := range ims {
				cfg := core.DefaultConfig()
				set(&cfg)
				t0 := time.Now()
				res, err := core.Run(im, cfg)
				ns += float64(time.Since(t0))
				must(err)
				work += per(res)
			}
			samples = append(samples, ns/work)
			if o.smoke {
				break
			}
		}
		return median(samples)
	}
	execInsns := func(res *core.Result) float64 { return countsOf(res)[cExecInsns] }
	hot := []*image.Image{bsIm, piIm}
	k["kernel.tcg.interp_ns_per_insn"] = perInsn(hot, 1, func(c *core.Config) { c.Interp = true }, execInsns)
	k["kernel.tcg.tier1_ns_per_insn"] = perInsn(hot, 3, func(c *core.Config) { c.NoSuperblock = true }, execInsns)
	k["kernel.tcg.tier2_ns_per_insn"] = perInsn(hot, 3, func(c *core.Config) { c.NoTier3 = true }, execInsns)
	k["kernel.tcg.tier3_ns_per_insn"] = perInsn(hot, 3, func(*core.Config) {}, execInsns)
	k["kernel.tcg.cold_translate_ns_per_insn"] = perInsn([]*image.Image{coldIm}, 5, func(*core.Config) {},
		func(res *core.Result) float64 { return countsOf(res)[cTranslatedInsns] })

	// dsm: directory transactions against a stub Env. Each operation uses a
	// fresh page; preparation (earlier grants) is left out of the time.
	k["kernel.dsm.read_grant_ns"] = replay(o, func(n int) time.Duration {
		d := dsm.New(nullEnv{}, nil, nil)
		return timeN(n, func(i int) { d.OnRequest(dsm.Request{Node: 1 + i&3, TID: 2, Page: uint64(i)}) })
	})
	k["kernel.dsm.write_inval_ns"] = replay(o, func(n int) time.Duration {
		d := dsm.New(nullEnv{}, nil, nil)
		for i := 0; i < n; i++ {
			for node := 1; node <= 4; node++ {
				d.OnRequest(dsm.Request{Node: node, TID: 2, Page: uint64(i)})
			}
		}
		return timeN(n, func(i int) {
			d.OnRequest(dsm.Request{Node: 1, TID: 2, Page: uint64(i), Write: true})
			for node := 2; node <= 4; node++ {
				must(d.OnInvAck(node, uint64(i)))
			}
		})
	})
	k["kernel.dsm.fetch_reply_ns"] = replay(o, func(n int) time.Duration {
		d := dsm.New(nullEnv{}, nil, nil)
		for i := 0; i < n; i++ {
			d.OnRequest(dsm.Request{Node: 1, TID: 2, Page: uint64(i), Write: true})
		}
		return timeN(n, func(i int) {
			d.OnRequest(dsm.Request{Node: 2, TID: 3, Page: uint64(i)})
			must(d.OnFetchReply(1, uint64(i), page, false))
		})
	})
	k["kernel.dsm.forwarder_record_ns"] = replay(o, func(n int) time.Duration {
		f := dsm.NewForwarder(0, 0)
		return timeN(n, func(i int) { sink = f.Record(int64(i&7), uint64(i)) })
	})

	// proto: framing of a small request and of a page-carrying grant, and
	// the delta codec at 1 % and 50 % dirty words.
	small := &proto.Msg{Kind: proto.KPageReq, From: 1, To: 0, TID: 7, Page: 0x4100, Addr: 0x4100123, Write: true, Ver: 9}
	rng := rand.New(rand.NewSource(defaultSeed))
	base := make([]byte, 4096)
	rng.Read(base)
	big := &proto.Msg{Kind: proto.KPageContent, From: 0, To: 1, Page: 0x4100, Perm: uint8(mem.PermRead), Data: base}
	smallFrame, bigFrame := small.Encode()[4:], big.Encode()[4:]
	k["kernel.proto.encode_small_ns"] = loop(func(int) { sink = small.Encode() })
	k["kernel.proto.decode_small_ns"] = loop(func(int) { m, err := proto.Decode(smallFrame); must(err); sink = m })
	k["kernel.proto.encode_page_ns"] = loop(func(int) { sink = big.Encode() })
	k["kernel.proto.decode_page_ns"] = loop(func(int) { m, err := proto.Decode(bigFrame); must(err); sink = m })
	k["kernel.proto.encode_page_allocs"] = allocsPer(o, func(int) { sink = big.Encode() })
	dirty := func(words int) []byte {
		cur := append([]byte(nil), base...)
		for _, w := range rng.Perm(512)[:words] {
			cur[w*8] ^= 0xff
		}
		return cur
	}
	sparse, dense := dirty(5), dirty(256)
	k["kernel.proto.delta_encode_sparse_ns"] = loop(func(int) { b, _ := proto.EncodeDelta(base, sparse, 4096); sink = b })
	k["kernel.proto.delta_encode_dense_ns"] = loop(func(int) { b, _ := proto.EncodeDelta(base, dense, 4096); sink = b })
	delta, ok := proto.EncodeDelta(base, sparse, 4096)
	if !ok {
		return nil, fmt.Errorf("layer replay: the sparse delta did not encode")
	}
	dst := append([]byte(nil), base...)
	k["kernel.proto.delta_apply_ns"] = loop(func(int) { must(proto.ApplyDelta(dst, delta)) })

	// sim: one Post and one Step with 1024 events pending.
	kern := sim.NewKernel()
	nop := func() {}
	for i := 0; i < 1024; i++ {
		kern.Post(int64(1+i), nop)
	}
	postStep := func(i int) { kern.Post(int64(1+i&1023), nop); kern.Step() }
	k["kernel.sim.post_step_ns"] = loop(postStep)
	k["kernel.sim.post_step_allocs"] = allocsPer(o, postStep)

	// netsim: one message from send to handler, on an otherwise idle net.
	nk := sim.NewKernel()
	nw := netsim.New(nk, netsim.DefaultConfig(), 2)
	nw.Register(0, func(*proto.Msg) {})
	nw.Register(1, func(*proto.Msg) {})
	k["kernel.netsim.send_deliver_ns"] = loop(func(int) { nw.Send(small); nk.Run() })

	hist := metrics.NewRegistry().Histogram("replay")
	k["kernel.metrics.hist_observe_ns"] = loop(func(i int) { hist.Observe(int64(400_000 + i&0xffff)) })

	// Observability overhead: a reduced shared_cluster pass with
	// Config.Metrics or Config.Tracer on, against the same pass with both
	// off, interleaved.
	off, withMetrics, withTracer := observabilityPasses(o, must)
	k["kernel.metrics.run_overhead_pct"] = 100 * (withMetrics/off - 1)
	k["kernel.trace.run_overhead_pct"] = 100 * (withTracer/off - 1)

	// Job floor: a trivial prebuilt image through the daemon on each
	// backend. On live that is boot, handshake, image shipping and teardown.
	simMs, liveMs := emptyJobs(o, must)
	k["kernel.server.empty_job_ms"] = simMs
	k["kernel.live.empty_job_ms"] = liveMs
	k["kernel.live.vs_sim_ratio"] = liveMs / simMs
	return k, nil
}

// observabilityPasses returns the median host seconds of a reduced
// shared_cluster pass with observability off, with Config.Metrics, and with
// Config.Tracer.
func observabilityPasses(o options, must func(error)) (off, withMetrics, withTracer float64) {
	type in struct {
		im    func() (*image.Image, error)
		knobs knobs
	}
	ins := []in{
		{func() (*image.Image, error) { return workloads.Canneal(8, 4096, 400, defaultSeed) }, knobs{Slaves: 4, Forwarding: true, Splitting: true}},
		{func() (*image.Image, error) { return workloads.Dedup(2, 4, 2, 384, 256, 16) }, knobs{Slaves: 2, Forwarding: true, Splitting: true}},
		{func() (*image.Image, error) { return workloads.Streamcluster(12, 4096, 16, 3) }, knobs{Slaves: 3, Forwarding: true}},
		{func() (*image.Image, error) { return workloads.Fluidanimate(32, 96, 4, 4) }, knobs{Slaves: 4, Forwarding: true, Splitting: true, HintSched: true}},
	}
	if o.smoke {
		ins = []in{{func() (*image.Image, error) { return workloads.Canneal(4, 256, 40, defaultSeed) }, knobs{Slaves: 2, Forwarding: true, Splitting: true}}}
	}
	ims := make([]*image.Image, len(ins))
	for i := range ins {
		var err error
		ims[i], err = ins[i].im()
		must(err)
	}
	pass := func(set func(*core.Config)) float64 {
		t0 := time.Now()
		for i, im := range ims {
			cfg := ins[i].knobs.config()
			set(&cfg)
			_, err := core.Run(im, cfg)
			must(err)
		}
		return time.Since(t0).Seconds()
	}
	reps := 3
	if o.smoke {
		reps = 1
	}
	var a, b, c []float64
	for r := 0; r < reps; r++ {
		a = append(a, pass(func(*core.Config) {}))
		b = append(b, pass(func(cfg *core.Config) { cfg.Metrics = true }))
		c = append(c, pass(func(cfg *core.Config) { cfg.Tracer = trace.New(1<<16, io.Discard) }))
	}
	return median(a), median(b), median(c)
}

// emptyJobs returns the median submit-to-result latency, in ms, of a
// trivial prebuilt image on the sim and on the live backend (2 slaves).
func emptyJobs(o options, must func(error)) (simMs, liveMs float64) {
	w := &workload{Name: "empty_job", Jobs: &jobWorkload{Clients: 1}}
	d := &jobDriver{w: w, o: o}
	must(d.setup(nil))
	defer d.teardown()
	src, want := tinySource(1)
	im, err := grt.BuildProgram("tiny.mc", src)
	must(err)
	one := func(backend string, slaves int) float64 {
		bt := &builtTemplate{tpl: &jobTemplate{Name: "empty-" + backend, Knobs: knobs{Slaves: slaves}}, count: 1,
			image: im.Encode(), want: want}
		w.Jobs.Backend = backend
		d.tpls = []*builtTemplate{bt}
		return replay(o, func(n int) time.Duration {
			var total time.Duration
			for i := 0; i < n; i++ {
				jobs, err := d.makeBatch()
				must(err)
				t0 := time.Now()
				_, err = d.runJob(&jobs[0], nil, 0, 0)
				total += time.Since(t0)
				must(err)
			}
			return total
		}) / 1e6
	}
	return one("sim", 0), one("live", 2)
}

// estimates models each layer's share of host_s as count x replayed cost.
// They are estimates: the replays run each function alone on a warm cache,
// not in situ, so the shares need not add up and are a guide to where to
// look, not a measurement of the run.
func estimates(c simCounts, k map[string]float64, hostS float64, compiledJobs int, w *workload) map[string]float64 {
	hostNs := hostS * 1e9
	deltaPages := c[cDeltaPages] + c[cRLEPages]
	pages := deltaPages + c[cFullPages] + c[cSamePages]
	protoNs := deltaPages*(k["kernel.proto.delta_encode_sparse_ns"]+k["kernel.proto.delta_apply_ns"]) +
		c[cDeltaMisses]*k["kernel.proto.delta_encode_dense_ns"]
	if w.Jobs != nil && w.Jobs.Backend == "live" {
		// Only the live transport frames messages; the simulation passes
		// them by pointer.
		protoNs += (c[cMsgs]-pages)*(k["kernel.proto.encode_small_ns"]+k["kernel.proto.decode_small_ns"]) +
			pages*(k["kernel.proto.encode_page_ns"]+k["kernel.proto.decode_page_ns"])
	}
	dsmNs := c[cReads]*k["kernel.dsm.read_grant_ns"] + c[cWrites]*k["kernel.dsm.write_inval_ns"] +
		c[cFetches]*k["kernel.dsm.fetch_reply_ns"] + c[cReads]*k["kernel.dsm.forwarder_record_ns"]
	return map[string]float64{
		"est.translate_share":  c[cTranslatedInsns] * k["kernel.tcg.cold_translate_ns_per_insn"] / hostNs,
		"est.proto_share":      protoNs / hostNs,
		"est.dsm_share":        dsmNs / hostNs,
		"est.sim_netsim_share": c[cMsgs] * (k["kernel.netsim.send_deliver_ns"] + k["kernel.sim.post_step_ns"]) / hostNs,
		"est.toolchain_share":  float64(compiledJobs) * k["kernel.grt.build_small_ms"] * 1e6 / hostNs,
	}
}
