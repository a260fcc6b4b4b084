package main

import (
	"fmt"

	"dqemu/internal/core"
	"dqemu/internal/image"
	"dqemu/internal/workloads"
)

// defaultSeed is the seed expected.json pins references for.
const defaultSeed = 1

// knobs are the core.Config fields an input sets; every other field stays
// at core.DefaultConfig(). They are written to the record so a row can be
// reproduced from it.
type knobs struct {
	Slaves     int  `json:"slaves"`
	Forwarding bool `json:"forwarding"`
	Splitting  bool `json:"splitting"`
	HintSched  bool `json:"hint_sched"`
}

func (k knobs) config() core.Config {
	cfg := core.DefaultConfig()
	cfg.Slaves = k.Slaves
	cfg.Forwarding = k.Forwarding
	cfg.Splitting = k.Splitting
	cfg.HintSched = k.HintSched
	return cfg
}

// simInput is one guest program of a simulated workload. Exactly one of Gen
// and Build is set.
type simInput struct {
	Name  string
	Knobs knobs
	// Seeded says the program depends on -seed, so a pinned reference is
	// valid for the default seed only.
	Seeded bool
	// Gen generates mini-C text, which the benchmark compiles with
	// grt.BuildProgram, and a reference computed in Go by the generator.
	Gen func(seed int64, smoke bool) (src string, ref reference)
	// Build returns one of the repo's stock guest programs.
	Build func(seed int64, smoke bool) (*image.Image, error)
}

// coldInput builds the generated cold-code program whose main calls every
// function reps times.
func coldInput(reps int) simInput {
	return simInput{
		Name:   fmt.Sprintf("cold%d", reps),
		Seeded: true,
		Gen: func(seed int64, smoke bool) (string, reference) {
			funcs, stmts := 300, 15
			if smoke {
				funcs, stmts = 24, 6
			}
			p := genCold(seed, funcs, stmts, reps)
			return p.Source, reference{Exit: p.Result & 63, SHA: sha(fmt.Sprintf("acc=%d\n", p.Result))}
		},
	}
}

// simWorkload is one of the three workloads that run on the deterministic
// simulated cluster.
type simWorkload struct {
	Inputs []simInput
}

// jobTemplate is one kind of job a job workload submits.
type jobTemplate struct {
	Name  string
	Count int // jobs of this template in one batch
	Knobs knobs
	// Source, when set, makes each job's mini-C text from a serial number
	// unique in the run, so admission really compiles; otherwise the job
	// carries the prebuilt Image.
	Source func(serial int) (src string, ref reference)
	Build  func(smoke bool) (*image.Image, error)
}

// jobWorkload drives the daemon's HTTP surface in a closed loop.
type jobWorkload struct {
	Backend   string
	Clients   int
	Templates []jobTemplate
}

type workload struct {
	Name string
	Why  string
	// Warmup is the number of unmeasured iterations and Timed the least
	// number of timed ones; the timed loop also lasts at least -seconds. An
	// iteration is one pass over the inputs (sim) or one batch of jobs. This
	// is the one table of iteration counts.
	Warmup, Timed int
	Sim           *simWorkload
	Jobs          *jobWorkload
}

var workloadTable = []workload{
	{
		Name: "hot_compute", Warmup: 1, Timed: 15,
		Why: "single-node compute suite: tier-3 closures and the inline TLB retire >98% of instructions while dsm/proto/netsim idle; a translator change shows here and a protocol change must not",
		Sim: &simWorkload{Inputs: []simInput{
			{Name: "pi", Build: func(_ int64, smoke bool) (*image.Image, error) {
				if smoke {
					return workloads.Pi(4, 50, 50)
				}
				return workloads.Pi(8, 1600, 100)
			}},
			{Name: "blackscholes", Build: func(_ int64, smoke bool) (*image.Image, error) {
				if smoke {
					return workloads.Blackscholes(4, 64, 2, 1)
				}
				return workloads.Blackscholes(8, 4096, 16, 1)
			}},
			{Name: "swaptions", Build: func(_ int64, smoke bool) (*image.Image, error) {
				if smoke {
					return workloads.Swaptions(4, 4, 20, 1)
				}
				return workloads.Swaptions(8, 48, 300, 1)
			}},
			{Name: "x264", Build: func(_ int64, smoke bool) (*image.Image, error) {
				if smoke {
					return workloads.X264(4, 2, 3)
				}
				return workloads.X264(8, 4, 96)
			}},
		}},
	},
	{
		Name: "cold_code", Warmup: 1, Timed: 40,
		Why: "seeded generator of ~300 straight-line functions called 4, 30 and 120 times: decode, block translation, chaining and promotion dominate, so reshaping tiers 1-2 shows here and not on hot_compute",
		Sim: &simWorkload{Inputs: []simInput{coldInput(4), coldInput(30), coldInput(120)}},
	},
	{
		Name: "shared_cluster", Warmup: 1, Timed: 11,
		Why: "sharing-heavy guests on 2-4 simulated slaves: ~70x the messages per instruction of hot_compute, so delta codec, directory, netsim and allocation dominate; four sharing patterns side by side",
		Sim: &simWorkload{Inputs: []simInput{
			{Name: "canneal", Seeded: true, Knobs: knobs{Slaves: 4, Forwarding: true, Splitting: true},
				Build: func(seed int64, smoke bool) (*image.Image, error) {
					if smoke {
						return workloads.Canneal(4, 256, 40, seed)
					}
					return workloads.Canneal(8, 16384, 2000, seed)
				}},
			{Name: "dedup", Knobs: knobs{Slaves: 2, Forwarding: true, Splitting: true},
				Build: func(_ int64, smoke bool) (*image.Image, error) {
					if smoke {
						return workloads.Dedup(1, 2, 1, 12, 8, 4)
					}
					return workloads.Dedup(2, 4, 2, 2048, 256, 16)
				}},
			// Forwarding only: with Splitting on, streamcluster's futex
			// barrier deadlocks at this commit (see README, known issues).
			{Name: "streamcluster", Knobs: knobs{Slaves: 3, Forwarding: true},
				Build: func(_ int64, smoke bool) (*image.Image, error) {
					if smoke {
						return workloads.Streamcluster(3, 96, 4, 2)
					}
					return workloads.Streamcluster(12, 16384, 16, 6)
				}},
			{Name: "fluidanimate", Knobs: knobs{Slaves: 4, Forwarding: true, Splitting: true, HintSched: true},
				Build: func(_ int64, smoke bool) (*image.Image, error) {
					if smoke {
						return workloads.Fluidanimate(4, 16, 2, 2)
					}
					return workloads.Fluidanimate(32, 192, 6, 4)
				}},
		}},
	},
	{
		Name: "daemon_jobs", Warmup: 1, Timed: 12,
		Why: "dqemud in process behind httptest, sim backend, 2 closed-loop clients, 60/30/10 tiny/threads/bs-image: minicc/asm/grt, admission, queueing and JSON dominate; the translator barely matters",
		Jobs: &jobWorkload{Backend: "sim", Clients: 2, Templates: []jobTemplate{
			{Name: "tiny", Count: 30, Source: tinySource},
			{Name: "threads", Count: 15, Knobs: knobs{Slaves: 2}, Source: threadsSource},
			{Name: "bs-image", Count: 5, Knobs: knobs{Slaves: 2, Forwarding: true, Splitting: true},
				Build: func(bool) (*image.Image, error) { return workloads.Blackscholes(4, 64, 2, 2) }},
		}},
	},
	{
		Name: "live_tcp", Warmup: 1, Timed: 10,
		Why: "same server, live backend: a real-socket cluster of 2 slaves per job, 1 closed-loop client, 60/25/15 bs/pi/fluid prebuilt images: boot, handshake, image shipping, TCP framing and true concurrency",
		Jobs: &jobWorkload{Backend: "live", Clients: 1, Templates: []jobTemplate{
			{Name: "bs", Count: 12, Knobs: knobs{Slaves: 2},
				Build: func(smoke bool) (*image.Image, error) {
					if smoke {
						return workloads.Blackscholes(4, 64, 2, 2)
					}
					return workloads.Blackscholes(8, 2048, 10, 2)
				}},
			{Name: "pi", Count: 5, Knobs: knobs{Slaves: 2},
				Build: func(smoke bool) (*image.Image, error) {
					if smoke {
						return workloads.Pi(4, 50, 50)
					}
					return workloads.Pi(8, 1200, 100)
				}},
			{Name: "fluid", Count: 3, Knobs: knobs{Slaves: 2},
				Build: func(smoke bool) (*image.Image, error) {
					if smoke {
						return workloads.Fluidanimate(4, 16, 2, 2)
					}
					return workloads.Fluidanimate(8, 128, 10, 2)
				}},
		}},
	},
}

// tinySource is the one-line job: a unique constant makes each source
// distinct, so the daemon compiles every submission. The reference is
// predicted here, not read back from the system.
func tinySource(serial int) (string, reference) {
	c := 100000 + serial%900000
	src := fmt.Sprintf("long main() { print_str(\"tiny \"); print_long(%d); print_char('\\n'); return %d; }\n", c, c&63)
	return src, reference{Exit: int64(c & 63), SHA: sha(fmt.Sprintf("tiny %d\n", c))}
}

// threadsSource is 4 threads x 20k iterations of private arithmetic, each
// writing one page-separated result slot; the sum is closed-form.
func threadsSource(serial int) (string, reference) {
	c := int64(1 + serial%1000)
	src := fmt.Sprintf(`
long results[2048];
long worker(long idx) {
	long acc = 0;
	for (long i = 0; i < 20000; i++) acc += (i ^ idx) + %d;
	results[idx * 512] = acc;
	return 0;
}
long main() {
	long tids[4];
	for (long i = 0; i < 4; i++) tids[i] = thread_create((long)worker, i);
	for (long i = 0; i < 4; i++) thread_join(tids[i]);
	long sum = 0;
	for (long i = 0; i < 4; i++) sum += results[i * 512];
	print_str("threads ");
	print_long(sum);
	print_char('\n');
	return 0;
}
`, c)
	var sum int64
	for idx := int64(0); idx < 4; idx++ {
		for i := int64(0); i < 20000; i++ {
			sum += (i ^ idx) + c
		}
	}
	return src, reference{SHA: sha(fmt.Sprintf("threads %d\n", sum))}
}

func findWorkload(name string) (*workload, bool) {
	for i := range workloadTable {
		if workloadTable[i].Name == name {
			return &workloadTable[i], true
		}
	}
	return nil, false
}
