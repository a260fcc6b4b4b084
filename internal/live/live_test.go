package live

import (
	"crypto/sha256"
	"errors"
	"fmt"
	"testing"
	"time"

	"dqemu/internal/core"
	"dqemu/internal/grt"
	"dqemu/internal/image"
	"dqemu/internal/netsim"
	"dqemu/internal/workloads"
)

// runLive runs the image on an in-process cluster (Run) in which nothing
// may fail.
func runLive(t *testing.T, im *image.Image, cfg Config) *core.Result {
	t.Helper()
	if cfg.Timeout == 0 {
		cfg.Timeout = 60 * time.Second
	}
	res, err := Run(im, cfg)
	if err != nil {
		t.Fatal(err)
	}
	return res
}

func build(t *testing.T, src string) *image.Image {
	t.Helper()
	im, err := grt.BuildProgram("live.mc", src)
	if err != nil {
		t.Fatal(err)
	}
	return im
}

func TestLiveHello(t *testing.T) {
	im := build(t, `
long main() {
	print_str("hello over tcp\n");
	return 0;
}`)
	res := runLive(t, im, Config{Core: core.Config{Shape: core.Shape{Slaves: 0}}})
	if res.Console != "hello over tcp\n" || res.ExitCode != 0 {
		t.Errorf("console=%q exit=%d", res.Console, res.ExitCode)
	}
}

func TestLiveThreadsAcrossNodes(t *testing.T) {
	im := build(t, `
long counter;
long lock;
long nodesSeen[8];
long worker(long idx) {
	nodesSeen[idx] = node_id();
	for (long i = 0; i < 200; i++) {
		mutex_lock(&lock);
		counter += 1;
		mutex_unlock(&lock);
	}
	return 0;
}
long main() {
	long tids[4];
	for (long i = 0; i < 4; i++) tids[i] = thread_create((long)worker, i);
	for (long i = 0; i < 4; i++) thread_join(tids[i]);
	print_long(counter);
	print_char(' ');
	long remote = 0;
	for (long i = 0; i < 4; i++) {
		if (nodesSeen[i] != 0) remote += 1;
	}
	print_long(remote);
	print_char('\n');
	return 0;
}`)
	res := runLive(t, im, Config{Core: core.Config{Shape: core.Shape{Slaves: 2}}})
	// 800 lock-protected increments, and all 4 workers ran on slave nodes.
	if res.Console != "800 4\n" {
		t.Errorf("console = %q", res.Console)
	}
	// Run reports every node, in node-id order; the workers ran on the slaves.
	if len(res.Nodes) != 3 {
		t.Fatalf("%d nodes reported, want 3", len(res.Nodes))
	}
	for id, n := range res.Nodes {
		if n.Node != id || (id > 0 && n.Engine.ExecInsns == 0) {
			t.Errorf("Nodes[%d] = node %d, %d insns", id, n.Node, n.Engine.ExecInsns)
		}
	}
}

func TestLiveBarrierAndSharing(t *testing.T) {
	im := build(t, `
long bar[3];
long grid[64];
long worker(long idx) {
	for (long round = 0; round < 3; round++) {
		grid[idx * 8 + round] = idx + round;
		barrier_wait(bar);
	}
	return 0;
}
long main() {
	barrier_init(bar, 7);
	long tids[6];
	for (long i = 0; i < 6; i++) tids[i] = thread_create((long)worker, i);
	for (long round = 0; round < 3; round++) barrier_wait(bar);
	for (long i = 0; i < 6; i++) thread_join(tids[i]);
	long sum = 0;
	for (long i = 0; i < 64; i++) sum += grid[i];
	print_long(sum);
	print_char('\n');
	return 0;
}`)
	res := runLive(t, im, Config{Core: core.Config{Shape: core.Shape{Slaves: 3}}})
	// sum = sum over idx 0..5, round 0..2 of (idx+round) = 3*15 + 6*3 = 63
	if res.Console != "63\n" {
		t.Errorf("console = %q", res.Console)
	}
}

// TestLiveMatchesSimulation is the standing sim-vs-live oracle: guests whose
// console does not depend on the schedule must produce the same exit code
// and console under the deterministic simulation and under true concurrency
// over TCP — the same engine on both, so a divergence is a transport or
// ordering bug, not a second implementation drifting. The guests are a
// mini-C program plus the workloads the scenario suite pins by console hash,
// at its smoke scale; every row runs on 2 slaves with the optimizations off
// and on, and live runs each with the wire layer off and on (what every
// entry point ships) and then, wire layer on, under a fault plan the
// reliable layer must repair: the console of the fault-free simulation is
// still the reference, so a duplicated write or futex wake that got through
// would show.
func TestLiveMatchesSimulation(t *testing.T) {
	guests := []struct {
		name  string
		build func() (*image.Image, error)
	}{
		{"minic", func() (*image.Image, error) {
			return grt.BuildProgram("live.mc", `
long acc;
long results[8];
long worker(long idx) {
	long x = 0;
	for (long i = 0; i < 2000; i++) x = x * 31 + (idx ^ i);
	results[idx] = x;
	__amoadd(&acc, x & 0xffff);
	return 0;
}
long main() {
	long tids[8];
	for (long i = 0; i < 8; i++) tids[i] = thread_create((long)worker, i);
	for (long i = 0; i < 8; i++) thread_join(tids[i]);
	long h = 0;
	for (long i = 0; i < 8; i++) h = h ^ results[i];
	print_long(h);
	print_char(' ');
	print_long(acc);
	print_char('\n');
	return 0;
}`)
		}},
		{"pi", func() (*image.Image, error) { return workloads.Pi(8, 100, 100) }},
		{"blackscholes", func() (*image.Image, error) { return workloads.Blackscholes(8, 256, 2, 2) }},
		{"swaptions", func() (*image.Image, error) { return workloads.Swaptions(8, 24, 30, 2) }},
		{"fluidanimate", func() (*image.Image, error) { return workloads.Fluidanimate(32, 192, 1, 4) }},
		{"dedup", func() (*image.Image, error) { return workloads.Dedup(4, 4, 2, 75, 256, 16) }},
		{"streamcluster", func() (*image.Image, error) { return workloads.Streamcluster(8, 2048, 8, 2) }},
	}
	knobs := []struct {
		name  string
		knobs core.Knobs
	}{
		{name: "plain"},
		{"fwd+split+hints", core.Knobs{Forwarding: true, Splitting: true, HintSched: true}},
	}
	for _, g := range guests {
		im, err := g.build()
		if err != nil {
			t.Fatalf("%s: %v", g.name, err)
		}
		for _, k := range knobs {
			cfg := core.Config{Shape: core.Shape{Slaves: 2}, Knobs: k.knobs}
			want, err := core.Run(im, cfg)
			if err != nil {
				t.Fatalf("%s/%s: simulation: %v", g.name, k.name, err)
			}
			same := func(t *testing.T, cfg core.Config) *core.Result {
				got := runLive(t, im, Config{Core: cfg})
				if got.ExitCode != want.ExitCode || sha256.Sum256([]byte(got.Console)) != sha256.Sum256([]byte(want.Console)) {
					t.Errorf("live exit %d console %q\n sim exit %d console %q",
						got.ExitCode, got.Console, want.ExitCode, want.Console)
				}
				return got
			}
			for _, wire := range []bool{false, true} {
				cfg.NoDelta, cfg.NoCoalesce = !wire, !wire
				t.Run(fmt.Sprintf("%s/%s/wire=%v", g.name, k.name, wire), func(t *testing.T) { same(t, cfg) })
			}
			if !k.knobs.Forwarding {
				continue // the fault arm runs once per guest, on the busier protocol
			}
			cfg.Faults, cfg.Retry = &recoverable, fastRetry
			t.Run(fmt.Sprintf("%s/%s/faults", g.name, k.name), func(t *testing.T) {
				got := same(t, cfg)
				t.Logf("%v: injected %+v, reliable layer %+v", time.Duration(got.TimeNs), got.Faults, got.Rel)
				if got.Faults.Dropped == 0 || got.Faults.Duplicated == 0 || got.Rel.Retransmits == 0 {
					t.Errorf("the plan did not bite: injected %+v, reliable layer %+v", got.Faults, got.Rel)
				}
			})
		}
	}
}

// recoverable is a fault plan the reliable layer must absorb: loss,
// duplication, jitter, reordering and one stalled slave, at rates that hit
// even the smallest guest above a few times.
var recoverable = netsim.FaultPlan{
	Seed: 20, DropRate: 0.03, DupRate: 0.03, JitterNs: 200_000, ReorderRate: 0.03,
	Stalls: []netsim.Window{{Node: 1, FromNs: 2_000_000, ToNs: 12_000_000}},
}

// fastRetry keeps the fault tests short: a dropped frame costs 2 ms, not
// wallRetry's 50 (dedup loses a thousand, mostly one after another). The
// give-up horizon stays at two seconds, so a loaded runner cannot turn a
// slow ack into a lost node; a retransmission that was not needed is only a
// duplicate for the receiver to drop.
var fastRetry = netsim.RetryPolicy{BaseRTONs: 2_000_000, MaxRTONs: 200_000_000, MaxAttempts: 16}

// TestLiveChaos puts the socket transport in front of the seeded battery the
// simulator faces (TestChaosShort): the same plans from the same seeds on the
// same self-checking torture guest, both classes. A recoverable plan must end
// in the fault-free simulation's exit code and console; a crash plan — the
// guest sized to still be running when the crash lands — in a
// *core.NodeLostError naming the slave the plan cut off, long before Timeout.
func TestLiveChaos(t *testing.T) {
	for _, seed := range []int64{1, 2, 7, 13, 20, 27} {
		plan, class := netsim.PlanForSeed(seed, 2)
		rounds := 24
		if class == "crash" {
			rounds = 1500 // ≈ 0.3 s fault-free; the plans crash within 40 ms
		}
		im, err := workloads.Torture(4, rounds)
		if err != nil {
			t.Fatal(err)
		}
		t.Run(fmt.Sprintf("%s/seed=%d", class, seed), func(t *testing.T) {
			t.Parallel()
			cfg := core.Config{Shape: core.Shape{Slaves: 2}, Faults: &plan, Retry: fastRetry}
			start := time.Now()
			got, err := Run(im, Config{Core: cfg, Timeout: 60 * time.Second})
			if class == "recoverable" {
				want, simErr := core.Run(im, core.Config{Shape: core.Shape{Slaves: 2}})
				if simErr != nil {
					t.Fatal(simErr)
				}
				if err != nil {
					t.Fatalf("[%v] %v", &plan, err)
				}
				if got.ExitCode != want.ExitCode || got.Console != want.Console {
					t.Errorf("[%v] live exit %d console %q\n sim exit %d console %q",
						&plan, got.ExitCode, got.Console, want.ExitCode, want.Console)
				}
				if got.Rel.Retransmits == 0 {
					t.Errorf("[%v] nothing was retransmitted: injected %+v, reliable layer %+v", &plan, got.Faults, got.Rel)
				}
				return
			}
			var lost *core.NodeLostError
			if !errors.As(err, &lost) || int32(lost.Node) != plan.Crashes[0].Node {
				t.Errorf("[%v] want a NodeLostError naming node %d, got %v", &plan, plan.Crashes[0].Node, err)
			}
			if elapsed := time.Since(start); elapsed > 20*time.Second {
				t.Errorf("[%v] took %v to notice", &plan, elapsed)
			}
			// The slave that was cut off may have given up on the master
			// first; nothing else may have gone wrong on a slave. Run joins
			// the slaves' errors after the master's.
			var slaves []error
			if joined, ok := err.(interface{ Unwrap() []error }); ok {
				slaves = joined.Unwrap()[1:]
			}
			for _, e := range slaves {
				if !errors.As(e, &lost) || lost.Node != 0 {
					t.Errorf("[%v] slave: %v", &plan, e)
				}
			}
		})
	}
}

func TestLiveVFSAndOptimizations(t *testing.T) {
	im := build(t, `
long data[8192];
long out;
long worker(long a) {
	long s = 0;
	for (long i = 0; i < 8192; i++) s += data[i];
	out = s;
	return 0;
}
long main() {
	long fd = open_file("/seed.txt", 0);
	char buf[4];
	sys_read(fd, buf, 1);
	long seed = buf[0] - '0';
	for (long i = 0; i < 8192; i++) data[i] = seed;
	thread_join(thread_create((long)worker, 0));
	print_long(out);
	print_char('\n');
	return 0;
}`)
	res := runLive(t, im, Config{Core: core.Config{Shape: core.Shape{Slaves: 1}, Knobs: core.Knobs{Forwarding: true, Splitting: true}}, Files: map[string][]byte{"/seed.txt": []byte("3")}})
	if res.Console != "24576\n" {
		t.Errorf("console = %q", res.Console)
	}
}

func TestLiveSleepAndTime(t *testing.T) {
	im := build(t, `
long main() {
	long t0 = now_ns();
	sleep_ns(20000000);   // 20 ms wall time
	long t1 = now_ns();
	if (t1 - t0 < 15000000) return 1;
	print_str("slept\n");
	return 0;
}`)
	res := runLive(t, im, Config{Core: core.Config{Shape: core.Shape{Slaves: 1}}})
	if res.ExitCode != 0 || res.Console != "slept\n" {
		t.Errorf("exit=%d console=%q", res.ExitCode, res.Console)
	}
}
