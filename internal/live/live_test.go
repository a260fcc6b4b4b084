package live

import (
	"crypto/sha256"
	"fmt"
	"net"
	"testing"
	"time"

	"dqemu/internal/core"
	"dqemu/internal/grt"
	"dqemu/internal/image"
	"dqemu/internal/workloads"
)

// runLive starts a master and slaves goroutines over loopback TCP and runs
// the image to completion.
func runLive(t *testing.T, im *image.Image, cfg Config) *Result {
	t.Helper()
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer ln.Close()
	if cfg.Timeout == 0 {
		cfg.Timeout = 60 * time.Second
	}
	for i := 0; i < cfg.Core.Slaves; i++ {
		go func() {
			if _, err := RunSlave(ln.Addr().String()); err != nil {
				t.Errorf("slave: %v", err)
			}
		}()
	}
	res, err := RunMaster(ln, im, cfg)
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
	res := runLive(t, im, Config{Core: core.Config{Slaves: 0}})
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
	res := runLive(t, im, Config{Core: core.Config{Slaves: 2}})
	// 800 lock-protected increments, and all 4 workers ran on slave nodes.
	if res.Console != "800 4\n" {
		t.Errorf("console = %q", res.Console)
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
	res := runLive(t, im, Config{Core: core.Config{Slaves: 3}})
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
// and on, and live runs each with the wire layer off (what LiveBackend and
// dqemu-live ship) and on.
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
		name                          string
		forward, splitting, hintSched bool
	}{
		{name: "plain"},
		{"fwd+split+hints", true, true, true},
	}
	for _, g := range guests {
		im, err := g.build()
		if err != nil {
			t.Fatalf("%s: %v", g.name, err)
		}
		for _, k := range knobs {
			cfg := core.Config{Slaves: 2, Forwarding: k.forward, Splitting: k.splitting, HintSched: k.hintSched}
			want, err := core.Run(im, cfg)
			if err != nil {
				t.Fatalf("%s/%s: simulation: %v", g.name, k.name, err)
			}
			for _, wire := range []bool{false, true} {
				cfg.NoDelta, cfg.NoCoalesce = !wire, !wire
				t.Run(fmt.Sprintf("%s/%s/wire=%v", g.name, k.name, wire), func(t *testing.T) {
					got := runLive(t, im, Config{Core: cfg})
					if got.ExitCode != want.ExitCode || sha256.Sum256([]byte(got.Console)) != sha256.Sum256([]byte(want.Console)) {
						t.Errorf("live exit %d console %q\n sim exit %d console %q",
							got.ExitCode, got.Console, want.ExitCode, want.Console)
					}
				})
			}
		}
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
	res := runLive(t, im, Config{Core: core.Config{Slaves: 1, Forwarding: true, Splitting: true}, Files: map[string][]byte{"/seed.txt": []byte("3")}})
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
	res := runLive(t, im, Config{Core: core.Config{Slaves: 1}})
	if res.ExitCode != 0 || res.Console != "slept\n" {
		t.Errorf("exit=%d console=%q", res.ExitCode, res.Console)
	}
}
