package core

import (
	"bytes"
	"fmt"
	"math/rand"
	"strings"
	"testing"

	"dqemu/internal/guestos"
	"dqemu/internal/image"
)

// TestDifferentialRandomPrograms generates random (but deterministic)
// multi-threaded guest programs and checks that every cluster size and
// optimization combination produces byte-identical console output. This is
// the strongest end-to-end statement about the DSM: distribution must be
// invisible to the guest.
func TestDifferentialRandomPrograms(t *testing.T) {
	r := rand.New(rand.NewSource(987))
	variants := []Config{}
	for _, slaves := range []int{0, 1, 3} {
		cfg := DefaultConfig()
		cfg.Slaves = slaves
		variants = append(variants, cfg)
	}
	{
		cfg := DefaultConfig()
		cfg.Slaves = 2
		cfg.Forwarding = true
		cfg.Splitting = true
		variants = append(variants, cfg)
	}
	{
		cfg := DefaultConfig()
		cfg.Slaves = 4
		cfg.HintSched = true
		cfg.PageSize = 1024
		variants = append(variants, cfg)
	}
	{
		cfg := DefaultConfig()
		cfg.Slaves = 2
		cfg.QuantumNs = 5_000
		cfg.Splitting = true
		cfg.SplitFactor = 8
		variants = append(variants, cfg)
	}
	// Translator ablation: the block interpreter alone (no trace
	// promotion). The default variants above already run compiled traces.
	{
		cfg := DefaultConfig()
		cfg.Slaves = 1
		cfg.NoSuperblock = true
		variants = append(variants, cfg)
	}

	const programs = 8
	for p := 0; p < programs; p++ {
		src := genProgram(r)
		im := build(t, src)
		var want string
		for vi, cfg := range variants {
			res, err := Run(im, cfg)
			if err != nil {
				t.Fatalf("program %d variant %d: %v\nsource:\n%s", p, vi, err, src)
			}
			if res.ExitCode != 0 {
				t.Fatalf("program %d variant %d: exit %d, console %q\nsource:\n%s",
					p, vi, res.ExitCode, res.Console, src)
			}
			if vi == 0 {
				want = res.Console
				continue
			}
			if res.Console != want {
				t.Fatalf("program %d variant %d diverged:\n got %q\nwant %q\nsource:\n%s",
					p, vi, res.Console, want, src)
			}
		}
	}
}

// tierConfigs returns every rung of the translation ladder on a single
// node: the pure interpreter, cached and chained blocks, and compiled
// traces — the three-way differential matrix for the translator.
func tierConfigs() map[string]Config {
	blocks := DefaultConfig()
	blocks.NoSuperblock = true

	interp := DefaultConfig()
	interp.Interp = true
	interp.NoSuperblock = true

	return map[string]Config{"interp": interp, "blocks": blocks, "compiled": DefaultConfig()}
}

// tierState is the architecturally visible outcome of a run: console bytes,
// exit code, the main thread's final registers, and every writable image
// segment's memory.
type tierState struct {
	console    string
	exitCode   int64
	x          [32]uint64
	f          [32]float64
	pc         uint64
	mem        []byte
	tier3Insns uint64

	verifiedSB  uint64
	verifyDemos uint64
	verifiedT3  uint64
	t3CheckFail uint64
}

// runTier executes im under cfg and captures the final architectural state
// from inside the cluster.
func runTier(t *testing.T, im *image.Image, cfg Config) tierState {
	t.Helper()
	c, err := NewCluster(im, cfg)
	if err != nil {
		t.Fatal(err)
	}
	// The main thread's CPU outlives its bookkeeping entry; grab it now so
	// its registers can be inspected after the exit syscall retires it.
	mainCPU := c.master.node.threads[guestos.MainTID].cpu
	res, err := c.simulate(maxTimeNs)
	if err != nil {
		t.Fatal(err)
	}
	st := tierState{console: res.Console, exitCode: res.ExitCode,
		x: mainCPU.X, f: mainCPU.F, pc: mainCPU.PC}
	for _, n := range res.Nodes {
		st.tier3Insns += n.Engine.Tier3Insns
		st.verifiedSB += n.Engine.VerifiedSuperblocks
		st.verifyDemos += n.Engine.VerifyDemotions
		st.verifiedT3 += n.Engine.VerifiedTier3
		st.t3CheckFail += n.Engine.Tier3CheckFailures
	}
	for _, seg := range im.Segments {
		if !seg.Writable {
			continue
		}
		buf := make([]byte, seg.MemSize)
		if err := c.master.node.space.ReadBytes(seg.Addr, buf); err != nil {
			t.Fatalf("dump segment %s: %v", seg.Name, err)
		}
		st.mem = append(st.mem, buf...)
	}
	return st
}

// TestDifferentialTiers proves the ladder's coherence claim end to end:
// the interpreter, cached blocks and compiled traces all leave bit-identical
// architectural state — registers and memory — for the same guest program,
// not just identical console output. The compiled rung must also demonstrably
// run closures rather than silently staying on the block interpreter, and the
// other two must not.
func TestDifferentialTiers(t *testing.T) {
	r := rand.New(rand.NewSource(4242))
	const programs = 4
	for p := 0; p < programs; p++ {
		src := genProgram(r)
		im := build(t, src)

		want := runTier(t, im, tierConfigs()["interp"])
		for name, cfg := range tierConfigs() {
			if name == "interp" {
				continue
			}
			got := runTier(t, im, cfg)
			if (name == "compiled") != (got.tier3Insns != 0) {
				t.Errorf("program %d tier %s retired %d instructions on compiled closures", p, name, got.tier3Insns)
			}
			if got.console != want.console || got.exitCode != want.exitCode {
				t.Fatalf("program %d tier %s output diverged:\n got %q (exit %d)\nwant %q (exit %d)\nsource:\n%s",
					p, name, got.console, got.exitCode, want.console, want.exitCode, src)
			}
			if got.x != want.x || got.f != want.f || got.pc != want.pc {
				t.Fatalf("program %d tier %s registers diverged:\n got pc=%#x x=%v\nwant pc=%#x x=%v\nsource:\n%s",
					p, name, got.pc, got.x, want.pc, want.x, src)
			}
			if !bytes.Equal(got.mem, want.mem) {
				for i := range got.mem {
					if got.mem[i] != want.mem[i] {
						t.Fatalf("program %d tier %s memory diverged at writable-segment offset %#x: got %#x want %#x\nsource:\n%s",
							p, name, i, got.mem[i], want.mem[i], src)
					}
				}
			}
		}
	}
}

// TestDifferentialTiersVerified re-runs the compiled rung with translate-time
// translation validation on: every trace the translator produces must be
// symbolically proved against the per-instruction reference semantics and
// its closure compilation must pass the structural checker — with zero
// demotions and zero rejections, on real multi-threaded guest programs,
// while the architectural state still matches the unverified interpreter's.
func TestDifferentialTiersVerified(t *testing.T) {
	r := rand.New(rand.NewSource(1717))
	const programs = 2
	for p := 0; p < programs; p++ {
		src := genProgram(r)
		im := build(t, src)

		base := runTier(t, im, tierConfigs()["interp"])
		cfg := tierConfigs()["compiled"] // the only rung that builds traces
		cfg.Verify = true
		got := runTier(t, im, cfg)
		if got.verifyDemos != 0 {
			t.Errorf("program %d: %d verify demotions on a sound translator", p, got.verifyDemos)
		}
		if got.t3CheckFail != 0 {
			t.Errorf("program %d: %d structural check failures", p, got.t3CheckFail)
		}
		if got.verifiedSB == 0 || got.verifiedT3 != got.verifiedSB {
			t.Errorf("program %d: %d traces proved, %d compilations checked; want every trace, and at least one",
				p, got.verifiedSB, got.verifiedT3)
		}
		if got.console != base.console || got.exitCode != base.exitCode ||
			got.x != base.x || got.f != base.f || got.pc != base.pc || !bytes.Equal(got.mem, base.mem) {
			t.Fatalf("program %d diverged under -verify\nsource:\n%s", p, src)
		}
	}
}

// genProgram builds a random guest program whose output is schedule
// independent: workers combine results only through per-thread slots,
// commutative atomic adds/xors, and barrier-separated phases.
func genProgram(r *rand.Rand) string {
	threads := 2 + r.Intn(7)    // 2..8
	loops := 20 + r.Intn(200)   // per-thread work
	arrLen := 64 + r.Intn(1024) // shared array
	useBarrier := r.Intn(2) == 0
	useMutex := r.Intn(2) == 0

	var sb strings.Builder
	fmt.Fprintf(&sb, "long THREADS = %d;\n", threads)
	fmt.Fprintf(&sb, "long LOOPS = %d;\n", loops)
	fmt.Fprintf(&sb, "long arr[%d];\n", arrLen)
	sb.WriteString("long slots[16];\nlong acc;\nlong lock;\nlong bar[3];\n")

	// Random per-thread function of (idx, i).
	expr := genExpr(r, 3)
	fmt.Fprintf(&sb, `
long f(long idx, long i) {
	long x = %s;
	return x;
}

long worker(long idx) {
	long mine = 0;
	long chunk = %d / THREADS;
	for (long i = 0; i < LOOPS; i++) {
		long v = f(idx, i);
		mine = mine ^ v + i;
		arr[idx * chunk + (i %% chunk)] += v & 1023;
	}
`, expr, arrLen)
	if useMutex {
		sb.WriteString("\tmutex_lock(&lock);\n\tacc += mine;\n\tmutex_unlock(&lock);\n")
	} else {
		sb.WriteString("\t__amoadd(&acc, mine);\n")
	}
	if useBarrier {
		sb.WriteString("\tbarrier_wait(bar);\n")
	}
	sb.WriteString("\tslots[idx] = mine;\n\treturn 0;\n}\n")

	fmt.Fprintf(&sb, `
long main() {
	barrier_init(bar, THREADS);
	long tids[16];
	for (long i = 0; i < THREADS; i++) tids[i] = thread_create((long)worker, i);
	for (long i = 0; i < THREADS; i++) thread_join(tids[i]);
	long sum = 0;
	for (long i = 0; i < %d; i++) sum = sum * 31 + arr[i];
	long ssum = 0;
	for (long i = 0; i < THREADS; i++) ssum = ssum ^ slots[i];
	print_long(sum);
	print_char(' ');
	print_long(ssum);
	print_char(' ');
	print_long(acc);
	print_char('\n');
	return 0;
}
`, arrLen)
	return sb.String()
}

// genExpr builds a random arithmetic expression over idx and i.
func genExpr(r *rand.Rand, depth int) string {
	if depth == 0 || r.Intn(4) == 0 {
		switch r.Intn(3) {
		case 0:
			return "idx"
		case 1:
			return "i"
		default:
			return fmt.Sprint(r.Intn(1000) + 1)
		}
	}
	ops := []string{"+", "-", "*", "&", "|", "^"}
	op := ops[r.Intn(len(ops))]
	return fmt.Sprintf("(%s %s %s)", genExpr(r, depth-1), op, genExpr(r, depth-1))
}
