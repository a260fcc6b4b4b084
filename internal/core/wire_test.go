package core

import (
	"testing"

	"dqemu/internal/mem"
	"dqemu/internal/netsim"
	"dqemu/internal/proto"
)

// wireShareSrc is a sharing-heavy guest: a mutex-protected counter page
// ping-pongs between nodes (write upgrades — the EncSame sweet spot), a
// striped array gives each node dirty pages the master must fetch back
// (delta replies), and a barrier-separated reduce forces cross-node reads
// of freshly written data.
const wireShareSrc = `
long counter;
long lock;
long arr[2048];
long bar[3];
long slots[8];
long worker(long idx) {
	for (long i = 0; i < 40; i++) {
		mutex_lock(&lock);
		counter += 1;
		mutex_unlock(&lock);
		arr[idx * 256 + (i % 256)] += idx + i;
	}
	barrier_wait(bar);
	long s = 0;
	for (long j = 0; j < 2048; j++) s += arr[j];
	slots[idx] = s;
	return 0;
}
long main() {
	barrier_init(bar, 6);
	long tids[6];
	for (long i = 0; i < 6; i++) tids[i] = thread_create((long)worker, i);
	for (long i = 0; i < 6; i++) thread_join(tids[i]);
	long x = 0;
	for (long i = 0; i < 6; i++) x = x ^ slots[i];
	print_long(counter);
	print_char(' ');
	print_long(x);
	print_char('\n');
	return 0;
}`

// wireVariants is the ablation matrix: full layer, delta only, coalescing
// only, and fully off (the pre-wire-layer baseline).
func wireVariants(base Config) map[string]Config {
	full := base
	noDelta := base
	noDelta.NoDelta = true
	noCoalesce := base
	noCoalesce.NoCoalesce = true
	off := base
	off.NoDelta = true
	off.NoCoalesce = true
	return map[string]Config{
		"full": full, "nodelta": noDelta, "nocoalesce": noCoalesce, "off": off,
	}
}

// TestWireAblationEquivalence is the core correctness statement: the wire
// layer and each of its halves must be invisible to the guest.
func TestWireAblationEquivalence(t *testing.T) {
	im := build(t, wireShareSrc)
	base := DefaultConfig()
	base.Slaves = 3

	ref, err := Run(im, func() Config { c := base; c.NoDelta = true; c.NoCoalesce = true; return c }())
	if err != nil {
		t.Fatal(err)
	}
	if ref.ExitCode != 0 {
		t.Fatalf("baseline exit %d console %q", ref.ExitCode, ref.Console)
	}
	for name, cfg := range wireVariants(base) {
		res, err := Run(im, cfg)
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		if res.Console != ref.Console || res.ExitCode != ref.ExitCode {
			t.Errorf("%s diverged: got %q (exit %d), want %q (exit %d)",
				name, res.Console, res.ExitCode, ref.Console, ref.ExitCode)
		}
		switch name {
		case "off":
			if res.Wire != (WireStats{}) {
				t.Errorf("off: wire stats nonzero with layer ablated: %+v", res.Wire)
			}
		case "full", "nodelta", "nocoalesce":
			if res.Wire.SamePages+res.Wire.DeltaPages+res.Wire.RLEPages+res.Wire.FullPages == 0 {
				t.Errorf("%s: no payloads counted: %+v", name, res.Wire)
			}
		}
	}
}

// TestWireStatsSavings checks the layer actually encodes: on the sharing
// workload the counter/lock pages upgrade read->write constantly, so twins
// are current (EncSame) or near-current (small deltas), and body bytes must
// come in well under the full-page baseline.
func TestWireStatsSavings(t *testing.T) {
	cfg := DefaultConfig()
	cfg.Slaves = 3
	res := buildRun(t, wireShareSrc, cfg)
	if res.ExitCode != 0 {
		t.Fatalf("exit %d console %q", res.ExitCode, res.Console)
	}
	w := res.Wire
	if w.SamePages+w.DeltaPages == 0 {
		t.Errorf("no same/delta encodings on a sharing workload: %+v", w)
	}
	if w.BodyBytes >= w.RawBytes {
		t.Errorf("no byte savings: body %d >= raw %d", w.BodyBytes, w.RawBytes)
	}
	if w.RawBytes == 0 {
		t.Fatalf("raw bytes not counted")
	}
	if ratio := float64(w.BodyBytes) / float64(w.RawBytes); ratio > 0.6 {
		t.Errorf("body/raw = %.2f, want < 0.6 on the sharing workload (%+v)", ratio, w)
	}
}

// TestWireForcedMismatchHeals corrupts every slave twin mid-run (simulating
// arbitrary belief-map divergence) and checks the mismatch-resend protocol
// restores coherence: the run must still produce the correct output, with
// the resend counter showing the heal path actually fired.
func TestWireForcedMismatchHeals(t *testing.T) {
	im := build(t, wireShareSrc)
	cfg := DefaultConfig()
	cfg.Slaves = 3

	ref, err := Run(im, cfg)
	if err != nil {
		t.Fatal(err)
	}

	c, err := NewCluster(im, cfg)
	if err != nil {
		t.Fatal(err)
	}
	// Skew twin versions at a few points mid-run: grants and pushes built
	// against the master's (now wrong) belief mismatch at the node and must
	// heal via FlagFullResend. Owned (read-write resident) pages are left
	// alone — their twin is the fetch-reply diff base, an invariant the
	// protocol maintains itself and checks loudly on the master.
	corrupted := 0
	for _, at := range []int64{2_000_000, 5_000_000, 9_000_000} {
		at := at
		c.rt.After(at, func() {
			for _, n := range c.nodes {
				if n.id == 0 {
					continue
				}
				for page, tw := range n.twins {
					if n.space.PermOf(page) == mem.PermReadWrite {
						continue
					}
					tw.ver += 1000
					corrupted++
				}
			}
		})
	}
	res, err := c.Run()
	if err != nil {
		t.Fatal(err)
	}
	if res.Console != ref.Console || res.ExitCode != ref.ExitCode {
		t.Errorf("mismatch heal diverged: got %q (exit %d), want %q (exit %d)",
			res.Console, res.ExitCode, ref.Console, ref.ExitCode)
	}
	if corrupted == 0 {
		t.Skip("no twins existed at the corruption points")
	}
	if res.Wire.Resends == 0 && res.Wire.PushDrops == 0 {
		t.Errorf("corrupted %d twins but no resend/push-drop recorded: %+v", corrupted, res.Wire)
	}
}

// TestWirePushDropAlwaysRerequests pins the push-drop contract: a forwarded
// diff that cannot materialize must re-request the page with FlagFullResend
// even when a plain demand read is already outstanding. The directory
// suppresses plain reads from a node it just forwarded a push to (the push
// is supposed to answer them), so the outstanding read may never get a
// reply — without the unconditional full re-request the read's waiters
// would park until the virtual-time limit.
func TestWirePushDropAlwaysRerequests(t *testing.T) {
	im := build(t, wireShareSrc)
	cfg := DefaultConfig()
	cfg.Slaves = 2
	c, err := NewCluster(im, cfg)
	if err != nil {
		t.Fatal(err)
	}
	n := c.nodes[1]
	const page = uint64(0x123456)
	fullReqs := 0
	c.sim.net.Trace = func(now int64, m *proto.Msg) {
		if m.Kind == proto.KPageReq && m.From == 1 && m.Page == page &&
			m.Flags&proto.FlagFullResend != 0 {
			fullReqs++
		}
	}

	// A demand read is outstanding — exactly the shape the directory
	// suppresses. The dropped delta (no twin to apply it against) must
	// still trigger a full re-request.
	n.requested[page] = reqRead
	pl := proto.PagePayload{Page: page, Ver: 7, BaseVer: 3, Enc: proto.EncDelta, Push: true}
	n.applyPush(&pl)
	if fullReqs != 1 {
		t.Fatalf("push drop with outstanding read sent %d full re-requests, want 1", fullReqs)
	}
	if n.requested[page]&reqRead == 0 {
		t.Errorf("read request bookkeeping lost after push drop")
	}

	// Without an outstanding read, and for the header-only encoding (which
	// also depends on a twin this node no longer holds).
	delete(n.requested, page)
	same := proto.PagePayload{Page: page, Ver: 7, Enc: proto.EncSame, Push: true}
	n.applyPush(&same)
	if fullReqs != 2 {
		t.Fatalf("header-only push drop sent %d full re-requests, want 2", fullReqs)
	}
	if got := c.wireStats.PushDrops; got != 2 {
		t.Errorf("PushDrops = %d, want 2", got)
	}
}

// TestWireForwardingMismatchHeals is the integration companion: with the
// forwarder pushing read-ahead pages, mid-run twin corruption makes pushes
// drop while the demand reads they raced are suppressed at the directory.
// The run must still terminate with the correct output.
func TestWireForwardingMismatchHeals(t *testing.T) {
	im := build(t, wireShareSrc)
	cfg := DefaultConfig()
	cfg.Slaves = 3
	cfg.Forwarding = true

	ref, err := Run(im, cfg)
	if err != nil {
		t.Fatal(err)
	}

	c, err := NewCluster(im, cfg)
	if err != nil {
		t.Fatal(err)
	}
	for _, at := range []int64{2_000_000, 5_000_000, 9_000_000} {
		at := at
		c.rt.After(at, func() {
			for _, n := range c.nodes {
				if n.id == 0 {
					continue
				}
				for page, tw := range n.twins {
					if n.space.PermOf(page) == mem.PermReadWrite {
						continue
					}
					tw.ver += 1000
				}
			}
		})
	}
	res, err := c.Run()
	if err != nil {
		t.Fatal(err)
	}
	if res.Console != ref.Console || res.ExitCode != ref.ExitCode {
		t.Errorf("forwarding heal diverged: got %q (exit %d), want %q (exit %d)",
			res.Console, res.ExitCode, ref.Console, ref.ExitCode)
	}
}

// TestWireSplittingEquivalence runs a false-sharing workload with page
// splitting on across the ablation matrix: split twins must follow
// SplitHome's layout or re-fetches would install wrong content. Each of the 8
// writers owns 128 bytes of its own 512-byte slot of arr, so writers on
// different nodes touch different parts of a page, and a barrier every round
// interleaves them, so the splitter fires at its default threshold.
func TestWireSplittingEquivalence(t *testing.T) {
	const src = `
long arr[512];
long bar[3];
long worker(long idx) {
	for (long r = 0; r < 30; r++) {
		for (long i = 0; i < 16; i++) arr[idx * 64 + i] += idx + r + i;
		barrier_wait(bar);
	}
	return 0;
}
long main() {
	barrier_init(bar, 8);
	long tids[8];
	for (long i = 0; i < 8; i++) tids[i] = thread_create((long)worker, i);
	for (long i = 0; i < 8; i++) thread_join(tids[i]);
	long s = 0;
	for (long i = 0; i < 512; i++) s += arr[i];
	print_long(s);
	print_char('\n');
	return 0;
}`
	im := build(t, src)
	base := DefaultConfig()
	base.Slaves = 4
	base.Splitting = true

	var want string
	first := true
	for name, cfg := range wireVariants(base) {
		res, err := Run(im, cfg)
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		if res.ExitCode != 0 {
			t.Fatalf("%s: exit %d console %q", name, res.ExitCode, res.Console)
		}
		if res.Dir.Splits == 0 {
			t.Errorf("%s: no page split; the test is not exercising split twins", name)
		}
		if first {
			want, first = res.Console, false
		} else if res.Console != want {
			t.Errorf("%s diverged: got %q want %q", name, res.Console, want)
		}
	}
}

// TestWireMigrationEquivalence keeps the feedback scheduler moving threads
// while the wire layer runs: a migrated thread's faults resume on a node
// with different twins, and the belief map must stay per-node, not
// per-thread.
func TestWireMigrationEquivalence(t *testing.T) {
	im := build(t, wireShareSrc)
	base := DefaultConfig()
	base.Slaves = 3
	base.Adaptive = true

	var want string
	first := true
	for name, cfg := range wireVariants(base) {
		res, err := Run(im, cfg)
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		if res.ExitCode != 0 {
			t.Fatalf("%s: exit %d console %q", name, res.ExitCode, res.Console)
		}
		if res.Migrations == 0 {
			t.Errorf("%s: no migrations; the test is not exercising them", name)
		}
		if first {
			want, first = res.Console, false
		} else if res.Console != want {
			t.Errorf("%s diverged: got %q want %q", name, res.Console, want)
		}
	}
}

// TestWireUnderFaults turns on the seeded fault injector (dup/reorder/drop)
// with the wire layer enabled: the ARQ retransmits diffs and batched
// invalidations, and absolute-word deltas plus dedup must keep application
// exactly-once. Output must match the fault-free reference bit for bit.
func TestWireUnderFaults(t *testing.T) {
	im := build(t, wireShareSrc)
	base := DefaultConfig()
	base.Slaves = 3

	ref, err := Run(im, base)
	if err != nil {
		t.Fatal(err)
	}
	for _, seed := range []int64{7, 21} {
		cfg := base
		cfg.Faults = &netsim.FaultPlan{
			Seed:        seed,
			DropRate:    0.05,
			DupRate:     0.10,
			ReorderRate: 0.10,
			JitterNs:    50_000,
		}
		res, err := Run(im, cfg)
		if err != nil {
			t.Fatalf("seed %d: %v", seed, err)
		}
		if res.Console != ref.Console || res.ExitCode != ref.ExitCode {
			t.Errorf("seed %d diverged under faults: got %q (exit %d), want %q (exit %d)",
				seed, res.Console, res.ExitCode, ref.Console, ref.ExitCode)
		}
	}
}

// TestWireCoalescingBatches checks invalidation batching actually happens on
// a workload with multi-page write bursts invalidating multiple sharers.
func TestWireCoalescingBatches(t *testing.T) {
	const src = `
long a[4096];
long bar[3];
long worker(long idx) {
	long s = 0;
	for (long j = 0; j < 4096; j++) s += a[j];
	barrier_wait(bar);
	if (idx == 0) { for (long j = 0; j < 4096; j++) a[j] = j; }
	barrier_wait(bar);
	long x = 0;
	for (long j = 0; j < 4096; j++) x += a[j];
	return s + x;
}
long main() {
	barrier_init(bar, 4);
	long tids[4];
	for (long i = 0; i < 4; i++) tids[i] = thread_create((long)worker, i);
	for (long i = 0; i < 4; i++) thread_join(tids[i]);
	print_long(a[100] + a[4000]);
	print_char('\n');
	return 0;
}`
	cfg := DefaultConfig()
	cfg.Slaves = 4
	res := buildRun(t, src, cfg)
	if res.ExitCode != 0 {
		t.Fatalf("exit %d console %q", res.ExitCode, res.Console)
	}
	if res.Wire.InvBatches == 0 {
		t.Errorf("no invalidation batches on a multi-page write burst: %+v", res.Wire)
	}
	if res.Wire.InvBatchPages <= res.Wire.InvBatches {
		t.Errorf("batches did not merge pages: %d batches, %d pages",
			res.Wire.InvBatches, res.Wire.InvBatchPages)
	}
	if res.Net.ByKind[0] != 0 {
		t.Errorf("invalid-kind messages on the wire")
	}
}
