package core

import (
	"fmt"
	"strings"
	"testing"

	"dqemu/internal/image"
	"dqemu/internal/mem"
	"dqemu/internal/netsim"
	"dqemu/internal/proto"
	"dqemu/internal/workloads"
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
// only, and fully off (every page whole and alone).
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
			// Every page travels whole and alone.
			w := res.Wire
			if w.SamePages+w.DeltaPages+w.RLEPages+w.PiggyPushes != 0 ||
				w.FullPages == 0 || w.BodyBytes != w.RawBytes {
				t.Errorf("off: want only whole pages, body bytes = raw bytes: %+v", w)
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

// invHoldRuntime records every message sent and, for each one sent from a
// timer armed for coalesceWindowNs, when that timer was armed, which
// invalidations the master held then, and which it held just before the
// timer fired.
type invHoldRuntime struct {
	Runtime
	w    *masterWire
	sent []heldSend
	cur  *invFlush // the window timer running now, if any
}

type heldSend struct {
	m     *proto.Msg
	at    int64
	flush *invFlush
}

type invFlush struct {
	armedAt         int64
	heldAtArm, held map[int32][]uint64
}

// copyHeld copies the invalidations held, by target.
func copyHeld(h [][]uint64) map[int32][]uint64 {
	c := map[int32][]uint64{}
	for to, pages := range h {
		if len(pages) > 0 {
			c[int32(to)] = append([]uint64(nil), pages...)
		}
	}
	return c
}

func (r *invHoldRuntime) After(ns int64, fn func()) {
	if ns != coalesceWindowNs {
		r.Runtime.After(ns, fn)
		return
	}
	f := &invFlush{armedAt: r.Now(), heldAtArm: copyHeld(r.w.pendInv)}
	r.Runtime.After(ns, func() {
		f.held = copyHeld(r.w.pendInv)
		r.cur = f
		fn()
		r.cur = nil
	})
}

func (r *invHoldRuntime) Send(m *proto.Msg) {
	r.sent = append(r.sent, heldSend{m: copyMsg(m), at: r.Now(), flush: r.cur})
	r.Runtime.Send(m)
}

// TestWireInvalidationHold pins what the coalescing window does: the guest
// has 4 readers share 8 pages that one of them then writes, so the master
// revokes several pages from each sharer at once. Under the default knobs
// every invalidation is held, and a sharer's held invalidations all go out
// as plain KInvalidates, in queue order, in one flush coalesceWindowNs after
// the first was queued. Under NoCoalesce each goes out the moment it is
// issued. Either way every KInvalidate is answered by one KInvAck, and the
// guest cannot tell the two apart.
func TestWireInvalidationHold(t *testing.T) {
	im := build(t, `
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
}`)
	run := func(noCoalesce bool) (*Result, *invHoldRuntime) {
		cfg := DefaultConfig()
		cfg.Slaves = 4
		cfg.NoCoalesce = noCoalesce
		c, err := NewCluster(im, cfg)
		if err != nil {
			t.Fatal(err)
		}
		rec := &invHoldRuntime{Runtime: c.rt, w: c.master.wire}
		c.rt = rec
		res, err := c.simulate(maxTimeNs)
		if err != nil {
			t.Fatal(err)
		}
		if res.ExitCode != 0 {
			t.Fatalf("NoCoalesce=%v: exit %d, console %q", noCoalesce, res.ExitCode, res.Console)
		}
		if held := copyHeld(c.master.wire.pendInv); len(held) != 0 {
			t.Errorf("NoCoalesce=%v: invalidations still held at the end: %v", noCoalesce, held)
		}
		return res, rec
	}
	// answered checks that every KInvalidate got exactly one KInvAck.
	answered := func(name string, rec *invHoldRuntime) {
		owed := map[nodePage]int{}
		invs := 0
		for _, s := range rec.sent {
			switch s.m.Kind {
			case proto.KInvalidate:
				owed[nodePage{s.m.To, s.m.Page}]++
				invs++
			case proto.KInvAck:
				owed[nodePage{s.m.From, s.m.Page}]--
			}
		}
		for np, n := range owed {
			if n != 0 {
				t.Errorf("%s: node %d page %#x: %d more invalidations than acks", name, np.node, np.page, n)
			}
		}
		if invs == 0 {
			t.Fatalf("%s: no invalidation sent; the guest does not exercise the hold", name)
		}
	}

	held, rec := run(false)
	answered("held", rec)
	flushes := map[*invFlush][]*proto.Msg{}
	for _, s := range rec.sent {
		if s.m.Kind != proto.KInvalidate {
			continue
		}
		f := s.flush
		if f == nil {
			t.Fatalf("KInvalidate to node %d page %#x went out without the hold", s.m.To, s.m.Page)
		}
		if s.at != f.armedAt+coalesceWindowNs {
			t.Fatalf("KInvalidate to node %d sent at %d, window armed at %d", s.m.To, s.at, f.armedAt)
		}
		flushes[f] = append(flushes[f], s.m)
	}
	merged := 0
	for f, ms := range flushes {
		to := ms[0].To
		if len(f.heldAtArm[to]) != 0 {
			t.Errorf("node %d: window armed while %d invalidations were already held", to, len(f.heldAtArm[to]))
		}
		if len(ms) != len(f.held[to]) {
			t.Errorf("node %d: %d invalidations held, %d sent in the flush", to, len(f.held[to]), len(ms))
			continue
		}
		for i, m := range ms {
			if m.To != to || m.Page != f.held[to][i] {
				t.Errorf("node %d flush, message %d: node %d page %#x, want page %#x held",
					to, i, m.To, m.Page, f.held[to][i])
			}
		}
		if len(ms) > 1 {
			merged++
		}
	}
	if merged == 0 {
		t.Error("no flush carried more than one invalidation; the hold is not exercised")
	}

	at, rec := run(true)
	answered("NoCoalesce", rec)
	for _, s := range rec.sent {
		if s.flush != nil {
			t.Fatalf("NoCoalesce: %v to node %d sent from the window timer", s.m.Kind, s.m.To)
		}
	}
	if at.Console != held.Console {
		t.Errorf("NoCoalesce console %q, held %q", at.Console, held.Console)
	}
}

// TestWireRemapOrder pins what a target is sent when a page splits while it
// has invalidations held and a grant buffered: the held invalidations in
// queue order, then the grant, then the KRemap — the order the NoCoalesce
// path sends them in as they are issued. No checked-in guest reaches this
// case, so the master's wire is driven directly.
func TestWireRemapOrder(t *testing.T) {
	im := build(t, "long main() { return 0; }")
	ps := uint64(DefaultConfig().PageSize)
	type frame struct {
		kind proto.Kind
		to   int32
		page uint64
	}
	sent := func(noCoalesce bool) []frame {
		cfg := DefaultConfig()
		cfg.Slaves = 2
		cfg.NoCoalesce = noCoalesce
		c, err := NewCluster(im, cfg)
		if err != nil {
			t.Fatal(err)
		}
		rec := &recordingRuntime{Runtime: c.rt}
		c.rt = rec
		m := c.master
		m.SendInvalidate(1, 0x40*ps)
		m.SendInvalidate(1, 0x41*ps)
		m.wire.queueGrant(1, 0x42*ps, mem.PermRead)
		m.wire.broadcastRemap(0x43*ps, []uint64{0x50 * ps, 0x51 * ps})
		var fs []frame
		for _, m := range rec.sent {
			fs = append(fs, frame{m.Kind, m.To, m.Page})
		}
		return fs
	}
	want := []frame{
		{proto.KInvalidate, 1, 0x40 * ps},
		{proto.KInvalidate, 1, 0x41 * ps},
		{proto.KPageContent, 1, 0x42 * ps},
		{proto.KRemap, 1, 0x43 * ps},
		{proto.KRemap, 2, 0x43 * ps},
	}
	for _, noCoalesce := range []bool{false, true} {
		if got := sent(noCoalesce); fmt.Sprint(got) != fmt.Sprint(want) {
			t.Errorf("NoCoalesce=%v: sent %v, want %v", noCoalesce, got, want)
		}
	}
}

// runWrapped runs im on 4 slaves with forwarding and splitting under the
// wire ablations given, with the cluster's runtime replaced by what wrap
// makes of it.
func runWrapped(t *testing.T, im *image.Image, noDelta, noCoalesce bool, wrap func(Runtime) Runtime) (*Result, error) {
	t.Helper()
	cfg := DefaultConfig()
	cfg.Slaves = 4
	cfg.Forwarding = true
	cfg.Splitting = true
	cfg.NoDelta, cfg.NoCoalesce = noDelta, noCoalesce
	c, err := NewCluster(im, cfg)
	if err != nil {
		t.Fatal(err)
	}
	c.rt = wrap(c.rt)
	return c.Run()
}

// TestWireOffArmFraming pins what the fully ablated layer puts on the wire:
// every frame that carries a page holds one container of one whole page
// (EncFull) at version 0; there are no versions, and a KPageContent without
// data is a reaffirmation. The guest false-shares arr
// (page splits, so remaps) and then has every worker read big in order
// (forwarded pushes).
func TestWireOffArmFraming(t *testing.T) {
	im := build(t, `
long arr[512];
long big[8192];
long bar[3];
long worker(long idx) {
	for (long r = 0; r < 30; r++) {
		for (long i = 0; i < 16; i++) arr[idx * 64 + i] += idx + r + i;
		barrier_wait(bar);
	}
	long s = 0;
	for (long j = 0; j < 8192; j++) s += big[j];
	return s;
}
long main() {
	barrier_init(bar, 8);
	for (long j = 0; j < 8192; j++) big[j] = j;
	long tids[8];
	for (long i = 0; i < 8; i++) tids[i] = thread_create((long)worker, i);
	for (long i = 0; i < 8; i++) thread_join(tids[i]);
	long s = 0;
	for (long i = 0; i < 512; i++) s += arr[i];
	print_long(s);
	print_char('\n');
	return 0;
}`)
	rec := &recordingRuntime{}
	res, err := runWrapped(t, im, true, true, func(rt Runtime) Runtime { rec.Runtime = rt; return rec })
	if err != nil {
		t.Fatal(err)
	}
	if res.ExitCode != 0 {
		t.Fatalf("exit %d, console %q", res.ExitCode, res.Console)
	}
	ps := DefaultConfig().PageSize
	seen := map[proto.Kind]int{}
	reaffirms := 0
	for _, m := range rec.sent {
		seen[m.Kind]++
		switch {
		case m.Flags != 0:
			t.Fatalf("%v for page %#x: flags %#b", m.Kind, m.Page, m.Flags)
		}
		switch m.Kind {
		case proto.KFetch, proto.KRemap, proto.KPageReq:
			if m.Ver != 0 {
				t.Fatalf("%v for page %#x carries version %d", m.Kind, m.Page, m.Ver)
			}
		case proto.KPageContent, proto.KPush, proto.KFetchReply:
			if m.Data == nil {
				if p := mem.Perm(m.Perm); m.Kind != proto.KPageContent || (p != mem.PermRead && p != mem.PermReadWrite) {
					t.Fatalf("%v for page %#x without data grants %v", m.Kind, m.Page, p)
				}
				reaffirms++
				continue
			}
			var pl proto.PagePayload
			r := proto.ReadPayloads(m.Data)
			if !r.Next(&pl) || r.Len() != 1 || r.Err() != nil {
				t.Fatalf("%v for page %#x: %d payloads, err %v", m.Kind, m.Page, r.Len(), r.Err())
			}
			if pl.Page != m.Page || pl.Enc != proto.EncFull || len(pl.Body) != ps || pl.Ver != 0 || pl.BaseVer != 0 ||
				pl.Push != (m.Kind == proto.KPush) {
				t.Fatalf("%v for page %#x: payload page %#x enc %d, %d-byte body, ver %d/%d, push %v",
					m.Kind, m.Page, pl.Page, pl.Enc, len(pl.Body), pl.Ver, pl.BaseVer, pl.Push)
			}
		}
	}
	for _, k := range []proto.Kind{proto.KPageContent, proto.KPush, proto.KFetch, proto.KFetchReply, proto.KRemap, proto.KInvalidate} {
		if seen[k] == 0 {
			t.Errorf("no %v sent; the run does not exercise it", k)
		}
	}
	// Fetch replies are counted like grants and pushes.
	if pages := seen[proto.KPageContent] + seen[proto.KPush] + seen[proto.KFetchReply] - reaffirms; res.Wire.FullPages != uint64(pages) {
		t.Errorf("Result.Wire counts %d full pages, %d were sent", res.Wire.FullPages, pages)
	}
}

// truncatingRuntime cuts to 100 bytes the body of every whole-page fetch
// reply.
type truncatingRuntime struct {
	Runtime
	cut []*proto.Msg
}

func (r *truncatingRuntime) Send(m *proto.Msg) {
	var pl proto.PagePayload
	if rd := proto.ReadPayloads(m.Data); m.Kind == proto.KFetchReply && rd.Next(&pl) &&
		pl.Enc == proto.EncFull && len(pl.Body) > 100 {
		pl.Body = pl.Body[:100]
		m.Data = proto.EncodePayloads([]proto.PagePayload{pl})
		r.cut = append(r.cut, copyMsg(m))
	}
	r.Runtime.Send(m)
}

// TestShortFetchReplyFails: a fetch reply whose whole page is shorter than a
// page must fail the run at the master, naming the node and the page.
// Installed as it was, it zero-filled the rest of the home page, and canneal
// printed a wrong total with exit status 0.
func TestShortFetchReplyFails(t *testing.T) {
	im, err := workloads.Canneal(4, 256, 40, 1)
	if err != nil {
		t.Fatal(err)
	}
	trunc := &truncatingRuntime{}
	res, err := runWrapped(t, im, true, false, func(rt Runtime) Runtime { trunc.Runtime = rt; return trunc })
	if len(trunc.cut) == 0 {
		t.Fatal("no whole-page fetch reply was sent")
	}
	if err == nil {
		t.Fatalf("run with %d truncated fetch replies succeeded: exit %d, console %q", len(trunc.cut), res.ExitCode, res.Console)
	}
	for _, m := range trunc.cut {
		if strings.Contains(err.Error(), fmt.Sprintf("node %d ", m.From)) &&
			strings.Contains(err.Error(), fmt.Sprintf("page %#x:", m.Page)) {
			return
		}
	}
	t.Errorf("error %q names no truncated reply's node and page", err)
}

// idleRuntime is a Runtime whose clock never moves and whose wire drops
// everything: enough for a NewLocal node fed frames by hand.
type idleRuntime struct{}

func (idleRuntime) Now() int64          { return 0 }
func (idleRuntime) After(int64, func()) {}
func (idleRuntime) Ran(int64, func())   {}
func (idleRuntime) Send(*proto.Msg)     {}

// TestShortPageFails: a grant or push whose whole page (EncFull) is not one
// page must fail the run at the receiving node, naming the node and the
// page, instead of installing a zero-padded page. A whole page installs.
func TestShortPageFails(t *testing.T) {
	im := build(t, wireShareSrc)
	cfg := DefaultConfig()
	cfg.Slaves = 2
	cfg.NoDelta = true
	const page = uint64(0x123456)
	for _, tc := range []struct {
		kind proto.Kind
		size int
		ok   bool
	}{
		{proto.KPageContent, 100, false},
		{proto.KPush, 100, false},
		{proto.KPageContent, cfg.PageSize, true},
		{proto.KPush, cfg.PageSize, true},
	} {
		c, err := NewLocal(im, cfg, 1, idleRuntime{})
		if err != nil {
			t.Fatal(err)
		}
		pl := proto.PagePayload{Page: page, Perm: uint8(mem.PermRead), Enc: proto.EncFull,
			Push: tc.kind == proto.KPush, Body: make([]byte, tc.size)}
		c.Deliver(&proto.Msg{
			Kind: tc.kind, From: 0, To: 1, Page: page, Perm: pl.Perm,
			Data: proto.EncodePayloads([]proto.PagePayload{pl}),
		})
		if tc.ok {
			if c.Err() != nil || c.nodes[0].space.PermOf(page) != mem.PermRead {
				t.Errorf("%v of a whole page: err %v, perm %v", tc.kind, c.Err(), c.nodes[0].space.PermOf(page))
			}
			continue
		}
		if c.Err() == nil || !c.Done() {
			t.Errorf("%v with a %d-byte body installed (perm %v) instead of failing the run",
				tc.kind, tc.size, c.nodes[0].space.PermOf(page))
		} else if msg := c.Err().Error(); !strings.Contains(msg, "node 1:") || !strings.Contains(msg, fmt.Sprintf("page %#x", page)) {
			t.Errorf("%v with a %d-byte body: error %q names not node 1 and page %#x", tc.kind, tc.size, msg, page)
		}
	}
}
