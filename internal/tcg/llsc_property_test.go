package tcg

// Property-based tests for the global LL/SC monitor (§4.4). A seeded
// generator drives the table with random interleavings of LL, store, SC,
// page-invalidate and thread-drop events; an independent reference model
// (a linear-scan reservation list re-implemented from the documented
// semantics) predicts every outcome. Any divergence is shrunk to a minimal
// failing operation sequence before being reported, so a failure reads as a
// handful of ops, not a 400-event trace.

import (
	"fmt"
	"math/rand"
	"strings"
	"testing"

	"dqemu/internal/asm"
	"dqemu/internal/isa"
	"dqemu/internal/mem"
)

type llscOp struct {
	kind byte // 'l' LL, 's' store, 'c' SC, 'i' invalidate page, 'd' drop thread
	tid  int64
	addr uint64 // page number for 'i'
}

func (o llscOp) String() string {
	switch o.kind {
	case 'l':
		return fmt.Sprintf("LL(t%d,%#x)", o.tid, o.addr)
	case 's':
		return fmt.Sprintf("store(t%d,%#x)", o.tid, o.addr)
	case 'c':
		return fmt.Sprintf("SC(t%d,%#x)", o.tid, o.addr)
	case 'i':
		return fmt.Sprintf("invalidate(page %d)", o.addr)
	case 'd':
		return fmt.Sprintf("drop(t%d)", o.tid)
	}
	return "?"
}

// llscModel is the reference implementation: a list of reservations with the
// semantics spelled out on the LLSCTable methods. Deliberately structured
// differently from LLSCTable (a scan over a slice, not a map) so the two
// cannot share a bug by construction.
type llscModel struct {
	res           []struct{ addr, tid uint64 }
	falseFailures uint64
}

func (m *llscModel) find(addr uint64) int {
	for i, r := range m.res {
		if r.addr == addr {
			return i
		}
	}
	return -1
}

func (m *llscModel) remove(i int) { m.res = append(m.res[:i], m.res[i+1:]...) }

func (m *llscModel) ll(tid int64, addr uint64) {
	if i := m.find(addr); i >= 0 {
		m.res[i].tid = uint64(tid) // a second LL steals the reservation
		return
	}
	m.res = append(m.res, struct{ addr, tid uint64 }{addr, uint64(tid)})
}

func (m *llscModel) store(tid int64, addr uint64) {
	if i := m.find(addr); i >= 0 && m.res[i].tid != uint64(tid) {
		m.remove(i)
	}
}

func (m *llscModel) sc(tid int64, addr uint64) bool {
	i := m.find(addr)
	if i < 0 || m.res[i].tid != uint64(tid) {
		return false
	}
	m.remove(i)
	return true
}

func (m *llscModel) invalidate(pageNo uint64, pageSize int) {
	lo, hi := pageNo*uint64(pageSize), (pageNo+1)*uint64(pageSize)
	for i := 0; i < len(m.res); {
		if m.res[i].addr >= lo && m.res[i].addr < hi {
			m.remove(i)
			m.falseFailures++
		} else {
			i++
		}
	}
}

func (m *llscModel) drop(tid int64) {
	for i := 0; i < len(m.res); {
		if m.res[i].tid == uint64(tid) {
			m.remove(i)
		} else {
			i++
		}
	}
}

const llscPageSize = 4096

// replayLLSC runs ops against a fresh table and model and returns a
// description of the first divergence ("" if none).
func replayLLSC(ops []llscOp) string {
	tab := NewLLSCTable()
	model := &llscModel{}
	for i, op := range ops {
		switch op.kind {
		case 'l':
			tab.OnLL(op.tid, op.addr)
			model.ll(op.tid, op.addr)
		case 's':
			tab.OnStore(op.tid, op.addr)
			model.store(op.tid, op.addr)
		case 'c':
			got, want := tab.ValidateSC(op.tid, op.addr), model.sc(op.tid, op.addr)
			if got != want {
				return fmt.Sprintf("op %d %v: SC success=%v, model says %v", i, op, got, want)
			}
		case 'i':
			tab.InvalidatePage(op.addr, llscPageSize)
			model.invalidate(op.addr, llscPageSize)
		case 'd':
			tab.DropThread(op.tid)
			model.drop(op.tid)
		}
		if tab.Len() != len(model.res) {
			return fmt.Sprintf("op %d %v: table has %d reservations, model %d", i, op, tab.Len(), len(model.res))
		}
		if tab.Empty() != (len(model.res) == 0) {
			return fmt.Sprintf("op %d %v: Empty()=%v with %d reservations", i, op, tab.Empty(), len(model.res))
		}
		if tab.FalseFailures != model.falseFailures {
			return fmt.Sprintf("op %d %v: falseFailures=%d, model %d", i, op, tab.FalseFailures, model.falseFailures)
		}
		for _, r := range model.res {
			if owner, ok := tab.entries[r.addr]; !ok || owner != int64(r.tid) {
				return fmt.Sprintf("op %d %v: reservation (%#x,t%d) missing or wrong owner", i, op, r.addr, r.tid)
			}
		}
	}
	return ""
}

// shrinkLLSC greedily removes operations while the failure persists,
// returning a locally-minimal failing sequence.
func shrinkLLSC(ops []llscOp) []llscOp {
	for again := true; again; {
		again = false
		for i := 0; i < len(ops); i++ {
			cand := append(append([]llscOp{}, ops[:i]...), ops[i+1:]...)
			if replayLLSC(cand) != "" {
				ops = cand
				again = true
				i--
			}
		}
	}
	return ops
}

func genLLSCOps(r *rand.Rand, n int) []llscOp {
	// Small universes force collisions: 3 threads, 8 slots on 2 pages.
	addrs := make([]uint64, 0, 8)
	for p := uint64(4); p <= 5; p++ {
		for s := uint64(0); s < 4; s++ {
			addrs = append(addrs, p*llscPageSize+8*s)
		}
	}
	ops := make([]llscOp, n)
	for i := range ops {
		op := llscOp{tid: int64(1 + r.Intn(3)), addr: addrs[r.Intn(len(addrs))]}
		switch k := r.Intn(10); {
		case k < 3:
			op.kind = 'l'
		case k < 6:
			op.kind = 'c'
		case k < 8:
			op.kind = 's'
		case k < 9:
			op.kind = 'i'
			op.addr = 4 + uint64(r.Intn(2))
		default:
			op.kind = 'd'
		}
		ops[i] = op
	}
	return ops
}

func TestLLSCPropertyVsModel(t *testing.T) {
	seeds := 300
	if testing.Short() {
		seeds = 50
	}
	for seed := int64(0); seed < int64(seeds); seed++ {
		ops := genLLSCOps(rand.New(rand.NewSource(seed)), 400)
		if msg := replayLLSC(ops); msg != "" {
			min := shrinkLLSC(ops)
			t.Fatalf("seed %d: %s\nminimal failing sequence (%d ops): %v\nreplay: %s",
				seed, msg, len(min), min, replayLLSC(min))
		}
	}
}

// TestSCFailureAccounting checks the bookkeeping property: across any run,
// SC attempts = successes + failures, FalseFailures grows only at page
// invalidations, and a run with no invalidations reports zero false
// failures no matter how many SCs lose to genuine conflicts.
func TestSCFailureAccounting(t *testing.T) {
	for seed := int64(0); seed < 100; seed++ {
		r := rand.New(rand.NewSource(seed))
		ops := genLLSCOps(r, 300)
		noInv := seed%2 == 0
		if noInv {
			filtered := ops[:0]
			for _, op := range ops {
				if op.kind != 'i' {
					filtered = append(filtered, op)
				}
			}
			ops = filtered
		}
		tab := NewLLSCTable()
		var attempts, successes, failures uint64
		var ffBefore uint64
		for _, op := range ops {
			ffBefore = tab.FalseFailures
			switch op.kind {
			case 'l':
				tab.OnLL(op.tid, op.addr)
			case 's':
				tab.OnStore(op.tid, op.addr)
			case 'c':
				attempts++
				if tab.ValidateSC(op.tid, op.addr) {
					successes++
				} else {
					failures++
				}
			case 'i':
				tab.InvalidatePage(op.addr, llscPageSize)
			case 'd':
				tab.DropThread(op.tid)
			}
			if op.kind != 'i' && tab.FalseFailures != ffBefore {
				t.Fatalf("seed %d: %v changed FalseFailures", seed, op)
			}
		}
		if attempts != successes+failures {
			t.Fatalf("seed %d: %d attempts != %d + %d", seed, attempts, successes, failures)
		}
		if noInv && tab.FalseFailures != 0 {
			t.Fatalf("seed %d: %d false failures with no invalidations", seed, tab.FalseFailures)
		}
	}
}

// TestLLSCABAImpossible runs the classic ABA interleaving through the real
// engine: thread 1 load-links x==A; thread 2 stores B then restores A;
// thread 1's store-conditional must FAIL even though the value it sees is
// bit-identical to what it load-linked. A value-comparing CAS cannot detect
// this — the reservation-based monitor must.
func TestLLSCABAImpossible(t *testing.T) {
	im, err := asm.Assemble(asm.Source{Name: "aba.s", Text: `
_start:
	li  t0, 0x20000
	li  a1, 5
	sd  a1, 0(t0)       ; x = A (5)
	ll  a0, (t0)        ; reserve, a0 = 5
	svc                 ; yield to thread 2
	li  a2, 6
	sc  s0, a2, (t0)    ; s0 = 0 on success, 1 on failure
	ld  s1, 0(t0)
	halt
t2:
	li  t0, 0x20000
	li  a3, 99
	sd  a3, 0(t0)       ; x = B
	li  a4, 5
	sd  a4, 0(t0)       ; x = A again (ABA)
	halt
`})
	if err != nil {
		t.Fatal(err)
	}
	space := mem.NewSpace(0)
	mem.InstallImage(space, im, mem.PermRead, mem.PermReadWrite)
	space.SetPerm(space.PageOf(0x20000), mem.PermReadWrite)
	e := NewEngine(space, DefaultCostModel())

	cpu1 := &CPU{PC: im.Entry, TID: 1}
	cpu2 := &CPU{PC: im.Symbols["t2"], TID: 2}

	if res := e.Exec(cpu1, 1<<40); res.Reason != StopSyscall {
		t.Fatalf("thread 1 did not yield at svc: %+v", res)
	}
	if cpu1.X[isa.RegA0] != 5 {
		t.Fatalf("ll loaded %d, want 5", cpu1.X[isa.RegA0])
	}
	if res := e.Exec(cpu2, 1<<40); res.Reason != StopHalt {
		t.Fatalf("thread 2: %+v", res)
	}
	// The failed SC is contended: it ends thread 1's quantum, and the next
	// one runs to the halt.
	if res := e.Exec(cpu1, 1<<40); res.Reason != StopBudget {
		t.Fatalf("thread 1 did not yield at its failed SC: %+v", res)
	}
	if res := e.Exec(cpu1, 1<<40); res.Reason != StopHalt {
		t.Fatalf("thread 1 resume: %+v", res)
	}
	if cpu1.X[isa.RegS0] != 1 {
		t.Fatalf("SC succeeded across an ABA interleaving (s0=%d)", cpu1.X[isa.RegS0])
	}
	if cpu1.X[isa.RegS0+1] != 5 {
		t.Fatalf("failed SC wrote memory: x=%d", cpu1.X[isa.RegS0+1])
	}
	if e.Mon.FalseFailures != 0 {
		t.Fatalf("a genuine conflict was accounted as a false failure")
	}
}

// TestLLSCShrinkerConverges makes sure the shrinker itself works: plant a
// synthetic divergence (a table whose Empty() lies) and confirm shrinking
// reduces a long random sequence to just the ops that expose it. This keeps
// the harness honest — a shrinker that deletes the failure would hide bugs.
func TestLLSCShrinkerConverges(t *testing.T) {
	// A sequence with one LL buried in noise diverges from a model that is
	// told about every op except that LL.
	ops := genLLSCOps(rand.New(rand.NewSource(7)), 200)
	ops = append(ops, llscOp{kind: 'l', tid: 1, addr: 4 * llscPageSize})
	ops = append(ops, llscOp{kind: 'c', tid: 1, addr: 4 * llscPageSize})
	// replayLLSC of the full sequence passes (table and model agree), so
	// exercise the shrinker on a failing predicate instead: "the sequence
	// ends with a successful SC".
	fails := func(ops []llscOp) bool {
		tab := NewLLSCTable()
		ok := false
		for _, op := range ops {
			switch op.kind {
			case 'l':
				tab.OnLL(op.tid, op.addr)
			case 's':
				tab.OnStore(op.tid, op.addr)
			case 'c':
				ok = tab.ValidateSC(op.tid, op.addr)
			case 'i':
				tab.InvalidatePage(op.addr, llscPageSize)
			case 'd':
				tab.DropThread(op.tid)
			}
		}
		return ok
	}
	if !fails(ops) {
		t.Fatal("setup: sequence does not end in a successful SC")
	}
	for again := true; again; {
		again = false
		for i := 0; i < len(ops); i++ {
			cand := append(append([]llscOp{}, ops[:i]...), ops[i+1:]...)
			if fails(cand) {
				ops, again = cand, true
				i--
			}
		}
	}
	if len(ops) != 2 || ops[0].kind != 'l' || ops[1].kind != 'c' {
		var b strings.Builder
		for _, op := range ops {
			fmt.Fprintf(&b, "%v ", op)
		}
		t.Fatalf("shrinker left %d ops: %s", len(ops), b.String())
	}
}
