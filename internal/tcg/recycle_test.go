package tcg

import (
	"testing"

	"dqemu/internal/recycle"
)

// Two programs whose loops compile to memory runs: 8-byte loads and stores
// of globals and of stack slots, a site TLB line each.
const (
	recycleSrcA = `
long a[600];
long b[600];
long main() {
	long s = 0;
	for (long r = 0; r < 30; r++) {
		for (long i = 0; i < 590; i++) {
			a[i] = a[i + 1] + b[i] + r;
			b[i + 1] = a[i] ^ s;
			s += a[i];
		}
	}
	print_long(s);
	print_char('\n');
	return s & 63;
}
`
	recycleSrcB = `
long v[300];
long w[300];
long step(long x) { return x * 5 + 3; }
long main() {
	long t = 7;
	for (long r = 0; r < 50; r++) {
		for (long i = 1; i < 300; i++) {
			v[i] = v[i - 1] + w[i] + step(t);
			w[i] = v[i] - t;
			t += w[i] & 255;
		}
	}
	print_str("t=");
	print_long(t);
	print_char('\n');
	return t & 31;
}
`
)

// TestRecycledEngineRunsLikeFresh: an engine handed back after program A
// runs program B exactly as a fresh engine does — exit code, output and
// every Stats counter — though B's memory runs are cut from the slab slots
// whose site TLB lines last pointed into A's pages, and those pages have
// since gone back to the page recycler too. No translation of A survives:
// B translates as many blocks as it does on a fresh engine.
func TestRecycledEngineRunsLikeFresh(t *testing.T) {
	recycle.Drain()

	space, cpu := loadProgram(t, "b.mc", recycleSrcB)
	fresh := NewEngine(space, DefaultCostModel())
	wantExit, wantOut := runToExit(t, fresh, cpu)
	if fresh.Stats.Tier3Superblocks == 0 || fresh.accs.used == 0 {
		t.Fatalf("B compiled no memory run: %+v", fresh.Stats)
	}

	spaceA, cpuA := loadProgram(t, "a.mc", recycleSrcA)
	eA := NewEngine(spaceA, DefaultCostModel())
	runToExit(t, eA, cpuA)
	if eA.accs.used == 0 {
		t.Fatal("A compiled no memory run")
	}
	chunk := eA.accs.chunks[0]
	lines := 0
	for i := range chunk {
		if chunk[i].st.data != nil {
			lines++
		}
	}
	if lines == 0 {
		t.Fatal("no access of A's memory runs holds a site TLB line")
	}
	statsA := eA.Stats
	eA.Release()
	spaceA.Release()
	for i := range chunk {
		if chunk[i] != (memAcc{}) {
			t.Fatalf("slab slot %d kept %+v past Release", i, chunk[i])
		}
	}
	if eA.Stats != statsA {
		t.Errorf("a released engine's Stats changed: %+v, want %+v", eA.Stats, statsA)
	}

	space, cpu = loadProgram(t, "b.mc", recycleSrcB)
	eB := NewEngine(space, DefaultCostModel())
	if eB != eA {
		t.Fatal("the recycler did not hand back the released engine")
	}
	if eB.Stats != (Stats{}) || len(eB.cache) != 0 {
		t.Fatalf("a drawn engine starts with Stats %+v and %d cached blocks", eB.Stats, len(eB.cache))
	}
	exit, out := runToExit(t, eB, cpu)
	if exit != wantExit || out != wantOut {
		t.Errorf("B on A's engine: exit %d, output %q; on a fresh engine %d, %q", exit, out, wantExit, wantOut)
	}
	if eB.Stats != fresh.Stats {
		t.Errorf("B on A's engine: Stats %+v\nfresh engine: %+v", eB.Stats, fresh.Stats)
	}
	if &eB.accs.chunks[0][0] != &chunk[0] {
		t.Error("B's memory runs were not cut from A's slab")
	}
}

// TestReleasedEngineIsInert: a handed-back engine keeps only its Stats.
// Exec panics rather than run translations whose storage the next engine
// drawn writes over, and InvalidatePage, finding no code page, flushes
// nothing.
func TestReleasedEngineIsInert(t *testing.T) {
	_, e, cpu, im := setupImage(t, hotLoops)
	runToStop(t, e, cpu)
	stats := e.Stats
	code := e.Mem.PageOf(e.Mem.Translate(im.Entry))
	if _, ok := e.codePages[code]; !ok || stats.Blocks == 0 {
		t.Fatal("nothing was translated")
	}
	e.Release()
	e.InvalidatePage(code)
	if e.Stats != stats {
		t.Errorf("Stats after Release and InvalidatePage: %+v, want %+v", e.Stats, stats)
	}
	defer func() {
		if r := recover(); r != "tcg: Exec on a released engine" {
			t.Errorf("Exec on a released engine: recovered %v", r)
		}
	}()
	e.Exec(&CPU{PC: im.Entry}, 1000)
}
