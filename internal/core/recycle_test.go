package core

import (
	"fmt"
	"runtime"
	"runtime/debug"
	"strings"
	"sync"
	"testing"

	"dqemu/internal/asm"
	"dqemu/internal/grt"
	"dqemu/internal/proto"
)

// fourThreadSrc is a 4-thread guest whose workers each fill and sum a
// block of their own, so on two slaves every node makes pages and twins.
const fourThreadSrc = `
long data[4096];
long sums[4];
long worker(long idx) {
	long s = 0;
	for (long i = idx * 1024; i < (idx + 1) * 1024; i++) {
		data[i] = i * 3 + idx;
		s += data[i];
	}
	sums[idx] = s;
	return 0;
}
long main() {
	long tids[4];
	for (long i = 0; i < 4; i++) tids[i] = thread_create((long)worker, i);
	for (long i = 0; i < 4; i++) thread_join(tids[i]);
	print_long(sums[0] + sums[1] + sums[2] + sums[3]);
	print_char('\n');
	return 0;
}`

// TestReleasedClusterPanics: once a cluster's memory has gone to the
// recycler, using the cluster again is a bug that must not run on memory
// another run may own.
func TestReleasedClusterPanics(t *testing.T) {
	cfg := DefaultConfig()
	cfg.Slaves = 2
	c, err := NewCluster(build(t, fourThreadSrc), cfg)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := c.Run(); err != nil {
		t.Fatal(err)
	}
	c.Release()
	for name, use := range map[string]func(){
		"Run":     func() { c.Run() },
		"Deliver": func() { c.Deliver(&proto.Msg{Kind: proto.KShutdown, To: 1}) },
		"Result":  func() { c.Result() },
		"Release": func() { c.Release() },
	} {
		func() {
			defer func() {
				if r := recover(); r != "core: cluster used after Release" {
					t.Errorf("%s after Release: recovered %v, want the use-after-release panic", name, r)
				}
			}()
			use()
		}()
	}
}

// TestAllocSecondRunRecycles: a run released by core.Run hands its pages,
// twins, snapshots and engines to the next one, which then allocates less
// than half of what the first did (512.8 KB, then 182.3 KB, measured for
// this guest on two slaves).
func TestAllocSecondRunRecycles(t *testing.T) {
	if raceEnabled {
		t.Skip("the detector's own bookkeeping allocates, and sync.Pool drops at random under it")
	}
	im := build(t, fourThreadSrc)
	cfg := DefaultConfig()
	cfg.Slaves = 2
	emptyRecycler()
	// No collection between the runs: it would empty the recycler.
	defer debug.SetGCPercent(debug.SetGCPercent(-1))
	run := func() uint64 {
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		res, err := Run(im, cfg)
		runtime.ReadMemStats(&after)
		if err != nil {
			t.Fatal(err)
		}
		if res.Console != "25165824\n" {
			t.Fatalf("console %q", res.Console)
		}
		return after.TotalAlloc - before.TotalAlloc
	}
	first := run()
	second := run()
	t.Logf("first run %.1f KB, second %.1f KB", float64(first)/1e3, float64(second)/1e3)
	if second*2 > first {
		t.Errorf("the second run allocated %d bytes, more than half the first's %d", second, first)
	}
}

// TestRecyclerConcurrentRuns: runs in different goroutines draw from and
// return to the one recycler at once (the job daemon runs several jobs at a
// time); under -race this is the recycler's data-race check.
func TestRecyclerConcurrentRuns(t *testing.T) {
	progs := []struct{ src, want string }{
		{fourThreadSrc, "25165824\n"},
		{pingPongSrc(20), "40\n"},
	}
	var wg sync.WaitGroup
	errs := make(chan error, len(progs))
	for _, p := range progs {
		im := build(t, p.src)
		wg.Add(1)
		go func() {
			defer wg.Done()
			cfg := DefaultConfig()
			cfg.Slaves = 2
			for i := 0; i < 3; i++ {
				res, err := Run(im, cfg)
				if err != nil {
					errs <- err
					return
				}
				if res.Console != p.want {
					errs <- fmt.Errorf("run %d: console %q, want %q", i, res.Console, p.want)
					return
				}
			}
		}()
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Error(err)
	}
}

// TestFootprintLimit: every node holds its own copy of the read-only
// segments, so a few bytes of program reserving 8 MiB of .rodata would cost
// 136 MiB on 16 slaves. NewCluster refuses it, naming the limit, before a
// page is installed; on one node it runs.
func TestFootprintLimit(t *testing.T) {
	im, err := grt.BuildAsmProgram(asm.Source{Name: "big.s", Text: "main:\n\tli a0, 0\n\tret\n\t.rodata\nbig: .space 0x800000\n"})
	if err != nil {
		t.Fatal(err)
	}
	cfg := DefaultConfig()
	cfg.Slaves = 16
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	_, err = NewCluster(im, cfg)
	runtime.ReadMemStats(&after)
	if err == nil || !strings.Contains(err.Error(), "image.MaxMemBytes") {
		t.Fatalf("16 slaves: err %v, want one naming image.MaxMemBytes", err)
	}
	if got := after.TotalAlloc - before.TotalAlloc; got >= 1<<20 {
		t.Errorf("the refusal allocated %d bytes, want under 1 MiB", got)
	}
	cfg.Slaves = 0
	if res, err := Run(im, cfg); err != nil || res.ExitCode != 0 {
		t.Fatalf("0 slaves: %v, %v", res, err)
	}
	if err := CheckFootprint(im, 6); err != nil {
		t.Errorf("7 copies of 8 MiB are under 64 MiB: %v", err)
	}
	if err := CheckFootprint(im, 7); err == nil {
		t.Error("8 copies of 8 MiB plus the runtime's data passed")
	}
}
