package core

import (
	"fmt"
	"math/rand"
	"reflect"
	"runtime"
	"strings"
	"sync"
	"testing"
	"unsafe"

	"dqemu/internal/asm"
	"dqemu/internal/grt"
	"dqemu/internal/proto"
	"dqemu/internal/recycle"
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

// TestReleasedClusterPanics: once a run has ended — Run returned, or End
// was called — the cluster's memory belongs to the recycler, and every
// exported method of the cluster panics rather than run on memory another
// run may own.
func TestReleasedClusterPanics(t *testing.T) {
	im := build(t, fourThreadSrc)
	cfg := DefaultConfig()
	cfg.Slaves = 2
	for _, end := range []struct {
		name string
		end  func(*Cluster)
	}{
		{"Run", func(c *Cluster) {
			if _, err := c.Run(); err != nil {
				t.Fatal(err)
			}
		}},
		{"End", func(c *Cluster) { c.End() }},
	} {
		c, err := NewCluster(im, cfg)
		if err != nil {
			t.Fatal(err)
		}
		end.end(c)
		v := reflect.ValueOf(c)
		for i := 0; i < v.NumMethod(); i++ {
			name, m := v.Type().Method(i).Name, v.Method(i)
			args := make([]reflect.Value, m.Type().NumIn())
			for j := range args {
				args[j] = reflect.Zero(m.Type().In(j))
			}
			func() {
				defer func() {
					if r := recover(); r != "core: cluster used after its run ended" {
						t.Errorf("%s after %s: recovered %v, want the use-after-end panic", name, end.name, r)
					}
				}()
				m.Call(args)
			}()
		}
	}
}

// TestAllocSecondRunRecycles: a run hands its pages, twins, snapshots and
// engines to the next one when it ends, which then allocates less than half
// of what the first did — through core.Run (510.9 KB, then 101.7 KB,
// measured for this guest on two slaves; 541 KB, then 106 KB under the race
// detector), and through NewCluster + Run, the benchmark's loop.
func TestAllocSecondRunRecycles(t *testing.T) {
	im := build(t, fourThreadSrc)
	cfg := DefaultConfig()
	cfg.Slaves = 2
	for _, arm := range []struct {
		name string
		run  func() (*Result, error)
	}{
		{"core.Run", func() (*Result, error) { return Run(im, cfg) }},
		{"NewCluster + Run", func() (*Result, error) {
			c, err := NewCluster(im, cfg)
			if err != nil {
				return nil, err
			}
			return c.Run()
		}},
	} {
		run := func() uint64 {
			var before, after runtime.MemStats
			runtime.ReadMemStats(&before)
			res, err := arm.run()
			runtime.ReadMemStats(&after)
			if err != nil {
				t.Fatal(err)
			}
			if res.Console != "25165824\n" {
				t.Fatalf("console %q", res.Console)
			}
			return after.TotalAlloc - before.TotalAlloc
		}
		recycle.Drain()
		first := run()
		second := run()
		t.Logf("%s: first run %.1f KB, second %.1f KB", arm.name, float64(first)/1e3, float64(second)/1e3)
		if second*2 > first {
			t.Errorf("%s: the second run allocated %d bytes, more than half the first's %d", arm.name, second, first)
		}
	}
}

// coldSource is the program bench/coldgen.go's genCold emits for cold_code
// (tcg's tests keep the same generator): funcs straight-line functions of
// stmts statements over four locals, every one called from main reps times.
func coldSource(seed int64, funcs, stmts, reps int) string {
	rng := rand.New(rand.NewSource(seed))
	var sb strings.Builder
	for f := 0; f < funcs; f++ {
		fmt.Fprintf(&sb, "long f%d(long x) {\n\tlong v0 = x;\n\tlong v1 = x + %d;\n\tlong v2 = x ^ %d;\n\tlong v3 = %d;\n",
			f, f+1, 7*f+3, 11*f+5)
		for i := 0; i < stmts; i++ {
			dst, a, op := rng.Intn(4), rng.Intn(4), "+-*^&|lr"[rng.Intn(8)]
			var rhs string
			switch op {
			case 'l', 'r':
				rhs = fmt.Sprint(1 + rng.Int63n(13))
			case '&':
				rhs = fmt.Sprint(rng.Int63n(1<<30) | 0x2aaa5555)
			default:
				if rng.Intn(2) == 0 {
					rhs = fmt.Sprintf("v%d", rng.Intn(4))
				} else {
					rhs = fmt.Sprint(1 + rng.Int63n(1<<20))
				}
			}
			sym := map[byte]string{'l': "<<", 'r': ">>"}[op]
			if sym == "" {
				sym = string(op)
			}
			fmt.Fprintf(&sb, "\tv%d = v%d %s %s;\n", dst, a, sym, rhs)
		}
		sb.WriteString("\treturn x * 3 + v0 + v1 + v2 + v3;\n}\n")
	}
	fmt.Fprintf(&sb, "long main() {\n\tlong acc = %d;\n\tfor (long r = 0; r < %d; r++) {\n", seed, reps)
	for f := 0; f < funcs; f++ {
		fmt.Fprintf(&sb, "\t\tacc = f%d(acc);\n", f)
	}
	sb.WriteString("\t}\n\tprint_str(\"acc=\");\n\tprint_long(acc);\n\tprint_char('\\n');\n\treturn acc & 63;\n}\n")
	return sb.String()
}

// TestAllocColdCodeRunsRecycle: a run hands its engines, and the storage
// their translations were made in, back when it ends. The second of two
// NewCluster + Run runs of the cold-code generator's program then allocates
// at most half of what the first did, though it translates every block
// again, and reports what the first did.
func TestAllocColdCodeRunsRecycle(t *testing.T) {
	im := build(t, coldSource(1, 300, 15, 4))
	cfg := DefaultConfig()
	cfg.Slaves = 0
	recycle.Drain()
	run := func() (uint64, *Result) {
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		c, err := NewCluster(im, cfg)
		if err != nil {
			t.Fatal(err)
		}
		res, err := c.Run()
		runtime.ReadMemStats(&after)
		if err != nil {
			t.Fatal(err)
		}
		return after.TotalAlloc - before.TotalAlloc, res
	}
	first, r1 := run()
	second, r2 := run()
	t.Logf("first run %.1f KB, second %.1f KB", float64(first)/1e3, float64(second)/1e3)
	if r2.Console != r1.Console || r2.TimeNs != r1.TimeNs || r2.Nodes[0].Engine != r1.Nodes[0].Engine {
		t.Fatalf("the second run differs: console %q, %d ns, %+v; the first %q, %d ns, %+v",
			r2.Console, r2.TimeNs, r2.Nodes[0].Engine, r1.Console, r1.TimeNs, r1.Nodes[0].Engine)
	}
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

// frameOrigins counts, by kind, the messages and payload containers a run
// sends that the frame stock neither held when the cluster was built nor
// had sent before in the run: the ones allocated during the run.
type frameOrigins struct {
	Runtime
	msgs       map[*proto.Msg]bool
	containers map[*byte]bool
	freshMsgs  map[proto.Kind]int
	freshData  map[proto.Kind]int
}

func newFrameOrigins(c *Cluster) *frameOrigins {
	r := &frameOrigins{Runtime: c.rt, msgs: map[*proto.Msg]bool{}, containers: map[*byte]bool{},
		freshMsgs: map[proto.Kind]int{}, freshData: map[proto.Kind]int{}}
	msgs, data := stocked()
	for _, m := range msgs {
		r.msgs[m] = true
	}
	for _, d := range data {
		r.containers[unsafe.SliceData(d)] = true
	}
	return r
}

// stocked reports what the frame stock holds, and leaves it holding that.
func stocked() (msgs []*proto.Msg, data [][]byte) {
	for m, ok := stockMsgs.Get(); ok; m, ok = stockMsgs.Get() {
		msgs = append(msgs, m)
	}
	for d, ok := stockData.Get(); ok; d, ok = stockData.Get() {
		data = append(data, d)
	}
	for i := len(msgs) - 1; i >= 0; i-- {
		stockMsgs.Put(msgs[i])
	}
	for i := len(data) - 1; i >= 0; i-- {
		stockData.Put(data[i])
	}
	return msgs, data
}

func (r *frameOrigins) Send(m *proto.Msg) {
	if !r.msgs[m] {
		r.msgs[m] = true
		r.freshMsgs[m.Kind]++
	}
	if len(m.Data) > 0 && !r.containers[unsafe.SliceData(m.Data)] {
		r.containers[unsafe.SliceData(m.Data)] = true
		r.freshData[m.Kind]++
	}
	r.Runtime.Send(m)
}

// TestAllocFramesRecycled: a run builds its messages, and the payload
// containers of its page transfers, in the frames delivered before them,
// which the process's frame stock carries to the next run. A second
// two-slave ping-pong of one page then allocates no message and no
// container on the coherence path. (It allocates the two syscall replies
// whose frames the first run's KShutdowns took: those were never
// delivered.)
func TestAllocFramesRecycled(t *testing.T) {
	im := build(t, pingPongSrc(50))
	cfg := DefaultConfig()
	cfg.Slaves = 2
	recycle.Drain()
	for run := 1; run <= 2; run++ {
		c, err := NewCluster(im, cfg)
		if err != nil {
			t.Fatal(err)
		}
		rec := newFrameOrigins(c)
		c.rt = rec
		if _, err := c.Run(); err != nil {
			t.Fatal(err)
		}
		t.Logf("run %d: allocated messages %v, containers %v", run, rec.freshMsgs, rec.freshData)
		if run == 1 {
			if rec.freshData[proto.KPageContent] == 0 {
				t.Fatal("the first run allocated no container: nothing to recycle")
			}
			continue
		}
		for _, k := range []proto.Kind{proto.KPageReq, proto.KPageContent, proto.KInvalidate, proto.KInvAck,
			proto.KFetch, proto.KFetchReply, proto.KRetry, proto.KRemap, proto.KPush} {
			if rec.freshMsgs[k]+rec.freshData[k] != 0 {
				t.Errorf("the second run allocated %d %v messages and %d containers", rec.freshMsgs[k], k, rec.freshData[k])
			}
		}
	}
}

// TestRecyclerCapped: the recycler keeps no more than its caps, however
// many runs hand it their memory, and the frame stock is as large after the
// tenth run as after the second: every send draws from it.
func TestRecyclerCapped(t *testing.T) {
	im := build(t, pingPongSrc(20))
	cfg := DefaultConfig()
	cfg.Slaves = 2
	recycle.Drain()
	var stock []int
	for run := 0; run < 10; run++ {
		if _, err := Run(im, cfg); err != nil {
			t.Fatal(err)
		}
		msgs, data := stocked()
		stock = append(stock, len(msgs)+len(data))
	}
	for i := 2; i < len(stock); i++ {
		if stock[i] != stock[1] {
			t.Fatalf("frames kept after each run: %v, want no growth after the second", stock)
		}
	}
	// More clusters at once than any run of the benchmark has.
	var wg sync.WaitGroup
	errs := make(chan error, 12)
	for g := 0; g < 12; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < 3; i++ {
				if _, err := Run(im, cfg); err != nil {
					errs <- err
					return
				}
			}
		}()
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Fatal(err)
	}
	for _, h := range recycle.Census() {
		if h.Len > h.Max {
			t.Errorf("%s holds %d, over its cap of %d", h.Name, h.Len, h.Max)
		}
	}
	msgs, data := stocked()
	if len(msgs) > maxKeptMsgs || len(data) > maxKeptContainers {
		t.Errorf("the stock keeps %d messages and %d containers, over the caps of %d and %d",
			len(msgs), len(data), maxKeptMsgs, maxKeptContainers)
	}
	for _, d := range data {
		if cap(d) > maxKeptContainer {
			t.Errorf("the stock kept a container of %d bytes, over the cap of %d", cap(d), maxKeptContainer)
		}
	}
}
