package asm_test

import (
	"bufio"
	"crypto/sha256"
	"flag"
	"fmt"
	"math/rand"
	"os"
	"path/filepath"
	"sort"
	"strconv"
	"strings"
	"testing"

	"dqemu/internal/asm"
	"dqemu/internal/grt"
	"dqemu/internal/grt/grttest"
	"dqemu/internal/image"
	"dqemu/internal/workloads"
)

var update = flag.Bool("update", false, "rewrite testdata/images.golden from this assembler")

const goldenPath = "testdata/images.golden"

// digest is what the golden file holds for one build: the SHA-256 of the
// encoded image (segments, entry and symbol table), or the exact diagnostic.
func digest(im *image.Image, err error) string {
	if err != nil {
		return "error: " + strconv.Quote(err.Error())
	}
	return fmt.Sprintf("%x", sha256.Sum256(im.Encode()))
}

// caseSources splits a testdata case at its ";;; file NAME" lines, so one
// case can be several assembly units (the marker is an assembler comment).
func caseSources(name, text string) []asm.Source {
	srcs := []asm.Source{{Name: name}}
	for _, line := range strings.SplitAfter(text, "\n") {
		if rest, ok := strings.CutPrefix(line, ";;; file "); ok {
			srcs = append(srcs, asm.Source{Name: strings.TrimSpace(rest)})
			continue
		}
		srcs[len(srcs)-1].Text += line
	}
	return srcs
}

// fuzzCorpusString reads one "go test fuzz v1" file holding a single string.
func fuzzCorpusString(t *testing.T, path string) string {
	t.Helper()
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	lines := strings.SplitN(string(data), "\n", 3)
	lit := strings.TrimSuffix(strings.TrimPrefix(strings.TrimSpace(lines[1]), "string("), ")")
	s, err := strconv.Unquote(lit)
	if err != nil {
		t.Fatalf("%s: %v", path, err)
	}
	return s
}

// goldenTiny and goldenThreads are the two job sources the benchmark's
// daemon_jobs workload compiles (bench/ cannot be imported from here).
func goldenTiny(c int) string {
	return fmt.Sprintf("long main() { print_str(\"tiny \"); print_long(%d); print_char('\\n'); return %d; }\n", c, c&63)
}

func goldenThreads(c int) string {
	return fmt.Sprintf(`
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
}

// goldenManyFuncs is a seeded mini-C program of funcs straight-line
// functions over every binary operator, locals, globals, a double and a
// string each: the shape of the benchmark's cold_code inputs, at their size.
func goldenManyFuncs(seed int64, funcs int) string {
	rng := rand.New(rand.NewSource(seed))
	ops := []string{"+", "-", "*", "^", "&", "|", "<<", ">>", "/", "%", "<", "==", "!="}
	var sb strings.Builder
	sb.WriteString("long g[64];\ndouble gd = 1.5;\n")
	for f := 0; f < funcs; f++ {
		fmt.Fprintf(&sb, "long f%d(long x) {\n\tlong v0 = x;\n\tlong v1 = x + %d;\n\tlong v2 = g[%d];\n\tdouble d = gd * %d.25;\n",
			f, rng.Intn(1<<20), rng.Intn(64), rng.Intn(100))
		for s := 0; s < 4+rng.Intn(12); s++ {
			op := ops[rng.Intn(len(ops))]
			rhs := fmt.Sprintf("v%d", rng.Intn(3))
			switch {
			case op == "<<" || op == ">>":
				rhs = fmt.Sprint(1 + rng.Intn(13))
			case op == "/" || op == "%":
				rhs = fmt.Sprint(1 + rng.Int63n(1<<40))
			case rng.Intn(2) == 0:
				rhs = fmt.Sprint(rng.Int63n(1<<uint(1+rng.Intn(40))) - 1000)
			}
			fmt.Fprintf(&sb, "\tv%d = v%d %s %s;\n", rng.Intn(3), rng.Intn(3), op, rhs)
		}
		if f%7 == 0 {
			fmt.Fprintf(&sb, "\tif (v0 > v1) { g[%d] = v2; print_str(\"f%d\\n\"); }\n", rng.Intn(64), f)
		}
		if f%5 == 0 {
			sb.WriteString("\tfor (long i = 0; i < 3; i++) v1 += i * v2;\n")
		}
		sb.WriteString("\treturn v0 + v1 + v2 + (long)d;\n}\n")
	}
	sb.WriteString("long main() {\n\tlong acc = 1;\n")
	for f := 0; f < funcs; f++ {
		fmt.Fprintf(&sb, "\tacc = f%d(acc);\n", f)
	}
	sb.WriteString("\tprint_long(acc);\n\treturn acc & 63;\n}\n")
	return sb.String()
}

// goldenMiniC is every pinned build of mini-C text held in this file, by
// row name.
func goldenMiniC() map[string]struct{ file, src string } {
	type mc = struct{ file, src string }
	out := map[string]mc{
		"runtime/no-main":    {"nomain.mc", "long helper() { return 1; }\n"},
		"runtime/dup-symbol": {"dup.mc", "long strlen(char *s) { return 0; }\nlong main() { return 0; }\n"},
	}
	for _, c := range []int{100000, 100001, 123456, 999999} {
		out[fmt.Sprintf("job/tiny-%d", c)] = mc{"tiny.mc", goldenTiny(c)}
	}
	for _, c := range []int{1, 2, 1000} {
		out[fmt.Sprintf("job/threads-%d", c)] = mc{"threads.mc", goldenThreads(c)}
	}
	for _, g := range []struct {
		seed  int64
		funcs int
	}{{1, 300}, {2, 320}, {3, 24}} {
		out[fmt.Sprintf("gen/seed%d-funcs%d", g.seed, g.funcs)] = mc{"gen.mc", goldenManyFuncs(g.seed, g.funcs)}
	}
	return out
}

// TestBothRoutesSameImage: each mini-C build of goldenMiniC makes the same
// image, or the same diagnostic, from the text -S prints as straight from
// the compiler. The stock workloads are held to it in internal/workloads.
func TestBothRoutesSameImage(t *testing.T) {
	for name, mc := range goldenMiniC() {
		if d := grttest.DiffRoutes(mc.file, mc.src); d != "" {
			t.Errorf("%s: %s", name, d)
		}
	}
}

// goldenBuilds returns every pinned build, by name.
func goldenBuilds(t *testing.T) map[string]string {
	t.Helper()
	out := map[string]string{}

	cases, err := filepath.Glob("testdata/cases/*.s")
	if err != nil || len(cases) == 0 {
		t.Fatalf("no testdata cases (%v)", err)
	}
	for _, path := range cases {
		text, err := os.ReadFile(path)
		if err != nil {
			t.Fatal(err)
		}
		name := filepath.Base(path)
		out["case/"+name] = digest(asm.Assemble(caseSources(name, string(text))...))
	}
	corpus, err := filepath.Glob("testdata/fuzz/FuzzAssemble/*")
	if err != nil || len(corpus) == 0 {
		t.Fatalf("no fuzz corpus (%v)", err)
	}
	for _, path := range corpus {
		text := fuzzCorpusString(t, path)
		out["fuzz/"+filepath.Base(path)] = digest(asm.Assemble(asm.Source{Name: "fuzz.s", Text: text}))
		// The same text behind the runtime, as a job would submit it.
		out["fuzz+rt/"+filepath.Base(path)] = digest(grt.BuildAsmProgram(asm.Source{Name: "fuzz.s", Text: text}))
	}

	rt, err := grt.RuntimeSources()
	if err != nil {
		t.Fatal(err)
	}
	out["runtime/alone"] = digest(asm.Assemble(rt...))
	out["runtime/textbase"] = digest(asm.AssembleOptions(asm.Options{TextBase: 0x40_0000}, rt...))
	out["runtime/asm-main"] = digest(grt.BuildAsmProgram(asm.Source{Name: "main.s", Text: "main:\n\tli a0, 3\n\tret\n"}))
	for name, mc := range goldenMiniC() {
		out[name] = digest(grt.BuildProgram(mc.file, mc.src))
	}

	// Every stock guest at the argument sets bench/workloads.go,
	// bench/kernels.go, scenarios/ and examples/ build it with.
	type wl = func() (*image.Image, error)
	for name, build := range map[string]wl{
		"pi(4,50,50)":                  func() (*image.Image, error) { return workloads.Pi(4, 50, 50) },
		"pi(8,1600,100)":               func() (*image.Image, error) { return workloads.Pi(8, 1600, 100) },
		"pi(8,1200,100)":               func() (*image.Image, error) { return workloads.Pi(8, 1200, 100) },
		"pi(4,100,300)":                func() (*image.Image, error) { return workloads.Pi(4, 100, 300) },
		"pi(8,400,100)":                func() (*image.Image, error) { return workloads.Pi(8, 400, 100) },
		"pi(120,1200,100)":             func() (*image.Image, error) { return workloads.Pi(120, 1200, 100) },
		"pi(48,400,500)":               func() (*image.Image, error) { return workloads.Pi(48, 400, 500) },
		"blackscholes(4,64,2,1)":       func() (*image.Image, error) { return workloads.Blackscholes(4, 64, 2, 1) },
		"blackscholes(4,64,2,2)":       func() (*image.Image, error) { return workloads.Blackscholes(4, 64, 2, 2) },
		"blackscholes(8,4096,16,1)":    func() (*image.Image, error) { return workloads.Blackscholes(8, 4096, 16, 1) },
		"blackscholes(8,2048,10,2)":    func() (*image.Image, error) { return workloads.Blackscholes(8, 2048, 10, 2) },
		"blackscholes(8,256,4,3)":      func() (*image.Image, error) { return workloads.Blackscholes(8, 256, 4, 3) },
		"blackscholes(8,1024,10,1)":    func() (*image.Image, error) { return workloads.Blackscholes(8, 1024, 10, 1) },
		"blackscholes(32,32768,12,6)":  func() (*image.Image, error) { return workloads.Blackscholes(32, 32768, 12, 6) },
		"blackscholes(16,32768,8,2)":   func() (*image.Image, error) { return workloads.Blackscholes(16, 32768, 8, 2) },
		"swaptions(4,4,20,1)":          func() (*image.Image, error) { return workloads.Swaptions(4, 4, 20, 1) },
		"swaptions(8,48,300,1)":        func() (*image.Image, error) { return workloads.Swaptions(8, 48, 300, 1) },
		"swaptions(8,12,40,3)":         func() (*image.Image, error) { return workloads.Swaptions(8, 12, 40, 3) },
		"swaptions(8,24,120,1)":        func() (*image.Image, error) { return workloads.Swaptions(8, 24, 120, 1) },
		"swaptions(32,64,600,6)":       func() (*image.Image, error) { return workloads.Swaptions(32, 64, 600, 6) },
		"x264(4,2,3)":                  func() (*image.Image, error) { return workloads.X264(4, 2, 3) },
		"x264(8,4,96)":                 func() (*image.Image, error) { return workloads.X264(8, 4, 96) },
		"x264(8,4,24)":                 func() (*image.Image, error) { return workloads.X264(8, 4, 24) },
		"x264(16,4,8)":                 func() (*image.Image, error) { return workloads.X264(16, 4, 8) },
		"x264(128,4,6)":                func() (*image.Image, error) { return workloads.X264(128, 4, 6) },
		"fluidanimate(4,16,2,2)":       func() (*image.Image, error) { return workloads.Fluidanimate(4, 16, 2, 2) },
		"fluidanimate(32,192,6,4)":     func() (*image.Image, error) { return workloads.Fluidanimate(32, 192, 6, 4) },
		"fluidanimate(8,128,10,2)":     func() (*image.Image, error) { return workloads.Fluidanimate(8, 128, 10, 2) },
		"fluidanimate(32,96,4,4)":      func() (*image.Image, error) { return workloads.Fluidanimate(32, 96, 4, 4) },
		"fluidanimate(128,256,4,6)":    func() (*image.Image, error) { return workloads.Fluidanimate(128, 256, 4, 6) },
		"canneal(4,256,40,1)":          func() (*image.Image, error) { return workloads.Canneal(4, 256, 40, 1) },
		"canneal(8,16384,2000,1)":      func() (*image.Image, error) { return workloads.Canneal(8, 16384, 2000, 1) },
		"canneal(8,16384,2000,2)":      func() (*image.Image, error) { return workloads.Canneal(8, 16384, 2000, 2) },
		"canneal(8,4096,400,1)":        func() (*image.Image, error) { return workloads.Canneal(8, 4096, 400, 1) },
		"canneal(6,2048,200,7)":        func() (*image.Image, error) { return workloads.Canneal(6, 2048, 200, 7) },
		"canneal(8,4096,300,7)":        func() (*image.Image, error) { return workloads.Canneal(8, 4096, 300, 7) },
		"dedup(1,2,1,12,8,4)":          func() (*image.Image, error) { return workloads.Dedup(1, 2, 1, 12, 8, 4) },
		"dedup(2,4,2,2048,256,16)":     func() (*image.Image, error) { return workloads.Dedup(2, 4, 2, 2048, 256, 16) },
		"dedup(2,4,2,384,256,16)":      func() (*image.Image, error) { return workloads.Dedup(2, 4, 2, 384, 256, 16) },
		"dedup(4,4,2,300,256,16)":      func() (*image.Image, error) { return workloads.Dedup(4, 4, 2, 300, 256, 16) },
		"streamcluster(3,96,4,2)":      func() (*image.Image, error) { return workloads.Streamcluster(3, 96, 4, 2) },
		"streamcluster(12,16384,16,6)": func() (*image.Image, error) { return workloads.Streamcluster(12, 16384, 16, 6) },
		"streamcluster(12,4096,16,3)":  func() (*image.Image, error) { return workloads.Streamcluster(12, 4096, 16, 3) },
		"streamcluster(8,2048,8,8)":    func() (*image.Image, error) { return workloads.Streamcluster(8, 2048, 8, 8) },
		"phases(8,8)":                  func() (*image.Image, error) { return workloads.Phases(8, 8) },
		"racy(6,40,1234)":              func() (*image.Image, error) { return workloads.Racy(6, 40, 1234) },
		"torture(4,50)":                func() (*image.Image, error) { return workloads.Torture(4, 50) },
		"lockbench(16,500,false)":      func() (*image.Image, error) { return workloads.LockBench(16, 500, false) },
		"lockbench(32,500,false)":      func() (*image.Image, error) { return workloads.LockBench(32, 500, false) },
		"lockbench(16,500,true)":       func() (*image.Image, error) { return workloads.LockBench(16, 500, true) },
		"memwalk(524288)":              func() (*image.Image, error) { return workloads.MemWalk(524288) },
		"memwalk(2097152)":             func() (*image.Image, error) { return workloads.MemWalk(2097152) },
		"localwalk(2097152)":           func() (*image.Image, error) { return workloads.LocalWalk(2097152) },
		"falseshare(16,4,128,60)":      func() (*image.Image, error) { return workloads.FalseShare(16, 4, 128, 60) },
		"falseshare(32,4,128,100)":     func() (*image.Image, error) { return workloads.FalseShare(32, 4, 128, 100) },
		"falseshare(32,4,128,1200)":    func() (*image.Image, error) { return workloads.FalseShare(32, 4, 128, 1200) },
		"falseshare(16,4,128,400)":     func() (*image.Image, error) { return workloads.FalseShare(16, 4, 128, 400) },
	} {
		out["workload/"+name] = digest(build())
	}
	return out
}

// TestGoldenImages pins image identity: every build below must give the
// byte-identical image (or the identical diagnostic) it gave when the file
// was generated — by the two-pass assembler of commit 5e92bd0, before the
// one-pass rewrite. Regenerate with -update only when a change is meant to
// alter images.
func TestGoldenImages(t *testing.T) {
	got := goldenBuilds(t)
	names := make([]string, 0, len(got))
	for name := range got {
		names = append(names, name)
	}
	sort.Strings(names)

	if *update {
		var sb strings.Builder
		for _, name := range names {
			fmt.Fprintf(&sb, "%s\t%s\n", name, got[name])
		}
		if err := os.WriteFile(goldenPath, []byte(sb.String()), 0o644); err != nil {
			t.Fatal(err)
		}
		t.Logf("wrote %d entries to %s", len(names), goldenPath)
		return
	}

	f, err := os.Open(goldenPath)
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	want := map[string]string{}
	sc := bufio.NewScanner(f)
	sc.Buffer(nil, 1<<20)
	for sc.Scan() {
		name, sum, ok := strings.Cut(sc.Text(), "\t")
		if !ok {
			t.Fatalf("%s: malformed line %q", goldenPath, sc.Text())
		}
		want[name] = sum
	}
	if err := sc.Err(); err != nil {
		t.Fatal(err)
	}
	for _, name := range names {
		switch w, ok := want[name]; {
		case !ok:
			t.Errorf("%s: not in %s (run with -update at a commit whose images are known good)", name, goldenPath)
		case w != got[name]:
			t.Errorf("%s:\n got  %s\n want %s", name, got[name], w)
		}
	}
	for name := range want {
		if _, ok := got[name]; !ok {
			t.Errorf("%s: in %s but no longer built", name, goldenPath)
		}
	}
}
