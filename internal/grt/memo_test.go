package grt

import (
	"bytes"
	"fmt"
	"runtime"
	"sync"
	"testing"

	"dqemu/internal/asm"
	"dqemu/internal/minicc"
)

var memoPrograms = []struct{ name, src string }{
	{"one.mc", `long main() { return 7; }`},
	{"print.mc", `long main() { print_str("hello\n"); print_long(42); return 0; }`},
	{"threads.mc", `
long cell[8];
long worker(long i) { cell[i] = i * i; return 0; }
long main() {
	long t[4];
	for (long i = 0; i < 4; i++) t[i] = thread_create((long)worker, i);
	for (long i = 0; i < 4; i++) thread_join(t[i]);
	return cell[3];
}`},
}

// buildFresh is BuildProgram without anything shared: it compiles rt.mc and
// assembles start.s, rt.s and the user's unit from scratch for this one
// image, where BuildProgram continues from the prepared prefix.
func buildFresh(t testing.TB, name, src string) []byte {
	t.Helper()
	rtAsm, err := minicc.Compile("rt.mc", runtimeC)
	if err != nil {
		t.Fatal(err)
	}
	userAsm, err := minicc.Compile(name, Prelude+src)
	if err != nil {
		t.Fatal(err)
	}
	im, err := asm.Assemble(asm.Source{Name: "start.s", Text: startS},
		asm.Source{Name: "rt.s", Text: rtAsm}, asm.Source{Name: name + ".s", Text: userAsm})
	if err != nil {
		t.Fatal(err)
	}
	return im.Encode()
}

func TestRuntimeCompiledOnceImagesIdentical(t *testing.T) {
	for _, p := range memoPrograms {
		want := buildFresh(t, p.name, p.src)
		for round := 0; round < 2; round++ {
			im, err := BuildProgram(p.name, p.src)
			if err != nil {
				t.Fatal(err)
			}
			if !bytes.Equal(im.Encode(), want) {
				t.Errorf("%s, build %d: image differs from the one built with a fresh runtime compile", p.name, round)
			}
		}
	}
	// The assembly entry point shares the memoized runtime and must not see
	// what an earlier caller appended to its source list.
	src := asm.Source{Name: "main.s", Text: "main:\n\tli a0, 3\n\tret\n"}
	a, err := BuildAsmProgram(src)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := BuildProgram("one.mc", memoPrograms[0].src); err != nil {
		t.Fatal(err)
	}
	b, err := BuildAsmProgram(src)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(a.Encode(), b.Encode()) {
		t.Error("BuildAsmProgram: the same sources gave two different images")
	}
}

// TestConcurrentBuildProgram is what dqemud's admissions do: several
// goroutines build images at once, all from the one asm.Prefix of the
// runtime. A build that wrote to the prefix's section bytes, tables or
// fixups instead of to its own copy is a data race here (run under -race).
func TestConcurrentBuildProgram(t *testing.T) {
	want := make([][]byte, len(memoPrograms))
	for i, p := range memoPrograms {
		want[i] = buildFresh(t, p.name, p.src)
	}
	var wg sync.WaitGroup
	errs := make(chan error, 8*len(memoPrograms))
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for k := range memoPrograms {
				i := (g + k) % len(memoPrograms)
				im, err := BuildProgram(memoPrograms[i].name, memoPrograms[i].src)
				if err != nil {
					errs <- err
				} else if !bytes.Equal(im.Encode(), want[i]) {
					errs <- fmt.Errorf("goroutine %d: %s differs from its sequential build", g, memoPrograms[i].name)
				}
			}
		}(g)
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Error(err)
	}
}

// TestBuildTinyAllocs pins what a one-line job costs to build: its own text
// through minicc, a copy of the runtime prefix's bytes and symbols, the image
// and its symbol table — not the prefix's fixups, numeric labels or the
// Prelude's tokens, which every build reads where they are. It measured
// 33,512 B in 252 objects (71,368 B when each build lexed the Prelude and
// copied the fixups; 752,594 B in 18,085 objects when it re-assembled the
// runtime).
func TestBuildTinyAllocs(t *testing.T) {
	const tiny = "long main() { print_str(\"tiny \"); print_long(100001); print_char('\\n'); return 33; }\n"
	build := func() {
		if _, err := BuildProgram("tiny.mc", tiny); err != nil {
			t.Fatal(err)
		}
	}
	build() // the runtime is prepared once per process
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	const runs = 20
	for i := 0; i < runs; i++ {
		build()
	}
	runtime.ReadMemStats(&after)
	bytes := (after.TotalAlloc - before.TotalAlloc) / runs
	objects := testing.AllocsPerRun(runs, build)
	t.Logf("%d B in %.0f objects per build", bytes, objects)
	const maxBytes, maxObjects = 33_512 * 5 / 4, 252 * 5 / 4 // measured, plus a quarter
	if bytes > maxBytes || objects > maxObjects {
		t.Errorf("a one-line BuildProgram allocates %d B in %.0f objects, want at most %d B in %d", bytes, objects, maxBytes, maxObjects)
	}
}
