package grt

import (
	"bytes"
	"fmt"
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

// buildFresh is BuildProgram as it was before the runtime's assembly was
// memoized: it compiles rt.mc again for this one image.
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
// goroutines build images at once. Each appends its unit to the slice
// RuntimeSources returned, so that slice must be the caller's own (run under
// -race).
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
