package dqemu_test

import (
	"io/fs"
	"os"
	"path/filepath"
	"regexp"
	"strings"
	"testing"

	"dqemu"
)

func TestPublicAPIQuickstart(t *testing.T) {
	im, err := dqemu.Compile("hello.mc", `
long main() {
	print_str("hello from ");
	print_long(num_nodes());
	print_str(" nodes\n");
	return 0;
}`)
	if err != nil {
		t.Fatal(err)
	}
	cfg := dqemu.DefaultConfig()
	cfg.Slaves = 2
	res, err := dqemu.Run(im, cfg)
	if err != nil {
		t.Fatal(err)
	}
	if res.Console != "hello from 3 nodes\n" {
		t.Errorf("console = %q", res.Console)
	}
	if res.ExitCode != 0 || res.TimeNs <= 0 {
		t.Errorf("exit=%d time=%d", res.ExitCode, res.TimeNs)
	}
}

func TestPublicAPIAssembly(t *testing.T) {
	im, err := dqemu.Assemble(dqemu.Source{Name: "main.s", Text: `
	.global main
main:
	li  a0, 21
	add a0, a0, a0
	ret
`})
	if err != nil {
		t.Fatal(err)
	}
	res, err := dqemu.Run(im, dqemu.DefaultConfig())
	if err != nil {
		t.Fatal(err)
	}
	if res.ExitCode != 42 {
		t.Errorf("exit = %d", res.ExitCode)
	}
}

func TestPublicAPIBareAssembly(t *testing.T) {
	im, err := dqemu.AssembleBare(dqemu.Source{Name: "s.s", Text: `
_start:
	li  a7, 94       ; exit_group
	li  a0, 7
	svc 0
`})
	if err != nil {
		t.Fatal(err)
	}
	res, err := dqemu.Run(im, dqemu.DefaultConfig())
	if err != nil {
		t.Fatal(err)
	}
	if res.ExitCode != 7 {
		t.Errorf("exit = %d", res.ExitCode)
	}
}

func TestPublicAPIClusterVFS(t *testing.T) {
	im, err := dqemu.Compile("cat.mc", `
long main() {
	long fd = open_file("/in.txt", 0);
	if (fd < 0) return 1;
	char buf[128];
	long n = sys_read(fd, buf, 128);
	sys_write(1, buf, n);
	return 0;
}`)
	if err != nil {
		t.Fatal(err)
	}
	c, err := dqemu.NewCluster(im, dqemu.DefaultConfig())
	if err != nil {
		t.Fatal(err)
	}
	c.VFS().AddFile("/in.txt", []byte("through the VFS"))
	res, err := c.Run()
	if err != nil {
		t.Fatal(err)
	}
	if res.Console != "through the VFS" {
		t.Errorf("console = %q", res.Console)
	}
}

func TestCompileToAsm(t *testing.T) {
	out, err := dqemu.CompileToAsm("t.mc", "long main() { return 1 + 2; }")
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(out, "main:") {
		t.Errorf("no main label in output:\n%s", out)
	}
}

// TestCompileToAsmNamesUserLine: the diagnostic counts lines from the
// caller's text, not from the Prelude put in front of it.
func TestCompileToAsmNamesUserLine(t *testing.T) {
	_, err := dqemu.CompileToAsm("x.mc", "long main() {\n  return y;\n}\n")
	if want := `x.mc:2: undefined identifier "y"`; err == nil || err.Error() != want {
		t.Errorf("CompileToAsm: %v, want %s", err, want)
	}
}

func TestCompileErrorsSurface(t *testing.T) {
	if _, err := dqemu.Compile("bad.mc", "long main() { return undefined_thing; }"); err == nil {
		t.Error("expected compile error")
	}
}

func TestOptimizationToggles(t *testing.T) {
	im, err := dqemu.Compile("walk.mc", `
long data[20480];
long out;
long worker(long a) {
	long s = 0;
	for (long i = 0; i < 20480; i++) s += data[i];
	out = s;
	return 0;
}
long main() {
	for (long i = 0; i < 20480; i++) data[i] = 1;
	thread_join(thread_create((long)worker, 0));
	print_long(out);
	return 0;
}`)
	if err != nil {
		t.Fatal(err)
	}
	cfg := dqemu.DefaultConfig()
	cfg.Slaves = 1
	plain, err := dqemu.Run(im, cfg)
	if err != nil {
		t.Fatal(err)
	}
	cfg.Forwarding = true
	fwd, err := dqemu.Run(im, cfg)
	if err != nil {
		t.Fatal(err)
	}
	if plain.Console != "20480" || fwd.Console != "20480" {
		t.Fatalf("results: %q %q", plain.Console, fwd.Console)
	}
	if fwd.TimeNs >= plain.TimeNs {
		t.Errorf("forwarding should help a sequential walk: %d vs %d", fwd.TimeNs, plain.TimeNs)
	}
	if fwd.Dir.Pushes == 0 {
		t.Error("no pushes recorded")
	}
}

// TestDocsNameExistingTests: every test, fuzz target or benchmark the
// documents name in a code span (`TestFoo`, `FuzzBar/seed`) is declared in
// some _test.go file of the tree, and every `internal/…` or `cmd/…` path
// README.md and DESIGN.md name exists, so a doc cannot keep pointing at a
// test or package that was renamed or deleted.
func TestDocsNameExistingTests(t *testing.T) {
	decl := regexp.MustCompile(`(?m)^func ((?:Test|Fuzz|Benchmark)\w+)\(`)
	declared := map[string]bool{}
	err := filepath.WalkDir(".", func(path string, d fs.DirEntry, err error) error {
		switch {
		case err != nil:
			return err
		case d.IsDir() && d.Name() == ".git":
			return fs.SkipDir
		case !strings.HasSuffix(path, "_test.go"):
			return nil
		}
		src, err := os.ReadFile(path)
		for _, m := range decl.FindAllSubmatch(src, -1) {
			declared[string(m[1])] = true
		}
		return err
	})
	if err != nil {
		t.Fatal(err)
	}
	named := regexp.MustCompile("`((?:Test|Fuzz|Benchmark)[A-Z0-9_]\\w*)")
	path := regexp.MustCompile("`((?:internal|cmd)/[\\w./-]*)")
	n := 0
	for _, doc := range []string{"README.md", "DESIGN.md", "EXPERIMENTS.md"} {
		text, err := os.ReadFile(doc)
		if err != nil {
			t.Fatal(err)
		}
		for _, m := range path.FindAllSubmatch(text, -1) {
			// EXPERIMENTS.md is partly history: it may name what is gone.
			if _, err := os.Stat(string(m[1])); err != nil && doc != "EXPERIMENTS.md" {
				t.Errorf("%s names `%s`, which does not exist", doc, m[1])
			}
		}
		for _, m := range named.FindAllSubmatch(text, -1) {
			n++
			if !declared[string(m[1])] {
				t.Errorf("%s names `%s`, which no _test.go file declares", doc, m[1])
			}
		}
	}
	if n == 0 {
		t.Error("the documents name no test at all; the pattern is broken")
	}
}
