package dqemu_test

import (
	"encoding/json"
	"go/ast"
	"go/parser"
	"go/token"
	"io/fs"
	"os"
	"path/filepath"
	"regexp"
	"strings"
	"testing"

	"dqemu"
	"dqemu/internal/core"
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

// TestDocsNameExistingTests holds README.md, DESIGN.md and EXPERIMENTS.md to
// the tree, so a doc cannot keep pointing at what was renamed or deleted.
// Outside fenced blocks, every code span that
//   - names a test, fuzz target or benchmark (`TestFoo`, `FuzzBar/seed`) must
//     be declared in some _test.go file;
//   - starts with an `internal/…`, `cmd/…` or `scenarios/…` path must name a
//     file or directory that exists (a `*` in it is a glob);
//   - starts with `pkg.Name`, where pkg is a package directory under
//     internal/, must name a top-level declaration or method of pkg's
//     non-test files (interface methods included), a test of pkg, a key of
//     a zero core.Result's Rows, or a metric of BENCHMARK.json.
//     `pkg.(*T).m` names method m; `name.go` is a file.
func TestDocsNameExistingTests(t *testing.T) {
	testDecl := regexp.MustCompile(`(?m)^func ((?:Test|Fuzz|Benchmark)\w+)\(`)
	tests := map[string]bool{}
	pkgs := map[string]map[string]bool{} // package dir name -> names it declares
	err := filepath.WalkDir(".", func(path string, d fs.DirEntry, err error) error {
		switch {
		case err != nil:
			return err
		case d.IsDir() && (d.Name() == ".git" || d.Name() == "testdata"):
			return fs.SkipDir
		case !strings.HasSuffix(path, ".go"):
			return nil
		}
		src, err := os.ReadFile(path)
		if err != nil {
			return err
		}
		internal := strings.HasPrefix(filepath.ToSlash(path), "internal/")
		pkg := filepath.Base(filepath.Dir(path))
		if internal && pkgs[pkg] == nil {
			pkgs[pkg] = map[string]bool{}
		}
		if strings.HasSuffix(path, "_test.go") {
			for _, m := range testDecl.FindAllSubmatch(src, -1) {
				tests[string(m[1])] = true
				if internal {
					pkgs[pkg][string(m[1])] = true
				}
			}
			return nil
		}
		if !internal {
			return nil
		}
		f, err := parser.ParseFile(token.NewFileSet(), path, src, parser.SkipObjectResolution)
		if err != nil {
			return err
		}
		for _, decl := range f.Decls {
			switch decl := decl.(type) {
			case *ast.FuncDecl:
				pkgs[pkg][decl.Name.Name] = true
			case *ast.GenDecl:
				for _, spec := range decl.Specs {
					switch spec := spec.(type) {
					case *ast.TypeSpec:
						pkgs[pkg][spec.Name.Name] = true
						if it, ok := spec.Type.(*ast.InterfaceType); ok {
							for _, m := range it.Methods.List {
								for _, n := range m.Names {
									pkgs[pkg][n.Name] = true
								}
							}
						}
					case *ast.ValueSpec:
						for _, n := range spec.Names {
							pkgs[pkg][n.Name] = true
						}
					}
				}
			}
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	keys := map[string]bool{}
	for _, row := range (&core.Result{}).Rows("virtual") {
		keys[row.Key] = true
	}
	var bench struct {
		EndToEnd []struct{ Name string } `json:"end_to_end"`
		PerLayer []struct{ Name string } `json:"per_layer"`
	}
	raw, err := os.ReadFile("BENCHMARK.json")
	if err == nil {
		err = json.Unmarshal(raw, &bench)
	}
	if err != nil {
		t.Fatal(err)
	}
	for _, m := range append(bench.EndToEnd, bench.PerLayer...) {
		keys[m.Name] = true
	}

	fence := regexp.MustCompile("(?ms)^```.*?^```")
	span := regexp.MustCompile("`([^`]+)`")
	named := regexp.MustCompile(`^(?:Test|Fuzz|Benchmark)[A-Z0-9_]\w*`)
	path := regexp.MustCompile(`^(?:internal|cmd|scenarios)/[\w./*-]*`)
	ident := regexp.MustCompile(`^([a-z]\w*)\.(?:\(\*?\w+\)\.)?(\w+)(?:\.\w+)*`)
	nTests, nNames := 0, 0
	for _, doc := range []string{"README.md", "DESIGN.md", "EXPERIMENTS.md"} {
		text, err := os.ReadFile(doc)
		if err != nil {
			t.Fatal(err)
		}
		for _, m := range span.FindAllSubmatch(fence.ReplaceAll(text, nil), -1) {
			code := string(m[1])
			if name := named.FindString(code); name != "" {
				nTests++
				if !tests[name] {
					t.Errorf("%s names `%s`, which no _test.go file declares", doc, name)
				}
			}
			if p := strings.TrimRight(path.FindString(code), "./"); p != "" {
				if hits, _ := filepath.Glob(p); len(hits) == 0 {
					t.Errorf("%s names `%s`, which does not exist", doc, p)
				}
			}
			id := ident.FindStringSubmatch(code)
			if id == nil || pkgs[id[1]] == nil || id[2] == "go" {
				continue
			}
			nNames++
			if !pkgs[id[1]][id[2]] && !keys[id[0]] {
				t.Errorf("%s names `%s`, which internal/…/%s does not declare and no metric is called", doc, id[0], id[1])
			}
		}
	}
	if nTests == 0 || nNames < 100 {
		t.Errorf("the documents name %d tests and %d package members; a pattern is broken", nTests, nNames)
	}
}
