package main

import (
	"go/ast"
	"go/parser"
	"go/token"
	"os"
	"path/filepath"
	"slices"
	"strings"
	"testing"
)

// lint compiles a fixture under a synthetic path and returns the rule names
// that fired.
func lint(t *testing.T, path, src string) []string {
	t.Helper()
	fs, err := lintSource(path, []byte(src))
	if err != nil {
		t.Fatalf("parse: %v", err)
	}
	var rules []string
	for _, f := range fs {
		rules = append(rules, f.rule)
	}
	return rules
}

func TestWallclockRule(t *testing.T) {
	src := `package core
import "time"
func tick() int64 { return time.Now().UnixNano() }
`
	if got := lint(t, "internal/core/x.go", src); len(got) != 1 || got[0] != "wallclock" {
		t.Errorf("deterministic package: %v", got)
	}
	// The same code is fine outside the deterministic boundary.
	if got := lint(t, "internal/live/x.go", src); len(got) != 0 {
		t.Errorf("live package flagged: %v", got)
	}
	// Renamed imports are still caught.
	renamed := `package core
import clock "time"
func tick() int64 { return clock.Now().UnixNano() }
`
	if got := lint(t, "internal/core/x.go", renamed); len(got) != 1 {
		t.Errorf("renamed import: %v", got)
	}
}

func TestGlobalRandRule(t *testing.T) {
	src := `package chaos
import "math/rand"
func roll() int { return rand.Intn(6) }
`
	// The global source is banned everywhere, even in seed-driving packages.
	if got := lint(t, "internal/chaos/x.go", src); len(got) != 1 || got[0] != "globalrand" {
		t.Errorf("global rand: %v", got)
	}
	seeded := `package chaos
import "math/rand"
func roll(seed int64) int { return rand.New(rand.NewSource(seed)).Intn(6) }
`
	if got := lint(t, "internal/chaos/x.go", seeded); len(got) != 0 {
		t.Errorf("seeded generator flagged: %v", got)
	}
}

func TestMutexCopyRule(t *testing.T) {
	src := `package trace
import "sync"
func lock(mu sync.Mutex) {}
func lockRW(mu sync.RWMutex) {}
func ok(mu *sync.Mutex) {}
type T struct{ mu sync.Mutex }
func (t T) method() {}
`
	got := lint(t, "internal/trace/x.go", src)
	if len(got) != 2 {
		t.Errorf("mutex copies: %v", got)
	}
	for _, r := range got {
		if r != "mutexcopy" {
			t.Errorf("wrong rule: %v", got)
		}
	}
}

func TestNakedPanicRule(t *testing.T) {
	src := `package core
type m struct{}
func (x *m) onFetch(a int) { if a < 0 { panic("bad") } }
func (x *m) handleMsg() { panic("no") }
func (x *m) helper() { panic("internal invariant, allowed") }
`
	got := lint(t, "internal/core/x.go", src)
	if len(got) != 2 {
		t.Errorf("handler panics: %v", got)
	}
	// Outside the protocol packages the rule is off.
	if got := lint(t, "internal/isa/x.go", src); len(got) != 0 {
		t.Errorf("non-protocol package flagged: %v", got)
	}
}

func TestHotSprintfRule(t *testing.T) {
	src := `package trace
import "fmt"
func (t *T) Record(format string, args ...interface{}) {
	t.events = append(t.events, fmt.Sprintf(format, args...))
}
func (t *T) recordOne(v int) string { return fmt.Sprint(v) }
func (t *T) Dump() string { return fmt.Sprintf("%d events", len(t.events)) }
`
	got := lint(t, "internal/trace/x.go", src)
	if len(got) != 2 {
		t.Errorf("eager formatting in recorders: %v", got)
	}
	for _, r := range got {
		if r != "hotsprintf" {
			t.Errorf("wrong rule: %v", got)
		}
	}
	// Outside the deterministic packages recorders may format freely.
	if got := lint(t, "internal/live/x.go", src); len(got) != 0 {
		t.Errorf("non-deterministic package flagged: %v", got)
	}
	// Renamed fmt imports are still caught.
	renamed := `package trace
import format "fmt"
func Record(msg string) string { return format.Errorf("x %s", msg).Error() }
`
	if got := lint(t, "internal/trace/x.go", renamed); len(got) != 1 || got[0] != "hotsprintf" {
		t.Errorf("renamed import: %v", got)
	}
}

func TestT3AllocRule(t *testing.T) {
	src := `package tcg
func compileOp(n int) func() int {
	tbl := make([]int, n) // compile time: fine
	return func() int {
		s := make([]int, 4)        // per execution: flagged
		s = append(s, n)           // per execution: flagged
		p := &point{x: 1}          // per execution: flagged
		f := func() int { return p.x } // per execution: flagged
		return len(tbl) + len(s) + f()
	}
}
func compileClean(n int) func() int {
	buf := make([]int, n)
	p := &point{x: n}
	return func() int { return len(buf) + p.x }
}
func helper() func() int {
	return func() int { s := make([]int, 1); return len(s) } // not a compiler
}
type point struct{ x int }
`
	got := lint(t, "internal/tcg/x.go", src)
	if len(got) != 4 {
		t.Errorf("t3alloc findings: %v", got)
	}
	for _, r := range got {
		if r != "t3alloc" {
			t.Errorf("wrong rule: %v", got)
		}
	}
	// Outside the translation engine the rule is off.
	if got := lint(t, "internal/core/x.go", src); len(got) != 0 {
		t.Errorf("non-tcg package flagged: %v", got)
	}
}

func TestT3ScratchRule(t *testing.T) {
	src := `package tcg
type uop struct{ pc, imm uint64 }
type superblock struct{ ops []uop }
func compileOp(sb *superblock, ops []uop, i int) func() uint64 {
	u := &ops[i]
	pc := u.pc // compile time: fine
	return func() uint64 {
		return ops[i].imm + // flagged: an indexed uop
			sb.ops[0].pc + // flagged: through the superblock
			uint64(len(ops)) + // flagged: the slice itself
			u.imm + // flagged: a pointer into the stream
			pc
	}
}
func compileClean(ops []uop, i int) func() uint64 {
	u := &ops[i]
	imm := u.imm
	return func() uint64 { return imm }
}
func helper(ops []uop) func() uint64 {
	return func() uint64 { return ops[0].pc } // not a compiler
}
`
	got := lint(t, "internal/tcg/x.go", src)
	if len(got) != 4 {
		t.Errorf("t3scratch findings: %v", got)
	}
	for _, r := range got {
		if r != "t3scratch" {
			t.Errorf("wrong rule: %v", got)
		}
	}
	if got := lint(t, "internal/core/x.go", src); len(got) != 0 {
		t.Errorf("non-tcg package flagged: %v", got)
	}
}

// TestT3ScratchRuleOnTheCompiler plants a run-time read of the uop stream in
// the first closure of every compile* function of the real closure compiler
// — once through an index, once through the pointer the function takes into
// the stream, where it takes one — and wants the rule to name that function
// each time.
func TestT3ScratchRuleOnTheCompiler(t *testing.T) {
	root, err := moduleRoot()
	if err != nil {
		t.Skipf("module root: %v", err)
	}
	path := filepath.Join(root, "internal", "tcg", "tier3.go")
	src, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	// The pointer each compile function takes into the stream; compileTier3
	// takes none.
	ptrs := map[string]string{
		"compileTier3": "", "compileMemRun": "u", "compileAddiPair": "u1", "compileAddiMul": "a",
		"compileMid": "u", "compileLoad": "u", "compileStore": "u", "compileTail": "u",
	}
	fset := token.NewFileSet()
	file, err := parser.ParseFile(fset, path, src, parser.SkipObjectResolution)
	if err != nil {
		t.Fatal(err)
	}
	seen := 0
	for _, decl := range file.Decls {
		fn, ok := decl.(*ast.FuncDecl)
		if !ok || !isCompilerName(fn.Name.Name) {
			continue
		}
		ptr, ok := ptrs[fn.Name.Name]
		if !ok {
			t.Errorf("%s: a compile function this test does not know; add its stream pointer", fn.Name.Name)
			continue
		}
		seen++
		var lit *ast.FuncLit
		ast.Inspect(fn.Body, func(n ast.Node) bool {
			if l, ok := n.(*ast.FuncLit); ok && lit == nil {
				lit = l
			}
			return lit == nil
		})
		if lit == nil {
			t.Errorf("%s returns no closure", fn.Name.Name)
			continue
		}
		at := fset.Position(lit.Body.Lbrace).Offset + 1
		reads := []string{" _ = ops[0];"}
		if ptr != "" {
			reads = append(reads, " _ = "+ptr+".pc;")
		}
		for _, read := range reads {
			planted := string(src[:at]) + read + string(src[at:])
			fs, err := lintSource(path, []byte(planted))
			if err != nil {
				t.Fatalf("%s with%s: %v", fn.Name.Name, read, err)
			}
			fired := false
			for _, f := range fs {
				fired = fired || f.rule == "t3scratch" && strings.Contains(f.msg, fn.Name.Name+" ")
			}
			if !fired {
				t.Errorf("%s: planted%s did not fire t3scratch: %v", fn.Name.Name, read, fs)
			}
		}
	}
	if seen != len(ptrs) {
		t.Errorf("found %d of the %d compile functions", seen, len(ptrs))
	}
}

func TestUopMutRule(t *testing.T) {
	src := `package tcg
type uop struct{ cost, insns int }
type superblock struct{ ops []uop }
func scribble(ops []uop, i int) {
	ops[i].cost = 7       // flagged: indexed field write
	ops[i] = uop{}        // flagged: whole-element write
	ops[i].insns++        // flagged: inc/dec
}
func scribbleSB(sb *superblock) { sb.ops[0].cost += 1 } // flagged: through selector
func segmentize(ops []uop) { ops[0].cost = 1 }          // sanctioned helper
func lowerInsn(ops []uop) { ops[0] = uop{} }            // sanctioned helper
func readOnly(ops []uop) int { return ops[0].cost }     // reads are fine
func fresh(ops []uop) []uop {
	out := make([]uop, len(ops))
	copy(out, ops)
	out[0].cost = 1 // building a new slice named out: not a uop-slice name
	return out
}
`
	got := lint(t, "internal/tcg/x.go", src)
	if len(got) != 4 {
		t.Errorf("uopmut findings: %v", got)
	}
	for _, r := range got {
		if r != "uopmut" {
			t.Errorf("wrong rule: %v", got)
		}
	}
	// Outside the translation engine the rule is off.
	if got := lint(t, "internal/core/x.go", src); len(got) != 0 {
		t.Errorf("non-tcg package flagged: %v", got)
	}
}

func TestMetricsReadRule(t *testing.T) {
	src := `package core
import "dqemu/internal/metrics"
func decide(reg *metrics.Registry) bool {
	return reg.Counter("fault.remote").Value() > 100 // flagged: shadow control loop
}
func snapshot(reg *metrics.Registry) uint64 {
	return reg.Counter("net.msgs").Value() // allowlisted exporter
}
func record(reg *metrics.Registry) {
	reg.Counter("net.msgs").Add(1) // writes are fine anywhere
}
`
	got := lint(t, "internal/core/x.go", src)
	if len(got) != 1 || got[0] != "metricsread" {
		t.Errorf("metrics read: %v", got)
	}
	// The policy package is the designated consumer.
	if got := lint(t, "internal/sched/x.go", src); len(got) != 0 {
		t.Errorf("sched package flagged: %v", got)
	}
	if got := lint(t, "internal/metrics/x.go", src); len(got) != 0 {
		t.Errorf("metrics package flagged: %v", got)
	}
	// Value() on unrelated types is only watched when the file imports the
	// metrics package.
	other := `package core
type gauge struct{}
func (gauge) Value() int { return 0 }
func read(g gauge) int { return g.Value() }
`
	if got := lint(t, "internal/core/x.go", other); len(got) != 0 {
		t.Errorf("non-metrics Value() flagged: %v", got)
	}
}

// TestRepoIsClean runs every rule over the real tree: the linter gates CI,
// so the tree it gates must pass it.
func TestRepoIsClean(t *testing.T) {
	root, err := moduleRoot()
	if err != nil {
		t.Skipf("module root: %v", err)
	}
	files, err := expand(filepath.Join(root, "..."))
	if err != nil {
		t.Fatal(err)
	}
	if len(files) < 50 {
		t.Fatalf("walk found only %d files; wrong root?", len(files))
	}
	for _, path := range files {
		src, err := os.ReadFile(path)
		if err != nil {
			t.Fatal(err)
		}
		fs, err := lintSource(path, src)
		if err != nil {
			t.Fatalf("%s: %v", path, err)
		}
		for _, f := range fs {
			t.Errorf("%s", f)
		}
	}
}

// TestSpecialNamesExist holds every rule table that names functions to the
// code: each name must be a function declared in a non-test file of the
// directories its rule covers. A rename that leaves a table behind would
// otherwise disarm (or stop exempting) that function without a finding.
func TestSpecialNamesExist(t *testing.T) {
	root, err := moduleRoot()
	if err != nil {
		t.Skipf("module root: %v", err)
	}
	files, err := expand(filepath.Join(root, "..."))
	if err != nil {
		t.Fatal(err)
	}
	declared := map[string][]string{} // function name -> files declaring it
	for _, path := range files {
		if strings.HasSuffix(path, "_test.go") {
			continue
		}
		f, err := parser.ParseFile(token.NewFileSet(), path, nil, parser.SkipObjectResolution)
		if err != nil {
			t.Fatal(err)
		}
		for _, d := range f.Decls {
			if fn, ok := d.(*ast.FuncDecl); ok {
				declared[fn.Name.Name] = append(declared[fn.Name.Name], path)
			}
		}
	}
	for _, rule := range []struct {
		name  string
		names map[string]bool
		in    func(path string) bool
	}{
		{"nakedpanic handlerNames", handlerNames, func(p string) bool { return inDirs(p, protocolDirs) }},
		{"uopmut uopMutAllowed", uopMutAllowed, func(p string) bool { return inDirs(p, tier3Dirs) }},
		{"metricsread metricsReadAllowed", metricsReadAllowed, func(p string) bool { return !inDirs(p, metricsPolicyDirs) }},
	} {
		for name := range rule.names {
			if !slices.ContainsFunc(declared[name], rule.in) {
				t.Errorf("%s: %s is declared in no file the rule covers", rule.name, name)
			}
		}
	}
}

// TestEveryKindIsSent: every message kind proto declares is used outside
// internal/proto somewhere other than a case label. A kind that is only ever
// handled is one nobody sends, and its handler is dead protocol.
func TestEveryKindIsSent(t *testing.T) {
	root, err := moduleRoot()
	if err != nil {
		t.Skipf("module root: %v", err)
	}
	files, err := expand(filepath.Join(root, "..."))
	if err != nil {
		t.Fatal(err)
	}
	sent := map[string]bool{} // Kind constant -> used other than as a case label
	var code []*ast.File
	for _, path := range files {
		f, err := parser.ParseFile(token.NewFileSet(), path, nil, parser.SkipObjectResolution)
		if err != nil {
			t.Fatal(err)
		}
		if !inDirs(path, []string{"internal/proto"}) {
			code = append(code, f)
			continue
		}
		for _, d := range f.Decls {
			gd, ok := d.(*ast.GenDecl)
			if !ok || gd.Tok != token.CONST {
				continue
			}
			typ := "" // a spec without type or values repeats the one before
			for _, sp := range gd.Specs {
				vs := sp.(*ast.ValueSpec)
				if id, ok := vs.Type.(*ast.Ident); ok {
					typ = id.Name
				} else if vs.Type != nil || len(vs.Values) > 0 {
					typ = ""
				}
				for _, n := range vs.Names {
					if typ == "Kind" && n.Name != "KInvalid" && n.Name != "KindCount" {
						sent[n.Name] = false
					}
				}
			}
		}
	}
	if len(sent) == 0 {
		t.Fatal("found no proto.Kind constants")
	}
	for _, f := range code {
		labels := map[ast.Expr]bool{}
		ast.Inspect(f, func(n ast.Node) bool {
			if cc, ok := n.(*ast.CaseClause); ok {
				for _, e := range cc.List {
					labels[e] = true
				}
			}
			return true
		})
		ast.Inspect(f, func(n ast.Node) bool {
			if sel, ok := n.(*ast.SelectorExpr); ok && !labels[sel] {
				if pkg, ok := sel.X.(*ast.Ident); ok && pkg.Name == "proto" {
					if _, ok := sent[sel.Sel.Name]; ok {
						sent[sel.Sel.Name] = true
					}
				}
			}
			return true
		})
	}
	for kind, ok := range sent {
		if !ok {
			t.Errorf("proto.%s is only ever a case label outside internal/proto: nothing sends it", kind)
		}
	}
}

// moduleRoot walks up from the working directory to the go.mod.
func moduleRoot() (string, error) {
	dir, err := os.Getwd()
	if err != nil {
		return "", err
	}
	for {
		if _, err := os.Stat(filepath.Join(dir, "go.mod")); err == nil {
			return dir, nil
		}
		parent := filepath.Dir(dir)
		if parent == dir {
			return "", os.ErrNotExist
		}
		dir = parent
	}
}

func TestExpandNonRecursive(t *testing.T) {
	dir := t.TempDir()
	for _, name := range []string{"a.go", "a_test.go", "b.txt"} {
		if err := os.WriteFile(filepath.Join(dir, name), []byte("package x\n"), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	files, err := expand(dir)
	if err != nil {
		t.Fatal(err)
	}
	if len(files) != 1 || !strings.HasSuffix(files[0], "a.go") {
		t.Errorf("files = %v", files)
	}
}
