package main

import (
	"fmt"
	"go/ast"
	"go/parser"
	"go/token"
	"path/filepath"
	"strings"
)

// deterministicDirs are the packages on the simulated execution path: every
// observable result there must be a pure function of the inputs and the seed.
// internal/core stays in this set although internal/live runs its engine on
// the wall clock: core reaches time only through core.Runtime, and the
// wallclock rule is what keeps it that way.
// internal/scenario is in it because every "exactly reproducible" figure
// in EXPERIMENTS.md is a row it emits.
// internal/live (real sockets) and the commands are exempt from the
// wallclock rule, not from the others.
var deterministicDirs = []string{
	"internal/abi", "internal/asm", "internal/core", "internal/dsm",
	"internal/grt", "internal/guestos", "internal/image", "internal/isa",
	"internal/mem", "internal/minicc", "internal/netsim", "internal/proto",
	"internal/sanitizer", "internal/scenario", "internal/sched", "internal/sim",
	"internal/tcg", "internal/trace", "internal/workloads",
}

// protocolDirs hold message handlers that must degrade gracefully. The
// protocol handlers proper are internal/core's (both transports run them);
// internal/live and internal/netsim hold the transports that call them.
var protocolDirs = []string{"internal/core", "internal/live", "internal/netsim"}

// tier3Dirs hold closure compilers whose returned closures run on the
// guest-instruction hot path: one allocation inside a closure body is one
// allocation per executed micro-op, not per compilation.
var tier3Dirs = []string{"internal/tcg"}

// wallclockFuncs are the time package entry points that read or depend on
// the host clock.
var wallclockFuncs = map[string]bool{
	"Now": true, "Since": true, "Until": true, "Sleep": true,
	"After": true, "Tick": true, "NewTicker": true, "NewTimer": true,
	"AfterFunc": true,
}

// seededRandFuncs are the only math/rand package-level entry points allowed:
// constructors for explicitly-seeded generators.
var seededRandFuncs = map[string]bool{"New": true, "NewSource": true}

// eagerFormatFuncs are the fmt entry points that build a string whether or
// not anyone consumes it. Inside a Record-style hot path they charge every
// caller the formatting cost even when the event will be dropped; the
// formatting must happen after the keep/drop decision (see trace.Tracer).
var eagerFormatFuncs = map[string]bool{
	"Sprintf": true, "Sprint": true, "Sprintln": true, "Errorf": true,
}

// uopMutAllowed are the translation-engine functions that own a uop slice
// while it is still private — lowering builds it, segmentize stamps the
// aggregate charges.
// Everywhere else a uop slice reached by index is a finished stream, which
// the equivalence proof, the closure compiler and the checker all read in
// turn; mutating an element in place makes them disagree about one trace.
var uopMutAllowed = map[string]bool{
	"lowerInsn": true, "segmentize": true,
}

// uopSliceNames are the identifier names the uopmut rule treats as uop
// slices (`ops[i]`, `b.ops[i]`, `uops[i]`).
var uopSliceNames = map[string]bool{"ops": true, "uops": true}

type finding struct {
	pos  token.Position
	rule string
	msg  string
}

func (f finding) String() string {
	return fmt.Sprintf("%s: %s [%s]", f.pos, f.msg, f.rule)
}

func inDirs(path string, dirs []string) bool {
	slash := filepath.ToSlash(path)
	for _, d := range dirs {
		if strings.Contains(slash, d+"/") {
			return true
		}
	}
	return false
}

// lintSource runs every rule over one file and returns the findings.
func lintSource(path string, src []byte) ([]finding, error) {
	fset := token.NewFileSet()
	file, err := parser.ParseFile(fset, path, src, parser.SkipObjectResolution)
	if err != nil {
		return nil, err
	}
	l := &linter{
		fset:          fset,
		deterministic: inDirs(path, deterministicDirs),
		protocol:      inDirs(path, protocolDirs),
		tier3:         inDirs(path, tier3Dirs),
		timeName:      "-", randName: "-", syncName: "-", fmtName: "-",
	}
	for _, imp := range file.Imports {
		ipath := strings.Trim(imp.Path.Value, `"`)
		name := filepath.Base(ipath)
		if imp.Name != nil {
			name = imp.Name.Name
		}
		switch ipath {
		case "time":
			l.timeName = name
		case "math/rand", "math/rand/v2":
			l.randName = name
		case "sync":
			l.syncName = name
		case "fmt":
			l.fmtName = name
		}
	}
	for _, decl := range file.Decls {
		fn, ok := decl.(*ast.FuncDecl)
		if !ok {
			ast.Inspect(decl, l.inspectExpr)
			continue
		}
		l.checkSignature(fn)
		inHandler := l.protocol && isHandlerName(fn.Name.Name)
		inRecorder := l.deterministic && isRecorderName(fn.Name.Name)
		if l.tier3 && isCompilerName(fn.Name.Name) {
			l.checkClosureAllocs(fn)
			l.checkScratchReads(fn)
		}
		mutArmed := l.tier3 && !uopMutAllowed[fn.Name.Name]
		if fn.Body != nil {
			ast.Inspect(fn.Body, func(n ast.Node) bool {
				if mutArmed {
					l.checkUopMut(n, fn.Name.Name)
				}
				if inHandler {
					if call, ok := n.(*ast.CallExpr); ok {
						if id, ok := call.Fun.(*ast.Ident); ok && id.Name == "panic" {
							l.report(call.Pos(), "nakedpanic",
								"protocol handler %s panics; return an error or drop the message", fn.Name.Name)
						}
					}
				}
				if inRecorder {
					if call, ok := n.(*ast.CallExpr); ok {
						if sel, ok := call.Fun.(*ast.SelectorExpr); ok {
							if pkg, ok := sel.X.(*ast.Ident); ok &&
								pkg.Name == l.fmtName && eagerFormatFuncs[sel.Sel.Name] {
								l.report(call.Pos(), "hotsprintf",
									"fmt.%s in hot-path recorder %s formats before the keep/drop decision; defer formatting past the limit check", sel.Sel.Name, fn.Name.Name)
							}
						}
					}
				}
				return l.inspectExpr(n)
			})
		}
	}
	return l.findings, nil
}

type linter struct {
	fset          *token.FileSet
	deterministic bool
	protocol      bool
	tier3         bool
	// Local import names of the packages the rules watch; "-" when the file
	// does not import them (never a valid identifier, so lookups just miss).
	timeName, randName, syncName, fmtName string

	findings []finding
}

func (l *linter) report(pos token.Pos, rule, format string, args ...interface{}) {
	l.findings = append(l.findings, finding{
		pos: l.fset.Position(pos), rule: rule, msg: fmt.Sprintf(format, args...),
	})
}

// inspectExpr applies the expression-level rules (wallclock, globalrand).
func (l *linter) inspectExpr(n ast.Node) bool {
	call, ok := n.(*ast.CallExpr)
	if !ok {
		return true
	}
	sel, ok := call.Fun.(*ast.SelectorExpr)
	if !ok {
		return true
	}
	pkg, ok := sel.X.(*ast.Ident)
	if !ok {
		return true
	}
	switch pkg.Name {
	case l.timeName:
		if l.deterministic && wallclockFuncs[sel.Sel.Name] {
			l.report(call.Pos(), "wallclock",
				"time.%s in a deterministic package; use the sim kernel's virtual clock", sel.Sel.Name)
		}
	case l.randName:
		if !seededRandFuncs[sel.Sel.Name] {
			l.report(call.Pos(), "globalrand",
				"rand.%s uses the global source; use rand.New(rand.NewSource(seed))", sel.Sel.Name)
		}
	}
	return true
}

// checkSignature flags sync.Mutex / sync.RWMutex passed by value through a
// receiver, parameter or result.
func (l *linter) checkSignature(fn *ast.FuncDecl) {
	check := func(fl *ast.FieldList, what string) {
		if fl == nil {
			return
		}
		for _, f := range fl.List {
			if name, bad := l.byValueMutex(f.Type); bad {
				l.report(f.Type.Pos(), "mutexcopy",
					"%s copies sync.%s by value; pass a pointer", what, name)
			}
		}
	}
	check(fn.Recv, "receiver")
	if fn.Type != nil {
		check(fn.Type.Params, "parameter")
		check(fn.Type.Results, "result")
	}
}

// byValueMutex reports whether t is literally sync.Mutex or sync.RWMutex
// (not behind a pointer).
func (l *linter) byValueMutex(t ast.Expr) (string, bool) {
	sel, ok := t.(*ast.SelectorExpr)
	if !ok {
		return "", false
	}
	pkg, ok := sel.X.(*ast.Ident)
	if !ok || pkg.Name != l.syncName {
		return "", false
	}
	if sel.Sel.Name == "Mutex" || sel.Sel.Name == "RWMutex" {
		return sel.Sel.Name, true
	}
	return "", false
}

// checkUopMut flags in-place mutation of an indexed uop-slice element
// (`ops[i] = u`, `ops[i].cost = c`, `b.ops[i].insns++`) outside the
// functions that own the slice while it is private (the uopmut rule).
// A finished stream is read by the proof, the compiler and the checker in
// turn — a rewrite builds a new slice.
func (l *linter) checkUopMut(n ast.Node, fnName string) {
	switch st := n.(type) {
	case *ast.AssignStmt:
		if st.Tok == token.DEFINE {
			return
		}
		for _, lhs := range st.Lhs {
			if uopSliceIndex(lhs) {
				l.report(lhs.Pos(), "uopmut",
					"%s mutates a uop slice element in place; the proof, the compiler and the checker share the stream — build a new slice", fnName)
			}
		}
	case *ast.IncDecStmt:
		if uopSliceIndex(st.X) {
			l.report(st.X.Pos(), "uopmut",
				"%s mutates a uop slice element in place; the proof, the compiler and the checker share the stream — build a new slice", fnName)
		}
	}
}

// uopSliceIndex reports whether e is an index into a uop-slice-named
// expression, optionally through a field selector: ops[i], ops[i].cost,
// b.ops[i].kind.
func uopSliceIndex(e ast.Expr) bool {
	if sel, ok := e.(*ast.SelectorExpr); ok {
		e = sel.X
	}
	idx, ok := e.(*ast.IndexExpr)
	if !ok {
		return false
	}
	switch base := idx.X.(type) {
	case *ast.Ident:
		return uopSliceNames[base.Name]
	case *ast.SelectorExpr:
		return uopSliceNames[base.Sel.Name]
	}
	return false
}

// checkClosureAllocs flags per-execution allocations inside the closures a
// compile* function returns (the t3alloc rule). The closures run once per
// guest micro-op; anything they allocate must be hoisted to compile time,
// where it happens once per translation. Flagged shapes: make/new/append
// calls, address-of composite literals, and nested closure creation (a
// closure built inside a closure is itself a per-execution allocation).
func (l *linter) checkClosureAllocs(fn *ast.FuncDecl) {
	if fn.Body == nil {
		return
	}
	var inClosure func(n ast.Node) bool
	inClosure = func(n ast.Node) bool {
		switch e := n.(type) {
		case *ast.FuncLit:
			l.report(e.Pos(), "t3alloc",
				"closure created inside a %s execution closure allocates per execution; build it at compile time", fn.Name.Name)
			// Keep walking: its body is also per-execution code.
			return true
		case *ast.CallExpr:
			if id, ok := e.Fun.(*ast.Ident); ok {
				switch id.Name {
				case "make", "new", "append":
					l.report(e.Pos(), "t3alloc",
						"%s inside a %s execution closure allocates per execution; hoist it to compile time", id.Name, fn.Name.Name)
				}
			}
		case *ast.UnaryExpr:
			if e.Op == token.AND {
				if _, ok := e.X.(*ast.CompositeLit); ok {
					l.report(e.Pos(), "t3alloc",
						"&composite literal inside a %s execution closure allocates per execution; hoist it to compile time", fn.Name.Name)
				}
			}
		}
		return true
	}
	ast.Inspect(fn.Body, func(n ast.Node) bool {
		if lit, ok := n.(*ast.FuncLit); ok {
			ast.Inspect(lit.Body, inClosure)
			return false // inClosure already walked the body, nested lits included
		}
		return true
	})
}

// checkScratchReads flags a closure returned by a compile* function that
// reads the uop stream at run time (the t3scratch rule): an index into a
// uop-slice name (ops[i], b.ops[i].pc), the slice itself, or a pointer the
// enclosing function took into it (u := &ops[i], then u.pc in the closure).
// The stream is translator scratch: by the time the closure runs, the next
// trace has been lowered into it. A closure copies what it needs into its
// environment at compile time.
func (l *linter) checkScratchReads(fn *ast.FuncDecl) {
	if fn.Body == nil {
		return
	}
	ptrs := map[string]bool{}
	ast.Inspect(fn.Body, func(n ast.Node) bool {
		if as, ok := n.(*ast.AssignStmt); ok && len(as.Lhs) == len(as.Rhs) {
			for i, rhs := range as.Rhs {
				ref, ok := rhs.(*ast.UnaryExpr)
				id, isIdent := as.Lhs[i].(*ast.Ident)
				if ok && isIdent && ref.Op == token.AND && uopSliceIndex(ref.X) {
					ptrs[id.Name] = true
				}
			}
		}
		return true
	})
	flag := func(pos token.Pos, what string) {
		l.report(pos, "t3scratch",
			"%s execution closure reads %s, the translator's scratch uop stream, at run time; copy the field at compile time", fn.Name.Name, what)
	}
	var inClosure func(n ast.Node) bool
	inClosure = func(n ast.Node) bool {
		switch e := n.(type) {
		case *ast.IndexExpr:
			if uopSliceIndex(e) {
				flag(e.Pos(), "an indexed uop")
				return false
			}
		case *ast.SelectorExpr:
			if uopSliceNames[e.Sel.Name] {
				flag(e.Pos(), "a uop slice")
				return false
			}
			ast.Inspect(e.X, inClosure) // not e.Sel: a field name is not a variable
			return false
		case *ast.Ident:
			if uopSliceNames[e.Name] || ptrs[e.Name] {
				flag(e.Pos(), e.Name)
			}
		}
		return true
	}
	ast.Inspect(fn.Body, func(n ast.Node) bool {
		if lit, ok := n.(*ast.FuncLit); ok {
			ast.Inspect(lit.Body, inClosure)
			return false
		}
		return true
	})
}

// unusedFuncs applies the unusedfunc rule to one package, given all its
// files, _test.go files included: an unexported top-level function of a
// non-test file that no code names outside its own declaration is dead. A
// name selected after a dot (x.name: a field or method) is not a use.
func unusedFuncs(fset *token.FileSet, files []*ast.File) []finding {
	var cands []*ast.FuncDecl
	used := map[string]bool{}
	for _, f := range files {
		test := strings.HasSuffix(fset.Position(f.Package).Filename, "_test.go")
		for _, decl := range f.Decls {
			fn, _ := decl.(*ast.FuncDecl)
			self := ""
			if fn != nil && fn.Recv == nil {
				self = fn.Name.Name
				if !test && !ast.IsExported(self) && self != "init" && self != "main" && self != "_" {
					cands = append(cands, fn)
				}
			}
			var visit func(ast.Node) bool
			visit = func(n ast.Node) bool {
				switch n := n.(type) {
				case *ast.SelectorExpr:
					ast.Inspect(n.X, visit)
					return false
				case *ast.Ident:
					if fn == nil || n != fn.Name && n.Name != self {
						used[n.Name] = true
					}
				}
				return true
			}
			ast.Inspect(decl, visit)
		}
	}
	var out []finding
	for _, fn := range cands {
		if !used[fn.Name.Name] {
			out = append(out, finding{
				pos:  fset.Position(fn.Name.Pos()),
				rule: "unusedfunc",
				msg:  fmt.Sprintf("unexported function %s is named by nothing in its package; delete it", fn.Name.Name),
			})
		}
	}
	return out
}

// isCompilerName matches the closure-compiler naming convention in the
// translation engine: compile* functions return per-micro-op closures.
func isCompilerName(name string) bool {
	return strings.HasPrefix(name, "compile")
}

// handlerNames are the protocol handlers isHandlerName matches by name, not
// by prefix: Deliver is where every frame enters core, from either runtime.
var handlerNames = map[string]bool{"Deliver": true}

// isHandlerName matches the protocol-handler naming convention: handle*,
// on*, On*, plus handlerNames.
func isHandlerName(name string) bool {
	return handlerNames[name] || strings.HasPrefix(name, "handle") ||
		strings.HasPrefix(name, "on") || strings.HasPrefix(name, "On")
}

// isRecorderName matches per-event recording entry points (Record*,
// record*): functions every instrumented hot path calls once per event.
func isRecorderName(name string) bool {
	return strings.HasPrefix(name, "Record") || strings.HasPrefix(name, "record")
}
