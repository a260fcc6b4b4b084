// Command dqlint enforces repo-specific invariants that go vet cannot see:
//
//   - wallclock: packages on the deterministic simulation path must not read
//     host time (time.Now/Since/Sleep/After/Tick). The discrete-event kernel
//     is the only clock; a stray wall-clock read silently breaks the
//     "same seed, same run" guarantee the chaos and sanitizer suites rely on.
//   - globalrand: math/rand's global source is never allowed — all
//     randomness must flow through rand.New(rand.NewSource(seed)) so a seed
//     reproduces the run. (Seeded generators are fine anywhere.)
//   - mutexcopy: sync.Mutex / sync.RWMutex must not appear by value in a
//     function signature or receiver; a copied mutex guards nothing.
//   - nakedpanic: protocol handler methods (handle*/on*/On* in core, live,
//     netsim) must not panic — a malformed or replayed message has to produce
//     a structured error or be dropped, never take the node down.
//   - hotsprintf: per-event recorder functions (Record*/record* in the
//     deterministic packages) must not call fmt.Sprintf and friends — those
//     format before the keep/drop decision, charging every caller even when
//     the tracer is saturated. Defer formatting past the limit check.
//   - t3alloc: closure-compiler functions (compile* in internal/tcg) must
//     not allocate inside the closures they return — make/new/append,
//     &composite-literal, and nested closure creation there run once per
//     executed micro-op, not once per translation, and break the compiled
//     traces' zero-alloc steady-state guarantee. Hoist the allocation to compile
//     time and capture the result.
//   - t3scratch: a closure a compile* function returns must not read the uop
//     stream (ops[i], sb.ops, a pointer taken into it) at run time; the
//     stream is translator scratch the next trace overwrites.
//   - uopmut: outside lowerInsn and segmentize, a uop slice element is never
//     written in place; the proof, the compiler and the checker share it.
//   - unusedfunc: an unexported top-level function (not a method, not init or
//     main) that no other code in its package names, _test.go files
//     included, is dead and goes.
//
// Usage: dqlint [./... | dir ...]   (default ./...)
// Test files are not linted: property tests legitimately use their own RNG
// plumbing and drive the simulation from outside the deterministic boundary.
// They are read only as users of the functions unusedfunc judges.
package main

import (
	"fmt"
	"go/ast"
	"go/parser"
	"go/token"
	"os"
	"path/filepath"
	"slices"
	"strings"
)

func main() {
	args := os.Args[1:]
	if len(args) == 0 {
		args = []string{"./..."}
	}
	var files []string
	for _, arg := range args {
		fs, err := expand(arg)
		if err != nil {
			fmt.Fprintf(os.Stderr, "dqlint: %v\n", err)
			os.Exit(2)
		}
		files = append(files, fs...)
	}
	findings, err := lintFiles(files)
	if err != nil {
		fmt.Fprintf(os.Stderr, "dqlint: %v\n", err)
		os.Exit(2)
	}
	for _, f := range findings {
		fmt.Println(f)
	}
	if len(findings) > 0 {
		fmt.Fprintf(os.Stderr, "dqlint: %d problem(s)\n", len(findings))
		os.Exit(1)
	}
}

// lintFiles runs the per-file rules over files, then unusedfunc over each
// directory they are in.
func lintFiles(files []string) ([]finding, error) {
	var all []finding
	var dirs []string
	for _, path := range files {
		src, err := os.ReadFile(path)
		if err != nil {
			return nil, err
		}
		fs, err := lintSource(path, src)
		if err != nil {
			return nil, err
		}
		all = append(all, fs...)
		if dir := filepath.Dir(path); !slices.Contains(dirs, dir) {
			dirs = append(dirs, dir)
		}
	}
	for _, dir := range dirs {
		fs, err := lintPackage(dir)
		if err != nil {
			return nil, err
		}
		all = append(all, fs...)
	}
	return all, nil
}

// lintPackage applies unusedfunc to the package in dir, reading every .go
// file there, tests included.
func lintPackage(dir string) ([]finding, error) {
	ents, err := os.ReadDir(dir)
	if err != nil {
		return nil, err
	}
	fset := token.NewFileSet()
	var files []*ast.File
	for _, e := range ents {
		if e.IsDir() || !strings.HasSuffix(e.Name(), ".go") {
			continue
		}
		f, err := parser.ParseFile(fset, filepath.Join(dir, e.Name()), nil, parser.SkipObjectResolution)
		if err != nil {
			return nil, err
		}
		files = append(files, f)
	}
	return unusedFuncs(fset, files), nil
}

// expand resolves one argument to the list of non-test .go files under it.
func expand(arg string) ([]string, error) {
	root := strings.TrimSuffix(arg, "...")
	root = strings.TrimSuffix(root, "/")
	if root == "" {
		root = "."
	}
	recurse := strings.HasSuffix(arg, "...")
	var files []string
	if !recurse {
		ents, err := os.ReadDir(root)
		if err != nil {
			return nil, err
		}
		for _, e := range ents {
			if !e.IsDir() && wanted(e.Name()) {
				files = append(files, filepath.Join(root, e.Name()))
			}
		}
		return files, nil
	}
	err := filepath.WalkDir(root, func(path string, d os.DirEntry, err error) error {
		if err != nil {
			return err
		}
		if d.IsDir() {
			name := d.Name()
			if name == "testdata" || strings.HasPrefix(name, ".") && path != root {
				return filepath.SkipDir
			}
			return nil
		}
		if wanted(d.Name()) {
			files = append(files, path)
		}
		return nil
	})
	return files, err
}

func wanted(name string) bool {
	return strings.HasSuffix(name, ".go") && !strings.HasSuffix(name, "_test.go")
}
