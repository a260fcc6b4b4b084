package minicc_test

import (
	"fmt"
	"math/rand"
	"runtime"
	"strconv"
	"strings"
	"testing"
	"time"

	"dqemu/internal/grt"
	"dqemu/internal/grt/grttest"
	"dqemu/internal/minicc"
)

// manyFuncs is a seeded program of funcs straight-line functions over four
// locals, each called from main: the shape and size of the benchmark's
// cold_code input.
func manyFuncs(seed int64, funcs int) string {
	rng := rand.New(rand.NewSource(seed))
	ops := []string{"+", "-", "*", "^", "&", "|", "<<", ">>"}
	var sb strings.Builder
	for f := 0; f < funcs; f++ {
		fmt.Fprintf(&sb, "long f%d(long x) {\n\tlong v0 = x;\n\tlong v1 = x + %d;\n\tlong v2 = x ^ %d;\n\tlong v3 = %d;\n",
			f, f+1, 7*f+3, 11*f+5)
		for s := 0; s < 15; s++ {
			op := ops[rng.Intn(len(ops))]
			rhs := fmt.Sprint(1 + rng.Int63n(1<<20))
			switch {
			case op == "<<" || op == ">>":
				rhs = fmt.Sprint(1 + rng.Int63n(13))
			case rng.Intn(2) == 0:
				rhs = fmt.Sprintf("v%d", rng.Intn(4))
			}
			fmt.Fprintf(&sb, "\tv%d = v%d %s %s;\n", rng.Intn(4), rng.Intn(4), op, rhs)
		}
		sb.WriteString("\treturn x * 3 + v0 + v1 + v2 + v3;\n}\n")
	}
	sb.WriteString("long main() {\n\tlong acc = 1;\n\tfor (long r = 0; r < 4; r++) {\n")
	for f := 0; f < funcs; f++ {
		fmt.Fprintf(&sb, "\t\tacc = f%d(acc);\n", f)
	}
	sb.WriteString("\t}\n\tprint_str(\"acc=\");\n\tprint_long(acc);\n\tprint_char('\\n');\n\treturn acc & 63;\n}\n")
	return sb.String()
}

// diagLine splits a diagnostic "file:line: message" at its line number.
func diagLine(err error) (line int, rest string) {
	file, after, _ := strings.Cut(err.Error(), ":")
	num, msg, _ := strings.Cut(after, ":")
	line, _ = strconv.Atoi(num)
	return line, file + msg
}

// FuzzCompile throws arbitrary text at the compiler, which dqemud runs on
// untrusted job sources at admission. Properties:
//
//  1. The lexer and the binary-expression parser agree with the references
//     kept beside them (minicc.DiffReference): the same token stream — kind,
//     text, value, line — or the same error text, and the same expression
//     tree wherever the reference parses one.
//  2. Compile never panics, and compiling behind the Prelude is compiling
//     Prelude+src: the same assembly, or the same diagnostic with its line
//     counted from src's first line instead of the Prelude's.
//  3. Whatever the compiler emits assembles with the runtime or returns an
//     error, and BuildProgram, where the compiler hands its items to the
//     assembler with no text in between, gives the same: the image byte for
//     byte, or the message (grttest.DiffRoutes).
func FuzzCompile(f *testing.F) {
	f.Add("long main() { return 1 + 2 * 3 - (4 << 1) / 5 % 6 == 7 || 8 && 9; }")
	// Every literal form, then each way a literal or comment can fail.
	f.Add("long x = 0x1F + 0X2a + 017;\ndouble d = 1.5e-3 + .25 + 2E+2 + 7.;\n/* a\nb */ // c\nlong y = 'a' + '\\n';\n")
	f.Add("long big = 9223372036854775808;")
	f.Add("long h = 0x;")
	f.Add("double e = 1e+;")
	f.Add("double inf = 1e999;")
	f.Add("long a;\n/* open\n")
	f.Fuzz(func(t *testing.T, src string) {
		if d := minicc.DiffReference(src); d != "" {
			t.Fatal(d)
		}
		whole, werr := minicc.Compile("fuzz.mc", grt.Prelude+src)
		out, err := minicc.CompileWithPrelude("fuzz.mc", grt.Prelude, src)
		switch {
		case (werr == nil) != (err == nil):
			t.Fatalf("behind the Prelude: error %v; Prelude+src: %v", err, werr)
		case err != nil:
			wline, wmsg := diagLine(werr)
			line, msg := diagLine(err)
			if shift := strings.Count(grt.Prelude, "\n"); msg != wmsg || line != wline-shift && !(line == 0 && wline == 0) {
				t.Fatalf("behind the Prelude: %q; Prelude+src: %q (its lines shifted by %d)", err, werr, shift)
			}
			return
		case out != whole:
			t.Fatal("behind the Prelude the assembly differs from Prelude+src's")
		}
		if d := grttest.DiffRoutes("fuzz.mc", src); d != "" {
			t.Fatal(d)
		}
	})
}

// TestMatchesReference runs FuzzCompile's reference comparison over a
// program of the benchmark's size.
func TestMatchesReference(t *testing.T) {
	if d := minicc.DiffReference(grt.Prelude + manyFuncs(1, 300)); d != "" {
		t.Error(d)
	}
}

// TestCompileAllocs pins what compiling costs in memory. The benchmark's
// cold program: tokens and output sized once, no boxed emitter arguments
// (the lexer that grew its tokens by doubling and an emitter that boxed
// every operand allocated 22 MB). And 32 MiB of blanks around a one-line
// program: the up-front sizes stop at sizedSrcBytes, so the length of a
// job's text is not what it costs.
func TestCompileAllocs(t *testing.T) {
	for _, c := range []struct {
		name, src string
		limit     uint64
	}{
		{"cold.mc", grt.Prelude + manyFuncs(1, 300), 10 << 20},
		{"blank.mc", strings.Repeat(" ", 32<<20) + "long main() { return 0; }\n", 20 << 20},
	} {
		if _, err := minicc.Compile(c.name, c.src); err != nil {
			t.Fatal(err)
		}
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		if _, err := minicc.Compile(c.name, c.src); err != nil {
			t.Fatal(err)
		}
		runtime.ReadMemStats(&after)
		got := after.TotalAlloc - before.TotalAlloc
		t.Logf("%s: one Compile of %d bytes allocates %d bytes", c.name, len(c.src), got)
		if !raceEnabled && got > c.limit {
			t.Errorf("%s: one Compile allocates %d bytes, want at most %d", c.name, got, c.limit)
		}
	}
}

// TestStringLiteralsInterned: equal literals share one label, numbered in
// order of first use, globals after functions.
func TestStringLiteralsInterned(t *testing.T) {
	out, err := minicc.Compile("s.mc", `extern void p(char *s);
char *g = "b";
long main() { p("a"); p("b"); p("a"); return 0; }`)
	if err != nil {
		t.Fatal(err)
	}
	for text, want := range map[string]int{
		".asciz":                       2,
		".Lstr_smc_0:\n\t.asciz \"a\"": 1,
		".Lstr_smc_1:\n\t.asciz \"b\"": 1,
		"la   a0, .Lstr_smc_0":         2,
		"la   a0, .Lstr_smc_1":         1,
		".quad .Lstr_smc_1":            1,
	} {
		if got := strings.Count(out, text); got != want {
			t.Errorf("%q appears %d times, want %d:\n%s", text, got, want, out)
		}
	}
}

// TestManyStringLiterals: 200k distinct literals compile in seconds. Each
// was compared with every one before it, so a few megabytes of job text
// held dqemud's admission for minutes.
func TestManyStringLiterals(t *testing.T) {
	const n = 200_000
	var sb strings.Builder
	sb.WriteString("extern void p(char *s);\nlong main() {\n")
	for i := 0; i < n; i++ {
		fmt.Fprintf(&sb, "\tp(\"s%d\");\n", i)
	}
	sb.WriteString("\treturn 0;\n}\n")
	limit := 5 * time.Second
	if raceEnabled {
		limit *= 10
	}
	start := time.Now()
	out, err := minicc.Compile("many.mc", sb.String())
	if err != nil {
		t.Fatal(err)
	}
	if took := time.Since(start); took > limit {
		t.Errorf("%d literals took %v, want under %v", n, took, limit)
	}
	if got := strings.Count(out, ".asciz"); got != n {
		t.Errorf("%d strings emitted, want %d", got, n)
	}
}
