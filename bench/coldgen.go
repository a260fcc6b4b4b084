package main

import (
	"fmt"
	"math/rand"
	"strings"
)

// coldProgram is one generated cold-code guest: many small straight-line
// functions, each called reps times from main, so decode, block translation,
// chaining and tier promotion dominate instead of the steady-state tiers.
type coldProgram struct {
	Source string
	// Result is main's final accumulator, computed here in Go with the same
	// 64-bit wrapping arithmetic: a reference independent of every layer
	// under test.
	Result int64
}

// coldStmt is one generated statement "dst = a OP b" over the locals; b is a
// local index when bIsVar, else a constant.
type coldStmt struct {
	dst, a int
	op     byte // + - * ^ & | l (<<) r (>>)
	b      int64
	bIsVar bool
}

const coldLocals = 4

func (s coldStmt) eval(v *[coldLocals]int64) {
	b := s.b
	if s.bIsVar {
		b = v[s.b]
	}
	a := v[s.a]
	switch s.op {
	case '+':
		a += b
	case '-':
		a -= b
	case '*':
		a *= b
	case '^':
		a ^= b
	case '&':
		a &= b
	case '|':
		a |= b
	case 'l':
		a <<= uint(b)
	case 'r':
		a >>= uint(b) // mini-C >> on long is arithmetic (sra), as in Go on int64
	}
	v[s.dst] = a
}

func (s coldStmt) source() string {
	op := string(s.op)
	switch s.op {
	case 'l':
		op = "<<"
	case 'r':
		op = ">>"
	}
	rhs := fmt.Sprint(s.b)
	if s.bIsVar {
		rhs = fmt.Sprintf("v%d", s.b)
	}
	return fmt.Sprintf("\tv%d = v%d %s %s;\n", s.dst, s.a, op, rhs)
}

// genCold emits funcs functions of stmts statements each; main threads one
// accumulator through every function, reps times, prints it and returns its
// low six bits as the exit code. The function bodies depend only on seed,
// so the variants of one seed differ only in reps.
func genCold(seed int64, funcs, stmts, reps int) coldProgram {
	rng := rand.New(rand.NewSource(seed))
	bodies := make([][]coldStmt, funcs)
	var sb strings.Builder
	for f := range bodies {
		body := make([]coldStmt, stmts)
		for i := range body {
			st := coldStmt{dst: rng.Intn(coldLocals), a: rng.Intn(coldLocals), op: "+-*^&|lr"[rng.Intn(8)]}
			switch st.op {
			case 'l', 'r':
				st.b = 1 + rng.Int63n(13)
			case '&':
				// Keep plenty of bits alive so values do not collapse to 0.
				st.b = rng.Int63n(1<<30) | 0x2aaa5555
			default:
				if rng.Intn(2) == 0 {
					st.bIsVar, st.b = true, int64(rng.Intn(coldLocals))
				} else {
					st.b = 1 + rng.Int63n(1<<20)
				}
			}
			body[i] = st
		}
		bodies[f] = body
		fmt.Fprintf(&sb, "long f%d(long x) {\n\tlong v0 = x;\n\tlong v1 = x + %d;\n\tlong v2 = x ^ %d;\n\tlong v3 = %d;\n",
			f, f+1, 7*f+3, 11*f+5)
		for _, st := range body {
			sb.WriteString(st.source())
		}
		// The odd multiplier keeps every bit of x alive, so the result
		// depends on how many times the chain ran.
		sb.WriteString("\treturn x * 3 + v0 + v1 + v2 + v3;\n}\n")
	}
	fmt.Fprintf(&sb, "long main() {\n\tlong acc = %d;\n\tfor (long r = 0; r < %d; r++) {\n", seed, reps)
	for f := range bodies {
		fmt.Fprintf(&sb, "\t\tacc = f%d(acc);\n", f)
	}
	sb.WriteString("\t}\n\tprint_str(\"acc=\");\n\tprint_long(acc);\n\tprint_char('\\n');\n\treturn acc & 63;\n}\n")

	acc := seed
	for r := 0; r < reps; r++ {
		for f, body := range bodies {
			v := [coldLocals]int64{acc, acc + int64(f+1), acc ^ int64(7*f+3), int64(11*f + 5)}
			for _, st := range body {
				st.eval(&v)
			}
			acc = acc*3 + v[0] + v[1] + v[2] + v[3]
		}
	}
	return coldProgram{Source: sb.String(), Result: acc}
}
