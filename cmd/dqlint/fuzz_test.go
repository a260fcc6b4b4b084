package main

import (
	"strings"
	"testing"
)

// FuzzLint throws arbitrary source at the linter under both a rule-armed and
// a neutral path. The linter runs over every file in CI, so it must never
// panic on weird-but-parseable Go; parse errors are the only acceptable
// failure mode. The seed corpus covers each rule at least once so mutations
// explore the report paths, not just the early returns.
func FuzzLint(f *testing.F) {
	f.Add("package core\nimport \"time\"\nfunc tick() int64 { return time.Now().UnixNano() }\n")
	f.Add("package netsim\nimport \"math/rand\"\nfunc roll() int { return rand.Intn(6) }\n")
	f.Add("package trace\nimport \"sync\"\nfunc lock(mu sync.Mutex) {}\n")
	f.Add("package core\ntype m struct{}\nfunc (x *m) handleMsg() { panic(\"no\") }\n")
	f.Add("package trace\nimport \"fmt\"\nfunc record(v int) string { return fmt.Sprint(v) }\n")
	f.Add("package tcg\nfunc compileOp() func() int {\n\treturn func() int { s := make([]int, 4); return len(s) }\n}\n")
	f.Add("package tcg\nfunc compileOp() func() {\n\treturn func() { _ = &struct{ x int }{1}; _ = func() {} }\n}\n")
	f.Add("package tcg\ntype uop struct{ cost int }\nfunc scribble(ops []uop) { ops[0].cost = 7; ops[0] = uop{} }\n")
	f.Add("package x\nimport clock \"time\"\nvar _ = clock.Now\n")
	f.Add("package core\nimport \"dqemu/internal/metrics\"\nfunc decide(r *metrics.Registry) bool { return r.Counter(\"x\").Value() > 1 }\n")
	f.Add("package x\nfunc compile() {}\n")
	f.Add("package x")
	f.Add("package tcg\nfunc compileOp(ops []uop) func() int {\n\tu := &ops[0]\n\treturn func() int { return ops[1].cost + u.cost + len(sb.ops) }\n}\n")
	f.Fuzz(func(t *testing.T, src string) {
		for _, path := range []string{"internal/tcg/fuzz.go", "internal/core/fuzz.go", "other/fuzz.go"} {
			fs, err := lintSource(path, []byte(src))
			if err != nil {
				continue // unparseable input is fine; the CLI reports and exits
			}
			for _, fd := range fs {
				if fd.rule == "" || !strings.Contains(fd.String(), fd.rule) {
					t.Errorf("%s: malformed finding %q", path, fd)
				}
			}
		}
	})
}
