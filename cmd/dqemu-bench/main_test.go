package main

import (
	"bytes"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

// spec is a two-arm run small enough for a unit test; bound goes into its
// one compare gate (chained blocks against the interpreter, which is slower).
func spec(bound string) string {
	return `{"version":2,"name":"cli","workload":{"kind":"pi","args":{"threads":2,"repeats":4,"terms":20}},
"arms":[{"name":"cached"},{"name":"interp","knobs":{"interp":true}}],
"compare":[{"metric":"time_ns","of":{"arm":"interp"},"over":{"arm":"cached"},"bounds":{"quick":` + bound + `}}]}`
}

func TestRun(t *testing.T) {
	dir := t.TempDir()
	write := func(name, body string) string {
		p := filepath.Join(dir, name)
		if err := os.WriteFile(p, []byte(body), 0o644); err != nil {
			t.Fatal(err)
		}
		return p
	}
	pass := write("pass.json", spec(`{"min":1}`))
	fail := write("fail.json", spec(`{"max":1}`))
	report := filepath.Join(dir, "out.json")

	cases := []struct {
		name    string
		args    []string
		wantErr string // "" = must succeed
		wantOut string
	}{
		{"no arguments", nil, "-spec <file|dir> is required", ""},
		{"unknown flag", []string{"-exp", "fig5"}, "flag provided but not defined", ""},
		{"stray argument", []string{"-spec", pass, "fig5"}, `unexpected argument "fig5"`, ""},
		{"missing file", []string{"-spec", filepath.Join(dir, "nosuch.json")}, "no such file", ""},
		{"empty directory", []string{"-spec", t.TempDir()}, "no *.json specs", ""},
		{"passing spec", []string{"-q", "-spec", pass, "-json", report}, "", "compare time_ns: interp / cached"},
		{"failing compare", []string{"-q", "-spec", fail}, "1 gate(s) failed", "FAILED compare time_ns [cli:interp]: interp / cached"},
	}
	for _, tc := range cases {
		var out bytes.Buffer
		err := run(tc.args, &out)
		switch {
		case tc.wantErr == "" && err != nil:
			t.Errorf("%s: %v", tc.name, err)
		case tc.wantErr != "" && (err == nil || !strings.Contains(err.Error(), tc.wantErr)):
			t.Errorf("%s: error %v, want one containing %q", tc.name, err, tc.wantErr)
		}
		if !strings.Contains(out.String(), tc.wantOut) {
			t.Errorf("%s: output lacks %q:\n%s", tc.name, tc.wantOut, out.String())
		}
	}
	if js, err := os.ReadFile(report); err != nil || !bytes.Contains(js, []byte(`"arm": "interp"`)) {
		t.Errorf("-json report: %v\n%s", err, js)
	}
}
