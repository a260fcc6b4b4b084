package asm

import (
	"strings"
	"testing"
)

// The line scanners as they were before lineStops and operandStops, kept as
// references for the exhaustive agreement tests below.

func refStripComment(line string) string {
	inStr := false
	for i := 0; i < len(line); i++ {
		c := line[i]
		if inStr {
			if c == '\\' {
				i++
			} else if c == '"' {
				inStr = false
			}
			continue
		}
		switch {
		case c == '"':
			inStr = true
		case c == '#' || c == ';':
			return line[:i]
		case c == '/' && i+1 < len(line) && line[i+1] == '/':
			return line[:i]
		}
	}
	return line
}

func refCutOperand(s string) (op, rest string, more bool) {
	depth, inStr := 0, false
	for i := 0; i < len(s); i++ {
		c := s[i]
		if inStr {
			if c == '\\' {
				i++
			} else if c == '"' {
				inStr = false
			}
			continue
		}
		switch c {
		case '"':
			inStr = true
		case '(':
			depth++
		case ')':
			depth--
		case ',':
			if depth == 0 {
				return strings.TrimSpace(s[:i]), s[i+1:], true
			}
		}
	}
	return strings.TrimSpace(s), "", false
}

// eachString calls fn with every concatenation of up to n pieces.
func eachString(pieces []string, n int, fn func(string)) {
	var walk func(prefix string, left int)
	walk = func(prefix string, left int) {
		fn(prefix)
		if left == 0 {
			return
		}
		for _, p := range pieces {
			walk(prefix+p, left-1)
		}
	}
	walk("", n)
}

// TestCutLineMatchesReference: cutLine, which looks only at the bytes
// lineStops marks, cuts and strips every line as strings.Cut at the newline
// then refStripComment did.
func TestCutLineMatchesReference(t *testing.T) {
	eachString(strings.Split("a \n\"\\#;/", ""), 7, func(text string) {
		raw, rest, more := strings.Cut(text, "\n")
		code, grest, gmore := cutLine(text)
		if code != refStripComment(raw) || grest != rest || gmore != more {
			t.Fatalf("cutLine(%q) = %q, %q, %v; want %q, %q, %v", text, code, grest, gmore, refStripComment(raw), rest, more)
		}
	})
}

// TestCutOperandMatchesReference: cutOperand, which looks only at the bytes
// operandStops marks and trims with trimSpace, splits as refCutOperand did.
func TestCutOperandMatchesReference(t *testing.T) {
	eachString(strings.Split("a ,()\"\\\t", ""), 7, func(s string) {
		op, rest, more := cutOperand(s)
		wop, wrest, wmore := refCutOperand(s)
		if op != wop || rest != wrest || more != wmore {
			t.Fatalf("cutOperand(%q) = %q, %q, %v; want %q, %q, %v", s, op, rest, more, wop, wrest, wmore)
		}
	})
}

// TestTrimSpaceMatchesStrings: trimSpace is strings.TrimSpace on blanks and
// tabs, the other ASCII white space, control bytes, Unicode spaces and
// invalid UTF-8 at either end.
func TestTrimSpaceMatchesStrings(t *testing.T) {
	pieces := []string{"a", " ", "\t", "\n", "\v", "\f", "\r", "\x00", "\x7f", "\u0085", "\u00a0", "\u2000", "\u3000", "\xff", "é"}
	eachString(pieces, 4, func(s string) {
		if got, want := trimSpace(s), strings.TrimSpace(s); got != want {
			t.Fatalf("trimSpace(%q) = %q, strings.TrimSpace gives %q", s, got, want)
		}
	})
}
