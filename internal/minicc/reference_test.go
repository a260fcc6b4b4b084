package minicc

import (
	"fmt"
	"math"
	"reflect"
	"strings"
	"testing"
)

// The lexer and binary-expression parser as they were before the
// single-pass lexer and precedence climbing, kept as references:
// TestMatchesReference and FuzzCompile hold the production code to them
// token for token and tree for tree (through DiffReference).

// binLevels lists binary operators from lowest to highest precedence: the
// reference parser descends through them one level per call.
var binLevels = [][]string{
	{"||"},
	{"&&"},
	{"|"},
	{"^"},
	{"&"},
	{"==", "!="},
	{"<", "<=", ">", ">="},
	{"<<", ">>"},
	{"+", "-"},
	{"*", "/", "%"},
}

func refLex(lx *lexer) ([]token, error) {
	var toks []token
	lx.line = 1
	for lx.pos < len(lx.src) {
		c := lx.src[lx.pos]
		switch {
		case c == '\n':
			lx.line++
			lx.pos++
		case c == ' ' || c == '\t' || c == '\r':
			lx.pos++
		case strings.HasPrefix(lx.src[lx.pos:], "//"):
			for lx.pos < len(lx.src) && lx.src[lx.pos] != '\n' {
				lx.pos++
			}
		case strings.HasPrefix(lx.src[lx.pos:], "/*"):
			end := strings.Index(lx.src[lx.pos+2:], "*/")
			if end < 0 {
				return nil, lx.errorf("unterminated block comment")
			}
			lx.line += strings.Count(lx.src[lx.pos:lx.pos+2+end+2], "\n")
			lx.pos += 2 + end + 2
		case c >= '0' && c <= '9' || c == '.' && lx.pos+1 < len(lx.src) && lx.src[lx.pos+1] >= '0' && lx.src[lx.pos+1] <= '9':
			tok, err := refLexNumber(lx)
			if err != nil {
				return nil, err
			}
			toks = append(toks, tok)
		case c == '_' || c >= 'a' && c <= 'z' || c >= 'A' && c <= 'Z':
			start := lx.pos
			for lx.pos < len(lx.src) && isIdentChar(lx.src[lx.pos]) {
				lx.pos++
			}
			text := lx.src[start:lx.pos]
			kind := tokIdent
			if keywords[text] {
				kind = tokKeyword
			}
			toks = append(toks, token{kind: kind, text: text, line: lx.line})
		case c == '"':
			s, err := lx.lexString('"')
			if err != nil {
				return nil, err
			}
			toks = append(toks, token{kind: tokStr, text: s, line: lx.line})
		case c == '\'':
			s, err := lx.lexString('\'')
			if err != nil {
				return nil, err
			}
			if len(s) != 1 {
				return nil, lx.errorf("character literal must be one byte")
			}
			toks = append(toks, token{kind: tokInt, ival: int64(s[0]), text: "'" + s + "'", line: lx.line})
		default:
			matched := false
			for _, p := range puncts {
				if strings.HasPrefix(lx.src[lx.pos:], p) {
					toks = append(toks, token{kind: tokPunct, text: p, line: lx.line})
					lx.pos += len(p)
					matched = true
					break
				}
			}
			if !matched {
				return nil, lx.errorf("unexpected character %q", c)
			}
		}
	}
	toks = append(toks, token{kind: tokEOF, line: lx.line})
	return toks, nil
}

func refLexNumber(lx *lexer) (token, error) {
	start := lx.pos
	isFloat := false
	if strings.HasPrefix(lx.src[lx.pos:], "0x") || strings.HasPrefix(lx.src[lx.pos:], "0X") {
		lx.pos += 2
		for lx.pos < len(lx.src) && isHex(lx.src[lx.pos]) {
			lx.pos++
		}
	} else {
		for lx.pos < len(lx.src) {
			c := lx.src[lx.pos]
			if c >= '0' && c <= '9' {
				lx.pos++
			} else if c == '.' && !isFloat {
				isFloat = true
				lx.pos++
			} else if (c == 'e' || c == 'E') && lx.pos+1 < len(lx.src) &&
				(lx.src[lx.pos+1] == '+' || lx.src[lx.pos+1] == '-' || lx.src[lx.pos+1] >= '0' && lx.src[lx.pos+1] <= '9') {
				isFloat = true
				lx.pos += 2
				for lx.pos < len(lx.src) && lx.src[lx.pos] >= '0' && lx.src[lx.pos] <= '9' {
					lx.pos++
				}
				break
			} else {
				break
			}
		}
	}
	text := lx.src[start:lx.pos]
	if isFloat {
		var f float64
		if _, err := fmt.Sscanf(text, "%g", &f); err != nil {
			return token{}, lx.errorf("bad float %q", text)
		}
		return token{kind: tokFloat, ival: int64(math.Float64bits(f)), text: text, line: lx.line}, nil
	}
	var v int64
	var err error
	if strings.HasPrefix(text, "0x") || strings.HasPrefix(text, "0X") {
		_, err = fmt.Sscanf(text, "%v", &v)
	} else {
		_, err = fmt.Sscanf(text, "%d", &v)
	}
	if err != nil {
		return token{}, lx.errorf("bad integer %q", text)
	}
	return token{kind: tokInt, ival: v, text: text, line: lx.line}, nil
}

func refParseBinary(p *parser, level int) (expr, error) {
	if level == len(binLevels) {
		return p.parseUnary()
	}
	l, err := refParseBinary(p, level+1)
	if err != nil {
		return nil, err
	}
	for {
		t := p.cur()
		matched := false
		if t.kind == tokPunct {
			for _, op := range binLevels[level] {
				if t.text == op {
					matched = true
					break
				}
			}
		}
		if !matched {
			return l, nil
		}
		p.next()
		r, err := refParseBinary(p, level+1)
		if err != nil {
			return nil, err
		}
		l = &binary{op: t.text, l: l, r: r, line: t.line}
	}
}

// sameToken reports whether two tokens agree in kind, text, value and line.
func sameToken(a, b token) bool {
	return a.kind == b.kind && a.text == b.text && a.ival == b.ival && a.line == b.line
}

// DiffReference compares the production lexer and binary-expression parser
// with the references on src and describes the first disagreement, or
// returns "". The lexers must give the same token stream or the same error
// text. Then, from every token position, both parsers read one binary
// expression: wherever the reference succeeds the production parser must
// build the same tree and stop at the same token, and wherever it fails it
// must fail with the same text.
func DiffReference(src string) string {
	want, werr := refLex(&lexer{src: src, file: "ref.mc"})
	got, gerr := tokenize("ref.mc", src)
	switch {
	case (werr == nil) != (gerr == nil):
		return fmt.Sprintf("lex: error %v, reference %v", gerr, werr)
	case werr != nil:
		if werr.Error() != gerr.Error() {
			return fmt.Sprintf("lex: error %q, reference %q", gerr, werr)
		}
		return ""
	case len(got) != len(want):
		return fmt.Sprintf("lex: %d tokens, reference %d", len(got), len(want))
	}
	for i := range want {
		if !sameToken(got[i], want[i]) {
			return fmt.Sprintf("lex: token %d is %+v, reference %+v", i, got[i], want[i])
		}
	}
	for start := 0; start < len(want)-1; start++ {
		rp := &parser{file: "ref.mc", toks: want, pos: start}
		pp := &parser{file: "ref.mc", toks: want, pos: start}
		we, werr := refParseBinary(rp, 0)
		ge, gerr := pp.parseBinary(0)
		switch {
		case (werr == nil) != (gerr == nil):
			return fmt.Sprintf("parse from token %d: error %v, reference %v", start, gerr, werr)
		case werr != nil:
			if werr.Error() != gerr.Error() {
				return fmt.Sprintf("parse from token %d: error %q, reference %q", start, gerr, werr)
			}
		case rp.pos != pp.pos:
			return fmt.Sprintf("parse from token %d: stopped at %d, reference %d", start, pp.pos, rp.pos)
		case !reflect.DeepEqual(ge, we):
			return fmt.Sprintf("parse from token %d: trees differ", start)
		}
	}
	return ""
}

// TestPunctIndexMatchesTable holds punctAt, which looks only at the
// punctuators starting with the first byte, to the longest-first scan of the
// whole table it replaces: every first byte, followed by every pair of
// punctuator bytes or a letter.
func TestPunctIndexMatchesTable(t *testing.T) {
	alphabet := "x"
	for _, p := range puncts {
		for i := 0; i < len(p); i++ {
			if !strings.Contains(alphabet, p[i:i+1]) {
				alphabet += p[i : i+1]
			}
		}
	}
	scan := func(s string) string {
		for _, p := range puncts {
			if strings.HasPrefix(s, p) {
				return p
			}
		}
		return ""
	}
	next := append([]string{""}, strings.Split(alphabet, "")...)
	for c := 0; c < 256; c++ {
		for _, b := range next {
			for _, d := range next {
				s := string([]byte{byte(c)}) + b + d
				if got, want := punctAt(s), scan(s); got != want {
					t.Fatalf("punctAt(%q) = %q, the table gives %q", s, got, want)
				}
			}
		}
	}
}

// TestBinaryPrecMatchesLevels holds binaryPrec to binLevels, the table the
// reference parser descends: every punctuator has the level it is listed
// at, or none.
func TestBinaryPrecMatchesLevels(t *testing.T) {
	for _, p := range puncts {
		want := -1
		for level, ops := range binLevels {
			for _, op := range ops {
				if op == p {
					want = level
				}
			}
		}
		if got := binaryPrec(p); got != want {
			t.Errorf("binaryPrec(%q) = %d, binLevels has it at %d", p, got, want)
		}
	}
}
