// Package minicc is a small C-like compiler targeting the GA64 guest ISA.
// It exists so the PARSEC-like workloads of the paper's evaluation (§6) can
// be written in readable source and compiled to guest binaries, playing the
// role of the cross-compiler in the paper's toolchain.
//
// The language ("mini-C") has 64-bit integers (long), IEEE doubles, bytes
// (char), pointers and fixed-size arrays; functions with up to 8 parameters;
// if/while/for/break/continue/return; and short-circuit logic. Built-ins
// map to ISA instructions (sqrt, exp, log, fabs, __cas, __amoadd,
// __amoswap, __ll, __sc, __fence, hint). Everything else is an external
// symbol resolved at assembly time against the guest runtime (internal/grt).
package minicc

import (
	"fmt"
	"math"
	"strconv"
	"strings"
	"sync/atomic"
)

type tokKind uint8

const (
	tokEOF tokKind = iota
	tokIdent
	tokInt
	tokFloat
	tokStr
	tokChar
	tokPunct
	tokKeyword
)

type token struct {
	kind tokKind
	text string
	ival int64 // a tokInt's value, a tokFloat's IEEE bits
	line int
}

func (t token) fval() float64 { return math.Float64frombits(uint64(t.ival)) }

var keywords = map[string]bool{
	"long": true, "double": true, "char": true, "void": true,
	"if": true, "else": true, "while": true, "for": true,
	"return": true, "break": true, "continue": true, "extern": true,
}

// puncts are the punctuators, longest first so maximal munch works.
var puncts = []string{
	"<<=", ">>=", "&&", "||", "==", "!=", "<=", ">=", "<<", ">>",
	"+=", "-=", "*=", "/=", "%=", "&=", "|=", "^=", "++", "--",
	"+", "-", "*", "/", "%", "&", "|", "^", "~", "!", "<", ">", "=",
	"(", ")", "{", "}", "[", "]", ",", ";", "?", ":",
}

// punctsByFirst indexes puncts by first byte, in their order: a punctuator
// costs the at most three candidates for its byte, not a scan of the table.
var punctsByFirst = func() (idx [256][]string) {
	for _, p := range puncts {
		idx[p[0]] = append(idx[p[0]], p)
	}
	return idx
}()

type lexer struct {
	src  string
	pos  int
	line int
	file string
}

func (lx *lexer) errorf(format string, args ...interface{}) error {
	return fmt.Errorf("%s:%d: %s", lx.file, lx.line, fmt.Sprintf(format, args...))
}

// tokenize lexes src into a token stream ending in tokEOF, counting lines
// from src's first line.
func tokenize(file, src string) ([]token, error) {
	// Generated straight-line code runs at 2.9 bytes a token, hand-written
	// workloads at 3.2 to 4: room for one per 2.5 bytes means the slice is
	// allocated once and never copied.
	toks := make([]token, 0, min(len(src), sizedSrcBytes)*2/5+1)
	lx := &lexer{src: src, file: file, line: 1}
	toks, err := lx.lex(toks)
	if err != nil {
		return nil, err
	}
	return append(toks, token{kind: tokEOF, line: lx.line}), nil
}

// lexedPrelude is the last prelude tokenize lexed without error, and its
// tokens, which every unit compiled behind it reads and none writes.
type lexedPrelude struct {
	text string
	toks []token
}

var lastPrelude atomic.Pointer[lexedPrelude]

// noPrelude is the empty prelude's tokens, which Compile compiles behind.
var noPrelude = []token{{kind: tokEOF, line: 1}}

// preludeTokens returns the tokens of prelude, lexing it only when it is
// not the one lexed last: every job of a process is compiled behind the
// same grt.Prelude.
func preludeTokens(file, prelude string) ([]token, error) {
	if prelude == "" {
		return noPrelude, nil
	}
	if lp := lastPrelude.Load(); lp != nil && lp.text == prelude {
		return lp.toks, nil
	}
	toks, err := tokenize(file, prelude)
	if err != nil {
		return nil, err // its diagnostic names file, so it is not kept
	}
	lastPrelude.Store(&lexedPrelude{text: prelude, toks: toks})
	return toks, nil
}

// lex appends the tokens of lx.src to toks, reading each byte once.
func (lx *lexer) lex(toks []token) ([]token, error) {
	src := lx.src
	for lx.pos < len(src) {
		c := src[lx.pos]
		switch {
		case c == ' ' || c == '\t' || c == '\r':
			lx.pos++
		case c == '\n':
			lx.line++
			lx.pos++
		case c == '_' || c >= 'a' && c <= 'z' || c >= 'A' && c <= 'Z':
			start := lx.pos
			for lx.pos < len(src) && isIdentChar(src[lx.pos]) {
				lx.pos++
			}
			text := src[start:lx.pos]
			kind := tokIdent
			if keywords[text] {
				kind = tokKeyword
			}
			toks = append(toks, token{kind: kind, text: text, line: lx.line})
		case c >= '0' && c <= '9' || c == '.' && lx.pos+1 < len(src) && src[lx.pos+1] >= '0' && src[lx.pos+1] <= '9':
			tok, err := lx.lexNumber()
			if err != nil {
				return nil, err
			}
			toks = append(toks, tok)
		case c == '/' && lx.pos+1 < len(src) && src[lx.pos+1] == '/':
			for lx.pos < len(src) && src[lx.pos] != '\n' {
				lx.pos++
			}
		case c == '/' && lx.pos+1 < len(src) && src[lx.pos+1] == '*':
			if err := lx.skipBlockComment(); err != nil {
				return nil, err
			}
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
			p := punctAt(src[lx.pos:])
			if p == "" {
				return nil, lx.errorf("unexpected character %q", c)
			}
			toks = append(toks, token{kind: tokPunct, text: p, line: lx.line})
			lx.pos += len(p)
		}
	}
	return toks, nil
}

// punctAt returns the longest punctuator s starts with, or "".
func punctAt(s string) string {
	for _, p := range punctsByFirst[s[0]] {
		if strings.HasPrefix(s, p) {
			return p
		}
	}
	return ""
}

// skipBlockComment steps over the /* */ comment at lx.pos, counting its
// newlines as it goes. An unterminated comment is reported at its first line.
func (lx *lexer) skipBlockComment() error {
	lines := 0
	for i := lx.pos + 2; i+1 < len(lx.src); i++ {
		switch {
		case lx.src[i] == '\n':
			lines++
		case lx.src[i] == '*' && lx.src[i+1] == '/':
			lx.line += lines
			lx.pos = i + 2
			return nil
		}
	}
	return lx.errorf("unterminated block comment")
}

func (lx *lexer) lexNumber() (token, error) {
	start := lx.pos
	isFloat := false
	hex := lx.pos+1 < len(lx.src) && lx.src[lx.pos] == '0' && (lx.src[lx.pos+1] == 'x' || lx.src[lx.pos+1] == 'X')
	if hex {
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
	// The text is digits, one '.' and an exponent, or 0x and hex digits:
	// strconv accepts exactly what fmt's %g, %d and %v scanners accept on it.
	text := lx.src[start:lx.pos]
	if isFloat {
		f, err := strconv.ParseFloat(text, 64)
		if err != nil {
			return token{}, lx.errorf("bad float %q", text)
		}
		return token{kind: tokFloat, ival: int64(math.Float64bits(f)), text: text, line: lx.line}, nil
	}
	base := 10
	if hex {
		base = 0
	}
	v, err := strconv.ParseInt(text, base, 64)
	if err != nil {
		return token{}, lx.errorf("bad integer %q", text)
	}
	return token{kind: tokInt, ival: v, text: text, line: lx.line}, nil
}

func (lx *lexer) lexString(quote byte) (string, error) {
	lx.pos++ // opening quote
	var sb strings.Builder
	for lx.pos < len(lx.src) {
		c := lx.src[lx.pos]
		switch c {
		case quote:
			lx.pos++
			return sb.String(), nil
		case '\n':
			return "", lx.errorf("unterminated string")
		case '\\':
			lx.pos++
			if lx.pos >= len(lx.src) {
				return "", lx.errorf("trailing backslash")
			}
			switch lx.src[lx.pos] {
			case 'n':
				sb.WriteByte('\n')
			case 't':
				sb.WriteByte('\t')
			case 'r':
				sb.WriteByte('\r')
			case '0':
				sb.WriteByte(0)
			case '\\':
				sb.WriteByte('\\')
			case '\'':
				sb.WriteByte('\'')
			case '"':
				sb.WriteByte('"')
			default:
				return "", lx.errorf("unknown escape \\%c", lx.src[lx.pos])
			}
			lx.pos++
		default:
			sb.WriteByte(c)
			lx.pos++
		}
	}
	return "", lx.errorf("unterminated string")
}

func isIdentChar(c byte) bool {
	return c == '_' || c >= 'a' && c <= 'z' || c >= 'A' && c <= 'Z' || c >= '0' && c <= '9'
}

func isHex(c byte) bool {
	return c >= '0' && c <= '9' || c >= 'a' && c <= 'f' || c >= 'A' && c <= 'F'
}
