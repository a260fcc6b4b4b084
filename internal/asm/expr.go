package asm

import (
	"fmt"
	"strconv"
	"strings"
)

// exprParser evaluates integer constant expressions appearing in directives
// and instruction operands. Grammar (C-like precedence):
//
//	expr   := or
//	or     := xor ('|' xor)*
//	xor    := and ('^' and)*
//	and    := shift ('&' shift)*
//	shift  := add ('<<'|'>>' add)*
//	add    := mul (('+'|'-') mul)*
//	mul    := unary (('*'|'/'|'%') unary)*
//	unary  := ('-'|'~'|'+') unary | primary
//	primary:= number | char | symbol | '(' expr ')'
//
// Symbols resolve through the lookup function; unresolved symbols are an
// error (the assembler evaluates expressions only in pass 2, when all labels
// are known).
type exprParser struct {
	src    string
	pos    int
	lookup func(string) (int64, bool)
}

func evalExpr(src string, lookup func(string) (int64, bool)) (int64, error) {
	if v, ok := decimal(src); ok {
		return v, nil
	}
	p := &exprParser{src: src, lookup: lookup}
	v, err := p.parseOr()
	if err != nil {
		return 0, err
	}
	p.skipSpace()
	if p.pos != len(p.src) {
		return 0, fmt.Errorf("trailing characters %q in expression %q", p.src[p.pos:], src)
	}
	return v, nil
}

// decimal is the value of a plain decimal literal with an optional minus
// sign, as most operands are; anything else is for the parser.
func decimal(s string) (v int64, ok bool) {
	digits := strings.TrimPrefix(s, "-")
	if digits == "" || len(digits) > 18 || digits[0] == '0' && len(digits) > 1 {
		return 0, false
	}
	for i := 0; i < len(digits); i++ {
		c := digits[i] - '0'
		if c > 9 {
			return 0, false
		}
		v = v*10 + int64(c)
	}
	if len(digits) < len(s) {
		v = -v
	}
	return v, true
}

func (p *exprParser) parseOr() (int64, error) {
	v, err := p.parseXor()
	if err != nil {
		return 0, err
	}
	for p.peekOp("|") && !p.peekOp("||") {
		p.pos++
		w, err := p.parseXor()
		if err != nil {
			return 0, err
		}
		v |= w
	}
	return v, nil
}

func (p *exprParser) parseXor() (int64, error) {
	v, err := p.parseAnd()
	if err != nil {
		return 0, err
	}
	for p.peekOp("^") {
		p.pos++
		w, err := p.parseAnd()
		if err != nil {
			return 0, err
		}
		v ^= w
	}
	return v, nil
}

func (p *exprParser) parseAnd() (int64, error) {
	v, err := p.parseShift()
	if err != nil {
		return 0, err
	}
	for p.peekOp("&") && !p.peekOp("&&") {
		p.pos++
		w, err := p.parseShift()
		if err != nil {
			return 0, err
		}
		v &= w
	}
	return v, nil
}

func (p *exprParser) parseShift() (int64, error) {
	v, err := p.parseAdd()
	if err != nil {
		return 0, err
	}
	for {
		switch {
		case p.peekOp("<<"):
			p.pos += 2
			w, err := p.parseAdd()
			if err != nil {
				return 0, err
			}
			v <<= uint(w)
		case p.peekOp(">>"):
			p.pos += 2
			w, err := p.parseAdd()
			if err != nil {
				return 0, err
			}
			v = int64(uint64(v) >> uint(w))
		default:
			return v, nil
		}
	}
}

func (p *exprParser) parseAdd() (int64, error) {
	v, err := p.parseMul()
	if err != nil {
		return 0, err
	}
	for {
		switch {
		case p.peekOp("+"):
			p.pos++
			w, err := p.parseMul()
			if err != nil {
				return 0, err
			}
			v += w
		case p.peekOp("-"):
			p.pos++
			w, err := p.parseMul()
			if err != nil {
				return 0, err
			}
			v -= w
		default:
			return v, nil
		}
	}
}

func (p *exprParser) parseMul() (int64, error) {
	v, err := p.parseUnary()
	if err != nil {
		return 0, err
	}
	for {
		switch {
		case p.peekOp("*"):
			p.pos++
			w, err := p.parseUnary()
			if err != nil {
				return 0, err
			}
			v *= w
		case p.peekOp("/"):
			p.pos++
			w, err := p.parseUnary()
			if err != nil {
				return 0, err
			}
			if w == 0 {
				return 0, fmt.Errorf("division by zero in %q", p.src)
			}
			v /= w
		case p.peekOp("%"):
			p.pos++
			w, err := p.parseUnary()
			if err != nil {
				return 0, err
			}
			if w == 0 {
				return 0, fmt.Errorf("modulo by zero in %q", p.src)
			}
			v %= w
		default:
			return v, nil
		}
	}
}

func (p *exprParser) parseUnary() (int64, error) {
	p.skipSpace()
	if p.pos < len(p.src) {
		switch p.src[p.pos] {
		case '-':
			p.pos++
			v, err := p.parseUnary()
			return -v, err
		case '~':
			p.pos++
			v, err := p.parseUnary()
			return ^v, err
		case '+':
			p.pos++
			return p.parseUnary()
		}
	}
	return p.parsePrimary()
}

func (p *exprParser) parsePrimary() (int64, error) {
	p.skipSpace()
	if p.pos >= len(p.src) {
		return 0, fmt.Errorf("unexpected end of expression %q", p.src)
	}
	c := p.src[p.pos]
	switch {
	case c == '(':
		p.pos++
		v, err := p.parseOr()
		if err != nil {
			return 0, err
		}
		p.skipSpace()
		if p.pos >= len(p.src) || p.src[p.pos] != ')' {
			return 0, fmt.Errorf("missing ')' in %q", p.src)
		}
		p.pos++
		return v, nil
	case c == '\'':
		end := strings.IndexByte(p.src[p.pos+1:], '\'')
		if end < 0 {
			return 0, fmt.Errorf("unterminated character literal in %q", p.src)
		}
		lit := p.src[p.pos+1 : p.pos+1+end]
		p.pos += end + 2
		s, err := unescape(lit)
		if err != nil || len(s) != 1 {
			return 0, fmt.Errorf("bad character literal '%s'", lit)
		}
		return int64(s[0]), nil
	case c >= '0' && c <= '9':
		start := p.pos
		for p.pos < len(p.src) && isNumChar(p.src[p.pos]) {
			p.pos++
		}
		tok := p.src[start:p.pos]
		v, err := strconv.ParseInt(tok, 0, 64)
		if err != nil {
			// Allow full-range unsigned hex such as 0xffffffffffffffff.
			if u, uerr := strconv.ParseUint(tok, 0, 64); uerr == nil {
				return int64(u), nil
			}
			// Numeric local label references such as "1b"/"1f".
			if p.lookup != nil && isNumericRef(tok) {
				if v, ok := p.lookup(tok); ok {
					return v, nil
				}
			}
			return 0, fmt.Errorf("bad number %q", tok)
		}
		return v, nil
	case isSymStart(c):
		start := p.pos
		for p.pos < len(p.src) && isSymChar(p.src[p.pos]) {
			p.pos++
		}
		name := p.src[start:p.pos]
		if p.lookup != nil {
			if v, ok := p.lookup(name); ok {
				return v, nil
			}
		}
		return 0, fmt.Errorf("undefined symbol %q", name)
	}
	return 0, fmt.Errorf("unexpected character %q in expression %q", c, p.src)
}

func (p *exprParser) peekOp(op string) bool {
	p.skipSpace()
	return strings.HasPrefix(p.src[p.pos:], op)
}

func (p *exprParser) skipSpace() {
	for p.pos < len(p.src) && (p.src[p.pos] == ' ' || p.src[p.pos] == '\t') {
		p.pos++
	}
}

// isNumericRef reports whether tok looks like a numeric local label
// reference: one or more digits followed by 'b' or 'f'.
func isNumericRef(tok string) bool {
	if len(tok) < 2 {
		return false
	}
	last := tok[len(tok)-1]
	if last != 'b' && last != 'f' {
		return false
	}
	for i := 0; i < len(tok)-1; i++ {
		if tok[i] < '0' || tok[i] > '9' {
			return false
		}
	}
	return true
}

func isNumChar(c byte) bool {
	return c >= '0' && c <= '9' || c >= 'a' && c <= 'f' || c >= 'A' && c <= 'F' || c == 'x' || c == 'X' || c == 'b' || c == 'B' || c == 'o' || c == 'O'
}

func isSymStart(c byte) bool {
	return c == '_' || c == '.' || c >= 'a' && c <= 'z' || c >= 'A' && c <= 'Z'
}

func isSymChar(c byte) bool { return isSymStart(c) || c >= '0' && c <= '9' || c == '$' }

// unescape interprets the escape sequences \n \t \r \0 \\ \' \" \xNN.
func unescape(s string) (string, error) {
	var sb strings.Builder
	for i := 0; i < len(s); i++ {
		if s[i] != '\\' {
			sb.WriteByte(s[i])
			continue
		}
		i++
		if i >= len(s) {
			return "", fmt.Errorf("trailing backslash")
		}
		switch s[i] {
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
		case 'x':
			if i+2 >= len(s) {
				return "", fmt.Errorf("bad \\x escape")
			}
			v, err := strconv.ParseUint(s[i+1:i+3], 16, 8)
			if err != nil {
				return "", fmt.Errorf("bad \\x escape: %v", err)
			}
			sb.WriteByte(byte(v))
			i += 2
		default:
			return "", fmt.Errorf("unknown escape \\%c", s[i])
		}
	}
	return sb.String(), nil
}
