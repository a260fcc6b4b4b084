package minicc

import "fmt"

type parser struct {
	file string
	toks []token
	pos  int
}

func (p *parser) errorf(line int, format string, args ...interface{}) error {
	return &compileError{file: p.file, line: line, msg: fmt.Sprintf(format, args...)}
}

func (p *parser) cur() token  { return p.toks[p.pos] }
func (p *parser) next() token { t := p.toks[p.pos]; p.pos++; return t }

func (p *parser) is(text string) bool {
	t := p.cur()
	return (t.kind == tokPunct || t.kind == tokKeyword) && t.text == text
}

func (p *parser) accept(text string) bool {
	if p.is(text) {
		p.pos++
		return true
	}
	return false
}

func (p *parser) expect(text string) error {
	if !p.accept(text) {
		return p.errorf(p.cur().line, "expected %q, got %q", text, p.cur().text)
	}
	return nil
}

func (p *parser) isTypeStart() bool {
	t := p.cur()
	return t.kind == tokKeyword && (t.text == "long" || t.text == "double" || t.text == "char" || t.text == "void")
}

// parseType parses a base type plus pointer stars.
func (p *parser) parseType() (*Type, error) {
	t := p.next()
	var base *Type
	switch t.text {
	case "long":
		base = tyLong
	case "double":
		base = tyDouble
	case "char":
		base = tyChar
	case "void":
		base = tyVoid
	default:
		return nil, p.errorf(t.line, "expected type, got %q", t.text)
	}
	for p.accept("*") {
		base = ptrTo(base)
	}
	return base, nil
}

// parseProgram appends the declarations of p's tokens to prog.
func (p *parser) parseProgram(prog *program) error {
	for p.cur().kind != tokEOF {
		if p.accept("extern") {
			ret, err := p.parseType()
			if err != nil {
				return err
			}
			name := p.next()
			if name.kind != tokIdent {
				return p.errorf(name.line, "expected extern name")
			}
			if err := p.expect("("); err != nil {
				return err
			}
			// Parameter types are not checked; skip to ')'.
			depth := 1
			for depth > 0 {
				t := p.next()
				if t.kind == tokEOF {
					return p.errorf(t.line, "unterminated extern declaration")
				}
				if t.text == "(" {
					depth++
				}
				if t.text == ")" {
					depth--
				}
			}
			if err := p.expect(";"); err != nil {
				return err
			}
			prog.externs = append(prog.externs, &externDecl{name: name.text, ret: ret})
			continue
		}
		if !p.isTypeStart() {
			return p.errorf(p.cur().line, "expected declaration, got %q", p.cur().text)
		}
		ty, err := p.parseType()
		if err != nil {
			return err
		}
		name := p.next()
		if name.kind != tokIdent {
			return p.errorf(name.line, "expected name, got %q", name.text)
		}
		if p.is("(") {
			fn, err := p.parseFunc(ty, name)
			if err != nil {
				return err
			}
			prog.funcs = append(prog.funcs, fn)
			continue
		}
		g, err := p.parseGlobal(ty, name)
		if err != nil {
			return err
		}
		prog.globals = append(prog.globals, g)
	}
	return nil
}

func (p *parser) parseFunc(ret *Type, name token) (*funcDecl, error) {
	if err := p.expect("("); err != nil {
		return nil, err
	}
	fn := &funcDecl{name: name.text, ret: ret, line: name.line}
	if !p.accept(")") {
		for {
			ty, err := p.parseType()
			if err != nil {
				return nil, err
			}
			if ty.Kind == KindVoid && !ty.isPtr() {
				if len(fn.params) == 0 && p.is(")") { // f(void)
					p.next()
					return p.finishFunc(fn)
				}
				return nil, p.errorf(p.cur().line, "void parameter")
			}
			pname := p.next()
			if pname.kind != tokIdent {
				return nil, p.errorf(pname.line, "expected parameter name")
			}
			fn.params = append(fn.params, param{name: pname.text, ty: ty})
			if p.accept(")") {
				break
			}
			if err := p.expect(","); err != nil {
				return nil, err
			}
		}
	}
	return p.finishFunc(fn)
}

func (p *parser) finishFunc(fn *funcDecl) (*funcDecl, error) {
	if len(fn.params) > 8 {
		return nil, p.errorf(fn.line, "at most 8 parameters supported")
	}
	body, err := p.parseBlock()
	if err != nil {
		return nil, err
	}
	fn.body = body
	return fn, nil
}

func (p *parser) parseGlobal(ty *Type, name token) (*globalDecl, error) {
	g := &globalDecl{name: name.text, ty: ty, arrayLen: -1, line: name.line}
	if p.accept("[") {
		lenTok := p.next()
		if lenTok.kind != tokInt || lenTok.ival <= 0 {
			return nil, p.errorf(lenTok.line, "array length must be a positive integer literal")
		}
		g.arrayLen = lenTok.ival
		if err := p.expect("]"); err != nil {
			return nil, err
		}
	}
	if p.accept("=") {
		if g.arrayLen >= 0 {
			if err := p.expect("{"); err != nil {
				return nil, err
			}
			for !p.accept("}") {
				e, err := p.parseConstLit()
				if err != nil {
					return nil, err
				}
				g.initList = append(g.initList, e)
				if !p.accept(",") && !p.is("}") {
					return nil, p.errorf(p.cur().line, "expected ',' or '}' in initializer")
				}
			}
			if int64(len(g.initList)) > g.arrayLen {
				return nil, p.errorf(g.line, "too many initializers")
			}
		} else {
			t := p.cur()
			switch {
			case t.kind == tokStr:
				p.next()
				s := t.text
				g.initS = &s
			default:
				e, err := p.parseConstLit()
				if err != nil {
					return nil, err
				}
				switch v := e.(type) {
				case *intLit:
					g.initI = &v.val
				case *floatLit:
					g.initF = &v.val
				}
			}
		}
	}
	if err := p.expect(";"); err != nil {
		return nil, err
	}
	return g, nil
}

// parseConstLit parses an optionally negated numeric literal.
func (p *parser) parseConstLit() (expr, error) {
	neg := p.accept("-")
	t := p.next()
	switch t.kind {
	case tokInt:
		v := t.ival
		if neg {
			v = -v
		}
		return &intLit{val: v}, nil
	case tokFloat:
		v := t.fval()
		if neg {
			v = -v
		}
		return &floatLit{val: v}, nil
	}
	return nil, p.errorf(t.line, "expected constant literal, got %q", t.text)
}

func (p *parser) parseBlock() (*block, error) {
	if err := p.expect("{"); err != nil {
		return nil, err
	}
	b := &block{}
	for !p.accept("}") {
		if p.cur().kind == tokEOF {
			return nil, p.errorf(p.cur().line, "unterminated block")
		}
		s, err := p.parseStmt()
		if err != nil {
			return nil, err
		}
		b.stmts = append(b.stmts, s)
	}
	return b, nil
}

func (p *parser) parseStmt() (stmt, error) {
	t := p.cur()
	switch {
	case p.is("{"):
		return p.parseBlock()
	case p.isTypeStart():
		return p.parseDecl()
	case p.accept("if"):
		if err := p.expect("("); err != nil {
			return nil, err
		}
		c, err := p.parseExpr()
		if err != nil {
			return nil, err
		}
		if err := p.expect(")"); err != nil {
			return nil, err
		}
		then, err := p.parseStmt()
		if err != nil {
			return nil, err
		}
		var els stmt
		if p.accept("else") {
			if els, err = p.parseStmt(); err != nil {
				return nil, err
			}
		}
		return &ifStmt{c: c, then: then, els: els}, nil
	case p.accept("while"):
		if err := p.expect("("); err != nil {
			return nil, err
		}
		c, err := p.parseExpr()
		if err != nil {
			return nil, err
		}
		if err := p.expect(")"); err != nil {
			return nil, err
		}
		body, err := p.parseStmt()
		if err != nil {
			return nil, err
		}
		return &whileStmt{c: c, body: body}, nil
	case p.accept("for"):
		return p.parseFor()
	case p.accept("return"):
		r := &returnStmt{line: t.line}
		if !p.is(";") {
			x, err := p.parseExpr()
			if err != nil {
				return nil, err
			}
			r.x = x
		}
		return r, p.expect(";")
	case p.accept("break"):
		return &breakStmt{line: t.line}, p.expect(";")
	case p.accept("continue"):
		return &continueStmt{line: t.line}, p.expect(";")
	case p.accept(";"):
		return &block{}, nil
	default:
		x, err := p.parseExpr()
		if err != nil {
			return nil, err
		}
		return &exprStmt{x: x}, p.expect(";")
	}
}

func (p *parser) parseDecl() (stmt, error) {
	ty, err := p.parseType()
	if err != nil {
		return nil, err
	}
	if ty.Kind == KindVoid && !ty.isPtr() {
		return nil, p.errorf(p.cur().line, "void variable")
	}
	name := p.next()
	if name.kind != tokIdent {
		return nil, p.errorf(name.line, "expected variable name, got %q", name.text)
	}
	d := &declStmt{name: name.text, ty: ty, arrayLen: -1, line: name.line}
	if p.accept("[") {
		lenTok := p.next()
		if lenTok.kind != tokInt || lenTok.ival <= 0 {
			return nil, p.errorf(lenTok.line, "array length must be a positive integer literal")
		}
		d.arrayLen = lenTok.ival
		if err := p.expect("]"); err != nil {
			return nil, err
		}
	}
	if p.accept("=") {
		if d.arrayLen >= 0 {
			return nil, p.errorf(name.line, "local array initializers are not supported")
		}
		x, err := p.parseExpr()
		if err != nil {
			return nil, err
		}
		d.init = x
	}
	return d, p.expect(";")
}

func (p *parser) parseFor() (stmt, error) {
	if err := p.expect("("); err != nil {
		return nil, err
	}
	f := &forStmt{}
	if !p.accept(";") {
		if p.isTypeStart() {
			s, err := p.parseDecl()
			if err != nil {
				return nil, err
			}
			f.init = s
		} else {
			x, err := p.parseExpr()
			if err != nil {
				return nil, err
			}
			f.init = &exprStmt{x: x}
			if err := p.expect(";"); err != nil {
				return nil, err
			}
		}
	}
	if !p.is(";") {
		c, err := p.parseExpr()
		if err != nil {
			return nil, err
		}
		f.c = c
	}
	if err := p.expect(";"); err != nil {
		return nil, err
	}
	if !p.is(")") {
		post, err := p.parseExpr()
		if err != nil {
			return nil, err
		}
		f.post = post
	}
	if err := p.expect(")"); err != nil {
		return nil, err
	}
	body, err := p.parseStmt()
	if err != nil {
		return nil, err
	}
	f.body = body
	return f, nil
}

// ---- Expressions (precedence climbing) ----

func (p *parser) parseExpr() (expr, error) { return p.parseAssign() }

var compoundOps = map[string]string{
	"+=": "+", "-=": "-", "*=": "*", "/=": "/", "%=": "%",
	"&=": "&", "|=": "|", "^=": "^", "<<=": "<<", ">>=": ">>",
}

func (p *parser) parseAssign() (expr, error) {
	l, err := p.parseTernary()
	if err != nil {
		return nil, err
	}
	t := p.cur()
	if t.kind == tokPunct {
		if t.text == "=" {
			p.next()
			r, err := p.parseAssign()
			if err != nil {
				return nil, err
			}
			return &assign{op: "=", l: l, r: r, line: t.line}, nil
		}
		if base, ok := compoundOps[t.text]; ok {
			p.next()
			r, err := p.parseAssign()
			if err != nil {
				return nil, err
			}
			return &assign{op: base, l: l, r: r, line: t.line}, nil
		}
	}
	return l, nil
}

func (p *parser) parseTernary() (expr, error) {
	c, err := p.parseBinary(0)
	if err != nil {
		return nil, err
	}
	if !p.is("?") {
		return c, nil
	}
	line := p.next().line
	t, err := p.parseExpr()
	if err != nil {
		return nil, err
	}
	if err := p.expect(":"); err != nil {
		return nil, err
	}
	f, err := p.parseTernary()
	if err != nil {
		return nil, err
	}
	return &cond{c: c, t: t, f: f, line: line}, nil
}

// binaryPrec is the precedence of a binary operator, from 0 for || to 9 for
// the multiplicative operators, or -1 for any other text.
func binaryPrec(op string) int {
	switch op {
	case "||":
		return 0
	case "&&":
		return 1
	case "|":
		return 2
	case "^":
		return 3
	case "&":
		return 4
	case "==", "!=":
		return 5
	case "<", "<=", ">", ">=":
		return 6
	case "<<", ">>":
		return 7
	case "+", "-":
		return 8
	case "*", "/", "%":
		return 9
	}
	return -1
}

// parseBinary parses a binary expression whose operators bind at least as
// tightly as minPrec, by precedence climbing: one call per operand, every
// operator left-associative.
func (p *parser) parseBinary(minPrec int) (expr, error) {
	l, err := p.parseUnary()
	if err != nil {
		return nil, err
	}
	for {
		t := p.cur()
		prec := -1
		if t.kind == tokPunct {
			prec = binaryPrec(t.text)
		}
		if prec < minPrec {
			return l, nil
		}
		p.next()
		r, err := p.parseBinary(prec + 1)
		if err != nil {
			return nil, err
		}
		l = &binary{op: t.text, l: l, r: r, line: t.line}
	}
}

func (p *parser) parseUnary() (expr, error) {
	t := p.cur()
	if t.kind == tokPunct {
		switch t.text {
		case "-", "!", "~", "*", "&":
			p.next()
			x, err := p.parseUnary()
			if err != nil {
				return nil, err
			}
			return &unary{op: t.text, x: x, line: t.line}, nil
		case "(":
			// Possible cast: "(" type ")" unary.
			if p.pos+1 < len(p.toks) && p.toks[p.pos+1].kind == tokKeyword && keywordIsType(p.toks[p.pos+1].text) {
				p.next() // (
				ty, err := p.parseType()
				if err != nil {
					return nil, err
				}
				if err := p.expect(")"); err != nil {
					return nil, err
				}
				x, err := p.parseUnary()
				if err != nil {
					return nil, err
				}
				return &cast{to: ty, x: x, line: t.line}, nil
			}
		}
	}
	return p.parsePostfix()
}

func keywordIsType(s string) bool {
	return s == "long" || s == "double" || s == "char" || s == "void"
}

func (p *parser) parsePostfix() (expr, error) {
	x, err := p.parsePrimary()
	if err != nil {
		return nil, err
	}
	for {
		t := p.cur()
		switch {
		case p.is("["):
			p.next()
			idx, err := p.parseExpr()
			if err != nil {
				return nil, err
			}
			if err := p.expect("]"); err != nil {
				return nil, err
			}
			x = &index{base: x, idx: idx, line: t.line}
		case p.is("++") || p.is("--"):
			p.next()
			x = &incDec{op: t.text, l: x, line: t.line}
		default:
			return x, nil
		}
	}
}

func (p *parser) parsePrimary() (expr, error) {
	t := p.next()
	switch t.kind {
	case tokInt:
		return &intLit{val: t.ival}, nil
	case tokFloat:
		return &floatLit{val: t.fval()}, nil
	case tokStr:
		return &strLit{val: t.text}, nil
	case tokIdent:
		if p.is("(") {
			p.next()
			c := &call{name: t.text, line: t.line}
			if !p.accept(")") {
				for {
					a, err := p.parseExpr()
					if err != nil {
						return nil, err
					}
					c.args = append(c.args, a)
					if p.accept(")") {
						break
					}
					if err := p.expect(","); err != nil {
						return nil, err
					}
				}
			}
			return c, nil
		}
		return &varRef{name: t.text, line: t.line}, nil
	case tokPunct:
		if t.text == "(" {
			x, err := p.parseExpr()
			if err != nil {
				return nil, err
			}
			return x, p.expect(")")
		}
	}
	return nil, p.errorf(t.line, "unexpected token %q", t.text)
}
