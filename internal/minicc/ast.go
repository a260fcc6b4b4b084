package minicc

import "fmt"

// Kind enumerates mini-C type kinds.
type Kind uint8

const (
	KindVoid Kind = iota
	KindLong
	KindChar
	KindDouble
	KindPtr
)

// Type is a mini-C type. Types are small and compared structurally.
type Type struct {
	Kind Kind
	Elem *Type // for KindPtr
}

var (
	tyVoid   = &Type{Kind: KindVoid}
	tyLong   = &Type{Kind: KindLong}
	tyChar   = &Type{Kind: KindChar}
	tyDouble = &Type{Kind: KindDouble}
)

func ptrTo(t *Type) *Type { return &Type{Kind: KindPtr, Elem: t} }

// size returns the storage size of a value of this type.
func (t *Type) size() int64 {
	switch t.Kind {
	case KindChar:
		return 1
	case KindVoid:
		return 0
	default:
		return 8
	}
}

func (t *Type) isFloat() bool { return t.Kind == KindDouble }
func (t *Type) isInt() bool   { return t.Kind == KindLong || t.Kind == KindChar }
func (t *Type) isPtr() bool   { return t.Kind == KindPtr }

func (t *Type) String() string {
	switch t.Kind {
	case KindVoid:
		return "void"
	case KindLong:
		return "long"
	case KindChar:
		return "char"
	case KindDouble:
		return "double"
	case KindPtr:
		return t.Elem.String() + "*"
	}
	return "?"
}

// ---- Expressions ----

type expr interface{ exprNode() }

type intLit struct {
	val int64
}

type floatLit struct {
	val float64
}

type strLit struct {
	val string
}

type varRef struct {
	name string
	line int
}

type unary struct {
	op   string // - ! ~ * &
	x    expr
	line int
}

type binary struct {
	op   string
	l, r expr
	line int
}

type assign struct {
	op   string // "=", "+=", ...
	l, r expr
	line int
}

type incDec struct {
	op   string // "++" or "--"
	l    expr
	line int
}

type cond struct {
	c, t, f expr
	line    int
}

type call struct {
	name string
	args []expr
	line int
}

type index struct {
	base expr
	idx  expr
	line int
}

type cast struct {
	to   *Type
	x    expr
	line int
}

func (*intLit) exprNode()   {}
func (*floatLit) exprNode() {}
func (*strLit) exprNode()   {}
func (*varRef) exprNode()   {}
func (*unary) exprNode()    {}
func (*binary) exprNode()   {}
func (*assign) exprNode()   {}
func (*incDec) exprNode()   {}
func (*cond) exprNode()     {}
func (*call) exprNode()     {}
func (*index) exprNode()    {}
func (*cast) exprNode()     {}

// ---- Statements ----

type stmt interface{ stmtNode() }

type block struct {
	stmts []stmt
}

type declStmt struct {
	name     string
	ty       *Type
	arrayLen int64 // -1 for scalars
	init     expr  // optional, scalars only
	line     int

	frameOff int64 // assigned by the code generator's prescan
}

type exprStmt struct {
	x expr
}

type ifStmt struct {
	c    expr
	then stmt
	els  stmt // may be nil
}

type whileStmt struct {
	c    expr
	body stmt
}

type forStmt struct {
	init stmt // declStmt or exprStmt, may be nil
	c    expr // may be nil
	post expr // may be nil
	body stmt
}

type returnStmt struct {
	x    expr // may be nil
	line int
}

type breakStmt struct{ line int }
type continueStmt struct{ line int }

func (*block) stmtNode()        {}
func (*declStmt) stmtNode()     {}
func (*exprStmt) stmtNode()     {}
func (*ifStmt) stmtNode()       {}
func (*whileStmt) stmtNode()    {}
func (*forStmt) stmtNode()      {}
func (*returnStmt) stmtNode()   {}
func (*breakStmt) stmtNode()    {}
func (*continueStmt) stmtNode() {}

// ---- Top level ----

type param struct {
	name string
	ty   *Type
}

type funcDecl struct {
	name   string
	ret    *Type
	params []param
	body   *block
	line   int
}

type globalDecl struct {
	name     string
	ty       *Type
	arrayLen int64 // -1 for scalars
	initI    *int64
	initF    *float64
	initS    *string // for char* globals: pointer to string literal
	initList []expr  // array initializer (constant int/float literals)
	line     int
}

type externDecl struct {
	name string
	ret  *Type
}

type program struct {
	globals []*globalDecl
	funcs   []*funcDecl
	externs []*externDecl
}

type compileError struct {
	file string
	line int
	msg  string
}

func (e *compileError) Error() string {
	return fmt.Sprintf("%s:%d: %s", e.file, e.line, e.msg)
}
