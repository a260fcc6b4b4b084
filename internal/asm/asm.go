// Package asm implements the assembler for the GA64 guest ISA. It plays the
// role of the cross-toolchain the paper uses to produce statically linked
// ARM binaries (§6.1): guest programs — hand-written runtime code and mini-C
// compiler output — are assembled and linked into a single image.Image.
//
// It is one pass plus fixups. A line whose operands are registers and
// literals is encoded into its section's buffer as it is parsed; an operand
// that names a symbol leaves a fixup, resolved once every section has its
// base address. Prepare freezes the state after a list of sources, so text
// that never changes (the guest runtime) is parsed once per process. A
// compiler need not write text at all: it hands its items to an Emitter,
// which a Builder encodes the way the parsed text would be (emit.go).
//
// Syntax summary:
//
//	.text / .rodata / .data / .bss     select the current section
//	.global name                       export a symbol (informational)
//	.align n                           pad to an n-byte boundary
//	.byte/.half/.word/.quad e, ...     emit integers (expressions allowed)
//	.double f, ...                     emit float64 constants
//	.ascii/.asciz "s"                  emit a string (asciz NUL-terminates)
//	.space n [, fill]                  emit n fill bytes (reserve in .bss)
//	.equ name, expr                    define an assembly-time constant
//
//	label:      mnemonic op1, op2, ...   ; comment  (# and // also comment)
//
// Numeric labels ("1:") may be defined repeatedly and referenced with "1b"
// (nearest before) and "1f" (nearest after), as in GNU as. Pseudo
// instructions: li, lid, la, mv, not, neg, seqz, snez, beqz, bnez, bltz,
// bgez, bgtz, blez, bgt, ble, bgtu, bleu, j, call, jr, ret, fli.
package asm

import (
	"errors"
	"fmt"
	"maps"
	"math"
	"slices"
	"sort"
	"strconv"
	"strings"
	"unicode/utf8"

	"dqemu/internal/image"
	"dqemu/internal/isa"
)

// Source is one assembly input file.
type Source struct {
	Name string
	Text string
}

// Options configure assembly.
type Options struct {
	// TextBase is the load address of the text section. Zero means
	// image.DefaultTextBase.
	TextBase uint64
}

// Prefix is the assembler's state after a list of sources: section bytes,
// cursors, labels, equates, numeric labels and the fixups still pending.
// It is immutable — Assemble works on a copy — so one Prefix may be shared
// by any number of goroutines. The zero Prefix is the empty one.
type Prefix struct{ a assembler }

// Prepare assembles sources up to, but not including, the link: what
// (*Prefix).Assemble adds is treated exactly as if it had followed them in
// one Assemble call.
func Prepare(opts Options, sources ...Source) (*Prefix, error) {
	a := (&Prefix{a: assembler{opts: opts}}).fork(0)
	if err := a.parse(sources); err != nil {
		return nil, err
	}
	return &Prefix{a: a}, nil
}

// Assemble assembles more after the prefix's sources and links everything
// into a guest image.
func (p *Prefix) Assemble(more ...Source) (*image.Image, error) {
	n := 0 // a line of mini-C output is ≈16 bytes for a 4-byte instruction
	for _, src := range more {
		n += len(src.Text)
	}
	a := p.fork(n / 4)
	if err := a.parse(more); err != nil {
		return nil, err
	}
	return a.link()
}

// Assemble assembles and links the sources into a guest image.
func Assemble(sources ...Source) (*image.Image, error) {
	return (&Prefix{}).Assemble(sources...)
}

// AssembleOptions is Assemble with explicit options.
func AssembleOptions(opts Options, sources ...Source) (*image.Image, error) {
	return (&Prefix{a: assembler{opts: opts}}).Assemble(sources...)
}

// The sections, in layout order. Only .bss holds no bytes.
const (
	secText = iota
	secRodata
	secData
	secBss
	numSections
)

var sectionNames = [numSections]string{"text", "rodata", "data", "bss"}

type section struct {
	cursor uint64
	base   uint64
	buf    []byte // len(buf) == cursor, except in .bss, which has none
}

type symPos struct {
	sec int
	off uint64
}

type numPos struct {
	order int
	symPos
}

// A fixup is a value that could not be encoded where it stands, because
// it names a symbol or needs the pc (or failed, and the failure is a
// link-time diagnostic). Fixups are resolved in source order.
type fixup struct {
	form  byte    // an operand kind of instr.go, a data width, or fixErr
	val   Operand // the value or expression; for fixErr, sym is the diagnostic
	ins   isa.Instruction
	at    symPos
	order int // position among the numeric labels, for "1b"/"1f"
	file  string
	line  int
}

const bssHoldsData = ".bss cannot hold data"

// fixErr is the form of a diagnostic that is known at parse time but
// belongs to link time (data in .bss, a misaligned text pad): it ranks after
// every parse error, in source order among the fixups.
const fixErr = 'e'

type assembler struct {
	opts    Options
	secs    [numSections]section
	cur     int
	labels  map[string]symPos
	equates map[string]int64
	numeric map[string][]numPos
	fixups  []fixup
	order   int
	err     error // the first parse error

	// The prefix's numeric labels and fixups, shared with every fork of it
	// and only read: a fork lists its own in numeric and fixups, all of
	// which rank after these.
	preNumeric map[string][]numPos
	preFixups  []fixup

	// Current source position, for diagnostics.
	file string
	line int
}

// fork returns a private copy of the prefix's state with room in .text for
// text more bytes of code. The prefix's fixups and numeric labels are not
// copied: the fork reads them where they are (preFixups, preNumeric) and
// starts lists of its own. A Prefix is made from the empty one, so it has
// none of its own to pass on.
func (p *Prefix) fork(text int) assembler {
	a := p.a
	if a.opts.TextBase == 0 {
		a.opts.TextBase = image.DefaultTextBase
	}
	for i := range a.secs[:secBss] {
		a.secs[i].buf = append(make([]byte, 0, len(a.secs[i].buf)+text), a.secs[i].buf...)
		text = 0 // the room is for .text, the first section
	}
	a.labels = cloneMap(a.labels)
	a.equates = cloneMap(a.equates)
	a.preNumeric, a.numeric = a.numeric, map[string][]numPos{}
	a.preFixups, a.fixups = a.fixups, nil
	return a
}

func cloneMap[M ~map[K]V, K comparable, V any](m M) M {
	if m == nil {
		return M{}
	}
	return maps.Clone(m)
}

func (a *assembler) errorf(format string, args ...interface{}) {
	if a.err == nil {
		a.err = fmt.Errorf("%s:%d: %s", a.file, a.line, fmt.Sprintf(format, args...))
	}
}

// parse assembles the sources into the sections, up to the first error.
// Every file starts in .text, as with separately assembled objects.
func (a *assembler) parse(sources []Source) error {
	for _, src := range sources {
		a.file, a.line, a.cur = src.Name, 0, secText
		for text, more := src.Text, true; more && a.err == nil; {
			var code string
			code, text, more = cutLine(text)
			a.line++
			a.parseLine(code)
		}
	}
	return a.err
}

// parseLine reads each byte of the line's first word once: a run of
// symbol characters ended by a colon is a label (peeled off, and the rest
// read again); otherwise the word, up to the first blank or tab, names the
// directive or instruction, and the rest is its operands.
func (a *assembler) parseLine(line string) {
	for {
		line = trimSpace(line)
		i := 0
		for i < len(line) && isSymChar(line[i]) {
			i++
		}
		if i < len(line) && line[i] == ':' {
			a.defineLabel(line[:i])
			line = line[i+1:]
			continue
		}
		for i < len(line) && line[i] != ' ' && line[i] != '\t' {
			i++
		}
		word, rest := line[:i], trimSpace(line[i:])
		switch {
		case line == "":
		case line[0] == '.' && !strings.HasPrefix(line, ".L"):
			a.directive(word, rest)
		default:
			a.instruction(word, rest)
		}
		return
	}
}

func (a *assembler) defineLabel(name string) {
	here := symPos{sec: a.cur, off: a.secs[a.cur].cursor}
	if name == "" {
		a.errorf("empty label")
		return
	}
	if isNumericLabel(name) {
		a.numeric[name] = append(a.numeric[name], numPos{order: a.order, symPos: here})
		a.order++
		return
	}
	if !validSymbol(name) {
		a.errorf("invalid label %q", name)
		return
	}
	if _, dup := a.labels[name]; dup {
		a.errorf("label %q redefined", name)
		return
	}
	if _, dup := a.equates[name]; dup {
		a.errorf("label %q conflicts with .equ", name)
		return
	}
	a.labels[name] = here
}

// emit appends bytes at the cursor. .bss holds none: it only checks that
// none would be needed.
func (a *assembler) emit(b []byte) {
	sec := &a.secs[a.cur]
	if a.cur != secBss {
		sec.buf = append(sec.buf, b...)
	} else if !allZero(b) {
		a.deferError(bssHoldsData)
	}
	sec.cursor += uint64(len(b))
}

// reserve advances the cursor over n fill bytes.
func (a *assembler) reserve(n uint64, fill byte) {
	sec := &a.secs[a.cur]
	if a.cur != secBss {
		sec.buf = append(sec.buf, make([]byte, n)...)
		if fill != 0 {
			tail := sec.buf[sec.cursor:]
			for i := range tail {
				tail[i] = fill
			}
		}
	} else if fill != 0 && n > 0 {
		a.deferError(bssHoldsData)
	}
	sec.cursor += n
}

// fits reports whether n more bytes keep the image within
// image.MaxMemBytes. Only .space and .align can ask for more bytes than
// their line is long, so only they check before anything is allocated.
func (a *assembler) fits(directive string, n uint64) bool {
	used := uint64(0)
	for i := range a.secs {
		used += a.secs[i].cursor
	}
	if used > image.MaxMemBytes || n > image.MaxMemBytes-used {
		a.errorf("%s: %d more bytes take the image over the %d-byte limit (image.MaxMemBytes)", directive, n, uint64(image.MaxMemBytes))
		return false
	}
	return true
}

// addFixup leaves size bytes at the cursor to be filled at link time.
func (a *assembler) addFixup(form byte, ins isa.Instruction, val Operand, size int) {
	a.fixups = append(a.fixups, fixup{form: form, val: val, ins: ins, order: a.order,
		at: symPos{sec: a.cur, off: a.secs[a.cur].cursor}, file: a.file, line: a.line})
	a.order++
	a.reserve(uint64(size), 0)
}

func (a *assembler) deferError(msg string) {
	a.fixups = append(a.fixups, fixup{form: fixErr, val: Operand{sym: msg}, file: a.file, line: a.line})
}

func (a *assembler) directive(name, rest string) {
	switch name {
	case ".text", ".rodata", ".data", ".bss":
		a.cur = slices.Index(sectionNames[:], name[1:])
	case ".global", ".globl":
		// Symbols are all visible; accepted for compatibility.
	case ".align":
		a.align(a.constExpr(rest))
	case ".byte":
		a.dataDirective(rest, 1)
	case ".half":
		a.dataDirective(rest, 2)
	case ".word":
		a.dataDirective(rest, 4)
	case ".quad":
		a.dataDirective(rest, 8)
	case ".double":
		for more := rest != ""; more; {
			var v string
			v, rest, more = cutOperand(rest)
			f, err := strconv.ParseFloat(v, 64)
			if err != nil {
				a.errorf(".double: %v", err)
				return
			}
			a.emitUint(math.Float64bits(f), 8)
		}
	case ".ascii", ".asciz":
		s, err := parseString(rest)
		if err != nil {
			a.errorf("%s: %v", name, err)
			return
		}
		b := append(make([]byte, 0, len(s)+1), s...)
		if name == ".asciz" {
			b = append(b, 0)
		}
		a.emit(b)
	case ".space":
		var ops [2]string
		nops := operands(rest, ops[:])
		if nops == 0 || nops > 2 {
			a.errorf(".space needs 1 or 2 operands")
			return
		}
		n, err := a.constExpr(ops[0])
		fill := int64(0)
		if nops == 2 && err == nil && n >= 0 {
			if fill, err = a.constExpr(ops[1]); err != nil {
				a.errorf(".space: bad fill: %v", err)
				return
			}
		}
		a.space(n, fill, err)
	case ".equ", ".set":
		var ops [2]string
		if operands(rest, ops[:]) != 2 {
			a.errorf("%s needs name, expr", name)
			return
		}
		sym := ops[0]
		if !validSymbol(sym) {
			a.errorf("%s: invalid name %q", name, sym)
			return
		}
		v, err := a.constExpr(ops[1])
		if err != nil {
			a.errorf("%s %s: %v", name, sym, err)
			return
		}
		if _, dup := a.labels[sym]; dup {
			a.errorf("%s: %q already defined as a label", name, sym)
			return
		}
		a.equates[sym] = v
	default:
		a.errorf("unknown directive %s", name)
	}
}

// dataDirective emits one integer of the given width per expression.
func (a *assembler) dataDirective(rest string, width int) {
	for more := rest != ""; more; {
		var expr string
		expr, rest, more = cutOperand(rest)
		a.data(width, literal(expr))
	}
}

// data emits one integer of the given width: now if its value is known, as
// a fixup if it names a symbol.
func (a *assembler) data(width int, val Operand) {
	if val.link {
		a.addFixup(byte(width), isa.Instruction{}, val, width)
		return
	}
	a.emitUint(uint64(val.imm), width)
}

func (a *assembler) emitUint(v uint64, width int) {
	var b [8]byte
	putUint(b[:], v, width)
	a.emit(b[:width])
}

// align pads to a multiple of n; err is why n could not be read.
func (a *assembler) align(n int64, err error) {
	if err != nil || n <= 0 || n&(n-1) != 0 {
		a.errorf(".align needs a positive power of two: %v", err)
		return
	}
	pad := (uint64(n) - a.secs[a.cur].cursor%uint64(n)) % uint64(n)
	switch {
	case !a.fits(".align", pad):
	case a.cur != secText:
		a.reserve(pad, 0)
	case pad%4 != 0:
		a.deferError(fmt.Sprintf("text alignment pad %d not a multiple of 4", pad))
		a.reserve(pad, 0)
	default:
		// Text is padded with NOPs so the pad stays decodable.
		for ; pad > 0; pad -= 4 {
			a.emitIns(isa.Instruction{Op: isa.OpNOP})
		}
	}
}

// space reserves n bytes of fill; err is why n could not be read.
func (a *assembler) space(n, fill int64, err error) {
	if err != nil || n < 0 {
		a.errorf(".space: bad size: %v", err)
		return
	}
	if a.fits(".space", uint64(n)) {
		a.reserve(uint64(n), byte(fill))
	}
}

// constExpr evaluates an expression that must be resolvable where it
// stands (integer literals and previously defined equates only).
func (a *assembler) constExpr(src string) (int64, error) {
	return evalExpr(strings.TrimSpace(src), func(name string) (int64, bool) {
		v, ok := a.equates[name]
		return v, ok
	})
}

// eval evaluates an expression at link time, when all labels are placed.
// order is the reference point for numeric local labels.
func (a *assembler) eval(src string, order int) (int64, error) {
	return evalExpr(src, func(name string) (int64, bool) {
		if v, ok := a.equates[name]; ok {
			return v, ok
		}
		if pos, ok := a.labels[name]; ok {
			return int64(a.addr(pos)), true
		}
		if len(name) >= 2 {
			suffix := name[len(name)-1]
			digits := name[:len(name)-1]
			if (suffix == 'b' || suffix == 'f') && isNumericLabel(digits) {
				if pos, ok := a.findNumeric(digits, suffix == 'f', order); ok {
					return int64(a.addr(pos.symPos)), true
				}
			}
		}
		return 0, false
	})
}

func (a *assembler) addr(pos symPos) uint64 { return a.secs[pos.sec].base + pos.off }

// findNumeric finds the definition of a numeric label nearest after (or
// before) the reference ranked order. A label's definitions are listed in
// rank order, the prefix's before the fork's, so it is a binary search of
// one list and then, if that has none, of the other.
func (a *assembler) findNumeric(digits string, forward bool, order int) (numPos, bool) {
	pre, own := a.preNumeric[digits], a.numeric[digits]
	if forward {
		for _, list := range [2][]numPos{pre, own} {
			if i := sort.Search(len(list), func(i int) bool { return list[i].order > order }); i < len(list) {
				return list[i], true
			}
		}
		return numPos{}, false
	}
	for _, list := range [2][]numPos{own, pre} {
		if i := sort.Search(len(list), func(i int) bool { return list[i].order >= order }); i > 0 {
			return list[i-1], true
		}
	}
	return numPos{}, false
}

// link assigns section base addresses — text at TextBase, each later
// section at the next 4 KiB boundary past a gap — resolves the fixups and
// builds the image.
func (a *assembler) link() (*image.Image, error) {
	addr := a.opts.TextBase
	for i := range a.secs {
		a.secs[i].base = addr
		addr = alignUp(addr+a.secs[i].cursor, 4096) + image.DefaultDataGap
		addr = alignUp(addr, 4096)
	}
	for _, fixups := range [2][]fixup{a.preFixups, a.fixups} {
		for i := range fixups {
			fx := &fixups[i]
			var scratch [12]byte
			b, err := a.resolve(fx, scratch[:0])
			if err == nil && fx.at.sec == secBss && !allZero(b) {
				err = errors.New(bssHoldsData)
			}
			if err != nil {
				return nil, fmt.Errorf("%s:%d: %v", fx.file, fx.line, err)
			}
			if fx.at.sec != secBss {
				copy(a.secs[fx.at.sec].buf[fx.at.off:], b)
			}
		}
	}

	im := &image.Image{Symbols: make(map[string]uint64, len(a.labels))}
	for i := range a.secs {
		sec := &a.secs[i]
		if sec.cursor == 0 {
			continue
		}
		seg := image.Segment{Name: sectionNames[i], Addr: sec.base, Data: sec.buf, MemSize: sec.cursor, Writable: i >= secData}
		if err := im.AddSegment(seg); err != nil {
			return nil, err
		}
	}
	for name, pos := range a.labels {
		im.Symbols[name] = a.addr(pos)
	}
	if entry, ok := im.Symbols["_start"]; ok {
		im.Entry = entry
	} else {
		im.Entry = a.opts.TextBase
	}
	return im, nil
}

// resolve appends the bytes of one fixup to buf.
func (a *assembler) resolve(fx *fixup, buf []byte) ([]byte, error) {
	if fx.form == fixErr {
		return nil, errors.New(fx.val.sym)
	}
	v, err := fx.val.imm, error(nil)
	if fx.val.link {
		v, err = a.eval(fx.val.sym, fx.order)
	}
	if err != nil {
		return nil, err
	}
	ins, pc := fx.ins, a.addr(fx.at)
	switch fx.form {
	case 1, 2, 4, 8:
		buf = buf[:fx.form]
		putUint(buf, uint64(v), int(fx.form))
		return buf, nil
	case argBranch, argJump:
		what := "branch"
		if fx.form == argJump {
			what = "jump"
		}
		off := v - int64(pc)
		if off%4 != 0 {
			return nil, fmt.Errorf("%s target %#x misaligned from pc %#x", what, v, pc)
		}
		v = off / 4
	case argAddr:
		if v < math.MinInt32 || v > math.MaxInt32 {
			return nil, fmt.Errorf("value %#x does not fit in 32 bits; use lid", v)
		}
	}
	ins.Imm = v
	return ins.Encode(buf)
}

func alignUp(v, n uint64) uint64 { return (v + n - 1) &^ (n - 1) }

func putUint(b []byte, v uint64, width int) {
	for i := 0; i < width; i++ {
		b[i] = byte(v >> (8 * i))
	}
}

func allZero(b []byte) bool {
	for _, c := range b {
		if c != 0 {
			return false
		}
	}
	return true
}

// lineStops marks the bytes cutLine stops at: the newline, and what starts
// or ends a comment, a string or an escape.
var lineStops = [256]bool{'\n': true, '"': true, '\\': true, '#': true, ';': true, '/': true}

// cutLine splits text after its first line and returns that line without
// its comment (; # or //, outside string literals), looking at each byte of
// the code once and skipping the comment to the newline.
func cutLine(text string) (code, rest string, more bool) {
	inStr := false
	for i := 0; i < len(text); i++ {
		switch c := text[i]; {
		case !lineStops[c]:
		case c == '\n':
			return text[:i], text[i+1:], true
		case inStr:
			// An escape skips the byte after the backslash, but never the
			// newline that ends the line.
			if c == '\\' && i+1 < len(text) && text[i+1] != '\n' {
				i++
			} else if c == '"' {
				inStr = false
			}
		case c == '"':
			inStr = true
		case c == '#' || c == ';' || c == '/' && i+1 < len(text) && text[i+1] == '/':
			if nl := strings.IndexByte(text[i:], '\n'); nl >= 0 {
				return text[:i], text[i+nl+1:], true
			}
			return text[:i], "", false
		}
	}
	return text, "", false
}

// trimSpace is strings.TrimSpace, with the ends that are blanks, tabs or
// printable ASCII — all the compiler writes — decided without a call.
func trimSpace(s string) string {
	for len(s) > 0 && (s[0] == ' ' || s[0] == '\t') {
		s = s[1:]
	}
	for len(s) > 0 && (s[len(s)-1] == ' ' || s[len(s)-1] == '\t') {
		s = s[:len(s)-1]
	}
	if len(s) > 0 && (s[0] <= ' ' || s[0] >= utf8.RuneSelf || s[len(s)-1] <= ' ' || s[len(s)-1] >= utf8.RuneSelf) {
		return strings.TrimSpace(s)
	}
	return s
}

func isNumericLabel(s string) bool {
	if s == "" {
		return false
	}
	for i := 0; i < len(s); i++ {
		if s[i] < '0' || s[i] > '9' {
			return false
		}
	}
	return true
}

func validSymbol(s string) bool {
	if s == "" || !isSymStart(s[0]) {
		return false
	}
	for i := 1; i < len(s); i++ {
		if !isSymChar(s[i]) {
			return false
		}
	}
	return true
}

// operandStops marks the bytes cutOperand stops at.
var operandStops = [256]bool{',': true, '(': true, ')': true, '"': true, '\\': true}

// cutOperand splits s at its first top-level comma (outside quotes and
// parentheses), trimmed; more reports whether there was one.
func cutOperand(s string) (op, rest string, more bool) {
	depth, inStr := 0, false
	for i := 0; i < len(s); i++ {
		switch c := s[i]; {
		case !operandStops[c]:
		case inStr:
			if c == '\\' {
				i++
			} else if c == '"' {
				inStr = false
			}
		case c == '"':
			inStr = true
		case c == '(':
			depth++
		case c == ')':
			depth--
		case c == ',' && depth == 0:
			return trimSpace(s[:i]), s[i+1:], true
		}
	}
	return trimSpace(s), "", false
}

// operands stores the comma-separated operands of s (already trimmed) in
// ops and returns how many there are, which may be more than ops holds.
func operands(s string, ops []string) int {
	n := 0
	for more := s != ""; more; n++ {
		var op string
		op, s, more = cutOperand(s)
		if n < len(ops) {
			ops[n] = op
		}
	}
	return n
}

func parseString(s string) (string, error) {
	s = strings.TrimSpace(s)
	if len(s) < 2 || s[0] != '"' || s[len(s)-1] != '"' {
		return "", fmt.Errorf("expected quoted string, got %q", s)
	}
	return unescape(s[1 : len(s)-1])
}
