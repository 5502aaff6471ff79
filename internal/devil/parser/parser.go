// Package parser implements a recursive-descent parser for the Devil
// interface definition language, producing the AST of package ast.
//
// The accepted grammar covers every construct used in the OSDI 2000 paper:
// device declarations parameterized by ranged ports, registers with masks
// and pre/post/set actions, parameterized registers and their
// instantiations, device variables built from register bit fragments and
// concatenation, behaviour attributes (volatile, trigger except/for,
// block), enumerated types with directional mappings, private memory-cell
// variables, structures, and serialization lists with conditional items.
package parser

import (
	"strconv"

	"repro/internal/devil/ast"
	"repro/internal/devil/scanner"
	"repro/internal/devil/token"
)

// Parse scans and parses a complete Devil specification. It returns the
// device AST and the accumulated lexical and syntax errors. The AST may be
// partially populated when errors are present.
func Parse(src []byte) (*ast.Device, scanner.ErrorList) {
	return ParseTokens(scanner.ScanAll(src))
}

// ParseTokens parses a scanned specification: toks and scanErrs as
// scanner.ScanAll returns them, toks ending with EOF. Of the lexical
// errors it reports those up to the last token the parser reads, so a
// parse that stops early lists none from past where it stopped.
func ParseTokens(toks []token.Token, scanErrs scanner.ErrorList) (*ast.Device, scanner.ErrorList) {
	p := &parser{toks: toks}
	p.next()
	dev := p.parseDevice()
	n := 0
	for n < len(scanErrs) && scanErrs[n].Pos.Offset <= p.tok.Pos.Offset {
		n++
	}
	p.errs = append(scanErrs[:n:n], p.errs...)
	return dev, p.errs
}

// bailout is used by the panic-based error recovery inside one declaration.
type bailout struct{}

type parser struct {
	toks []token.Token
	i    int // index of the token after tok
	tok  token.Token
	errs scanner.ErrorList
}

// next moves to the next token; the final EOF repeats forever.
func (p *parser) next() {
	p.tok = p.toks[p.i]
	if p.i < len(p.toks)-1 {
		p.i++
	}
}

func (p *parser) errorf(pos token.Pos, format string, args ...any) {
	p.errs.Add(pos, format, args...)
}

// fail records an error and aborts the current declaration.
func (p *parser) fail(format string, args ...any) {
	p.errorf(p.tok.Pos, format, args...)
	panic(bailout{})
}

// expect consumes a token of the given kind or aborts the declaration.
func (p *parser) expect(k token.Kind) token.Token {
	if p.tok.Kind != k {
		p.fail("expected %q, found %s", k.String(), p.tok)
	}
	t := p.tok
	p.next()
	return t
}

// accept consumes a token of kind k if present and reports whether it did.
func (p *parser) accept(k token.Kind) bool {
	if p.tok.Kind == k {
		p.next()
		return true
	}
	return false
}

// parseInt consumes an INT token and returns its value.
func (p *parser) parseInt() int {
	t := p.expect(token.INT)
	v, err := strconv.ParseInt(t.Lit, 0, 32)
	if err != nil {
		p.errorf(t.Pos, "invalid integer literal %q", t.Lit)
		return 0
	}
	return int(v)
}

// sync skips tokens until just after the next semicolon, or until a closing
// brace or EOF, re-anchoring the parser after a declaration-level error.
func (p *parser) sync() {
	depth := 0
	for {
		switch p.tok.Kind {
		case token.EOF:
			return
		case token.SEMICOLON:
			if depth == 0 {
				p.next()
				return
			}
		case token.LBRACE:
			depth++
		case token.RBRACE:
			if depth == 0 {
				return
			}
			depth--
		}
		p.next()
	}
}

// ---------------------------------------------------------------------------
// Device

// parseDevice uses a named return so that the partially populated device
// survives the bailout recovery below — Parse promises a non-nil AST even
// when the device header itself is malformed.
func (p *parser) parseDevice() (dev *ast.Device) {
	dev = &ast.Device{}
	defer func() {
		if r := recover(); r != nil {
			if _, ok := r.(bailout); !ok {
				panic(r)
			}
		}
	}()

	p.expect(token.DEVICE)
	name := p.expect(token.IDENT)
	dev.NamePos, dev.Name = name.Pos, name.Lit

	p.expect(token.LPAREN)
	for p.tok.Kind != token.RPAREN {
		dev.Params = append(dev.Params, p.parsePortParam())
		if !p.accept(token.COMMA) {
			break
		}
	}
	p.expect(token.RPAREN)
	p.expect(token.LBRACE)

	for p.tok.Kind != token.RBRACE && p.tok.Kind != token.EOF {
		if d := p.parseDecl(); d != nil {
			dev.Decls = append(dev.Decls, d)
		}
	}
	p.expect(token.RBRACE)
	if p.tok.Kind != token.EOF {
		p.errorf(p.tok.Pos, "unexpected %s after device body", p.tok)
	}
	return dev
}

// parsePortParam parses "base : bit[8] port @ {0..3}". The offset set is
// optional; without it the port has the single offset 0.
func (p *parser) parsePortParam() *ast.PortParam {
	name := p.expect(token.IDENT)
	p.expect(token.COLON)
	p.expect(token.BIT)
	p.expect(token.LBRACKET)
	width := p.parseInt()
	p.expect(token.RBRACKET)
	p.expect(token.PORT)
	param := &ast.PortParam{NamePos: name.Pos, Name: name.Lit, Width: width}
	if p.accept(token.AT) {
		param.Offsets = p.parseIntSet()
	} else {
		param.Offsets = &ast.IntSet{LbracePos: name.Pos, Ranges: []ast.IntRange{{Lo: 0, Hi: 0}}}
	}
	return param
}

// parseIntSet parses "{v, lo..hi, ...}".
func (p *parser) parseIntSet() *ast.IntSet {
	lb := p.expect(token.LBRACE)
	set := &ast.IntSet{LbracePos: lb.Pos}
	for {
		lo := p.parseInt()
		hi := lo
		if p.accept(token.DOTDOT) {
			hi = p.parseInt()
		}
		if hi < lo {
			p.errorf(lb.Pos, "empty range %d..%d", lo, hi)
		}
		set.Ranges = append(set.Ranges, ast.IntRange{Lo: lo, Hi: hi})
		if !p.accept(token.COMMA) {
			break
		}
	}
	p.expect(token.RBRACE)
	return set
}

// ---------------------------------------------------------------------------
// Declarations

// parseDecl parses one register, variable, or structure declaration,
// recovering to the next declaration on error.
func (p *parser) parseDecl() (d ast.Decl) {
	defer func() {
		if r := recover(); r != nil {
			if _, ok := r.(bailout); !ok {
				panic(r)
			}
			p.sync()
			d = nil
		}
	}()

	private := p.accept(token.PRIVATE)
	switch p.tok.Kind {
	case token.REGISTER:
		if private {
			p.fail("registers cannot be private (they are never exported)")
		}
		return p.parseRegister()
	case token.VARIABLE:
		return p.parseVariable(private)
	case token.STRUCTURE:
		return p.parseStructure(private)
	}
	p.fail("expected register, variable, or structure declaration, found %s", p.tok)
	return nil
}

// ---------------------------------------------------------------------------
// Registers

func (p *parser) parseRegister() *ast.Register {
	p.expect(token.REGISTER)
	name := p.expect(token.IDENT)
	reg := &ast.Register{NamePos: name.Pos, Name: name.Lit}

	if p.accept(token.LPAREN) {
		param := p.expect(token.IDENT)
		reg.Param = param.Lit
		p.expect(token.COLON)
		p.expect(token.INTTYPE)
		reg.ParamDomain = p.parseIntSet()
		p.expect(token.RPAREN)
	}
	p.expect(token.ASSIGN)

	// Instantiation form: IDENT "(" INT ")" — distinguished from the port
	// form by the parenthesis, since port references use '@'.
	if p.tok.Kind == token.IDENT {
		base := p.tok
		// Peek: scan the identifier, then check for '('.
		p.next()
		if p.accept(token.LPAREN) {
			reg.Base = base.Lit
			reg.BaseArg = p.parseInt()
			p.expect(token.RPAREN)
			p.parseRegisterAttrs(reg)
			p.expect(token.SEMICOLON)
			return reg
		}
		// Not an instantiation: the identifier was a port name.
		reg.Ports = append(reg.Ports, ast.PortClause{Dir: ast.AccessRW, Port: p.parsePortRefAfter(base)})
	}
	for p.tok.Kind == token.READ || p.tok.Kind == token.WRITE || p.tok.Kind == token.IDENT {
		dir := ast.AccessRW
		if p.accept(token.READ) {
			dir = ast.AccessRead
		} else if p.accept(token.WRITE) {
			dir = ast.AccessWrite
		}
		nameTok := p.expect(token.IDENT)
		reg.Ports = append(reg.Ports, ast.PortClause{Dir: dir, Port: p.parsePortRefAfter(nameTok)})
	}
	if len(reg.Ports) == 0 {
		p.fail("register %s has no port clause", reg.Name)
	}
	p.parseRegisterAttrs(reg)
	p.expect(token.COLON)
	p.expect(token.BIT)
	p.expect(token.LBRACKET)
	reg.Size = p.parseInt()
	p.expect(token.RBRACKET)
	p.expect(token.SEMICOLON)
	return reg
}

// parsePortRefAfter builds a PortRef whose name token has already been
// consumed, parsing the optional "@ offset".
func (p *parser) parsePortRefAfter(name token.Token) *ast.PortRef {
	ref := &ast.PortRef{NamePos: name.Pos, Name: name.Lit}
	if p.accept(token.AT) {
		ref.Offset = p.parseInt()
		ref.HasOffset = true
	}
	return ref
}

func (p *parser) parseRegisterAttrs(reg *ast.Register) {
	for p.tok.Kind == token.COMMA {
		p.next()
		switch p.tok.Kind {
		case token.MASK:
			p.next()
			if reg.Mask != nil {
				p.errorf(p.tok.Pos, "duplicate mask on register %s", reg.Name)
			}
			reg.Mask = p.parseBitPattern()
		case token.PRE:
			p.next()
			reg.Pre = append(reg.Pre, p.parseActions()...)
		case token.POST:
			p.next()
			reg.Post = append(reg.Post, p.parseActions()...)
		case token.SET:
			p.next()
			reg.Set = append(reg.Set, p.parseActions()...)
		default:
			p.fail("expected mask, pre, post, or set attribute, found %s", p.tok)
		}
	}
}

func (p *parser) parseBitPattern() *ast.BitPattern {
	t := p.expect(token.BITS)
	return &ast.BitPattern{QuotePos: t.Pos, Chars: t.Lit}
}

// parseActions parses "{ target = expr ; ... }" with ';' separators; the
// final separator is optional and single actions need none.
func (p *parser) parseActions() []*ast.Action {
	p.expect(token.LBRACE)
	var acts []*ast.Action
	for p.tok.Kind != token.RBRACE {
		name := p.expect(token.IDENT)
		p.expect(token.ASSIGN)
		acts = append(acts, &ast.Action{TargetPos: name.Pos, Target: name.Lit, Value: p.parseExpr()})
		if !p.accept(token.SEMICOLON) {
			break
		}
	}
	p.expect(token.RBRACE)
	return acts
}

// parseExpr parses an action value: integer, boolean, '*', a reference, or
// a structure literal "{f => e; ...}".
func (p *parser) parseExpr() ast.Expr {
	switch p.tok.Kind {
	case token.INT:
		pos := p.tok.Pos
		return &ast.IntLit{LitPos: pos, Value: p.parseInt()}
	case token.TRUE, token.FALSE:
		t := p.tok
		p.next()
		return &ast.BoolLit{LitPos: t.Pos, Value: t.Kind == token.TRUE}
	case token.STAR:
		t := p.tok
		p.next()
		return &ast.AnyLit{StarPos: t.Pos}
	case token.IDENT:
		t := p.tok
		p.next()
		return &ast.Ref{NamePos: t.Pos, Name: t.Lit}
	case token.LBRACE:
		lb := p.tok
		p.next()
		lit := &ast.StructLit{LbracePos: lb.Pos}
		for p.tok.Kind != token.RBRACE {
			name := p.expect(token.IDENT)
			p.expect(token.WRITEMAP)
			lit.Fields = append(lit.Fields, ast.StructField{NamePos: name.Pos, Name: name.Lit, Value: p.parseExpr()})
			if !p.accept(token.SEMICOLON) {
				break
			}
		}
		p.expect(token.RBRACE)
		return lit
	}
	p.fail("expected expression, found %s", p.tok)
	return nil
}

// ---------------------------------------------------------------------------
// Variables

func (p *parser) parseVariable(private bool) *ast.Variable {
	p.expect(token.VARIABLE)
	v := p.parseVariableBody(private)
	p.expect(token.SEMICOLON)
	return v
}

// parseVariableBody parses everything of a variable declaration after the
// "variable" keyword up to (not including) the terminating semicolon. It is
// shared between top-level variables and structure fields.
func (p *parser) parseVariableBody(private bool) *ast.Variable {
	name := p.expect(token.IDENT)
	v := &ast.Variable{NamePos: name.Pos, Name: name.Lit, Private: private}

	if p.accept(token.LPAREN) {
		param := p.expect(token.IDENT)
		v.Param = param.Lit
		p.expect(token.COLON)
		p.expect(token.INTTYPE)
		v.ParamDomain = p.parseIntSet()
		p.expect(token.RPAREN)
	}

	if p.accept(token.ASSIGN) {
		v.Chunks = append(v.Chunks, p.parseChunk(v))
		for p.accept(token.HASH) {
			v.Chunks = append(v.Chunks, p.parseChunk(v))
		}
	}

	p.parseVariableAttrs(v)
	p.expect(token.COLON)
	v.Type = p.parseType()

	if p.tok.Kind == token.SERIALIZED {
		p.next()
		p.expect(token.AS)
		v.Serialized = p.parseSerList()
	}
	return v
}

// parseChunk parses one register fragment: "reg", "reg[3..0]",
// "reg[2,7..4]", or a register-family application "R(j)" / "R(23)".
func (p *parser) parseChunk(v *ast.Variable) *ast.Chunk {
	name := p.expect(token.IDENT)
	c := &ast.Chunk{RegPos: name.Pos, Reg: name.Lit}
	if p.accept(token.LPAREN) {
		c.HasArg = true
		if p.tok.Kind == token.IDENT {
			c.ArgRef = p.tok.Lit
			p.next()
		} else {
			c.ArgVal = p.parseInt()
		}
		p.expect(token.RPAREN)
	}
	if p.accept(token.LBRACKET) {
		for {
			hi := p.parseInt()
			lo := hi
			if p.accept(token.DOTDOT) {
				lo = p.parseInt()
			}
			if lo > hi {
				p.errorf(name.Pos, "bit range must be written high..low (got %d..%d)", hi, lo)
				lo, hi = hi, lo
			}
			// No register is wider than a bus word; diagnose absurd ranges
			// here instead of materializing billions of bit numbers.
			if hi-lo >= 64 {
				p.errorf(name.Pos, "bit range %d..%d is wider than any register", hi, lo)
				hi = lo
			}
			for b := hi; b >= lo; b-- {
				c.Bits = append(c.Bits, b)
			}
			if !p.accept(token.COMMA) {
				break
			}
		}
		p.expect(token.RBRACKET)
	}
	return c
}

func (p *parser) parseVariableAttrs(v *ast.Variable) {
	for p.tok.Kind == token.COMMA {
		p.next()
		switch p.tok.Kind {
		case token.VOLATILE:
			p.next()
			v.Volatile = true
		case token.BLOCK:
			p.next()
			v.Block = true
		case token.SET:
			p.next()
			v.Set = append(v.Set, p.parseActions()...)
		case token.READ, token.WRITE, token.TRIGGER:
			dir := ast.AccessRW
			pos := p.tok.Pos
			if p.accept(token.READ) {
				dir = ast.AccessRead
			} else if p.accept(token.WRITE) {
				dir = ast.AccessWrite
			}
			p.expect(token.TRIGGER)
			tr := &ast.TriggerAttr{AttrPos: pos, Dir: dir}
			if p.accept(token.EXCEPT) {
				tr.Except = p.expect(token.IDENT).Lit
			}
			if p.accept(token.FOR) {
				tr.For = p.parseExpr()
			}
			if v.Trigger != nil {
				p.errorf(pos, "duplicate trigger attribute on variable %s", v.Name)
			}
			v.Trigger = tr
		default:
			p.fail("expected variable attribute, found %s", p.tok)
		}
	}
}

// parseType parses a device-variable type.
func (p *parser) parseType() ast.Type {
	switch p.tok.Kind {
	case token.BOOL:
		t := p.tok
		p.next()
		return &ast.BoolType{TypePos: t.Pos}
	case token.SIGNED:
		pos := p.tok.Pos
		p.next()
		p.expect(token.INTTYPE)
		p.expect(token.LPAREN)
		bits := p.parseInt()
		p.expect(token.RPAREN)
		return &ast.IntType{TypePos: pos, Bits: bits, Signed: true}
	case token.INTTYPE:
		pos := p.tok.Pos
		p.next()
		if p.tok.Kind == token.LBRACE {
			return &ast.IntSetType{TypePos: pos, Set: p.parseIntSet()}
		}
		p.expect(token.LPAREN)
		bits := p.parseInt()
		p.expect(token.RPAREN)
		return &ast.IntType{TypePos: pos, Bits: bits}
	case token.LBRACE:
		return p.parseEnumType()
	}
	p.fail("expected type, found %s", p.tok)
	return nil
}

func (p *parser) parseEnumType() *ast.EnumType {
	lb := p.expect(token.LBRACE)
	t := &ast.EnumType{LbracePos: lb.Pos}
	for {
		name := p.expect(token.IDENT)
		var dir ast.EnumDir
		switch p.tok.Kind {
		case token.WRITEMAP:
			dir = ast.EnumWrite
		case token.READMAP:
			dir = ast.EnumRead
		case token.RWMAP:
			dir = ast.EnumRW
		default:
			p.fail("expected =>, <= or <=> in enumerated type, found %s", p.tok)
		}
		p.next()
		t.Items = append(t.Items, &ast.EnumItem{
			NamePos: name.Pos, Name: name.Lit, Dir: dir, Pattern: p.parseBitPattern(),
		})
		if !p.accept(token.COMMA) {
			break
		}
	}
	p.expect(token.RBRACE)
	return t
}

// ---------------------------------------------------------------------------
// Structures and serialization

func (p *parser) parseStructure(private bool) *ast.Structure {
	p.expect(token.STRUCTURE)
	name := p.expect(token.IDENT)
	s := &ast.Structure{NamePos: name.Pos, Name: name.Lit, Private: private}
	p.expect(token.ASSIGN)
	p.expect(token.LBRACE)
	for p.tok.Kind != token.RBRACE && p.tok.Kind != token.EOF {
		fieldPrivate := p.accept(token.PRIVATE)
		p.expect(token.VARIABLE)
		s.Fields = append(s.Fields, p.parseVariableBody(fieldPrivate))
		p.expect(token.SEMICOLON)
	}
	p.expect(token.RBRACE)
	if p.tok.Kind == token.SERIALIZED {
		p.next()
		p.expect(token.AS)
		s.Serialized = p.parseSerList()
	}
	p.expect(token.SEMICOLON)
	return s
}

// parseSerList parses "{ reg; if (v == X) reg; ... }".
func (p *parser) parseSerList() []*ast.SerItem {
	p.expect(token.LBRACE)
	var items []*ast.SerItem
	for p.tok.Kind != token.RBRACE && p.tok.Kind != token.EOF {
		var guard *ast.Guard
		if p.tok.Kind == token.IF {
			ifPos := p.tok.Pos
			p.next()
			p.expect(token.LPAREN)
			v := p.expect(token.IDENT)
			neg := false
			switch p.tok.Kind {
			case token.EQ:
			case token.NEQ:
				neg = true
			default:
				p.fail("expected == or != in serialization guard, found %s", p.tok)
			}
			p.next()
			guard = &ast.Guard{IfPos: ifPos, Var: v.Lit, Neg: neg, Value: p.parseExpr()}
			p.expect(token.RPAREN)
		}
		reg := p.expect(token.IDENT)
		items = append(items, &ast.SerItem{RegPos: reg.Pos, Reg: reg.Lit, Guard: guard})
		if !p.accept(token.SEMICOLON) {
			break
		}
	}
	p.expect(token.RBRACE)
	return items
}
