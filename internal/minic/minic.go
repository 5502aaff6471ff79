// Package minic implements a small C-like front end used as the baseline of
// the paper's mutation analysis (§4.2).
//
// The mutation study asks, for each injected error, "would the compiler
// have caught this?". For the hand-crafted driver fragments the answer must
// come from a *C-like* checker — deliberately permissive, integers
// everywhere — because using Go's stricter rules would unfairly favour the
// baseline. Mini-C covers the subset those fragments use:
//
//	#define NAME constant-expression
//	int x, y;
//	statements: assignment (=, |=, &=, <<=, >>=), expression statements,
//	            if/else, while, blocks
//	expressions: full C operator set over integers, calls to declared
//	             built-in functions (inb, outb, insw, ...)
//
// The same front end, loaded with a typed stub-signature table instead of
// the permissive built-ins, checks the C_Devil fragments (driver code whose
// device accesses go through Devil-generated stubs): unknown identifiers,
// arity errors, enum-typed arguments, and compile-time range checks on
// constant arguments (§3.2) are all detected there.
//
// The mutation study checks tens of thousands of single-token mutants of
// each fragment, so the front end works on token streams: Splice derives a
// mutant's tokens from the fragment's by lexing only a window around the
// edit, and a Baseline (the fragment's own successful check) checks the
// mutant from the last top-level item before the edit instead of from the
// start. Both give exactly what Lex and CheckTokens give on the mutant.
package minic

import (
	"fmt"
	"sort"
	"strings"
)

// TokKind classifies mini-C tokens; the mutation engine keys its rules on
// these classes.
type TokKind int

// Token kinds.
const (
	TokEOF TokKind = iota
	TokIdent
	TokNumber
	TokOp    // operator or punctuation
	TokHash  // #define introducer
	TokError // lexically malformed
)

// Token is one lexical token with its source text.
type Token struct {
	Kind TokKind
	Text string
	Pos  int // byte offset
	Line int
}

// Lex tokenizes src. Malformed input yields TokError tokens; the checker
// reports them as (detected) errors.
func Lex(src string) []Token {
	toks := make([]Token, 0, len(src)/4+1)
	lx := lexer{src: src, line: 1}
	for {
		t := lx.next()
		toks = append(toks, t)
		if t.Kind == TokEOF {
			return toks
		}
	}
}

// lexer is Lex's whole state between two tokens: the byte offset and the
// line. Lexing a token reads at most one byte past its end, so two lexers
// at the same offset and line of texts that agree from that offset on
// produce the same tokens; Splice relies on both facts.
type lexer struct {
	src  string
	i    int
	line int
}

// next skips blanks and comments and returns the next token, or the EOF
// token at the end of the text.
func (lx *lexer) next() Token {
	src := lx.src
	for lx.i < len(src) {
		i, c := lx.i, src[lx.i]
		switch {
		case c == '\n':
			lx.line++
			lx.i++
		case c == ' ' || c == '\t' || c == '\r':
			lx.i++
		case c == '/' && i+1 < len(src) && src[i+1] == '/':
			for i < len(src) && src[i] != '\n' {
				i++
			}
			lx.i = i
		case c == '/' && i+1 < len(src) && src[i+1] == '*':
			i += 2
			for i+1 < len(src) && !(src[i] == '*' && src[i+1] == '/') {
				if src[i] == '\n' {
					lx.line++
				}
				i++
			}
			lx.i = i + 2
		case isIdentStart(c):
			for i < len(src) && isIdentChar(src[i]) {
				i++
			}
			return lx.emit(TokIdent, i)
		case c >= '0' && c <= '9':
			if c == '0' && i+1 < len(src) && (src[i+1] == 'x' || src[i+1] == 'X') {
				i += 2
				for i < len(src) && isHex(src[i]) {
					i++
				}
				if i == lx.i+2 {
					return lx.emit(TokError, i)
				}
			} else {
				for i < len(src) && src[i] >= '0' && src[i] <= '9' {
					i++
				}
			}
			// Trailing identifier characters make the number malformed.
			if i < len(src) && isIdentStart(src[i]) {
				for i < len(src) && isIdentChar(src[i]) {
					i++
				}
				return lx.emit(TokError, i)
			}
			return lx.emit(TokNumber, i)
		case c == '#':
			return lx.emit(TokHash, i+1)
		default:
			if n := opLen(src, i); n > 0 {
				return lx.emit(TokOp, i+n)
			}
			lx.i++
			return Token{TokError, string(rune(c)), i, lx.line}
		}
	}
	return Token{Kind: TokEOF, Pos: len(src), Line: lx.line}
}

// emit returns the token of the given kind spanning from the current
// offset to end, and moves past it.
func (lx *lexer) emit(kind TokKind, end int) Token {
	t := Token{kind, lx.src[lx.i:end], lx.i, lx.line}
	lx.i = end
	return t
}

// opLen returns the length of the operator or punctuation at src[i],
// matching the longest spelling, or 0 when none starts there.
func opLen(src string, i int) int {
	var c1, c2 byte
	if i+1 < len(src) {
		c1 = src[i+1]
	}
	if i+2 < len(src) {
		c2 = src[i+2]
	}
	switch c := src[i]; c {
	case '<', '>': // < <= << <<=, and their mirrors
		switch {
		case c1 == c && c2 == '=':
			return 3
		case c1 == c || c1 == '=':
			return 2
		}
		return 1
	case '&', '|': // & && &=, | || |=
		if c1 == c || c1 == '=' {
			return 2
		}
		return 1
	case '=', '!', '+', '-', '^': // = ==, ! !=, + +=, - -=, ^ ^=
		if c1 == '=' {
			return 2
		}
		return 1
	case '*', '/', '%', '~', '(', ')', '{', '}', ',', ';':
		return 1
	}
	return 0
}

// Splice returns the tokens of the edited text src[:pos] + repl +
// src[pos+n:], given toks = Lex(src), and the index of the first token
// that may differ from toks. Only a window is lexed afresh: it starts at
// the last token that begins before the edit, since no token earlier than
// that one reads as far as the edit, and it ends at the first token past
// the edit that begins where a token of toks begins. From there on both
// texts agree, so the rest of toks is copied with Pos and Line shifted.
// The result reuses dst's storage and equals Lex of the edited text.
func Splice(dst, toks []Token, src string, pos, n int, repl string) ([]Token, int) {
	k := sort.Search(len(toks), func(i int) bool { return toks[i].Pos >= pos }) - 1
	start, line := 0, 1
	if k < 0 {
		k = 0
	} else {
		start, line = toks[k].Pos, toks[k].Line
	}
	end, shift := pos+n, len(repl)-n
	for w := spliceWindow; ; w *= 2 {
		stop := min(end+w, len(src))
		whole := stop == len(src)
		win := src[start:pos] + repl + src[end:stop]
		out := append(dst[:0], toks[:k]...)
		lx := lexer{src: win, line: line}
		b := k
		for {
			t := lx.next()
			if t.Kind == TokEOF && !whole {
				break // the text may go on past the window
			}
			t.Pos += start
			if at := t.Pos - shift; at >= end {
				for b < len(toks) && toks[b].Pos < at {
					b++
				}
				if b < len(toks) && toks[b].Pos == at {
					dl := t.Line - toks[b].Line
					for _, bt := range toks[b:] {
						bt.Pos += shift
						bt.Line += dl
						out = append(out, bt)
					}
					return out, k
				}
			}
			if lx.i >= len(win) && !whole {
				break // the token may go on past the window
			}
			out = append(out, t)
		}
		dst = out
	}
}

// spliceWindow is how many bytes past an edit Splice first lexes; it
// doubles the window until a token lines up.
const spliceWindow = 32

func isIdentStart(c byte) bool {
	return c == '_' || c >= 'a' && c <= 'z' || c >= 'A' && c <= 'Z'
}

func isIdentChar(c byte) bool { return isIdentStart(c) || c >= '0' && c <= '9' }

func isHex(c byte) bool {
	return c >= '0' && c <= '9' || c >= 'a' && c <= 'f' || c >= 'A' && c <= 'F'
}

// ---------------------------------------------------------------------------
// Signatures (for C_Devil checking)

// Type is a mini-C value type. In permissive C mode everything is Int; in
// stub mode enum-typed stub parameters and results are distinct types.
type Type struct {
	Enum string // enum type name, "" for plain int
	// Lo/Hi bound constant arguments when Bounded (the compile-time §3.2
	// range check on generated setters).
	Bounded bool
	Lo, Hi  int64
	// Ranges optionally refines [Lo, Hi] to a union of inclusive ranges
	// in canonical "lo-hi,lo" form (e.g. "0-17,25" for the CS4236B
	// extended-register domain): constants falling in a hole are
	// rejected. A string keeps Type comparable, which the mutation
	// study's interface-equality check relies on.
	Ranges string
}

// Allows reports whether the constant v satisfies the type's bounds,
// including the holes of a non-contiguous range union.
func (t Type) Allows(v int64) bool {
	if !t.Bounded {
		return true
	}
	if v < t.Lo || v > t.Hi {
		return false
	}
	if t.Ranges == "" {
		return true
	}
	for _, r := range strings.Split(t.Ranges, ",") {
		lo, hi := r, r
		if i := strings.Index(r, "-"); i > 0 {
			lo, hi = r[:i], r[i+1:]
		}
		lv, err1 := parseInt(lo)
		hv, err2 := parseInt(hi)
		if err1 == nil && err2 == nil && v >= lv && v <= hv {
			return true
		}
	}
	return false
}

// Int is the untyped-integer type.
var Int = Type{}

// Func describes a callable in the checker's symbol table.
type Func struct {
	Params []Type
	Result Type
}

// Env is the symbol table a fragment is checked against.
type Env struct {
	Funcs  map[string]Func
	Consts map[string]Type // named constants (enum symbols are enum-typed)
	// Permissive selects C semantics: enum types collapse into Int and
	// constant range checks are skipped.
	Permissive bool
}

// CEnv returns the permissive environment with the classic port built-ins.
func CEnv() *Env {
	return &Env{
		Permissive: true,
		Funcs: map[string]Func{
			"inb":    {Params: []Type{Int}, Result: Int},
			"inw":    {Params: []Type{Int}, Result: Int},
			"inl":    {Params: []Type{Int}, Result: Int},
			"outb":   {Params: []Type{Int, Int}},
			"outw":   {Params: []Type{Int, Int}},
			"outl":   {Params: []Type{Int, Int}},
			"insw":   {Params: []Type{Int, Int, Int}},
			"outsw":  {Params: []Type{Int, Int, Int}},
			"insl":   {Params: []Type{Int, Int, Int}},
			"outsl":  {Params: []Type{Int, Int, Int}},
			"readl":  {Params: []Type{Int}, Result: Int},
			"writel": {Params: []Type{Int, Int}},
			"udelay": {Params: []Type{Int}},
		},
		Consts: map[string]Type{},
	}
}

// ---------------------------------------------------------------------------
// Checker

// Check parses and type-checks a fragment against env, returning the first
// error or nil. A nil result means a C compiler (or the stub-aware checker)
// would accept the mutant — the mutation goes undetected.
func Check(src string, env *Env) error { return CheckTokens(Lex(src), env) }

// CheckTokens is Check of a fragment already lexed: toks is Lex of it.
func CheckTokens(toks []Token, env *Env) error {
	if err := malformed(toks); err != nil {
		return err
	}
	c := checker{toks: toks, env: env}
	return c.checkFragment()
}

// malformed reports the first TokError of toks.
func malformed(toks []Token) error {
	for _, t := range toks {
		if t.Kind == TokError {
			return fmt.Errorf("line %d: malformed token %q", t.Line, t.Text)
		}
	}
	return nil
}

// Baseline is a fragment that passed its check, kept so that edited copies
// of it are checked from the last top-level item the edit leaves intact
// rather than from the start. The checker's whole state between two
// top-level items is the token index and the names declared so far, and
// the names are recovered from the index of each name's first declaration.
type Baseline struct {
	env   *Env
	tops  []int          // token index where each top-level item starts
	decls map[string]int // token index of each name's first declaration
}

// NewBaseline checks toks against env and records the checker's state at
// every top-level item. It fails when the fragment does not check.
func NewBaseline(toks []Token, env *Env) (*Baseline, error) {
	if err := malformed(toks); err != nil {
		return nil, err
	}
	b := &Baseline{env: env}
	c := checker{toks: toks, env: env, tops: &b.tops}
	if err := c.checkFragment(); err != nil {
		return nil, err
	}
	b.decls = c.vars
	return b, nil
}

// CheckFrom returns what CheckTokens(toks, env) returns, for toks that
// agree with the baseline's tokens before index k (Splice's second
// result). It resumes at the last top-level item that starts before k: the
// items before it read no token past its first one, which is lookahead
// for the end of a #define expression or of an if without else.
func (b *Baseline) CheckFrom(toks []Token, k int) error {
	if err := malformed(toks[k:]); err != nil {
		return err
	}
	from := 0
	if i := sort.SearchInts(b.tops, k); i > 0 {
		from = b.tops[i-1]
	}
	c := checker{toks: toks, pos: from, env: b.env, base: b, from: from}
	return c.checkFragment()
}

type checker struct {
	toks []Token
	pos  int
	env  *Env
	// vars maps each name declared by the fragment to the token index of
	// its first declaration.
	vars map[string]int
	// base and from resume a check at token from of an edited baseline:
	// the names the baseline declared before from are in scope.
	base *Baseline
	from int
	// tops, when set, collects the start of every top-level item.
	tops *[]int
}

func (c *checker) cur() Token  { return c.toks[c.pos] }
func (c *checker) next() Token { t := c.toks[c.pos]; c.pos++; return t }

func (c *checker) errf(format string, args ...any) error {
	return fmt.Errorf("line %d: %s", c.cur().Line, fmt.Sprintf(format, args...))
}

func (c *checker) expectOp(op string) error {
	if c.cur().Kind != TokOp || c.cur().Text != op {
		return c.errf("expected %q, found %q", op, c.cur().Text)
	}
	c.pos++
	return nil
}

func (c *checker) isOp(op string) bool {
	return c.cur().Kind == TokOp && c.cur().Text == op
}

func (c *checker) checkFragment() error {
	for c.cur().Kind != TokEOF {
		if c.tops != nil {
			*c.tops = append(*c.tops, c.pos)
		}
		if err := c.checkTop(); err != nil {
			return err
		}
	}
	return nil
}

func (c *checker) checkTop() error {
	t := c.cur()
	switch {
	case t.Kind == TokHash:
		return c.checkDefine()
	case t.Kind == TokIdent && t.Text == "int":
		return c.checkVarDecl()
	default:
		return c.checkStmt()
	}
}

// checkDefine handles "#define NAME expr".
func (c *checker) checkDefine() error {
	c.pos++ // '#'
	if c.cur().Kind != TokIdent || c.cur().Text != "define" {
		return c.errf("expected define after #")
	}
	c.pos++
	if c.cur().Kind != TokIdent {
		return c.errf("expected macro name")
	}
	at := c.pos
	c.pos++
	// The replacement is a constant expression on the same line.
	if c.cur().Line != c.toks[at].Line {
		return c.errf("macro %s has no replacement", c.toks[at].Text)
	}
	if _, _, err := c.checkExpr(); err != nil {
		return err
	}
	c.declare(at)
	return nil
}

func (c *checker) checkVarDecl() error {
	c.pos++ // int
	for {
		if c.cur().Kind != TokIdent {
			return c.errf("expected variable name")
		}
		c.declare(c.pos)
		c.pos++
		if c.isOp(",") {
			c.pos++
			continue
		}
		break
	}
	return c.expectOp(";")
}

func (c *checker) checkStmt() error {
	switch {
	case c.isOp("{"):
		c.pos++
		for !c.isOp("}") {
			if c.cur().Kind == TokEOF {
				return c.errf("unterminated block")
			}
			if err := c.checkTop(); err != nil {
				return err
			}
		}
		c.pos++
		return nil
	case c.cur().Kind == TokIdent && (c.cur().Text == "if" || c.cur().Text == "while"):
		c.pos++
		if err := c.expectOp("("); err != nil {
			return err
		}
		if _, _, err := c.checkExpr(); err != nil {
			return err
		}
		if err := c.expectOp(")"); err != nil {
			return err
		}
		if err := c.checkStmt(); err != nil {
			return err
		}
		if c.cur().Kind == TokIdent && c.cur().Text == "else" {
			c.pos++
			return c.checkStmt()
		}
		return nil
	}
	// Assignment or expression statement.
	if c.cur().Kind == TokIdent && c.pos+1 < len(c.toks) {
		nt := c.toks[c.pos+1]
		if nt.Kind == TokOp {
			switch nt.Text {
			case "=", "|=", "&=", "^=", "+=", "-=", "<<=", ">>=":
				name := c.next().Text
				if _, ok := c.lookupValue(name); !ok {
					return c.errf("%q undeclared", name)
				}
				c.pos++ // the assignment operator
				if _, _, err := c.checkExpr(); err != nil {
					return err
				}
				return c.expectOp(";")
			}
		}
	}
	if _, _, err := c.checkExpr(); err != nil {
		return err
	}
	return c.expectOp(";")
}

// declare adds the name at token index i to the fragment's variables.
func (c *checker) declare(i int) {
	name := c.toks[i].Text
	if _, dup := c.vars[name]; dup {
		return
	}
	if c.vars == nil {
		c.vars = map[string]int{}
	}
	c.vars[name] = i
}

// lookupValue resolves a name used as a value: a fragment variable (always
// an int) shadows a named constant of the environment.
func (c *checker) lookupValue(name string) (Type, bool) {
	if _, ok := c.vars[name]; ok {
		return Int, true
	}
	if c.base != nil {
		if i, ok := c.base.decls[name]; ok && i < c.from {
			return Int, true
		}
	}
	t, ok := c.env.Consts[name]
	return t, ok
}

// checkExpr checks a full expression, returning its type and, when the
// expression is a constant, its value.
func (c *checker) checkExpr() (Type, *int64, error) { return c.checkBinary(0) }

// binaryLevel returns the C precedence level of a binary operator, from
// || (0, loosest) to the multiplicative operators (9), or -1 for any other
// token text.
func binaryLevel(op string) int {
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
	case "<", ">", "<=", ">=":
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

// checkBinary checks a chain of binary operators of level min or tighter,
// left-associatively (precedence climbing).
func (c *checker) checkBinary(min int) (Type, *int64, error) {
	lt, lv, err := c.checkUnary()
	if err != nil {
		return Int, nil, err
	}
	for c.cur().Kind == TokOp {
		level := binaryLevel(c.cur().Text)
		if level < min {
			break
		}
		op := c.next().Text
		rt, rv, err := c.checkBinary(level + 1)
		if err != nil {
			return Int, nil, err
		}
		if !c.env.Permissive {
			// Arithmetic on enum-typed values is a stub-API misuse.
			if lt.Enum != "" || rt.Enum != "" {
				return Int, nil, c.errf("operator %q applied to enum-typed value", op)
			}
		}
		lv = constFold(op, lv, rv)
		lt = Int
	}
	return lt, lv, nil
}

func constFold(op string, a, b *int64) *int64 {
	if a == nil || b == nil {
		return nil
	}
	var v int64
	switch op {
	case "|":
		v = *a | *b
	case "&":
		v = *a & *b
	case "^":
		v = *a ^ *b
	case "+":
		v = *a + *b
	case "-":
		v = *a - *b
	case "*":
		v = *a * *b
	case "<<":
		if *b < 0 || *b > 62 {
			return nil
		}
		v = *a << uint(*b)
	case ">>":
		if *b < 0 || *b > 62 {
			return nil
		}
		v = *a >> uint(*b)
	case "/":
		if *b == 0 {
			return nil
		}
		v = *a / *b
	case "%":
		if *b == 0 {
			return nil
		}
		v = *a % *b
	default:
		return nil
	}
	return &v
}

func (c *checker) checkUnary() (Type, *int64, error) {
	if c.cur().Kind == TokOp {
		switch c.cur().Text {
		case "~", "!", "-", "+":
			op := c.next().Text
			t, v, err := c.checkUnary()
			if err != nil {
				return Int, nil, err
			}
			if !c.env.Permissive && t.Enum != "" {
				return Int, nil, c.errf("operator %q applied to enum-typed value", op)
			}
			if v != nil {
				switch op {
				case "~":
					nv := ^*v
					v = &nv
				case "-":
					nv := -*v
					v = &nv
				case "!":
					var nv int64
					if *v == 0 {
						nv = 1
					}
					v = &nv
				}
			}
			return Int, v, nil
		}
	}
	return c.checkPrimary()
}

func (c *checker) checkPrimary() (Type, *int64, error) {
	t := c.cur()
	switch t.Kind {
	case TokNumber:
		c.pos++
		v, err := parseInt(t.Text)
		if err != nil {
			return Int, nil, c.errf("bad number %q", t.Text)
		}
		return Int, &v, nil
	case TokIdent:
		c.pos++
		if c.isOp("(") {
			return c.checkCall(t.Text)
		}
		if typ, ok := c.lookupValue(t.Text); ok {
			return typ, nil, nil
		}
		return Int, nil, fmt.Errorf("line %d: %q undeclared", t.Line, t.Text)
	case TokOp:
		if t.Text == "(" {
			c.pos++
			typ, v, err := c.checkExpr()
			if err != nil {
				return Int, nil, err
			}
			return typ, v, c.expectOp(")")
		}
	}
	return Int, nil, c.errf("unexpected token %q", t.Text)
}

func (c *checker) checkCall(name string) (Type, *int64, error) {
	fn, ok := c.env.Funcs[name]
	if !ok {
		return Int, nil, c.errf("call to undeclared function %q", name)
	}
	if err := c.expectOp("("); err != nil {
		return Int, nil, err
	}
	var args []struct {
		t Type
		v *int64
	}
	if !c.isOp(")") {
		for {
			at, av, err := c.checkExpr()
			if err != nil {
				return Int, nil, err
			}
			args = append(args, struct {
				t Type
				v *int64
			}{at, av})
			if c.isOp(",") {
				c.pos++
				continue
			}
			break
		}
	}
	if err := c.expectOp(")"); err != nil {
		return Int, nil, err
	}
	if len(args) != len(fn.Params) {
		return Int, nil, c.errf("%s expects %d arguments, got %d", name, len(fn.Params), len(args))
	}
	if !c.env.Permissive {
		for i, a := range args {
			p := fn.Params[i]
			if p.Enum != "" && a.t.Enum != p.Enum {
				return Int, nil, c.errf("argument %d of %s must be of enum type %s", i+1, name, p.Enum)
			}
			if p.Enum == "" && a.t.Enum != "" {
				return Int, nil, c.errf("argument %d of %s is an integer, got enum %s", i+1, name, a.t.Enum)
			}
			// Compile-time range check on constant arguments (§3.2).
			if a.v != nil && !p.Allows(*a.v) {
				return Int, nil, c.errf("argument %d of %s out of range [%d,%d]", i+1, name, p.Lo, p.Hi)
			}
		}
	}
	return fn.Result, nil, nil
}

func parseInt(s string) (int64, error) {
	var v int64
	if strings.HasPrefix(s, "0x") || strings.HasPrefix(s, "0X") {
		for _, r := range s[2:] {
			var d int64
			switch {
			case r >= '0' && r <= '9':
				d = int64(r - '0')
			case r >= 'a' && r <= 'f':
				d = int64(r-'a') + 10
			case r >= 'A' && r <= 'F':
				d = int64(r-'A') + 10
			default:
				return 0, fmt.Errorf("bad hex digit")
			}
			v = v*16 + d
		}
		return v, nil
	}
	for _, r := range s {
		if r < '0' || r > '9' {
			return 0, fmt.Errorf("bad digit")
		}
		v = v*10 + int64(r-'0')
	}
	return v, nil
}
