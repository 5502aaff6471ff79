// Package scanner implements a lexer for the Devil interface definition
// language. It converts a source buffer into a stream of tokens consumed by
// the parser.
//
// Devil's lexical grammar is small: C-style identifiers and comments,
// decimal and hexadecimal integers, a handful of operators, and quoted bit
// patterns such as '1001000.' whose characters are drawn from {0 1 . * -}.
package scanner

import (
	"fmt"
	"sort"
	"strings"

	"repro/internal/devil/token"
)

// Error describes a lexical error at a source position.
type Error struct {
	Pos token.Pos
	Msg string
}

// Error implements the error interface.
func (e *Error) Error() string { return fmt.Sprintf("%s: %s", e.Pos, e.Msg) }

// ErrorList is a collection of scan or parse errors, in source order.
type ErrorList []*Error

// Add appends an error at pos with a formatted message.
func (l *ErrorList) Add(pos token.Pos, format string, args ...any) {
	*l = append(*l, &Error{Pos: pos, Msg: fmt.Sprintf(format, args...)})
}

// Err returns the list as an error, or nil when empty.
func (l ErrorList) Err() error {
	if len(l) == 0 {
		return nil
	}
	return l
}

// Error implements the error interface by joining the individual messages.
func (l ErrorList) Error() string {
	switch len(l) {
	case 0:
		return "no errors"
	case 1:
		return l[0].Error()
	}
	var b strings.Builder
	for i, e := range l {
		if i > 0 {
			b.WriteByte('\n')
		}
		b.WriteString(e.Error())
	}
	return b.String()
}

// Scanner tokenizes a Devil source buffer. The zero value is not usable;
// call New.
type Scanner struct {
	src  []byte
	off  int // reading offset
	line int
	col  int

	errs ErrorList
}

// New returns a scanner over src.
func New(src []byte) *Scanner {
	return &Scanner{src: src, line: 1, col: 1}
}

// Errors returns the lexical errors encountered so far.
func (s *Scanner) Errors() ErrorList { return s.errs }

func (s *Scanner) pos() token.Pos {
	return token.Pos{Offset: s.off, Line: s.line, Column: s.col}
}

// peek returns the byte at offset+n without consuming, or 0 at EOF.
func (s *Scanner) peek(n int) byte {
	if s.off+n < len(s.src) {
		return s.src[s.off+n]
	}
	return 0
}

func (s *Scanner) advance() byte {
	c := s.src[s.off]
	s.off++
	if c == '\n' {
		s.line++
		s.col = 1
	} else {
		s.col++
	}
	return c
}

func isLetter(c byte) bool {
	return c == '_' || 'a' <= c && c <= 'z' || 'A' <= c && c <= 'Z'
}

func isDigit(c byte) bool { return '0' <= c && c <= '9' }

func isHexDigit(c byte) bool {
	return isDigit(c) || 'a' <= c && c <= 'f' || 'A' <= c && c <= 'F'
}

func isBitChar(c byte) bool {
	return c == '0' || c == '1' || c == '.' || c == '*' || c == '-'
}

// Next returns the next token, skipping whitespace and comments.
// At end of input it returns an EOF token, forever.
func (s *Scanner) Next() token.Token {
	for {
		t := s.next()
		if t.Kind != token.COMMENT {
			return t
		}
	}
}

// NextWithComments returns the next token, including COMMENT tokens.
func (s *Scanner) NextWithComments() token.Token { return s.next() }

func (s *Scanner) next() token.Token {
	// Skip whitespace.
	for s.off < len(s.src) {
		switch s.peek(0) {
		case ' ', '\t', '\r', '\n':
			s.advance()
			continue
		}
		break
	}
	pos := s.pos()
	if s.off >= len(s.src) {
		return token.Token{Kind: token.EOF, Pos: pos}
	}

	c := s.peek(0)
	switch {
	case isLetter(c):
		start := s.off
		for s.off < len(s.src) && (isLetter(s.peek(0)) || isDigit(s.peek(0))) {
			s.advance()
		}
		lit := string(s.src[start:s.off])
		kind := token.Lookup(lit)
		if kind == token.IDENT {
			return token.Token{Kind: token.IDENT, Lit: lit, Pos: pos}
		}
		return token.Token{Kind: kind, Lit: lit, Pos: pos}

	case isDigit(c):
		start := s.off
		if c == '0' && (s.peek(1) == 'x' || s.peek(1) == 'X') {
			s.advance()
			s.advance()
			if !isHexDigit(s.peek(0)) {
				s.errs.Add(pos, "malformed hexadecimal literal")
				return token.Token{Kind: token.ILLEGAL, Lit: string(s.src[start:s.off]), Pos: pos}
			}
			for s.off < len(s.src) && isHexDigit(s.peek(0)) {
				s.advance()
			}
		} else {
			for s.off < len(s.src) && isDigit(s.peek(0)) {
				s.advance()
			}
		}
		// A digit run immediately followed by a letter is a malformed
		// number such as "12ab"; report it as one illegal token so the
		// parser does not see a confusing IDENT.
		if s.off < len(s.src) && isLetter(s.peek(0)) {
			for s.off < len(s.src) && (isLetter(s.peek(0)) || isDigit(s.peek(0))) {
				s.advance()
			}
			lit := string(s.src[start:s.off])
			s.errs.Add(pos, "malformed number %q", lit)
			return token.Token{Kind: token.ILLEGAL, Lit: lit, Pos: pos}
		}
		return token.Token{Kind: token.INT, Lit: string(s.src[start:s.off]), Pos: pos}

	case c == '\'':
		return s.scanBits(pos)
	}

	s.advance()
	switch c {
	case '@':
		return token.Token{Kind: token.AT, Pos: pos}
	case '#':
		return token.Token{Kind: token.HASH, Pos: pos}
	case ',':
		return token.Token{Kind: token.COMMA, Pos: pos}
	case ';':
		return token.Token{Kind: token.SEMICOLON, Pos: pos}
	case ':':
		return token.Token{Kind: token.COLON, Pos: pos}
	case '{':
		return token.Token{Kind: token.LBRACE, Pos: pos}
	case '}':
		return token.Token{Kind: token.RBRACE, Pos: pos}
	case '[':
		return token.Token{Kind: token.LBRACKET, Pos: pos}
	case ']':
		return token.Token{Kind: token.RBRACKET, Pos: pos}
	case '(':
		return token.Token{Kind: token.LPAREN, Pos: pos}
	case ')':
		return token.Token{Kind: token.RPAREN, Pos: pos}
	case '*':
		return token.Token{Kind: token.STAR, Pos: pos}
	case '=':
		if s.peek(0) == '>' {
			s.advance()
			return token.Token{Kind: token.WRITEMAP, Pos: pos}
		}
		if s.peek(0) == '=' {
			s.advance()
			return token.Token{Kind: token.EQ, Pos: pos}
		}
		return token.Token{Kind: token.ASSIGN, Pos: pos}
	case '!':
		if s.peek(0) == '=' {
			s.advance()
			return token.Token{Kind: token.NEQ, Pos: pos}
		}
	case '<':
		if s.peek(0) == '=' {
			s.advance()
			if s.peek(0) == '>' {
				s.advance()
				return token.Token{Kind: token.RWMAP, Pos: pos}
			}
			return token.Token{Kind: token.READMAP, Pos: pos}
		}
	case '.':
		if s.peek(0) == '.' {
			s.advance()
			return token.Token{Kind: token.DOTDOT, Pos: pos}
		}
	case '/':
		if s.peek(0) == '/' {
			start := s.off - 1
			for s.off < len(s.src) && s.peek(0) != '\n' {
				s.advance()
			}
			return token.Token{Kind: token.COMMENT, Lit: string(s.src[start:s.off]), Pos: pos}
		}
		if s.peek(0) == '*' {
			start := s.off - 1
			s.advance()
			for s.off < len(s.src) {
				if s.peek(0) == '*' && s.peek(1) == '/' {
					s.advance()
					s.advance()
					return token.Token{Kind: token.COMMENT, Lit: string(s.src[start:s.off]), Pos: pos}
				}
				s.advance()
			}
			s.errs.Add(pos, "unterminated block comment")
			return token.Token{Kind: token.ILLEGAL, Lit: string(s.src[start:s.off]), Pos: pos}
		}
	}
	s.errs.Add(pos, "unexpected character %q", string(c))
	return token.Token{Kind: token.ILLEGAL, Lit: string(c), Pos: pos}
}

// scanBits scans a quoted bit pattern such as '1001000.'. The opening quote
// has not been consumed yet. Every character between the quotes must be one
// of {0 1 . * -}.
func (s *Scanner) scanBits(pos token.Pos) token.Token {
	s.advance() // opening quote
	start := s.off
	for s.off < len(s.src) && isBitChar(s.peek(0)) {
		s.advance()
	}
	lit := string(s.src[start:s.off])
	if s.off >= len(s.src) || s.peek(0) != '\'' {
		s.errs.Add(pos, "unterminated or malformed bit pattern")
		return token.Token{Kind: token.ILLEGAL, Lit: lit, Pos: pos}
	}
	s.advance() // closing quote
	if lit == "" {
		s.errs.Add(pos, "empty bit pattern")
		return token.Token{Kind: token.ILLEGAL, Lit: lit, Pos: pos}
	}
	return token.Token{Kind: token.BITS, Lit: lit, Pos: pos}
}

// ScanAll tokenizes the whole buffer (comments excluded) and returns the
// tokens including the trailing EOF, plus any lexical errors.
func ScanAll(src []byte) ([]token.Token, ErrorList) {
	s := New(src)
	toks := make([]token.Token, 0, len(src)/4+1)
	for {
		t := s.Next()
		toks = append(toks, t)
		if t.Kind == token.EOF {
			return toks, s.Errors()
		}
	}
}

// Splice returns ScanAll of the edited text src[:pos] + repl + src[pos+n:],
// given toks, errs = ScanAll(src), without scanning all of it. Scanning a
// token reads at most one byte past its end, and the scanner's state
// between tokens is its offset, line and column. So only a window is
// scanned afresh: it starts at the last token that begins before the edit
// and ends at the first token past the edit that begins where a token of
// toks begins. The rest of toks and errs is copied with offsets shifted,
// lines shifted, and columns shifted on that token's line. The tokens
// reuse dst's storage; errs is not modified.
func Splice(dst, toks []token.Token, errs ErrorList, src []byte, pos, n int, repl string) ([]token.Token, ErrorList) {
	k := sort.Search(len(toks), func(i int) bool { return toks[i].Pos.Offset >= pos }) - 1
	from := token.Pos{Line: 1, Column: 1}
	if k < 0 {
		k = 0
	} else {
		from = toks[k].Pos
	}
	end, shift := pos+n, len(repl)-n
	var win []byte
	for w := spliceWindow; ; w *= 2 {
		stop := min(end+w, len(src))
		whole := stop == len(src)
		win = append(append(append(win[:0], src[from.Offset:pos]...), repl...), src[end:stop]...)
		out := append(dst[:0], toks[:k]...)
		s := &Scanner{src: win, line: from.Line, col: from.Column}
		b := k
		for {
			nerr := len(s.errs)
			t := s.Next()
			if t.Kind == token.EOF && !whole {
				break // the text may go on past the window
			}
			t.Pos.Offset += from.Offset
			if at := t.Pos.Offset - shift; at >= end {
				for b < len(toks) && toks[b].Pos.Offset < at {
					b++
				}
				if b < len(toks) && toks[b].Pos.Offset == at {
					d := delta{shift, t.Pos.Line - toks[b].Pos.Line, t.Pos.Column - toks[b].Pos.Column, toks[b].Pos.Line}
					for _, bt := range toks[b:] {
						bt.Pos = d.apply(bt.Pos)
						out = append(out, bt)
					}
					return out, spliceErrors(errs, from.Offset, s.errs[:nerr], at, d)
				}
			}
			if s.off >= len(win) && !whole {
				break // the token may go on past the window
			}
			out = append(out, t)
		}
		dst = out
	}
}

// spliceWindow is how many bytes past an edit Splice first scans; it
// doubles the window until a token lines up.
const spliceWindow = 32

// delta is how positions past a splice move: by the edit's change in
// length, by the lines it adds, and, on the line where scanning lined up
// again, by the columns it adds.
type delta struct{ off, line, col, onLine int }

func (d delta) apply(p token.Pos) token.Pos {
	if p.Line == d.onLine {
		p.Column += d.col
	}
	p.Offset += d.off
	p.Line += d.line
	return p
}

// spliceErrors assembles the errors of a spliced scan: those of errs
// before the window start, those of the window (offsets relative to its
// start), and those of errs from the resync offset on, moved by d.
func spliceErrors(errs ErrorList, start int, win ErrorList, at int, d delta) ErrorList {
	var out ErrorList
	for _, e := range errs {
		if e.Pos.Offset < start {
			out = append(out, e)
		}
	}
	for _, e := range win {
		p := e.Pos
		p.Offset += start
		out = append(out, &Error{Pos: p, Msg: e.Msg})
	}
	for _, e := range errs {
		if e.Pos.Offset >= at {
			out = append(out, &Error{Pos: d.apply(e.Pos), Msg: e.Msg})
		}
	}
	return out
}
