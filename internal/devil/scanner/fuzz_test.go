package scanner

import (
	"slices"
	"testing"

	"repro/internal/devil/token"
	"repro/internal/specs"
)

// FuzzScanner feeds arbitrary bytes to the lexer and checks its structural
// invariants: it terminates with exactly one EOF token, every token's
// position lies inside the buffer, offsets never go backwards, and literal
// tokens carry the text found at their position.
func FuzzScanner(f *testing.F) {
	for _, src := range specs.All() {
		f.Add(src)
	}
	f.Add([]byte("device d (a : bit[8] port) { register r = a : bit[8]; }"))
	f.Add([]byte("'10.*-' 0x1f 12ab /* unterminated"))
	f.Add([]byte("== != <= <=> => .. @ # 'missing"))
	f.Fuzz(func(t *testing.T, src []byte) {
		toks, _ := ScanAll(src)
		if len(toks) == 0 || toks[len(toks)-1].Kind != token.EOF {
			t.Fatalf("token stream does not end with EOF: %v", toks)
		}
		last := -1
		for i, tok := range toks {
			if tok.Kind == token.EOF {
				if i != len(toks)-1 {
					t.Fatalf("EOF token at %d before the end", i)
				}
				break
			}
			off := tok.Pos.Offset
			if off < 0 || off > len(src) {
				t.Fatalf("token %v at offset %d outside buffer of %d bytes", tok, off, len(src))
			}
			if off < last {
				t.Fatalf("token %v at offset %d goes backwards (previous %d)", tok, off, last)
			}
			last = off
			// Identifiers and numbers appear verbatim at their position;
			// bit patterns one byte past the opening quote.
			switch tok.Kind {
			case token.IDENT, token.INT:
				end := off + len(tok.Lit)
				if end > len(src) || string(src[off:end]) != tok.Lit {
					t.Fatalf("token %v does not match source at %d", tok, off)
				}
			case token.BITS:
				start, end := off+1, off+1+len(tok.Lit)
				if end > len(src) || string(src[start:end]) != tok.Lit {
					t.Fatalf("bit pattern %v does not match source at %d", tok, off)
				}
			}
		}
	})
}

// FuzzSplice makes an arbitrary edit to an arbitrary text and checks that
// splicing it into ScanAll's tokens and errors gives ScanAll of the edited
// text, positions and messages included.
func FuzzSplice(f *testing.F) {
	for _, src := range specs.All() {
		for i, repl := range []string{"\n", "/*", "*/", "//", "'", "\"", "/", "x", ""} {
			f.Add(src, uint16(len(src)*i/9), uint16(i%3), repl)
		}
	}
	f.Add([]byte("register r = a @ 0 : bit[8]; // c"), uint16(14), uint16(1), "'1.")
	f.Add([]byte("x /* y */ z 'a"), uint16(2), uint16(2), "\n\n")
	f.Fuzz(func(t *testing.T, src []byte, pos, n uint16, repl string) {
		p := int(pos) % (len(src) + 1)
		m := int(n) % (len(src) - p + 1)
		edited := append(append(append([]byte{}, src[:p]...), repl...), src[p+m:]...)
		toks, errs := ScanAll(src)
		want, wantErrs := ScanAll(edited)
		got, gotErrs := Splice(nil, toks, errs, src, p, m, repl)
		if !slices.Equal(got, want) {
			t.Fatalf("splice of %q at %d (%d bytes) into %q:\n got %v\nwant %v", repl, p, m, src, got, want)
		}
		if !slices.EqualFunc(gotErrs, wantErrs, func(a, b *Error) bool { return *a == *b }) {
			t.Fatalf("splice of %q at %d (%d bytes) into %q: errors\n got %v\nwant %v", repl, p, m, src, gotErrs, wantErrs)
		}
	})
}
