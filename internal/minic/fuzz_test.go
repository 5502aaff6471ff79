package minic_test

import (
	"slices"
	"testing"

	"repro/internal/minic"
	"repro/internal/mutation"
)

// FuzzSplice makes an arbitrary edit to an arbitrary text and checks that
// splicing it into the text's tokens gives Lex of the edited text, and,
// when the text passes the checker, that the check resumed at the edit
// returns what a full check of the edited text returns.
func FuzzSplice(f *testing.F) {
	for _, src := range []string{
		mutation.BusmouseC, mutation.BusmouseCDevil, mutation.IdeC, mutation.IdeCDevil,
		mutation.Ne2000C, mutation.Ne2000CDevil, mutation.Pic8259C, mutation.Pic8259CDevil,
		mutation.Dma8237C, mutation.Dma8237CDevil, mutation.Cs4236C, mutation.Cs4236CDevil,
		mutation.Piix4C, mutation.Piix4CDevil, mutation.Permedia2C, mutation.Permedia2CDevil,
	} {
		for i, repl := range []string{"\n", "/*", "*/", "//", "'", "\"", "/", "x", ""} {
			f.Add(src, uint16(len(src)*i/9), uint16(i%3), repl)
		}
	}
	f.Add("int x; x = 1 /* c */ + 2;", uint16(13), uint16(0), "*/ 3 /*")
	f.Add("#define A 1\n-A;", uint16(11), uint16(1), " ")
	f.Fuzz(func(t *testing.T, src string, pos, n uint16, repl string) {
		p := int(pos) % (len(src) + 1)
		m := int(n) % (len(src) - p + 1)
		edited := src[:p] + repl + src[p+m:]
		toks := minic.Lex(src)
		want := minic.Lex(edited)
		got, k := minic.Splice(nil, toks, src, p, m, repl)
		if !slices.Equal(got, want) {
			t.Fatalf("splice of %q at %d (%d bytes) into %q:\n got %v\nwant %v", repl, p, m, src, got, want)
		}
		if !slices.Equal(got[:k], toks[:k]) {
			t.Fatalf("tokens before %d changed", k)
		}
		env := minic.CEnv()
		base, err := minic.NewBaseline(toks, env)
		if err != nil {
			return
		}
		resumed, full := base.CheckFrom(got, k), minic.CheckTokens(want, env)
		if (resumed == nil) != (full == nil) || resumed != nil && resumed.Error() != full.Error() {
			t.Fatalf("edit %q at %d of %q: resumed check %v, full check %v", repl, p, src, resumed, full)
		}
	})
}
