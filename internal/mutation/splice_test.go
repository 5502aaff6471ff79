package mutation

import (
	"fmt"
	"slices"
	"testing"

	"repro/internal/devil/scanner"
	"repro/internal/devil/token"
	"repro/internal/minic"
)

// mismatches fails the test after a handful of reported mismatches, so a
// broken splice does not print one line per mutant.
type mismatches struct {
	t *testing.T
	n int
}

func (m *mismatches) report(format string, args ...any) {
	m.t.Helper()
	m.t.Errorf(format, args...)
	if m.n++; m.n >= 10 {
		m.t.FailNow()
	}
}

func errText(err error) string {
	if err == nil {
		return "<nil>"
	}
	return err.Error()
}

// TestSpliceExactC checks, for every mutant of every study's C and C_Devil
// fragment, that the spliced token stream equals minic.Lex of the mutant
// text and that the check resumed at the edit returns the error a full
// check returns.
func TestSpliceExactC(t *testing.T) {
	bad := &mismatches{t: t}
	for _, st := range studies {
		in, err := st.prepare()
		if err != nil {
			t.Fatal(err)
		}
		for _, frag := range []struct {
			src string
			env *minic.Env
		}{{st.cSrc, minic.CEnv()}, {st.stubSrc, in.env}} {
			src := frag.src
			toks := minic.Lex(src)
			base, err := minic.NewBaseline(toks, frag.env)
			if err != nil {
				t.Fatalf("%s: baseline: %v", st.device, err)
			}
			var buf []minic.Token
			eachMutant(src, sitesForC(toks), func(s Site, m string) {
				want := minic.Lex(src[:s.Pos] + m + src[s.Pos+len(s.Text):])
				var k int
				buf, k = minic.Splice(buf, toks, src, s.Pos, len(s.Text), m)
				if !slices.Equal(buf, want) {
					bad.report("%s: %q -> %q at %d: spliced tokens differ from a full lex", st.device, s.Text, m, s.Pos)
					return
				}
				if !slices.Equal(buf[:k], toks[:k]) {
					bad.report("%s: %q -> %q at %d: tokens before %d changed", st.device, s.Text, m, s.Pos, k)
				}
				if got, full := errText(base.CheckFrom(buf, k)), errText(minic.CheckTokens(want, frag.env)); got != full {
					bad.report("%s: %q -> %q at %d: resumed check %q, full check %q", st.device, s.Text, m, s.Pos, got, full)
				}
			})
		}
	}
}

// TestSpliceExactDevil checks, for every mutant of every study's
// specification, that the spliced token stream and scanner errors equal
// scanner.ScanAll of the mutant text.
func TestSpliceExactDevil(t *testing.T) {
	bad := &mismatches{t: t}
	seen := map[string]bool{}
	for _, st := range studies {
		for _, spec := range st.specs {
			src := string(spec)
			if seen[src] {
				continue
			}
			seen[src] = true
			toks, errs := scanner.ScanAll(spec)
			var buf []token.Token
			eachMutant(src, sitesForDevil(toks), func(s Site, m string) {
				want, wantErrs := scanner.ScanAll([]byte(src[:s.Pos] + m + src[s.Pos+len(s.Text):]))
				var gotErrs scanner.ErrorList
				buf, gotErrs = scanner.Splice(buf, toks, errs, spec, s.Pos, len(s.Text), m)
				if !slices.Equal(buf, want) {
					bad.report("%s: %q -> %q at %d: spliced tokens differ from a full scan", st.device, s.Text, m, s.Pos)
				}
				if got, full := errPositions(gotErrs), errPositions(wantErrs); got != full {
					bad.report("%s: %q -> %q at %d: spliced errors %s, full scan %s", st.device, s.Text, m, s.Pos, got, full)
				}
			})
		}
	}
}

// errPositions renders scanner errors with their full positions.
func errPositions(errs scanner.ErrorList) string {
	var out string
	for _, e := range errs {
		out += fmt.Sprintf("[%d %s %s]", e.Pos.Offset, e.Pos, e.Msg)
	}
	return out
}
