package mutation

import (
	"fmt"
	"slices"
	"strings"

	"repro/internal/core"
	"repro/internal/devil/diag"
	"repro/internal/devil/scanner"
	"repro/internal/devil/sema"
	"repro/internal/devil/token"
)

// CodeProfile tallies detected mutants per diagnostic code. A mutant that
// triggers several distinct codes contributes one count to each, so the
// profile's sum can exceed the number of detected mutants.
type CodeProfile map[diag.Code]int

// Add merges another profile into the receiver, allocating it if needed.
func (p CodeProfile) add(o CodeProfile) CodeProfile {
	if p == nil {
		p = CodeProfile{}
	}
	for c, n := range o {
		p[c] += n
	}
	return p
}

// Codes returns the profile's codes in sorted order.
func (p CodeProfile) Codes() []diag.Code {
	var out []diag.Code
	for c := range p {
		out = append(out, c)
	}
	for i := range out {
		for j := i + 1; j < len(out); j++ {
			if out[j] < out[i] {
				out[i], out[j] = out[j], out[i]
			}
		}
	}
	return out
}

// CodeResult is a Result whose detected mutants are attributed to the
// diagnostic codes that rejected them (Table 1's "which §3.1 property
// caught the error" refinement).
type CodeResult struct {
	Result
	// Codes attributes compiler-detected mutants. Every detected mutant
	// appears under at least one registered error code.
	Codes CodeProfile
	// Interface counts mutants the compiler accepts but that change the
	// generated interface, so rebuilding the stub-calling driver fails
	// (the paper applies mutations "both to the Devil specification ...
	// and to procedure calls to the generated interface").
	Interface int
}

// Add combines two code results.
func (r CodeResult) Add(o CodeResult) CodeResult {
	return CodeResult{
		Result:    r.Result.Add(o.Result),
		Codes:     r.Codes.add(o.Codes),
		Interface: r.Interface + o.Interface,
	}
}

// RunCodes mutates every site of a Devil specification, whose tokens toks
// are those scanner.ScanAll(spec) returns, and checks each mutant with the
// full compiler, attributing every detected mutant to the diagnostic
// code(s) that rejected it. iface, when non-nil, classifies mutants the
// compiler accepts: a non-nil error marks the mutant detected by the
// generated-interface rebuild instead. The unmutated specification must
// compile (the baseline must be valid).
func RunCodes(spec []byte, toks []token.Token, iface func(*sema.Device) error) CodeResult {
	if dev, diags := core.CompileTokens(toks, nil); diags.HasErrors() {
		panic(fmt.Sprintf("mutation: baseline does not check: %v", diags.Err()))
	} else if iface != nil {
		if err := iface(dev); err != nil {
			panic(fmt.Sprintf("mutation: baseline fails the interface check: %v", err))
		}
	}
	src := string(spec)
	sites := sitesForDevil(toks)
	res := CodeResult{
		Result: Result{Lines: strings.Count(src, "\n") + 1, Sites: len(sites)},
		Codes:  CodeProfile{},
	}
	var buf []token.Token
	eachMutant(src, sites, func(s Site, m string) {
		res.Mutants++
		var serrs scanner.ErrorList
		buf, serrs = scanner.Splice(buf, toks, nil, spec, s.Pos, len(s.Text), m)
		dev, diags := core.CompileTokens(buf, serrs)
		if diags.HasErrors() {
			var seen []diag.Code
			for _, d := range diags {
				if d.Severity == diag.SevError && !slices.Contains(seen, d.Code) {
					seen = append(seen, d.Code)
					res.Codes[d.Code]++
				}
			}
			return
		}
		if iface != nil && iface(dev) != nil {
			res.Interface++
			return
		}
		res.Undetected++
	})
	return res
}

// DevilCodes runs the Devil rows of the Table 1 study with code
// attribution, keyed by device name. A mutant the compiler accepts still
// counts as detected when it breaks the rebuild of the stub-calling
// fragment (see study.devil).
func DevilCodes(filter string) (map[string]CodeResult, error) {
	out := map[string]CodeResult{}
	for _, st := range selected(filter) {
		in, err := st.prepare()
		if err != nil {
			return nil, fmt.Errorf("%s: %w", st.device, err)
		}
		out[st.device] = st.devil(in)
	}
	return out, nil
}

// FormatCodeTable renders the code attribution of one device's Devil row:
// one line per diagnostic code with its share of detected mutants.
func FormatCodeTable(device string, r CodeResult) string {
	var b strings.Builder
	detected := r.Mutants - r.Undetected
	fmt.Fprintf(&b, "%s: %d mutants, %d detected (%d by interface rebuild), %d undetected\n",
		device, r.Mutants, detected, r.Interface, r.Undetected)
	for _, c := range r.Codes.Codes() {
		info, _ := diag.Lookup(c)
		fmt.Fprintf(&b, "  %-5s %5d  %s\n", c, r.Codes[c], info.Summary)
	}
	return b.String()
}
