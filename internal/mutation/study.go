package mutation

import (
	"fmt"
	"slices"
	"strings"

	"repro/internal/core"
	"repro/internal/devil/scanner"
	"repro/internal/devil/sema"
	"repro/internal/devil/token"
	"repro/internal/minic"
	"repro/internal/specs"
)

// Row is one device block of Table 1: the four result lines the paper
// reports (C, Devil, C_Devil, Devil+C_Devil).
type Row struct {
	Device string
	C      Result
	Devil  Result
	CDevil Result
}

// Combined returns the Devil+C_Devil aggregate line.
func (r Row) Combined() Result { return r.Devil.Add(r.CDevil) }

// RatioCDevil is the paper's "Ratio to C" for the C_Devil line: how many
// times more error-prone the C driver is than stub-based driver code.
func (r Row) RatioCDevil() float64 {
	d := r.CDevil.SitesWithUndetected()
	if d == 0 {
		return 0
	}
	return r.C.SitesWithUndetected() / d
}

// RatioCombined is the "Ratio to C" for the Devil+C_Devil line.
func (r Row) RatioCombined() float64 {
	d := r.Combined().SitesWithUndetected()
	if d == 0 {
		return 0
	}
	return r.C.SitesWithUndetected() / d
}

// study describes one device of the experiment.
type study struct {
	device  string
	cSrc    string
	specs   [][]byte
	stubSrc string
	prefix  string
}

var studies = []study{
	{
		device:  "Logitech Busmouse",
		cSrc:    BusmouseC,
		specs:   [][]byte{specs.Busmouse},
		stubSrc: BusmouseCDevil,
		prefix:  "bm",
	},
	{
		device:  "IDE (Intel PIIX4)",
		cSrc:    IdeC,
		specs:   [][]byte{specs.IDE, specs.PIIX4},
		stubSrc: IdeCDevil,
		prefix:  "ide",
	},
	{
		device:  "Ethernet (NE2000)",
		cSrc:    Ne2000C,
		specs:   [][]byte{specs.NE2000},
		stubSrc: Ne2000CDevil,
		prefix:  "ne",
	},
	{
		device:  "Interrupt (i8259A)",
		cSrc:    Pic8259C,
		specs:   [][]byte{specs.PIC8259},
		stubSrc: Pic8259CDevil,
		prefix:  "pic",
	},
	{
		device:  "DMA (i8237A)",
		cSrc:    Dma8237C,
		specs:   [][]byte{specs.DMA8237},
		stubSrc: Dma8237CDevil,
		prefix:  "dma",
	},
	{
		device:  "Audio (CS4236B)",
		cSrc:    Cs4236C,
		specs:   [][]byte{specs.CS4236},
		stubSrc: Cs4236CDevil,
		prefix:  "cs",
	},
	{
		device:  "Busmaster (PIIX4)",
		cSrc:    Piix4C,
		specs:   [][]byte{specs.PIIX4},
		stubSrc: Piix4CDevil,
		prefix:  "px",
	},
	{
		device:  "Video (Permedia2)",
		cSrc:    Permedia2C,
		specs:   [][]byte{specs.Permedia2},
		stubSrc: Permedia2CDevil,
		prefix:  "pm",
	},
}

// RunStudy executes the complete Table 1 experiment for one device by
// paper name ("busmouse", "ide", "ne2000") or for all with "".
func RunStudy(filter string) ([]Row, error) {
	var rows []Row
	for _, st := range selected(filter) {
		row, err := st.run()
		if err != nil {
			return nil, fmt.Errorf("%s: %w", st.device, err)
		}
		rows = append(rows, row)
	}
	return rows, nil
}

// selected returns the studies whose device name contains filter, ignoring
// case; "" selects all.
func selected(filter string) []study {
	var out []study
	for _, st := range studies {
		if strings.Contains(strings.ToLower(st.device), strings.ToLower(filter)) {
			out = append(out, st)
		}
	}
	return out
}

// prepared is what a study's Devil and C_Devil rows share: the scanned and
// compiled specifications, the stub environment they generate, and the
// lexed stub-calling fragment.
type prepared struct {
	specToks [][]token.Token
	compiled []*sema.Device
	env      *minic.Env
	stubToks []minic.Token
}

func (st study) prepare() (prepared, error) {
	var in prepared
	for _, spec := range st.specs {
		toks, errs := scanner.ScanAll(spec)
		dev, diags := core.CompileTokens(toks, errs)
		if err := diags.Err(); err != nil {
			return in, fmt.Errorf("devil: %w", err)
		}
		in.specToks = append(in.specToks, toks)
		in.compiled = append(in.compiled, dev)
	}
	in.env = StubEnv(st.prefix, in.compiled...)
	in.stubToks = minic.Lex(st.stubSrc)
	return in, nil
}

func (st study) run() (Row, error) {
	row := Row{Device: st.device}

	// C: the hand-crafted fragment against the permissive mini-C checker.
	row.C = RunC(st.cSrc, minic.Lex(st.cSrc), minic.CEnv())

	in, err := st.prepare()
	if err != nil {
		return row, err
	}
	row.Devil = st.devil(in).Result

	// C_Devil: the stub-calling fragment against the typed stub signatures.
	row.CDevil = RunC(st.stubSrc, in.stubToks, in.env)
	return row, nil
}

// devil runs the Devil row: each specification against the full compiler.
// As in the paper, mutations are applied "both to the Devil specification
// of the device, and to procedure calls to the generated interface": a
// spec mutant that still satisfies §3.1 but changes the *generated
// interface* — a renamed device or variable, a renamed or retyped enum
// symbol, a changed value range — breaks the rebuild of every driver using
// the public-library stubs, so it counts as detected. Only mutants that
// keep the interface identical and silently change device behaviour (e.g.
// flipping a forced mask bit) survive.
func (st study) devil(in prepared) CodeResult {
	var agg CodeResult
	for i, spec := range st.specs {
		agg = agg.Add(RunCodes(spec, in.specToks[i], func(dev *sema.Device) error {
			if dev.Name != in.compiled[i].Name {
				return fmt.Errorf("device renamed: generated header name changes")
			}
			devs := slices.Clone(in.compiled)
			devs[i] = dev
			env := StubEnv(st.prefix, devs...)
			if !envEqual(in.env, env) {
				return fmt.Errorf("generated interface changed")
			}
			return minic.CheckTokens(in.stubToks, env)
		}))
	}
	return agg
}

// BitOpShare measures the fraction of code lines in a mini-C fragment that
// perform bit manipulation (the paper's §1 claim: "bit operations can
// represent up to 30% of driver code", measured over Linux 2.2 drivers).
// It returns bit-manipulating lines, total code lines, and the share.
func BitOpShare(src string) (bitLines, codeLines int, share float64) {
	bitOpSet := map[string]bool{
		"&": true, "|": true, "^": true, "~": true, "<<": true, ">>": true,
		"&=": true, "|=": true, "^=": true, "<<=": true, ">>=": true,
	}
	lineHasCode := map[int]bool{}
	lineHasBit := map[int]bool{}
	for _, t := range minic.Lex(src) {
		if t.Kind == minic.TokEOF {
			break
		}
		lineHasCode[t.Line] = true
		if t.Kind == minic.TokOp && bitOpSet[t.Text] {
			lineHasBit[t.Line] = true
		}
	}
	for line := range lineHasCode {
		codeLines++
		if lineHasBit[line] {
			bitLines++
		}
	}
	if codeLines == 0 {
		return 0, 0, 0
	}
	return bitLines, codeLines, float64(bitLines) / float64(codeLines)
}

// BitOpReport renders the §1 bit-operation measurement over the three
// hand-crafted driver fragments.
func BitOpReport() string {
	var b strings.Builder
	fmt.Fprintf(&b, "Bit manipulation in hand-crafted hardware operating code (§1):\n")
	for _, st := range studies {
		ops, total, share := BitOpShare(st.cSrc)
		fmt.Fprintf(&b, "  %-20s %3d of %4d code lines = %4.1f%% bit manipulation\n",
			st.device, ops, total, share*100)
	}
	return b.String()
}

// envEqual compares two stub environments structurally.
func envEqual(a, b *minic.Env) bool {
	if len(a.Funcs) != len(b.Funcs) || len(a.Consts) != len(b.Consts) {
		return false
	}
	for name, fa := range a.Funcs {
		fb, ok := b.Funcs[name]
		if !ok || fa.Result != fb.Result || len(fa.Params) != len(fb.Params) {
			return false
		}
		for i := range fa.Params {
			if fa.Params[i] != fb.Params[i] {
				return false
			}
		}
	}
	for name, ta := range a.Consts {
		if tb, ok := b.Consts[name]; !ok || ta != tb {
			return false
		}
	}
	return true
}

// FormatTable renders rows in the paper's Table 1 layout.
func FormatTable(rows []Row) string {
	var b strings.Builder
	fmt.Fprintf(&b, "%-20s %-14s %6s %6s %9s %11s %11s %8s\n",
		"Device", "Language", "Lines", "Sites", "Mut/site", "Undet/site", "SitesUndet", "RatioC")
	line := func(dev, lang string, r Result, ratio float64) {
		rs := "-"
		if ratio > 0 {
			rs = fmt.Sprintf("%.1f", ratio)
		}
		fmt.Fprintf(&b, "%-20s %-14s %6d %6d %9.1f %11.1f %11.1f %8s\n",
			dev, lang, r.Lines, r.Sites, r.MutantsPerSite(), r.UndetectedPerSite(), r.SitesWithUndetected(), rs)
	}
	for _, row := range rows {
		line(row.Device, "C", row.C, 0)
		line("", "Devil", row.Devil, 0)
		line("", "C_Devil", row.CDevil, row.RatioCDevil())
		line("", "Devil+C_Devil", row.Combined(), row.RatioCombined())
		b.WriteString("\n")
	}
	return b.String()
}
