package mutation

import (
	"strings"
	"testing"

	"repro/internal/core"
	"repro/internal/minic"
	"repro/internal/specs"
)

func TestMutateNumber(t *testing.T) {
	ms := mutate(Site{Text: "121", Class: ClassNumber})
	// The paper's example: a two-digit number yields 50 mutants; three
	// digits yield 2-3 deletions + 40 insertions + 27 replacements minus
	// value-preserving ones.
	if len(ms) < 40 {
		t.Errorf("mutants of 121 = %d, want >= 40", len(ms))
	}
	for _, m := range ms {
		if m == "121" {
			t.Error("original among mutants")
		}
		if v, ok := numValue2(m); ok && v == 121 {
			t.Errorf("value-preserving mutant %q", m)
		}
	}
}

func TestMutateHexKeepsPrefix(t *testing.T) {
	for _, m := range mutate(Site{Text: "0x1f", Class: ClassNumber}) {
		if !strings.HasPrefix(m, "0x") {
			t.Errorf("hex mutant %q lost its prefix", m)
		}
	}
}

func TestMutateIdentStaysIdent(t *testing.T) {
	for _, m := range mutate(Site{Text: "dx", Class: ClassIdent}) {
		if m == "" || m[0] >= '0' && m[0] <= '9' {
			t.Errorf("mutant %q is not a valid identifier", m)
		}
	}
}

func TestMutateOperator(t *testing.T) {
	ms := mutate(Site{Text: "||", Class: ClassOp})
	found := false
	for _, m := range ms {
		if m == "|" {
			found = true
		}
	}
	if !found {
		t.Error("|| should mutate to | (the paper's example)")
	}
}

func TestMutateBits(t *testing.T) {
	ms := mutate(Site{Text: "10.", Class: ClassBits})
	if len(ms) == 0 {
		t.Fatal("no bit-pattern mutants")
	}
	for _, m := range ms {
		for _, c := range m {
			if !strings.ContainsRune("01.*-", c) {
				t.Errorf("mutant %q has invalid bit char %q", m, c)
			}
		}
	}
}

func TestSitesForC(t *testing.T) {
	src := `#define P 0x23c
int x;
x = inb(P) & 0xf;`
	sites := SitesForC(src)
	// P, 0x23c, x, x, =, inb, P, &, 0xf  (int/define keywords and
	// punctuation excluded)
	if len(sites) != 9 {
		var texts []string
		for _, s := range sites {
			texts = append(texts, s.Text)
		}
		t.Fatalf("sites = %v", texts)
	}
	for _, s := range sites {
		if src[s.Pos:s.Pos+len(s.Text)] != s.Text {
			t.Errorf("site %q misplaced", s.Text)
		}
	}
}

func TestRunCountsDetection(t *testing.T) {
	// A fragment where mutating the identifier is always detected
	// (undeclared) but mutating the number never is.
	src := `int abcd;
abcd = 7;`
	res := RunC(src, minic.Lex(src), minic.CEnv())
	if res.Sites != 4 { // abcd (declaration), abcd (use), =, 7
		t.Fatalf("sites = %d", res.Sites)
	}
	if res.Undetected == 0 || res.Undetected >= res.Mutants {
		t.Errorf("undetected = %d of %d, expected a strict subset", res.Undetected, res.Mutants)
	}
	if res.Lines != 2 {
		t.Errorf("lines = %d", res.Lines)
	}
}

func TestResultMath(t *testing.T) {
	r := Result{Sites: 62, Mutants: 2269, Undetected: 1662}
	if got := r.MutantsPerSite(); got < 36.5 || got > 36.7 {
		t.Errorf("mutants/site = %.2f", got)
	}
	if got := r.UndetectedPerSite(); got < 26.7 || got > 26.9 {
		t.Errorf("undetected/site = %.2f", got)
	}
	if got := r.SitesWithUndetected(); got < 45.3 || got > 45.5 {
		t.Errorf("sites with undetected = %.2f", got)
	}
}

func TestBitOpShare(t *testing.T) {
	ops, lines, share := BitOpShare("int x;\nx = a & 0xf;\nx = 1;\n")
	if ops != 1 || lines != 3 {
		t.Errorf("ops=%d lines=%d", ops, lines)
	}
	if share < 0.3 || share > 0.4 {
		t.Errorf("share = %.2f", share)
	}
	// The paper's §1 order of magnitude on the real fragments.
	for _, src := range []string{BusmouseC, IdeC, Ne2000C, Pic8259C, Dma8237C, Cs4236C} {
		_, _, s := BitOpShare(src)
		if s < 0.10 || s > 0.45 {
			t.Errorf("bit-op share %.2f outside the plausible band", s)
		}
	}
	if _, _, s := BitOpShare(""); s != 0 {
		t.Errorf("empty share = %v", s)
	}
}

// TestStudyBusmouse runs the complete Table 1 experiment for the busmouse
// and checks the paper's qualitative claims.
func TestStudyBusmouse(t *testing.T) {
	r := studyRow(t, "busmouse")

	// Devil specification mutants are nearly always detected.
	if ups := r.Devil.UndetectedPerSite(); ups > 2.0 {
		t.Errorf("Devil undetected/site = %.1f, want < 2.0", ups)
	}
	// C is several times more prone to undetected errors than C_Devil.
	if ratio := r.RatioCDevil(); ratio < 2.0 {
		t.Errorf("C/C_Devil ratio = %.1f, want > 2", ratio)
	}
	// And still more than the combined Devil+C_Devil system.
	if ratio := r.RatioCombined(); ratio < 1.3 {
		t.Errorf("C/(Devil+C_Devil) ratio = %.1f, want > 1.3", ratio)
	}
	// The Devil spec offers more mutation sites than the C fragment uses
	// (the spec describes the whole device).
	if r.Devil.Sites+r.CDevil.Sites <= r.CDevil.Sites {
		t.Error("site accounting broken")
	}
}

func TestStudyAllDevicesOrdering(t *testing.T) {
	if testing.Short() {
		t.Skip("full mutation study in -short mode")
	}
	rows := studyRows(t)
	if len(rows) != 8 {
		t.Fatalf("rows = %d, want one per library device (all 8 in the study)", len(rows))
	}
	for _, r := range rows {
		if r.C.UndetectedPerSite() <= r.CDevil.UndetectedPerSite() {
			t.Errorf("%s: C should have more undetected errors per site than C_Devil", r.Device)
		}
		if r.Devil.UndetectedPerSite() > 2.0 {
			t.Errorf("%s: Devil undetected/site = %.1f", r.Device, r.Devil.UndetectedPerSite())
		}
		if r.RatioCDevil() < 2.0 {
			t.Errorf("%s: ratio = %.1f", r.Device, r.RatioCDevil())
		}
	}
	// The table renders, new devices included.
	out := FormatTable(rows)
	for _, want := range []string{
		"Ethernet (NE2000)", "Interrupt (i8259A)", "DMA (i8237A)",
		"Audio (CS4236B)", "Busmaster (PIIX4)", "Video (Permedia2)",
		"Devil+C_Devil",
	} {
		if !strings.Contains(out, want) {
			t.Errorf("table formatting missing %q", want)
		}
	}
}

// TestStudyNewDevices runs the devices added after the initial study
// (interrupt controller, DMA engine, audio codec, standalone busmaster,
// graphics controller) individually, so the short test suite still covers
// all 8 library devices.
func TestStudyNewDevices(t *testing.T) {
	for _, dev := range []string{"i8259", "i8237", "CS4236", "Busmaster", "Permedia2"} {
		r := studyRow(t, dev)
		if ratio := r.RatioCDevil(); ratio < 2.0 {
			t.Errorf("%s: C/C_Devil ratio = %.1f, want > 2", r.Device, ratio)
		}
		if ups := r.Devil.UndetectedPerSite(); ups > 2.0 {
			t.Errorf("%s: Devil undetected/site = %.1f, want < 2.0", r.Device, ups)
		}
	}
}

// TestStubEnvParameterizedFamily: the cs4236 ext family stubs take the
// register index as a compile-time-checked leading argument, so an
// out-of-domain index is a detected error.
func TestStubEnvParameterizedFamily(t *testing.T) {
	dev, err := core.Compile(specs.CS4236)
	if err != nil {
		t.Fatal(err)
	}
	env := StubEnv("cs", dev)
	fn, ok := env.Funcs["cs_set_ext"]
	if !ok {
		t.Fatal("cs_set_ext missing from the stub environment")
	}
	if len(fn.Params) != 2 {
		t.Fatalf("cs_set_ext has %d params, want index + value", len(fn.Params))
	}
	if !fn.Params[0].Bounded || fn.Params[0].Hi != 25 {
		t.Errorf("index param = %+v, want bounded by the {0..17, 25} domain", fn.Params[0])
	}
	if fn.Params[0].Ranges != "0-17,25" {
		t.Errorf("index ranges = %q, want the canonical domain union", fn.Params[0].Ranges)
	}
	if err := minic.Check("cs_set_ext(25, 0x3f);", env); err != nil {
		t.Errorf("in-domain index rejected: %v", err)
	}
	if err := minic.Check("cs_set_ext(26, 0x3f);", env); err == nil {
		t.Error("out-of-bounds index accepted")
	}
	// The domain has a hole between 17 and 25: indices inside it are
	// rejected exactly as the generated stub's §3.2 check would.
	if err := minic.Check("cs_set_ext(20, 0x3f);", env); err == nil {
		t.Error("in-hole index accepted")
	}
}
