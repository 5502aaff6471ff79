package main

import (
	"bytes"
	"fmt"
	"math"
	"math/rand"
	"os"
	"path/filepath"
	"time"

	"repro/internal/bus"
	"repro/internal/core"
	"repro/internal/devil/exec"
	"repro/internal/devil/sema"
	"repro/internal/gen"
	genbm "repro/internal/gen/busmouse"
	gencs "repro/internal/gen/cs4236"
	"repro/internal/mutation"
	"repro/internal/sim"
	simbm "repro/internal/sim/busmouse"
	"repro/internal/specs"
)

// The toolchain workload is a closed loop on one goroutine with no farm.
// Each round runs three stages: compile every library specification to its
// stub, drive two devices through the exec interpreter against their
// simulators, and run the Table 1 mutation study over every device.
const (
	toolchainSetupBatch = 300  // set-ups per timed batch (see setupTimer)
	compileReps         = 5    // library compilations per round
	scriptSteps         = 1000 // interpreter script iterations per device per round
	allocTolerance      = 1e-4 // relative difference allowed between rounds' heap bytes
)

// studyDevices maps the short device names of the per-layer metrics to the
// Table 1 row names mutation.RunStudy filters on.
var studyDevices = map[string]string{
	"busmouse": "Logitech Busmouse", "ide": "IDE (Intel PIIX4)", "ne2000": "Ethernet (NE2000)",
	"pic8259": "Interrupt (i8259A)", "dma8237": "DMA (i8237A)", "cs4236": "Audio (CS4236B)",
	"piix4": "Busmaster (PIIX4)", "permedia2": "Video (Permedia2)",
}

// interpDevice is a device the interpreter stage drives: its gen.Devices
// entry (canonical ports and simulator) and its compiled specification.
type interpDevice struct {
	entry gen.Device
	spec  *sema.Device
}

// wire builds a fresh simulator on a fresh space at the canonical ports.
func (d interpDevice) wire() (*bus.Space, sim.Device) {
	clk := &bus.Clock{}
	s := bus.NewSpace("io", clk, bus.DefaultPortCosts())
	return s, d.entry.NewSim(clk, s)
}

// interpDevicesFor compiles the busmouse and cs4236 specifications, the
// devices of the quickstart and soundinit access scripts.
func interpDevicesFor() ([]interpDevice, error) {
	var ds []interpDevice
	for _, want := range []struct {
		name string
		src  []byte
	}{{"busmouse", specs.Busmouse}, {"cs4236", specs.CS4236}} {
		spec, err := core.Compile(want.src)
		if err != nil {
			return nil, err
		}
		for _, e := range gen.Devices {
			if e.Name == want.name {
				ds = append(ds, interpDevice{entry: e, spec: spec})
			}
		}
	}
	return ds, nil
}

// mouseStep is one busmouse script iteration: move the mouse, press
// buttons, read the state back.
type mouseStep struct {
	dx, dy  int
	buttons uint8
}

// codecStep is one cs4236 script iteration: write an indexed register and
// an extended register, read both back.
type codecStep struct {
	afe2, ext uint8
	j         int
}

// extRegs are the cs4236 extended registers the ext variable reaches.
var extRegs = []int{0, 1, 2, 3, 4, 5, 6, 7, 8, 9, 10, 11, 12, 13, 14, 15, 16, 17, 25}

type toolchainRun struct {
	cfg     config
	out     *outcome
	refs    [][]byte // the checked-in stubs, in gen.Library order
	devs    []interpDevice
	mouse   []mouseStep
	codec   []codecStep
	studies []string // short device names in seeded order

	// Figures of the last round.
	calls      float64
	compileS   float64
	interpS    float64
	studyS     float64
	mutants    float64
	stats      bus.Stats
	studyRows  map[string]mutation.Row
	firstRows  map[string]mutation.Row
	firstStats bus.Stats
}

func (t *toolchainRun) setup() error {
	t.refs = t.refs[:0]
	for _, s := range gen.Library {
		b, err := os.ReadFile(filepath.FromSlash(s.Path))
		if err != nil {
			return fmt.Errorf("reading the reference stubs (run from the repository root): %w", err)
		}
		t.refs = append(t.refs, b)
	}
	devs, err := interpDevicesFor()
	if err != nil {
		return err
	}
	t.devs = devs
	rng := rand.New(rand.NewSource(t.cfg.seed))
	t.mouse = make([]mouseStep, scriptSteps)
	for i := range t.mouse {
		t.mouse[i] = mouseStep{rng.Intn(15) - 7, rng.Intn(15) - 7, uint8(rng.Intn(8))}
	}
	t.codec = make([]codecStep, scriptSteps)
	for i := range t.codec {
		t.codec[i] = codecStep{uint8(rng.Intn(256)), uint8(rng.Intn(256)), extRegs[rng.Intn(len(extRegs))]}
	}
	t.studies = append(t.studies[:0], studyNames...)
	rng.Shuffle(len(t.studies), func(i, j int) { t.studies[i], t.studies[j] = t.studies[j], t.studies[i] })
	return nil
}

// check counts one checked operation, failing it when err is not nil.
func (t *toolchainRun) check(err error) {
	t.out.attempted++
	if err != nil {
		t.out.fail(err)
	}
}

// round runs the three stages once and returns the mutant verdicts.
func (t *toolchainRun) round(tr *tracer, id int64) (float64, error) {
	start := time.Now()
	stage := tr.begin("toolchain.compile", id)
	for r := 0; r < compileReps; r++ {
		for i, stub := range gen.Library {
			_, code, err := compileSpec(tr, int64(i), stub)
			if err == nil && !bytes.Equal(code, t.refs[i]) {
				err = fmt.Errorf("%s: generated stub differs from the checked-in file", stub.Path)
			}
			t.check(err)
		}
	}
	tr.end(stage)
	t.compileS = time.Since(start).Seconds()

	start = time.Now()
	stage = tr.begin("toolchain.interp", id)
	t.calls = 0
	t.stats = bus.Stats{}
	for _, d := range t.devs {
		if err := t.interpret(tr, id, d); err != nil {
			return 0, err
		}
	}
	tr.end(stage)
	t.interpS = time.Since(start).Seconds()

	start = time.Now()
	stage = tr.begin("toolchain.study", id)
	t.mutants = 0
	t.studyRows = map[string]mutation.Row{}
	for _, name := range t.studies {
		s := tr.begin("mutation.study."+name, id)
		r, err := studyRow(name)
		tr.end(s)
		if err != nil {
			return 0, err
		}
		t.studyRows[name] = r
		t.mutants += float64(r.C.Mutants + r.Devil.Mutants + r.CDevil.Mutants)
		t.check(checkTable1(r))
	}
	tr.end(stage)
	t.studyS = time.Since(start).Seconds()
	return t.mutants, nil
}

// studyRow runs the Table 1 study of one device, by short name.
func studyRow(name string) (mutation.Row, error) {
	rows, err := mutation.RunStudy(studyDevices[name])
	if err == nil && len(rows) != 1 {
		err = fmt.Errorf("study %s: %d rows, want 1", name, len(rows))
	}
	if err != nil {
		return mutation.Row{}, err
	}
	return rows[0], nil
}

// checkTable1 holds a study row to the paper's bounds: fewer than 2
// undetected Devil mutants per site, and a C/C_Devil ratio above 2.
func checkTable1(r mutation.Row) error {
	if ups := r.Devil.UndetectedPerSite(); ups >= 2 {
		return fmt.Errorf("%s: Devil undetected mutants per site %.2f, want < 2", r.Device, ups)
	}
	if ratio := r.RatioCDevil(); ratio <= 2 {
		return fmt.Errorf("%s: C/C_Devil ratio %.2f, want > 2", r.Device, ratio)
	}
	return nil
}

// studyCounts stores the study's exact mutant counts and undetected share.
func studyCounts(v map[string]float64, rows map[string]mutation.Row) {
	var c, d, cd, undetected float64
	for _, r := range rows {
		c += float64(r.C.Mutants)
		d += float64(r.Devil.Mutants)
		cd += float64(r.CDevil.Mutants)
		undetected += float64(r.C.Undetected + r.Devil.Undetected + r.CDevil.Undetected)
	}
	v["mutation.mutants.c"], v["mutation.mutants.devil"], v["mutation.mutants.cdevil"] = c, d, cd
	v["mutation.undetected_frac"] = undetected / (c + d + cd)
}

// interpret runs d's seeded access script through core.Link's interpreter
// and, as the reference, through the generated stub on a twin simulator.
// The values read must match the values the script wrote, the two paths
// must read the same values and issue the same bus operations, and the two
// simulators must end in byte-identical states.
func (t *toolchainRun) interpret(tr *tracer, id int64, d interpDevice) error {
	space, chip := d.wire()
	refSpace, refChip := d.wire()
	s := tr.begin("exec.link", id)
	dev, err := core.Link(d.spec, space, d.entry.Ports, core.Options{})
	tr.end(s)
	if err != nil {
		return err
	}
	var got, want []int64
	s = tr.begin("exec.calls."+d.entry.Name, id)
	switch d.entry.Name {
	case "busmouse":
		got, err = t.mouseScript(dev, chip.(*simbm.Sim))
	case "cs4236":
		got, err = t.codecScript(dev)
	}
	tr.end(s)
	if err != nil {
		return err
	}
	switch d.entry.Name {
	case "busmouse":
		want = t.mouseStub(genbm.New(refSpace, d.entry.Ports["base"]), refChip.(*simbm.Sim))
	case "cs4236":
		want = t.codecStub(gencs.New(refSpace, d.entry.Ports["base"]))
	}
	for i := range want {
		var err error
		if i >= len(got) || got[i] != want[i] {
			err = fmt.Errorf("%s: interpreter read #%d differs from the stub's %d", d.entry.Name, i, want[i])
		}
		t.check(err)
	}
	st, refSt := space.Stats(), refSpace.Stats()
	var stErr error
	if st != refSt {
		stErr = fmt.Errorf("%s: interpreter issued %+v, stub %+v", d.entry.Name, st, refSt)
	}
	t.check(stErr)
	a, errA := chip.MarshalState(nil)
	b, errB := refChip.MarshalState(nil)
	switch {
	case errA != nil:
		stErr = errA
	case errB != nil:
		stErr = errB
	case !bytes.Equal(a, b):
		stErr = fmt.Errorf("%s: simulator state after the interpreter differs from the stub's", d.entry.Name)
	}
	t.check(stErr)
	t.stats.In += st.In
	t.stats.Out += st.Out
	t.stats.BlockIn += st.BlockIn
	t.stats.BlockOut += st.BlockOut
	t.stats.BlockUnits += st.BlockUnits
	return nil
}

// mouseScript is the quickstart flow through the interpreter: configure,
// then per step release the hold, move, and read the state structure. It
// returns every value read, failing a value that differs from the step's.
func (t *toolchainRun) mouseScript(dev *exec.Device, m *simbm.Sim) ([]int64, error) {
	var vals []int64
	call := func(err error) error { t.calls++; return err }
	if err := call(dev.SetSym("config", "CONFIGURATION")); err != nil {
		return nil, err
	}
	for _, st := range t.mouse {
		if err := call(dev.SetSym("interrupt", "ENABLE")); err != nil {
			return nil, err
		}
		m.Move(st.dx, st.dy)
		m.SetButtons(st.buttons)
		if err := call(dev.ReadStruct("mouse_state")); err != nil {
			return nil, err
		}
		for _, name := range []string{"dx", "dy", "buttons"} {
			v, err := dev.Get(name)
			if err := call(err); err != nil {
				return nil, err
			}
			vals = append(vals, v)
		}
		n := len(vals)
		var err error
		if vals[n-3] != int64(st.dx) || vals[n-2] != int64(st.dy) || vals[n-1] != int64(st.buttons) {
			err = fmt.Errorf("busmouse: read (%d,%d,%d) after moving (%d,%d) with buttons %d",
				vals[n-3], vals[n-2], vals[n-1], st.dx, st.dy, st.buttons)
		}
		t.check(err)
	}
	return vals, nil
}

// mouseStub is mouseScript through the generated stub.
func (t *toolchainRun) mouseStub(dev *genbm.Device, m *simbm.Sim) []int64 {
	var vals []int64
	dev.SetConfig(genbm.ConfigCONFIGURATION)
	for _, st := range t.mouse {
		dev.SetInterrupt(genbm.InterruptENABLE)
		m.Move(st.dx, st.dy)
		m.SetButtons(st.buttons)
		dev.ReadMouseState()
		vals = append(vals, int64(dev.Dx()), int64(dev.Dy()), int64(dev.Buttons()))
	}
	return vals
}

// codecScript is the soundinit flow through the interpreter: per step write
// the indexed register afe2 and an extended register, read both back, and
// reset the index register. It fails a value read that differs from the
// value written.
func (t *toolchainRun) codecScript(dev *exec.Device) ([]int64, error) {
	var vals []int64
	call := func(err error) error { t.calls++; return err }
	for _, st := range t.codec {
		if err := call(dev.Set("afe2", int64(st.afe2))); err != nil {
			return nil, err
		}
		if err := call(dev.SetParam("ext", st.j, int64(st.ext))); err != nil {
			return nil, err
		}
		a, err := dev.Get("afe2")
		if err := call(err); err != nil {
			return nil, err
		}
		x, err := dev.GetParam("ext", st.j)
		if err := call(err); err != nil {
			return nil, err
		}
		if err := call(dev.Set("IA", 3)); err != nil {
			return nil, err
		}
		vals = append(vals, a, x)
		err = nil
		if uint8(a) != st.afe2 || uint8(x) != st.ext {
			err = fmt.Errorf("cs4236: read afe2=%#x ext(%d)=%#x after writing %#x and %#x", a, st.j, x, st.afe2, st.ext)
		}
		t.check(err)
	}
	return vals, nil
}

// codecStub is codecScript through the generated stub.
func (t *toolchainRun) codecStub(dev *gencs.Device) []int64 {
	var vals []int64
	for _, st := range t.codec {
		dev.SetAfe2(st.afe2)
		dev.SetExt(st.ext, st.j)
		vals = append(vals, int64(dev.Afe2()), int64(dev.Ext(st.j)))
		dev.SetIA(3)
	}
	return vals
}

func runToolchain(cfg config) (*outcome, error) {
	t := &toolchainRun{cfg: cfg, out: &outcome{values: map[string]float64{}}}
	out, v := t.out, t.out.values
	if err := t.setup(); err != nil {
		return nil, err
	}

	// The timed phase. Every round must repeat the first round's exact
	// figures: the study's counts and the interpreter's bus operations, and
	// within allocTolerance the heap bytes it allocated — unless a CPU
	// profile or the tracer, which allocate too, is running.
	var allocs []uint64
	var rates struct{ compile, interp, study []float64 }
	rounds := 0
	round := func(tr *tracer) func() (float64, error) {
		return func() (float64, error) {
			a := allocBytes()
			work, err := t.round(tr, int64(rounds))
			allocs = append(allocs, allocBytes()-a)
			rounds++
			if err != nil {
				return 0, err
			}
			rates.compile = append(rates.compile, float64(compileReps*len(gen.Library))/t.compileS)
			rates.interp = append(rates.interp, t.calls/t.interpS)
			rates.study = append(rates.study, t.mutants/t.studyS)
			if t.firstRows == nil {
				t.firstRows, t.firstStats = t.studyRows, t.stats
			}
			var err2 error
			for name, r := range t.studyRows {
				if r != t.firstRows[name] {
					err2 = fmt.Errorf("study %s: round %d counts %+v differ from the first round's %+v", name, rounds, r, t.firstRows[name])
				}
			}
			if t.stats != t.firstStats {
				err2 = fmt.Errorf("interpreter bus operations %+v differ from the first round's %+v", t.stats, t.firstStats)
			}
			// The study formats its verdicts through fmt, whose sync.Pool
			// loses its cached printers at each of the round's thousands of
			// collections, so heap bytes repeat only to a few parts per
			// million rather than bit for bit.
			if last := allocs[len(allocs)-1]; !cfg.trace && math.Abs(float64(last)-float64(allocs[0])) > allocTolerance*float64(allocs[0]) {
				err2 = fmt.Errorf("round %d allocated %d bytes, the first %d", rounds, last, allocs[0])
			}
			t.check(err2)
			return work, nil
		}
	}
	gc := newGCWatch()
	var rate float64
	var shares map[string]float64
	var err error
	st := &setupTimer{perBatch: toolchainSetupBatch, setup: func() error { return (&toolchainRun{cfg: cfg}).setup() }}
	if cfg.trace {
		shares, err = cpuProfile(func() error {
			rate, err = timedRate(cfg.seconds, 2, nil, round(nil))
			return err
		})
	} else {
		rate, err = timedRate(cfg.seconds, 2, st, round(nil))
	}
	if err != nil {
		return nil, err
	}
	gc.report(out)
	out.say("alloc_mb (exact)", float64(allocs[0])/mib, "MiB")
	out.say("specs_per_s", median(rates.compile), "specs/s")
	out.say("interp_calls_per_s", median(rates.interp), "calls/s")
	out.say("mutants_per_s", median(rates.study), "mutants/s")
	if !cfg.trace {
		setupS, err := st.seconds()
		if err != nil {
			return nil, err
		}
		out.say("setup_s", setupS, "s")
		v["setup_s"] = setupS
		v["alloc_mb"] = float64(allocs[0]) / mib
		v["work_per_s"] = rate
		return out, nil
	}

	tr := newTracer(time.Now())
	tracedRate, err := timedRate(cfg.seconds, 1, nil, round(tr))
	if err != nil {
		return nil, err
	}
	trs := []*tracer{tr}
	for _, name := range studyNames {
		v["mutation.study_s."+name] = median(durations(trs, "mutation.study."+name, time.Second))
	}
	studyCounts(v, t.firstRows)
	v["bus.ops"] = float64(t.firstStats.Ops())
	v["bus.block_units"] = float64(t.firstStats.BlockUnits)
	self := selfTimes(trs)
	var studySpans []string
	for _, name := range studyNames {
		studySpans = append(studySpans, "mutation.study."+name)
	}
	v[shareToolchain] = selfShare(self, studySpans...)
	v["obs.trace_overhead_frac"] = rate/tracedRate - 1
	storeShares(v, shares)
	out.say("obs.trace_overhead_frac", v["obs.trace_overhead_frac"], "frac")
	path, err := writeSpans(cfg.outDir, "toolchain", cfg.seed, trs)
	if err != nil {
		return nil, err
	}
	out.say("spans written to "+path, float64(len(tr.spans)), "spans")
	if err := probeAll(out, "toolchain"); err != nil {
		return nil, err
	}
	return out, nil
}
