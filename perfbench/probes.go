package main

import (
	"fmt"
	"math/rand"
	"slices"
	"strings"
	"time"

	"repro/internal/bus"
	"repro/internal/core"
	"repro/internal/devil/codegen"
	"repro/internal/devil/ir"
	"repro/internal/devil/lint"
	"repro/internal/devil/parser"
	"repro/internal/devil/scanner"
	"repro/internal/devil/sema"
	snddrv "repro/internal/drivers/sound"
	"repro/internal/farm"
	"repro/internal/gen"
	genbm "repro/internal/gen/busmouse"
	"repro/internal/minic"
	"repro/internal/mutation"
	"repro/internal/specs"
)

// The ladder probes time one rung of the stack at a time, from outside,
// through public functions only: a bus port op, a simulator handler, a
// stub call against the same interpreter call, the compiler passes, the
// mini-C checker, and snapshot sizes. Every traced run takes them, so each
// workload's per-layer report carries the same ladder.

// probeReps is how many times each probe repeats; probes report medians.
const probeReps = 5

// nsPer times fn(n) probeReps times and returns the median ns per unit.
func nsPer(n int, fn func(n int)) float64 {
	var xs []float64
	for r := 0; r < probeReps; r++ {
		t := time.Now()
		fn(n)
		xs = append(xs, float64(time.Since(t))/float64(n))
	}
	return median(xs)
}

// probeAll takes every ladder probe. own names the workload being run:
// the layers that workload drives itself (the fleet's steps and observer,
// checkpoint's save and restore, toolchain's study) are probed on the
// other two with a small fixed run of the same code, so no timing is left
// unmeasured on any workload. Checks the probe runs make count in out.
func probeAll(out *outcome, own string) error {
	v := out.values
	if own != "fleet" {
		if err := probeFleet(out); err != nil {
			return err
		}
	}
	if own != "checkpoint" {
		if err := probeCheckpoint(out); err != nil {
			return err
		}
	}
	if own != "toolchain" {
		if err := probeStudy(out); err != nil {
			return err
		}
	}
	probeBus(v)
	probeSims(v)
	if err := probeCalls(v); err != nil {
		return err
	}
	if err := probeCompiler(v); err != nil {
		return err
	}
	probeMinic(v)
	return probeSnapshots(v)
}

// probeFleet steps a hand and a devil host of each fleet kind, sized at
// the middle of the fleet's ranges, through three traced passes.
func probeFleet(out *outcome) error {
	f := &fleetRun{out: out}
	cfg := snddrv.Config{Rate: 22050, RingBytes: 2048}
	for _, h := range []fleetHost{
		{"ide", farm.WorkloadSpec{Kind: farm.IDE, Sectors: 1024}, 1024 * 512},
		{"fill2", farm.WorkloadSpec{Kind: farm.Gfx, Size: 2, Rects: 2000}, 2000 * 4},
		{"fill64", farm.WorkloadSpec{Kind: farm.Gfx, Size: 64, Rects: 64}, 64 * 64 * 64},
		{"snd", farm.WorkloadSpec{Kind: farm.Sound, Sound: cfg, Revs: 12}, 12 * 2048},
	} {
		for _, variant := range []farm.Variant{farm.Hand, farm.Devil} {
			h.spec.Variant = variant
			f.plan = append(f.plan, h)
		}
	}
	f.build()
	// A fresh devil IDE host issues three more ops on its first run than on
	// later ones, so the reference the traced passes must match is a rerun.
	for i := 0; i < 2; i++ {
		r := farm.RunFleet(f.hosts, fleetWorkers)
		f.checkPass(r.Hosts, nil)
		f.firstTimed = r.Hosts
	}
	_, _, _, err := f.traced(0, 3)
	return err
}

// probeCheckpoint runs three rounds of checkpoint cycles drawn from seed 1.
func probeCheckpoint(out *outcome) error {
	c := &ckptRun{cfg: config{seed: 1}, out: out, order: rand.New(rand.NewSource(1)), recordLatencies: true}
	if err := c.setup(); err != nil {
		return err
	}
	for i := 0; i < 3; i++ {
		if _, err := c.round(nil, true); err != nil {
			return err
		}
	}
	c.latencies()
	return nil
}

// probeStudy runs the Table 1 study of every device once.
func probeStudy(out *outcome) error {
	rows := map[string]mutation.Row{}
	for _, name := range studyNames {
		t := time.Now()
		r, err := studyRow(name)
		if err != nil {
			return err
		}
		out.values["mutation.study_s."+name] = time.Since(t).Seconds()
		out.attempted++
		if err := checkTable1(r); err != nil {
			out.fail(err)
		}
		rows[name] = r
	}
	studyCounts(out.values, rows)
	return nil
}

// ramSpace returns a space with a small RAM mapped at 0.
func ramSpace(mmio bool) *bus.Space {
	costs := bus.DefaultPortCosts()
	if mmio {
		costs = bus.DefaultMemCosts()
	}
	s := bus.NewSpace("probe", &bus.Clock{}, costs)
	s.MustMap(0, 16, bus.NewRAM(16))
	return s
}

// probeBus times an In8+Out8 pair on a bus.RAM.
func probeBus(v map[string]float64) {
	s := ramSpace(false)
	v["bus.port_ns"] = nsPer(200000, func(n int) {
		for i := 0; i < n; i++ {
			s.Out8(1, uint8(i))
			s.In8(1)
		}
	})
}

// readNS times one read of port on s: In32 on a memory-mapped space, In8
// on a port space.
func readNS(s *bus.Space, port uint32, mmio bool) float64 {
	return nsPer(100000, func(n int) {
		for i := 0; i < n; i++ {
			if mmio {
				s.In32(port)
			} else {
				s.In8(port)
			}
		}
	})
}

// probeSims times, per chip, one read at the base of its first register
// window minus the same read on a RAM (the bus's share), and the chip's
// construction through gen.Devices.
func probeSims(v map[string]float64) {
	ramNS := map[bool]float64{false: readNS(ramSpace(false), 1, false), true: readNS(ramSpace(true), 1, true)}
	for _, d := range gen.Devices {
		costs := bus.DefaultPortCosts()
		if d.MMIO {
			costs = bus.DefaultMemCosts()
		}
		if slices.Contains(probeChips, d.Name) {
			clk := &bus.Clock{}
			s := bus.NewSpace("probe", clk, costs)
			d.NewSim(clk, s)
			v["sim."+d.Name+".port_ns"] = readNS(s, d.Windows[0].Base, d.MMIO) - ramNS[d.MMIO]
		}
		if slices.Contains(farmChips, d.Name) {
			var xs []float64
			for r := 0; r < 4*probeReps; r++ {
				clk := &bus.Clock{}
				s := bus.NewSpace("probe", clk, costs)
				t := time.Now()
				d.NewSim(clk, s)
				xs = append(xs, float64(time.Since(t))/1e3)
			}
			v["sim."+d.Name+".new_us"] = median(xs)
		}
	}
}

// probeCalls times the busmouse signature register written and read back
// through the generated stub and through the exec interpreter, per call,
// and core.Link for the two interpreted devices of the toolchain workload.
func probeCalls(v map[string]float64) error {
	bmSpace := func() *bus.Space {
		clk := &bus.Clock{}
		s := bus.NewSpace("io", clk, bus.DefaultPortCosts())
		gen.Devices[0].NewSim(clk, s)
		return s
	}
	stub := genbm.New(bmSpace(), 0x23c)
	v["gen.call_ns"] = nsPer(100000, func(n int) {
		for i := 0; i < n; i++ {
			stub.SetSignature(uint8(i))
			stub.Signature()
		}
	}) / 2
	spec, err := core.Compile(specs.Busmouse)
	if err != nil {
		return err
	}
	dev, err := core.Link(spec, bmSpace(), map[string]uint32{"base": 0x23c}, core.Options{})
	if err != nil {
		return err
	}
	var callErr error
	v["exec.call_ns"] = nsPer(100000, func(n int) {
		for i := 0; i < n; i++ {
			if err := dev.Set("signature", int64(uint8(i))); err != nil {
				callErr = err
			}
			if _, err := dev.Get("signature"); err != nil {
				callErr = err
			}
		}
	}) / 2
	if callErr != nil {
		return callErr
	}
	devs, err := interpDevicesFor()
	if err != nil {
		return err
	}
	var xs []float64
	for r := 0; r < 4*probeReps; r++ {
		for _, d := range devs {
			s, _ := d.wire()
			t := time.Now()
			if _, err := core.Link(d.spec, s, d.entry.Ports, core.Options{}); err != nil {
				return err
			}
			xs = append(xs, float64(time.Since(t))/1e3)
		}
	}
	v["exec.link_us"] = median(xs)
	return nil
}

// probeCompiler runs stage 1 of the toolchain workload probeReps times
// under spans and reports each pass per specification.
func probeCompiler(v map[string]float64) error {
	tr := newTracer(time.Now())
	tokens := 0
	for r := 0; r < probeReps; r++ {
		for i, stub := range gen.Library {
			n, _, err := compileSpec(tr, int64(i), stub)
			if err != nil {
				return err
			}
			tokens += n
		}
	}
	trs := []*tracer{tr}
	var scan float64
	for _, d := range durations(trs, "scanner.scan", time.Second) {
		scan += d
	}
	v["scanner.tokens_per_s"] = float64(tokens) / scan
	for _, name := range compilerOps {
		span := strings.TrimSuffix(name, "_us")
		v[name] = median(durations(trs, span, time.Microsecond))
	}
	return nil
}

// compileSpec is one specification through the whole compiler — scan,
// parse, resolve, lint, analyze, generate at -O1 — each pass in a span. It
// returns the token count and the generated stub.
func compileSpec(tr *tracer, id int64, stub gen.Stub) (int, []byte, error) {
	s := tr.begin("scanner.scan", id)
	toks, errs := scanner.ScanAll(stub.Spec)
	tr.end(s)
	if len(errs) > 0 {
		return 0, nil, fmt.Errorf("%s: %v", stub.Path, errs.Err())
	}
	s = tr.begin("parser.parse", id)
	ast, errs := parser.Parse(stub.Spec)
	tr.end(s)
	if len(errs) > 0 {
		return 0, nil, fmt.Errorf("%s: %v", stub.Path, errs.Err())
	}
	s = tr.begin("sema.resolve", id)
	dev, diags := sema.Resolve(ast)
	tr.end(s)
	if diags.HasErrors() {
		return 0, nil, fmt.Errorf("%s: %v", stub.Path, diags.Err())
	}
	s = tr.begin("lint.check", id)
	warnings := lint.Check(dev)
	tr.end(s)
	if len(warnings) > 0 {
		return 0, nil, fmt.Errorf("%s: library spec has lint findings: %v", stub.Path, warnings.Err())
	}
	s = tr.begin("ir.analyze", id)
	ir.Analyze(dev)
	tr.end(s)
	opts := stub.Opts
	opts.Opt = ir.O1
	s = tr.begin("codegen.generate", id)
	code, err := codegen.Generate(dev, opts)
	tr.end(s)
	if err != nil {
		return 0, nil, fmt.Errorf("%s: %w", stub.Path, err)
	}
	return len(toks), code, nil
}

// cFragments are the Table 1 driver fragments the mini-C probes run on.
var cFragments = []string{
	mutation.BusmouseC, mutation.IdeC, mutation.Ne2000C, mutation.Pic8259C,
	mutation.Dma8237C, mutation.Cs4236C, mutation.Piix4C, mutation.Permedia2C,
}

// probeMinic times minic.Lex and minic.Check per hand-written C fragment,
// the two calls every C mutant verdict makes.
func probeMinic(v map[string]float64) {
	per := func(fn func(src string)) float64 {
		return nsPer(20, func(n int) {
			for i := 0; i < n; i++ {
				for _, src := range cFragments {
					fn(src)
				}
			}
		}) / float64(len(cFragments)) / 1e3
	}
	v["minic.lex_us"] = per(func(src string) { minic.Lex(src) })
	env := minic.CEnv()
	v["minic.check_us"] = per(func(src string) { _ = minic.Check(src, env) })
}

// snapKindSpecs are the canonical small hosts whose snapshots the snap
// probe measures, keyed like snapKinds.
var snapKindSpecs = map[string]farm.WorkloadSpec{
	"ide": {Kind: farm.IDE, Sectors: 64},
	"gfx": {Kind: farm.Gfx, Size: 64, Rects: 32},
	"snd": {Kind: farm.Sound, Sound: snddrv.Config{Rate: 22050, RingBytes: 512}, Revs: 4},
}

// partGroup folds snapshot part names into the groups snap.part_kb reports.
func partGroup(name string) string {
	switch {
	case strings.HasSuffix(name, "-hand"), strings.HasSuffix(name, "-devil"):
		return "driver"
	case name == "ram", name == "ide-sim", name == "permedia2-sim", name == "cs4236-sim":
		return name
	}
	return "other"
}

// probeSnapshots reports the exact snapshot size of a finished canonical
// host per kind (hand and devil averaged) and the mean size of each part
// group over those snapshots, read back with snap.ReadHeader and snap.Part.
func probeSnapshots(v map[string]float64) error {
	sum, count := map[string]float64{}, map[string]float64{}
	for _, kind := range snapKinds {
		for _, variant := range []farm.Variant{farm.Hand, farm.Devil} {
			spec := snapKindSpecs[kind]
			spec.Variant = variant
			h := farm.New(kind, spec)
			if r := h.Run(); r.Err != nil {
				return fmt.Errorf("snapshot probe host %s: %w", kind, r.Err)
			}
			blob, err := h.Snapshot()
			if err != nil {
				return err
			}
			parts, err := hostParts(blob)
			if err != nil {
				return err
			}
			v["snap.host_kb."+kind] += float64(len(blob)) / 1024 / 2
			groups := map[string]float64{}
			for name, p := range parts {
				groups[partGroup(name)] += float64(len(p))
			}
			for g, n := range groups {
				sum[g] += n
				count[g]++
			}
		}
	}
	for g := range sum {
		v["snap.part_kb."+g] = sum[g] / count[g] / 1024
	}
	return nil
}
