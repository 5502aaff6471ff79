package main

import (
	"encoding/json"
	"fmt"
	"os"
	"strings"
)

// def names one metric as BENCHMARK.json lists it.
type def struct {
	Name   string `json:"name"`
	Unit   string `json:"unit"`
	Better string `json:"better"`
}

// endToEnd are the metrics every workload reports on an untraced run. Each
// must mean something on every workload and never read 0, so the
// workload-specific throughputs share one name: work_per_s counts
// simulated port/MMIO ops (fleet), save→restore→resume cycles
// (checkpoint) or Table 1 mutant verdicts (toolchain) per wall second.
var endToEnd = []def{
	{"setup_s", "s", "lower"},
	{"alloc_mb", "MiB", "lower"},
	{"work_per_s", "1/s", "higher"},
}

// The layer vocabularies the per-layer names expand over.
var (
	probeChips  = []string{"busmouse", "ide", "ne2000", "permedia2", "pic8259", "dma8237", "cs4236"}
	farmChips   = []string{"ide", "permedia2", "pic8259", "dma8237", "cs4236"}
	fleetKinds  = []string{"ide", "fill2", "fill64", "snd"}
	kindSteps   = map[string][]string{"ide": {"init", "read"}, "fill2": {"init", "draw"}, "fill64": {"init", "draw"}, "snd": {"init", "start", "rev", "finish"}}
	phases      = []string{"init", "read.dma", "fillrect", "play.arm", "play.isr", "play.start", "play.stop", "unattributed"}
	snapKinds   = []string{"ide", "gfx", "snd"}
	snapParts   = []string{"ram", "ide-sim", "permedia2-sim", "cs4236-sim", "driver", "other"}
	compilerOps = []string{"parser.parse_us", "sema.resolve_us", "lint.check_us", "ir.analyze_us", "codegen.generate_us"}
	studyNames  = []string{"busmouse", "ide", "ne2000", "pic8259", "dma8237", "cs4236", "piix4", "permedia2"}
	selfLayers  = []string{"bus", "sim", "gen", "exec", "drivers", "farm", "snap", "obs", "compiler", "mutation", "runtime", "bench"}
	// topVars are ten fixed .dil accessors of the fleet mix: the two with the
	// most observer-attributed wall time, both co-tenant setter pairs that
	// setter fusion targets (logic_op+logic_op_enable, fb_depth+dither) plus
	// render, and the heaviest of the IDE, busmaster and codec drivers. A
	// measured top ten would reorder from run to run: seventeen Permedia2
	// setters tie in the fill path.
	topVars = []string{
		"permedia2.fifo_space.get", "permedia2.render.set", "permedia2.logic_op.set",
		"permedia2.logic_op_enable.set", "permedia2.fb_depth.set", "permedia2.dither.set",
		"ide_disk.ide_status.read", "piix4_busmaster.bm_status.read", "cs4236.pi.get",
		"dma8237.dma_status.read",
	}
)

// perLayer lists the metrics of a traced run, in BENCHMARK.json order.
// Timings of a layer the workload does not drive come from the probes (see
// probeAll); a count, ratio or share the workload does not produce reads 0
// (see idleMetrics).
func perLayer() []def {
	var ds []def
	add := func(name, unit, better string) { ds = append(ds, def{name, unit, better}) }
	dist := func(prefix, unit string) {
		add(prefix+".p50", unit, "lower")
		add(prefix+".p99", unit, "lower")
		add(prefix+".n", "count", "higher")
	}
	add("bus.port_ns", "ns", "lower")
	add("bus.ops", "count", "lower")
	add("bus.block_units", "count", "lower")
	for _, c := range probeChips {
		add("sim."+c+".port_ns", "ns", "lower")
	}
	for _, c := range farmChips {
		add("sim."+c+".new_us", "us", "lower")
	}
	for _, c := range farmChips {
		add("sim."+c+".wall_ms", "ms", "lower")
	}
	add("gen.call_ns", "ns", "lower")
	add("exec.call_ns", "ns", "lower")
	add("exec.link_us", "us", "lower")
	for _, k := range fleetKinds {
		for _, s := range kindSteps[k] {
			add("drivers.step_us."+k+"."+s, "us", "lower")
		}
	}
	for _, p := range phases {
		add("drivers.phase_ms."+p, "ms", "lower")
	}
	for _, v := range topVars {
		add("drivers.var_ms."+v, "ms", "lower")
	}
	for _, v := range []string{"hand", "devil"} {
		for _, k := range fleetKinds {
			add("drivers.ops_per_mb."+v+"."+k, "ops/MB", "lower")
		}
	}
	dist("farm.new_us", "us")
	for _, k := range fleetKinds {
		dist("farm.run_ms."+k, "ms")
	}
	add("farm.scaling", "ratio", "higher")
	dist("farm.snapshot_us", "us")
	dist("farm.restore_us", "us")
	for _, k := range snapKinds {
		add("snap.host_kb."+k, "KiB", "lower")
	}
	for _, p := range snapParts {
		add("snap.part_kb."+p, "KiB", "lower")
	}
	add("scanner.tokens_per_s", "tokens/s", "higher")
	for _, n := range compilerOps {
		add(n, "us", "lower")
	}
	for _, d := range studyNames {
		add("mutation.study_s."+d, "s", "lower")
	}
	for _, c := range []string{"c", "devil", "cdevil"} {
		add("mutation.mutants."+c, "count", "higher")
	}
	add("mutation.undetected_frac", "frac", "lower")
	add("minic.lex_us", "us", "lower")
	add("minic.check_us", "us", "lower")
	add("runtime.gc_cycles", "count", "lower")
	add("runtime.gc_pause_ms", "ms", "lower")
	add("runtime.heap_peak_mb", "MiB", "lower")
	add("obs.trace_overhead_frac", "frac", "lower")
	for _, l := range selfLayers {
		add("self."+l, "frac", "lower")
	}
	add(shareCheckpoint, "frac", "lower")
	add(shareToolchain, "frac", "lower")
	return ds
}

// The span self-time shares of the work each workload was chosen for:
// farm.New, Snapshot and RestoreHost together on checkpoint, the study
// stage on toolchain.
const (
	shareCheckpoint = "share.checkpoint.new_snapshot_restore"
	shareToolchain  = "share.toolchain.study"
)

// idleMetrics lists the per-layer counts, ratios and shares that describe
// traffic the workload does not make; a traced run of it reports them as 0.
// Every other per-layer metric the run must produce itself.
func idleMetrics(workload string) []string {
	var opsPerMB []string
	for _, v := range []string{"hand", "devil"} {
		for _, k := range fleetKinds {
			opsPerMB = append(opsPerMB, "drivers.ops_per_mb."+v+"."+k)
		}
	}
	switch workload {
	case "fleet":
		return []string{shareCheckpoint, shareToolchain}
	case "checkpoint":
		return append(opsPerMB, "farm.scaling", shareToolchain)
	}
	return append(opsPerMB, "farm.scaling", shareCheckpoint)
}

// storeShares stores the CPU profile's share of every layer; a layer the
// profile never sampled has share 0.
func storeShares(values map[string]float64, shares map[string]float64) {
	for _, l := range selfLayers {
		values["self."+l] = shares[l]
	}
}

// checkCatalogue verifies that BENCHMARK.json lists exactly the metrics
// this program reports, with the same units and directions.
func checkCatalogue(path string) error {
	data, err := os.ReadFile(path)
	if err != nil {
		return err
	}
	var bj struct {
		EndToEnd []def `json:"end_to_end"`
		PerLayer []def `json:"per_layer"`
	}
	if err := json.Unmarshal(data, &bj); err != nil {
		return fmt.Errorf("%s: %w", path, err)
	}
	var diffs []string
	compare := func(section string, got, want []def) {
		g := map[string]def{}
		for _, d := range got {
			g[d.Name] = d
		}
		for _, d := range want {
			if gd, ok := g[d.Name]; !ok {
				diffs = append(diffs, fmt.Sprintf("%s lacks %s (%s, %s)", section, d.Name, d.Unit, d.Better))
			} else if gd.Unit != d.Unit || gd.Better != d.Better {
				diffs = append(diffs, fmt.Sprintf("%s lists %s as (%s, %s), want (%s, %s)", section, d.Name, gd.Unit, gd.Better, d.Unit, d.Better))
			}
			delete(g, d.Name)
		}
		for n := range g {
			diffs = append(diffs, fmt.Sprintf("%s lists %s, which this program does not report", section, n))
		}
	}
	compare("end_to_end", bj.EndToEnd, endToEnd)
	compare("per_layer", bj.PerLayer, perLayer())
	if len(diffs) > 0 {
		return fmt.Errorf("%s disagrees with the program:\n  %s", path, strings.Join(diffs, "\n  "))
	}
	return nil
}
