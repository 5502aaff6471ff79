package main

import (
	"fmt"
	"math/rand"
	"runtime"
	"slices"
	"sort"
	"strings"
	"sync"
	"time"

	snddrv "repro/internal/drivers/sound"
	"repro/internal/farm"
	"repro/internal/obs"
	"repro/internal/snap"
)

// The fleet workload is a closed loop: fleetWorkers clients run the hosts
// through farm.RunFleet, and the next pass starts when the last one
// finishes. Every drawn host spec runs twice, as a hand host and as its
// devil twin.
//
// The timed passes run on one worker. On a machine of two shared cores, a
// pass over two workers lasts as long as the slower of them, so its rate
// follows whichever core a neighbour takes, and ten runs of the same code
// spread by a quarter of their median. farm.scaling still compares one
// worker with scalingWorkers.
const (
	fleetWorkers    = 1
	scalingWorkers  = 2
	fleetPerKind    = 8 // host specs drawn per kind, each run hand and devil
	fleetSetupBatch = 1 // set-ups per timed batch (see setupTimer)
)

// fleetHost is one drawn host: its mix kind, its spec, and the payload a
// correct run moves.
type fleetHost struct {
	kind    string // one of fleetKinds
	spec    farm.WorkloadSpec
	payload uint64
}

// soundFormats are the codec formats sound hosts are drawn in.
var soundFormats = []snddrv.Config{
	{Rate: 8000}, {Rate: 11025}, {Rate: 16000, Stereo: true, Bits16: true}, {Rate: 22050},
	{Rate: 22050, Stereo: true, Bits16: true}, {Rate: 32000, Stereo: true}, {Rate: 44100, Stereo: true, Bits16: true}, {Rate: 48000, Bits16: true},
}

// stratified draws n integers from [lo, hi): one uniformly inside each of n
// equal strata, in a seeded order. Stratifying keeps the fleet's totals,
// and so every exact metric, within a narrow band across seeds.
func stratified(rng *rand.Rand, n, lo, hi int) []int {
	vs := make([]int, n)
	w := float64(hi-lo) / float64(n)
	for i := range vs {
		vs[i] = lo + int((float64(i)+rng.Float64())*w)
	}
	rng.Shuffle(n, func(i, j int) { vs[i], vs[j] = vs[j], vs[i] })
	return vs
}

// fleetPlan draws the fleet for a seed: per kind, fleetPerKind specs of
// seeded size, each as a hand and a devil host, in seeded order.
//   - ide: DMA reads of 768–1280 sectors;
//   - fill2: 1500–2500 Permedia2 2×2 fills, bound by port ops;
//   - fill64: 48–80 Permedia2 64×64 fills, bound by the fill engine;
//   - snd: a clip of 16–32 K sample frames (the codec's unit of work)
//     through a 1–4 KiB ring, each stratum in its own one of eight formats,
//     so that frames and bytes both total the same on every seed.
//
// Twins sit side by side, so that RunFleet's host i → worker i%2 split at
// scalingWorkers gives each worker one of every pair and the same share of
// the work; only the order of the pairs, and which twin comes first, is
// drawn.
func fleetPlan(seed int64) []fleetHost {
	rng := rand.New(rand.NewSource(seed))
	var plan []fleetHost
	twin := func(kind string, spec farm.WorkloadSpec, payload uint64) {
		for _, v := range []farm.Variant{farm.Hand, farm.Devil} {
			spec.Variant = v
			plan = append(plan, fleetHost{kind, spec, payload})
		}
	}
	for _, n := range stratified(rng, fleetPerKind, 768, 1280) {
		twin("ide", farm.WorkloadSpec{Kind: farm.IDE, Sectors: n}, uint64(n)*512)
	}
	for _, n := range stratified(rng, fleetPerKind, 1500, 2500) {
		twin("fill2", farm.WorkloadSpec{Kind: farm.Gfx, Size: 2, Rects: n}, uint64(n)*4)
	}
	for _, n := range stratified(rng, fleetPerKind, 48, 80) {
		twin("fill64", farm.WorkloadSpec{Kind: farm.Gfx, Size: 64, Rects: n}, uint64(n)*64*64)
	}
	frames := stratified(rng, fleetPerKind, 16<<10, 32<<10)
	// Sorted, frames[i] lies in stratum i, paired with soundFormats[i].
	sort.Ints(frames)
	rings := stratified(rng, fleetPerKind, 4, 16) // in 256-byte units
	for i, cfg := range soundFormats[:fleetPerKind] {
		cfg.RingBytes = rings[i] * 256
		revs := max(2, (frames[i]*cfg.FrameBytes()+cfg.RingBytes/2)/cfg.RingBytes)
		twin("snd", farm.WorkloadSpec{Kind: farm.Sound, Sound: cfg, Revs: revs}, uint64(cfg.RingBytes*revs))
	}
	pairs := len(plan) / 2
	rng.Shuffle(pairs, func(i, j int) {
		plan[2*i], plan[2*j] = plan[2*j], plan[2*i]
		plan[2*i+1], plan[2*j+1] = plan[2*j+1], plan[2*i+1]
	})
	for i := 0; i < pairs; i++ {
		if rng.Intn(2) == 1 {
			plan[2*i], plan[2*i+1] = plan[2*i+1], plan[2*i]
		}
	}
	return plan
}

// fleetResults are the deterministic figures of one pass over a fleet.
type fleetResults struct {
	alloc   uint64 // heap bytes the pass allocated
	results []farm.Result
}

// sameResult reports whether two runs of a host produced identical
// outcomes; names are not compared, errors must both be nil.
func sameResult(a, b farm.Result) bool {
	return a.Err == nil && b.Err == nil && a.Ops == b.Ops && a.Bytes == b.Bytes && a.VirtNS == b.VirtNS && a.Stats == b.Stats
}

type fleetRun struct {
	cfg   config
	plan  []fleetHost
	hosts []*farm.Host
	newUS []float64 // farm.New wall time of every host built in set-up
	out   *outcome
	// firstTimed are the results of the first timed pass, which every
	// later pass must repeat.
	firstTimed []farm.Result
}

func (f *fleetRun) setup() error {
	f.plan = fleetPlan(f.cfg.seed)
	f.build()
	return nil
}

// build constructs the hosts of f.plan.
func (f *fleetRun) build() {
	f.hosts = make([]*farm.Host, len(f.plan))
	for i, h := range f.plan {
		t := time.Now()
		f.hosts[i] = farm.New(fmt.Sprintf("%s-%s-%d", h.kind, h.spec.Variant, i), h.spec)
		f.newUS = append(f.newUS, float64(time.Since(t))/1e3)
	}
}

// exactPass runs every host serially on this goroutine, the exact
// reference: per-host results do not depend on scheduling, and the heap
// bytes counted exclude the worker pool's own goroutines. The results are
// those of the hosts' first run after set-up.
func (f *fleetRun) exactPass() (fleetResults, error) {
	var r fleetResults
	var err error
	r.alloc, err = exactAlloc(func() error {
		results := make([]farm.Result, 0, len(f.hosts))
		for _, h := range f.hosts {
			results = append(results, h.Run())
		}
		if r.results == nil {
			r.results = results
		}
		return nil
	})
	return r, err
}

// checkPass counts one operation per host run and fails those whose result
// differs from the reference or whose payload is wrong.
func (f *fleetRun) checkPass(got, ref []farm.Result) {
	for i, r := range got {
		f.out.attempted++
		switch {
		case r.Err != nil:
			f.out.fail(fmt.Errorf("host %s: %w", r.Name, r.Err))
		case r.Bytes != f.plan[i].payload:
			f.out.fail(fmt.Errorf("host %s moved %d bytes, want %d", r.Name, r.Bytes, f.plan[i].payload))
		case ref != nil && !sameResult(r, ref[i]):
			f.out.fail(fmt.Errorf("host %s: result %+v differs from the first pass %+v", r.Name, r, ref[i]))
		}
	}
}

func runFleet(cfg config) (*outcome, error) {
	f := &fleetRun{cfg: cfg, out: &outcome{values: map[string]float64{}}}
	out, v := f.out, f.out.values

	// Set-up, with the determinism self-check: the exact pass over the
	// hosts of a first set-up must repeat bit for bit on a second's.
	if err := f.setup(); err != nil {
		return nil, err
	}
	first, err := f.exactPass()
	if err != nil {
		return nil, err
	}
	if err := f.setup(); err != nil {
		return nil, err
	}
	ref, err := f.exactPass()
	if err != nil {
		return nil, err
	}
	f.checkPass(ref.results, first.results)
	out.attempted++
	if ref.alloc != first.alloc {
		out.fail(fmt.Errorf("exact pass allocated %d bytes, then %d on a second set-up", first.alloc, ref.alloc))
	}

	// The timed phase: closed-loop passes through farm.RunFleet. Every pass
	// must reproduce the first pass's per-host results exactly.
	pass := func() (float64, error) {
		r := farm.RunFleet(f.hosts, fleetWorkers)
		if f.firstTimed == nil {
			f.firstTimed = r.Hosts
		}
		f.checkPass(r.Hosts, f.firstTimed)
		return float64(r.Ops), nil
	}
	gc := newGCWatch()
	var rate float64
	var shares map[string]float64
	st := &setupTimer{perBatch: fleetSetupBatch, setup: func() error { return (&fleetRun{cfg: cfg}).setup() }}
	if cfg.trace {
		shares, err = cpuProfile(func() error {
			rate, err = timedRate(cfg.seconds, 1, nil, pass)
			return err
		})
	} else {
		rate, err = timedRate(cfg.seconds, 1, st, pass)
	}
	if err != nil {
		return nil, err
	}
	gc.report(out)
	f.checkSnapshots()

	// The paper's figures from the exact pass: devil hosts' payload per
	// virtual second and port ops per payload MB, hand hosts as baseline.
	perKind := map[string]*[2]float64{} // variant.kind → ops, bytes
	var devilBytes, devilVirt, devilOps float64
	for i, r := range ref.results {
		h := f.plan[i]
		k := h.spec.Variant.String() + "." + h.kind
		if perKind[k] == nil {
			perKind[k] = &[2]float64{}
		}
		perKind[k][0] += float64(r.Ops)
		perKind[k][1] += float64(r.Bytes)
		v["bus.ops"] += float64(r.Stats.Ops())
		v["bus.block_units"] += float64(r.Stats.BlockUnits)
		if h.spec.Variant == farm.Devil {
			devilBytes += float64(r.Bytes)
			devilVirt += float64(r.VirtNS)
			devilOps += float64(r.Ops)
		}
	}
	for k, ob := range perKind {
		v["drivers.ops_per_mb."+k] = ob[0] / (ob[1] / 1e6)
	}
	out.say("alloc_mb (exact)", float64(ref.alloc)/mib, "MiB")
	out.say("sim_ops_per_s", rate, "ops/s")
	out.say("virt_mb_per_s (exact)", devilBytes/(devilVirt/1e9)/1e6, "MB/s")
	out.say("port_ops_per_mb (exact)", devilOps/(devilBytes/1e6), "ops/MB")
	if !cfg.trace {
		setupS, err := st.seconds()
		if err != nil {
			return nil, err
		}
		out.say("setup_s", setupS, "s")
		v["setup_s"] = setupS
		v["alloc_mb"] = float64(ref.alloc) / mib
		v["work_per_s"] = rate
		return out, nil
	}

	tracedRate, trs, rounds, err := f.traced(cfg.seconds, 1)
	if err != nil {
		return nil, err
	}
	v["farm.scaling"] = f.scaling()
	v["obs.trace_overhead_frac"] = rate/tracedRate - 1
	storeShares(v, shares)
	out.say("obs.trace_overhead_frac", v["obs.trace_overhead_frac"], "frac")
	path, err := writeSpans(cfg.outDir, "fleet", cfg.seed, trs)
	if err != nil {
		return nil, err
	}
	out.say("spans written to "+path, float64(rounds), "rounds")
	if err := probeAll(out, "fleet"); err != nil {
		return nil, err
	}
	// After the probes: the checkpoint probe stores its own farm.New times.
	addDist(v, "farm.new_us", f.newUS)
	return out, nil
}

// traced drives the hosts step by step on RunFleet's worker split, with a
// span per host run and per step and a gap observer per host, for at least
// seconds and minRounds passes. It stores the per-step, per-run and
// observer-attributed metrics and returns the traced rate, the tracers and
// the number of passes. A driver phase missing from the catalogue is an
// error: its time would otherwise go unreported.
func (f *fleetRun) traced(seconds float64, minRounds int) (float64, []*tracer, int, error) {
	v := f.out.values
	epoch := time.Now()
	trs := make([]*tracer, fleetWorkers)
	for i := range trs {
		trs[i] = newTracer(epoch)
	}
	gaps := make([]*gapObserver, len(f.hosts))
	for i, h := range f.hosts {
		gaps[i] = &gapObserver{chipOf: chipsOf(f.plan[i].kind), acc: map[gapKey]time.Duration{}}
		h.Observe(gaps[i])
	}
	rounds := 0
	rate, _ := timedRate(seconds, minRounds, nil, func() (float64, error) {
		rounds++
		return f.tracedPass(trs, gaps), nil
	})
	for _, h := range f.hosts {
		h.Observe(nil)
	}
	for _, k := range fleetKinds {
		for _, s := range kindSteps[k] {
			v["drivers.step_us."+k+"."+s] = median(durations(trs, "drivers.step."+k+"."+s, time.Microsecond))
		}
		addDist(v, "farm.run_ms."+k, durations(trs, "farm.run."+k, time.Millisecond))
	}
	for _, g := range gaps {
		for key, d := range g.acc {
			ms := float64(d) / 1e6 / float64(rounds)
			v["sim."+key.chip+".wall_ms"] += ms
			phase := obs.PhaseOf(key.span)
			if phase == "" {
				phase = "unattributed"
			}
			if !slices.Contains(phases, phase) {
				return 0, nil, 0, fmt.Errorf("driver phase %q is not in the catalogue", phase)
			}
			v["drivers.phase_ms."+phase] += ms
			if vr := varOf(key.span); vr != "" {
				v["drivers.var_ms."+vr] += ms
			}
		}
	}
	return rate, trs, rounds, nil
}

// tracedPass runs every host once, split over the workers as RunFleet
// splits them, checks each host issued the ops of its untraced runs, and
// returns the simulated ops.
func (f *fleetRun) tracedPass(trs []*tracer, gaps []*gapObserver) float64 {
	results := make([]farm.Result, len(f.hosts))
	var wg sync.WaitGroup
	for w := range trs {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			tr := trs[w]
			for i := w; i < len(f.hosts); i += len(trs) {
				h, kind := f.hosts[i], f.plan[i].kind
				run := tr.begin("farm.run."+kind, int64(i))
				var err error
				for done := false; !done && err == nil; {
					step := tr.begin("drivers.step."+kind+"."+stepName(h.StepName(h.Pos()%h.Steps())), int64(i))
					gaps[i].last = time.Now()
					done, err = h.StepOnce()
					tr.end(step)
				}
				tr.end(run)
				st := h.Space.Stats()
				results[i] = farm.Result{Name: h.Name, Ops: st.Ops(), Err: err}
			}
		}(w)
	}
	wg.Wait()
	var ops float64
	for i, r := range results {
		f.out.attempted++
		if r.Err != nil {
			f.out.fail(fmt.Errorf("host %s: %w", r.Name, r.Err))
		} else if want := f.firstTimed[i].Ops; r.Ops != want {
			f.out.fail(fmt.Errorf("host %s: %d ops traced, %d untraced", r.Name, r.Ops, want))
		}
		ops += float64(r.Ops)
	}
	return ops
}

// scaling returns the median, over three tries, of RunFleet's wall time at
// one worker divided by its wall time at scalingWorkers, each on a P.
func (f *fleetRun) scaling() float64 {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(scalingWorkers))
	var rs []float64
	for i := 0; i < 3; i++ {
		one := farm.RunFleet(f.hosts, 1)
		many := farm.RunFleet(f.hosts, scalingWorkers)
		f.checkPass(one.Hosts, many.Hosts)
		rs = append(rs, float64(one.WallNS)/float64(many.WallNS))
	}
	return median(rs)
}

// checkSnapshots snapshots every finished host and verifies its output.
func (f *fleetRun) checkSnapshots() {
	for i, h := range f.hosts {
		f.out.attempted++
		blob, err := h.Snapshot()
		if err == nil {
			err = fleetSnapshotCheck(f.plan[i], blob)
		}
		if err != nil {
			f.out.fail(fmt.Errorf("host %s: %w", h.Name, err))
		}
	}
}

// fleetSnapshotCheck verifies a finished host's output from its snapshot:
// IDE memory must hold the disk pattern, the Permedia2 framebuffer the last
// fill in its top-left square and zero elsewhere.
func fleetSnapshotCheck(h fleetHost, blob []byte) error {
	parts, err := hostParts(blob)
	if err != nil {
		return err
	}
	switch h.kind {
	case "ide":
		r, err := snap.NewReader(parts["ram"], "ram")
		if err != nil {
			return err
		}
		mem := r.Bytes()
		if err := r.Err(); err != nil {
			return err
		}
		// The farm's IDE hosts DMA every command into one buffer at 0x10000,
		// and one READ DMA moves at most 256 sectors (its sector count is 8
		// bits), so the buffer ends up holding each command's data over the
		// previous one's.
		const dmaAddr, perCommand = 0x10000, 256
		want := make([]byte, min(h.spec.Sectors, perCommand)*512)
		for lba := 0; lba < h.spec.Sectors; lba += perCommand {
			for j := 0; j < min(h.spec.Sectors-lba, perCommand)*512; j++ {
				i := lba*512 + j
				want[j] = byte((i / 512) ^ (i * 7))
			}
		}
		if len(mem) < dmaAddr+len(want) {
			return fmt.Errorf("ide: %d bytes of RAM, want at least %d", len(mem), dmaAddr+len(want))
		}
		for j, b := range want {
			if mem[dmaAddr+j] != b {
				return fmt.Errorf("ide: RAM[%#x]=%#x, want %#x", dmaAddr+j, mem[dmaAddr+j], b)
			}
		}
	case "fill2", "fill64":
		r, err := snap.NewReader(parts["permedia2-sim"], "permedia2-sim")
		if err != nil {
			return err
		}
		width := int(r.U32())
		r.U32() // height
		fb := r.Bytes()
		if err := r.Err(); err != nil {
			return err
		}
		size, color := h.spec.Size, byte(h.spec.Rects-1)
		for i, b := range fb {
			x, y := i%width, i/width
			want := byte(0)
			if x < size && y < size {
				want = color
			}
			if b != want {
				return fmt.Errorf("permedia2: framebuffer byte %d (x=%d y=%d) is %#x, want %#x", i, x, y, b, want)
			}
		}
	}
	return nil
}

// hostParts splits a farm host snapshot into its part blobs by name.
func hostParts(blob []byte) (map[string][]byte, error) {
	hd, payload, _, err := snap.ReadHeader(blob)
	if err != nil {
		return nil, err
	}
	if hd.Name != "host" {
		return nil, fmt.Errorf("snapshot is %q, want host", hd.Name)
	}
	parts := map[string][]byte{}
	for len(payload) > 0 {
		part, rest, err := snap.Part(payload)
		if err != nil {
			return nil, err
		}
		phd, _, _, err := snap.ReadHeader(part)
		if err != nil {
			return nil, err
		}
		parts[phd.Name] = part
		payload = rest
	}
	return parts, nil
}

// gapObserver attributes wall time to bus events: each event is charged the
// gap since the previous event of its host (or since the step began), keyed
// by the chip it hit and the driver span active when it fired. One observer
// serves one host, which runs on one goroutine.
type gapObserver struct {
	chipOf map[string]string // event Source → chip
	last   time.Time
	acc    map[gapKey]time.Duration
}

type gapKey struct{ chip, span string }

func (o *gapObserver) Observe(e obs.Event) {
	now := time.Now()
	o.acc[gapKey{o.chipOf[e.Source], e.Span}] += now.Sub(o.last)
	o.last = now
}

// varOf returns the innermost .dil accessor ("dev.var.op") of a span, or "".
func varOf(span string) string {
	seg := span[strings.LastIndexByte(span, '/')+1:]
	if strings.Count(seg, ".") == 2 {
		return seg
	}
	return ""
}

// chipsOf maps a host's event sources to chip names: the farm maps the IDE
// and Permedia2 models unnamed, so their events carry the space name.
func chipsOf(kind string) map[string]string {
	switch kind {
	case "ide":
		return map[string]string{"io": "ide"}
	case "fill2", "fill64":
		return map[string]string{"mmio": "permedia2"}
	}
	return map[string]string{"cs4236": "cs4236", "dma8237": "dma8237", "pic8259": "pic8259"}
}

// stepName folds the sound workload's numbered revolutions into one step.
func stepName(s string) string {
	if strings.HasPrefix(s, "rev") {
		return "rev"
	}
	return s
}
