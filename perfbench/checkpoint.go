package main

import (
	"fmt"
	"math/rand"
	"time"

	"repro/internal/farm"
)

// The checkpoint workload is a closed loop on one goroutine. Each cycle
// builds a short host, runs it to a seeded cut, saves it with Snapshot,
// rebuilds it with RestoreHost and runs the rest; the resumed Result must
// equal that of an uninterrupted twin run during set-up.
const (
	ckptPerKind    = 8 // cycle plans per host kind in one round
	ckptSetupBatch = 8 // set-ups per timed batch (see setupTimer)
)

// ckptPlan is one cycle: the host to build, the step to cut it at, and the
// Result its uninterrupted twin produced.
type ckptPlan struct {
	kind string
	spec farm.WorkloadSpec
	cut  int
	twin farm.Result
}

// ckptPlans draws one round of cycles for a seed: per kind, ckptPerKind
// short hosts of stratified size and alternating variant, cut at a seeded
// step boundary strictly inside the workload, in seeded order.
//   - ide: DMA reads of 16–64 sectors;
//   - gfx: 8–32 Permedia2 fills of 8–32 pixels square;
//   - snd: a clip of 1–3 K sample frames (the codec's unit of work) through
//     a 0.5–2 KiB ring in one of eight formats.
func ckptPlans(seed int64) []ckptPlan {
	rng := rand.New(rand.NewSource(seed))
	var plans []ckptPlan
	variant := func(i int) farm.Variant {
		if i%2 == 0 {
			return farm.Hand
		}
		return farm.Devil
	}
	for i, n := range stratified(rng, ckptPerKind, 16, 64) {
		plans = append(plans, ckptPlan{kind: "ide", spec: farm.WorkloadSpec{Kind: farm.IDE, Variant: variant(i), Sectors: n}})
	}
	sizes, rects := stratified(rng, ckptPerKind, 8, 32), stratified(rng, ckptPerKind, 8, 32)
	for i := range sizes {
		plans = append(plans, ckptPlan{kind: "gfx", spec: farm.WorkloadSpec{Kind: farm.Gfx, Variant: variant(i), Size: sizes[i], Rects: rects[i]}})
	}
	frames, rings := stratified(rng, ckptPerKind, 1<<10, 3<<10), stratified(rng, ckptPerKind, 2, 8) // rings in 256-byte units
	formats := rng.Perm(len(soundFormats))
	for i := range frames {
		cfg := soundFormats[formats[i%len(formats)]]
		cfg.RingBytes = rings[i] * 256
		revs := max(2, (frames[i]*cfg.FrameBytes()+cfg.RingBytes/2)/cfg.RingBytes)
		plans = append(plans, ckptPlan{kind: "snd", spec: farm.WorkloadSpec{Kind: farm.Sound, Variant: variant(i), Sound: cfg, Revs: revs}})
	}
	for i := range plans {
		steps := farm.New("plan", plans[i].spec).Steps()
		plans[i].cut = 1 + rng.Intn(steps-1)
	}
	rng.Shuffle(len(plans), func(i, j int) { plans[i], plans[j] = plans[j], plans[i] })
	return plans
}

type ckptRun struct {
	cfg   config
	out   *outcome
	plans []ckptPlan
	// order reshuffles the plans before every timed round, so each run
	// averages over many cycle orders: the order decides which cycles reuse
	// the heap pages a Permedia2 framebuffer freed and which fault in fresh
	// ones.
	order *rand.Rand

	cycles          int64
	snapUS, restUS  []float64 // Snapshot and RestoreHost wall times, µs
	newUS           []float64 // farm.New wall times, µs
	recordLatencies bool
}

// setup draws the plans and runs each distinct spec's uninterrupted twin.
func (c *ckptRun) setup() error {
	c.plans = ckptPlans(c.cfg.seed)
	twins := map[farm.WorkloadSpec]farm.Result{}
	for i, p := range c.plans {
		r, ok := twins[p.spec]
		if !ok {
			r = farm.New(p.kind, p.spec).Run()
			if r.Err != nil {
				return fmt.Errorf("twin of plan %d: %w", i, r.Err)
			}
			twins[p.spec] = r
		}
		c.plans[i].twin = r
	}
	return nil
}

// cycle runs one save → restore → resume cycle and checks its Result.
func (c *ckptRun) cycle(tr *tracer, p ckptPlan) error {
	id := c.cycles
	c.cycles++
	c.out.attempted++
	t := time.Now()
	s := tr.begin("farm.new", id)
	h := farm.New(p.kind, p.spec)
	tr.end(s)
	if c.recordLatencies {
		c.newUS = append(c.newUS, float64(time.Since(t))/1e3)
	}
	s = tr.begin("farm.step", id)
	for i := 0; i < p.cut; i++ {
		if _, err := h.StepOnce(); err != nil {
			tr.end(s)
			return fmt.Errorf("cycle %d: step %d: %w", id, i, err)
		}
	}
	tr.end(s)
	t = time.Now()
	s = tr.begin("farm.snapshot", id)
	blob, err := h.Snapshot()
	tr.end(s)
	snapD := time.Since(t)
	if err != nil {
		return fmt.Errorf("cycle %d: %w", id, err)
	}
	t = time.Now()
	s = tr.begin("farm.restore", id)
	h, err = farm.RestoreHost(blob)
	tr.end(s)
	restD := time.Since(t)
	if err != nil {
		return fmt.Errorf("cycle %d: %w", id, err)
	}
	if c.recordLatencies {
		c.snapUS = append(c.snapUS, float64(snapD)/1e3)
		c.restUS = append(c.restUS, float64(restD)/1e3)
	}
	s = tr.begin("farm.resume", id)
	r := h.Run()
	tr.end(s)
	if !sameResult(r, p.twin) {
		c.out.fail(fmt.Errorf("cycle %d (%s %s cut at %d): resumed %+v, twin %+v", id, p.kind, p.spec.Variant, p.cut, r, p.twin))
	}
	return nil
}

// round runs every plan once, in a fresh seeded order when shuffle is set.
func (c *ckptRun) round(tr *tracer, shuffle bool) (float64, error) {
	if shuffle {
		c.order.Shuffle(len(c.plans), func(i, j int) { c.plans[i], c.plans[j] = c.plans[j], c.plans[i] })
	}
	for _, p := range c.plans {
		if err := c.cycle(tr, p); err != nil {
			return 0, err
		}
	}
	return float64(len(c.plans)), nil
}

// latencies stores the p50, p99 and count of the recorded farm.New,
// Snapshot and RestoreHost times.
func (c *ckptRun) latencies() {
	addDist(c.out.values, "farm.new_us", c.newUS)
	addDist(c.out.values, "farm.snapshot_us", c.snapUS)
	addDist(c.out.values, "farm.restore_us", c.restUS)
}

func runCheckpoint(cfg config) (*outcome, error) {
	c := &ckptRun{cfg: cfg, out: &outcome{values: map[string]float64{}}, order: rand.New(rand.NewSource(cfg.seed))}
	out, v := c.out, c.out.values
	if err := c.setup(); err != nil {
		return nil, err
	}

	// The exact figure, twice: the heap bytes one round allocates must
	// repeat bit for bit.
	var allocs [2]uint64
	var err error
	for i := range allocs {
		if allocs[i], err = exactAlloc(func() error { _, err := c.round(nil, false); return err }); err != nil {
			return nil, err
		}
	}
	out.attempted++
	if allocs[0] != allocs[1] {
		out.fail(fmt.Errorf("a round allocated %d bytes, then %d", allocs[0], allocs[1]))
	}

	gc := newGCWatch()
	c.recordLatencies = true
	var rate float64
	var shares map[string]float64
	st := &setupTimer{perBatch: ckptSetupBatch, setup: func() error { return (&ckptRun{cfg: cfg}).setup() }}
	if cfg.trace {
		shares, err = cpuProfile(func() error {
			rate, err = timedRate(cfg.seconds, 1, nil, func() (float64, error) { return c.round(nil, true) })
			return err
		})
	} else {
		rate, err = timedRate(cfg.seconds, 1, st, func() (float64, error) { return c.round(nil, true) })
	}
	if err != nil {
		return nil, err
	}
	gc.report(out)
	out.say("alloc_mb (exact)", float64(allocs[0])/mib, "MiB")
	out.say("cycles_per_s", rate, "cycles/s")
	out.say("snapshot_p50_us", median(c.snapUS), "us")
	out.say("restore_p50_us", median(c.restUS), "us")
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

	c.snapUS, c.restUS, c.newUS = nil, nil, nil
	tr := newTracer(time.Now())
	tracedRate, err := timedRate(cfg.seconds, 1, nil, func() (float64, error) { return c.round(tr, true) })
	if err != nil {
		return nil, err
	}
	trs := []*tracer{tr}
	c.latencies()
	self := selfTimes(trs)
	v[shareCheckpoint] = selfShare(self, "farm.new", "farm.snapshot", "farm.restore")
	for _, p := range c.plans {
		v["bus.ops"] += float64(p.twin.Stats.Ops())
		v["bus.block_units"] += float64(p.twin.Stats.BlockUnits)
	}
	v["obs.trace_overhead_frac"] = rate/tracedRate - 1
	storeShares(v, shares)
	out.say("obs.trace_overhead_frac", v["obs.trace_overhead_frac"], "frac")
	path, err := writeSpans(cfg.outDir, "checkpoint", cfg.seed, trs)
	if err != nil {
		return nil, err
	}
	out.say("spans written to "+path, float64(len(tr.spans)), "spans")
	if err := probeAll(out, "checkpoint"); err != nil {
		return nil, err
	}
	return out, nil
}
