// Command perfbench is the repository benchmark. It runs one named
// workload against the public APIs of farm, core/devil, exec and mutation,
// checks every output against references it computes itself, and prints
// one JSON line of metrics:
//
//	perfbench --workload fleet --seed 1 --seconds 25 --trace 0
//
// With --trace 0 the metrics are the end-to-end ones (see catalogue.go);
// with --trace 1 the run measures untraced and then traced, and the metrics
// are the per-layer ones. Any wrong output makes the command exit non-zero
// without printing a result. README.md describes the workloads and metrics.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"runtime"
	"runtime/debug"
	"runtime/metrics"
	"sort"
	"time"
)

// result is the last line of standard output.
type result struct {
	Correct   bool              `json:"correct"`
	Attempted int64             `json:"attempted"`
	Failed    int64             `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// config is what every workload receives.
type config struct {
	seed    int64
	seconds float64
	trace   bool
	// outDir receives the span trace of a traced run.
	outDir string
}

// outcome is what a workload hands back: the tally of checked operations,
// the end-to-end figures (untraced run) or the per-layer figures (traced
// run), and the named lines printed for a human reader.
type outcome struct {
	attempted, failed int64
	firstErr          error
	values            map[string]float64
	report            []line
}

// line is one human-readable figure printed before the JSON result.
type line struct {
	name  string
	value float64
	unit  string
}

// fail records one failed operation; the first error is kept for the
// message the command exits with.
func (o *outcome) fail(err error) {
	o.failed++
	if o.firstErr == nil {
		o.firstErr = err
	}
}

func (o *outcome) say(name string, value float64, unit string) {
	o.report = append(o.report, line{name, value, unit})
}

// workloads maps each workload to its runner and its client count. The
// process runs on as many Ps as the workload has clients, so a
// single-client workload's wall time does not depend on whether the
// machine's other cores are idle (its collector shares the client's P), and
// no workload changes with the machine's core count.
var workloads = map[string]struct {
	run     func(config) (*outcome, error)
	clients int
}{
	"fleet":      {runFleet, fleetWorkers},
	"checkpoint": {runCheckpoint, 1},
	"toolchain":  {runToolchain, 1},
}

func main() {
	name := flag.String("workload", "", "workload to run: fleet, checkpoint or toolchain")
	seed := flag.Int64("seed", 1, "seed the workload's inputs are drawn from")
	seconds := flag.Int("seconds", 25, "length of the timed phase in seconds")
	trace := flag.Int("trace", 0, "1 runs the traced pass and reports per-layer metrics")
	flag.Parse()
	w, ok := workloads[*name]
	if !ok || *seconds < 1 || (*trace != 0 && *trace != 1) {
		fmt.Fprintln(os.Stderr, "usage: perfbench --workload fleet|checkpoint|toolchain --seed N --seconds S --trace 0|1")
		os.Exit(2)
	}
	if err := checkCatalogue("BENCHMARK.json"); err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
	runtime.GOMAXPROCS(w.clients)
	cfg := config{seed: *seed, seconds: float64(*seconds), trace: *trace == 1, outDir: ".bench_build"}
	out, err := w.run(cfg)
	if err == nil && out.failed > 0 {
		err = fmt.Errorf("%d of %d operations failed; first: %w", out.failed, out.attempted, out.firstErr)
	}
	if err != nil {
		fmt.Fprintf(os.Stderr, "perfbench: %s seed %d: %v\n", *name, *seed, err)
		os.Exit(1)
	}
	defs := endToEnd
	if cfg.trace {
		defs = perLayer()
		for _, n := range idleMetrics(*name) {
			if _, ok := out.values[n]; !ok {
				out.values[n] = 0
			}
		}
	}
	res := result{Correct: true, Attempted: out.attempted, Failed: out.failed, Metrics: map[string]metric{}}
	for _, d := range defs {
		v, ok := out.values[d.Name]
		if !ok {
			fmt.Fprintf(os.Stderr, "perfbench: %s did not produce metric %s\n", *name, d.Name)
			os.Exit(1)
		}
		res.Metrics[d.Name] = metric{Value: v, Unit: d.Unit}
	}
	for _, l := range out.report {
		fmt.Printf("%-34s %16.6g %s\n", l.name, l.value, l.unit)
	}
	if err := json.NewEncoder(os.Stdout).Encode(res); err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
}

// ---------------------------------------------------------------------------
// Shared measurement helpers

// setupTimer times a workload's set-up in setupBatches batches of perBatch
// set-ups run back to back; a sample is a batch's wall time ÷ perBatch, and
// setup_s is the median sample. perBatch is chosen per workload so that a
// batch lasts 50 ms or more, because one set-up may take well under a
// millisecond. On an untraced run the batches are spread over the timed
// phase (see timedRate): the speed of a shared machine drifts by a fifth
// from one second to the next, so batches taken in one burst read whatever
// the machine did in that second, while the rounds average over the whole
// phase.
type setupTimer struct {
	perBatch int
	// setup builds the workload's inputs from scratch, as the run's own
	// set-up does, and discards them.
	setup   func() error
	samples []float64
}

// setupBatches is how many batches the median set-up time is taken over.
const setupBatches = 15

// take runs batches until n have been taken. Each batch starts after a full
// collection that also returns the freed heap to the operating system, so
// that it neither pays for earlier garbage nor reuses pages an earlier batch
// left: a set-up faults in its memory as in a fresh process. (After a plain
// collection, a fleet set-up reads 18 or 42 ms depending on how much of the
// last batch's heap the runtime has kept.) Each batch ends with a
// collection, so that the rounds after it do not pay for its garbage.
func (s *setupTimer) take(n int) error {
	for len(s.samples) < min(n, setupBatches) {
		debug.FreeOSMemory()
		t := time.Now()
		for i := 0; i < s.perBatch; i++ {
			if err := s.setup(); err != nil {
				return err
			}
		}
		s.samples = append(s.samples, time.Since(t).Seconds()/float64(s.perBatch))
		runtime.GC()
	}
	return nil
}

// seconds takes the batches not taken yet and returns the median sample.
func (s *setupTimer) seconds() (float64, error) {
	if err := s.take(setupBatches); err != nil {
		return 0, err
	}
	return median(s.samples), nil
}

// timedRate runs round until the rounds have taken seconds of wall time and
// at least minRounds ran, and returns the median over rounds of work per
// wall second. When st is not nil, the set-up batches due are taken before
// each round, outside its timing: one at the start and one more each time
// the rounds have run for another seconds/setupBatches.
func timedRate(seconds float64, minRounds int, st *setupTimer, round func() (float64, error)) (float64, error) {
	var rates []float64
	var spent float64
	for len(rates) < minRounds || spent < seconds {
		if st != nil {
			if err := st.take(1 + int(spent/seconds*setupBatches)); err != nil {
				return 0, err
			}
		}
		t := time.Now()
		work, err := round()
		if err != nil {
			return 0, err
		}
		d := time.Since(t).Seconds()
		spent += d
		rates = append(rates, work/d)
	}
	return median(rates), nil
}

// allocBytes returns the heap bytes allocated so far in the process.
func allocBytes() uint64 {
	var m runtime.MemStats
	runtime.ReadMemStats(&m)
	return m.TotalAlloc
}

// gcWatch records the garbage collector's work over a phase and the
// largest heap the phase held: a goroutine reads the bytes of live and
// not yet swept objects every heapSampleEvery, without stopping the world,
// so the heaps of the benchmark's own untimed passes before the phase do
// not count.
type gcWatch struct {
	start      runtime.MemStats
	peak       uint64
	stop, done chan struct{}
}

const heapSampleEvery = 5 * time.Millisecond

func newGCWatch() *gcWatch {
	w := &gcWatch{stop: make(chan struct{}), done: make(chan struct{})}
	runtime.ReadMemStats(&w.start)
	go w.sample()
	return w
}

func (w *gcWatch) sample() {
	defer close(w.done)
	s := []metrics.Sample{{Name: "/memory/classes/heap/objects:bytes"}}
	tick := time.NewTicker(heapSampleEvery)
	defer tick.Stop()
	for {
		metrics.Read(s)
		w.peak = max(w.peak, s[0].Value.Uint64())
		select {
		case <-w.stop:
			return
		case <-tick.C:
		}
	}
}

// report ends the phase and adds its GC summary to values and to the
// printed lines.
func (w *gcWatch) report(o *outcome) {
	close(w.stop)
	<-w.done
	var end runtime.MemStats
	runtime.ReadMemStats(&end)
	cycles := float64(end.NumGC - w.start.NumGC)
	pause := float64(end.PauseTotalNs-w.start.PauseTotalNs) / 1e6
	peak := float64(w.peak) / (1 << 20)
	o.values["runtime.gc_cycles"] = cycles
	o.values["runtime.gc_pause_ms"] = pause
	o.values["runtime.heap_peak_mb"] = peak
	o.say("runtime.gc_cycles", cycles, "count")
	o.say("runtime.gc_pause_ms", pause, "ms")
	o.say("runtime.heap_peak_mb", peak, "MiB")
}

// exactly runs fn so that the heap bytes it allocates repeat bit for bit
// from run to run: after two full collections, which empty every sync.Pool
// (fmt keeps its printers in one), with the collector paused, and on a
// single P, because the runtime packs tiny allocations into per-P blocks
// whose fill depends on which P ran what before.
func exactly(fn func()) {
	oldProcs := runtime.GOMAXPROCS(1)
	oldGC := debug.SetGCPercent(-1)
	defer func() {
		debug.SetGCPercent(oldGC)
		runtime.GOMAXPROCS(oldProcs)
	}()
	runtime.GC()
	runtime.GC()
	fn()
}

// exactAlloc runs fn exactRuns times under exactly and returns the fewest
// heap bytes one run allocated. Even so, the runtime charges an occasional
// run 16–48 bytes more at a random point; the minimum over the runs is the
// figure that repeats.
func exactAlloc(fn func() error) (uint64, error) {
	var least uint64
	for i := 0; i < exactRuns; i++ {
		var n uint64
		var err error
		exactly(func() {
			a := allocBytes()
			err = fn()
			n = allocBytes() - a
		})
		if err != nil {
			return 0, err
		}
		if i == 0 || n < least {
			least = n
		}
	}
	return least, nil
}

// exactRuns is how many runs exactAlloc takes the minimum over.
const exactRuns = 3

func median(xs []float64) float64 { return quantile(xs, 0.5) }

// quantile returns the q-quantile of xs by linear interpolation between
// order statistics; xs is not modified.
func quantile(xs []float64, q float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	pos := q * float64(len(s)-1)
	i := int(pos)
	if i+1 >= len(s) {
		return s[len(s)-1]
	}
	return s[i] + (pos-float64(i))*(s[i+1]-s[i])
}

// addDist stores the p50, p99 and sample count of xs under prefix.
func addDist(values map[string]float64, prefix string, xs []float64) {
	values[prefix+".p50"] = median(xs)
	values[prefix+".p99"] = quantile(xs, 0.99)
	values[prefix+".n"] = float64(len(xs))
}

const mib = 1 << 20
