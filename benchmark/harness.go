package main

import (
	"fmt"
	"math"
	"os"
	"runtime"
	"sort"
	"strconv"
	"strings"
	"time"

	"memphis/internal/data"
)

// config is one benchmark invocation.
type config struct {
	workload string
	seed     int64
	seconds  float64
	trace    bool
	// quick shrinks every input to smoke-test size (the tier-1 test and
	// -quick); its numbers are comparable to nothing.
	quick bool
	// outDir receives trace-<workload>.json on traced runs ("" = don't write).
	outDir string
}

// defaultSeed is the seed whose outputs and virtual times are pinned in
// expected.json.
const defaultSeed = 1

// A run repeats its set-up at least minSetups times and until setupBudget is
// spent (at most maxSetups times); setup_s is the median, so cheap set-ups
// get the more repeats their noisier timing needs.
const (
	minSetups, maxSetups = 3, 9
	setupBudget          = 3 * time.Second
)

// workload is one benchmark scenario.
type workload interface {
	// setup builds everything the measured phase needs from the seed: inputs,
	// parsed programs, warm caches, a started server. Its duration is
	// setup_s. It is called several times; all but the last instance are
	// closed unused.
	setup(c config) (instance, error)
}

// instance is a set-up workload ready to be measured.
type instance interface {
	// run executes operations until d has elapsed (at least one), recording
	// spans into tr when it is non-nil.
	run(d time.Duration, tr *tracer) (*phase, error)
	// verify runs whatever part of the independent oracle (no reuse) the
	// phase did not already run inline, and returns the correctness failures
	// found in the outputs the phase recorded plus the oracle's virtual
	// seconds per operation.
	verify(ph *phase) (failures []string, baseVtimePerOp float64)
	// probes times the public entry points of each layer on operands taken
	// from this workload, spending about d in total.
	probes(d time.Duration, ph *phase, out map[string]float64)
	close()
}

var workloads = map[string]workload{
	"reuse-hit":         scriptWorkload{fresh: false},
	"fresh-miss":        scriptWorkload{fresh: true},
	"pipe-local":        pipeWorkload{multi: false},
	"pipe-multibackend": pipeWorkload{multi: true},
	"serve-zipf":        serveWorkload{},
}

var workloadOrder = []string{"reuse-hit", "fresh-miss", "pipe-local", "pipe-multibackend", "serve-zipf"}

// phase is what one measured phase produced.
type phase struct {
	wallMS []float64 // per-operation wall time of the measured system
	baseMS []float64 // per-operation wall time of the interleaved no-reuse runs
	// doneS is when each operation completed, in seconds: since the phase
	// began (start) for the server, and on a clock that only runs while an
	// operation does for the sequential workloads, whose interleaved
	// baseline runs and bookkeeping are not the system's throughput.
	doneS     []float64
	start     time.Time
	busy      time.Duration
	attempted int
	failed    int
	failures  []string
	mallocs   uint64
	bytes     uint64
	// pinned is the length of the phase's pinned prefix. The phase itself is
	// time-boxed, so its operation count varies from run to run; everything
	// that must repeat to the last digit — vtime, the layers' counters and
	// peaks, the baseline's virtual time — is taken over the first pinned
	// operations only, a count fixed per workload that every phase reaches.
	pinned    int
	vtime     float64 // virtual seconds of the pinned operations
	baseVtime float64 // virtual seconds of the no-reuse runs among them
	baseOps   int
	// outputs is the combined checksum of the named outputs an operation
	// fetched, keyed by what it ran ("" when every operation is the same).
	outputs map[string]uint64
	// pinnedKeys are the output keys every run of the workload produces;
	// their digest is pinned in expected.json.
	pinnedKeys []string
	// counts are the layers' own counters summed over the pinned operations,
	// peaks their high-water marks.
	counts, peaks counts
	// Serving only: unordered marks a phase whose operations complete in an
	// order the scheduler chooses, classMS is per-class operation wall time,
	// freshSeen the never-seen inputs whose results the oracle re-executes.
	unordered bool
	classMS   map[string][]float64
	freshSeen []serveRequest
	// rec is the recording compile cache of a traced phase; it holds the
	// compiled streams the probes run on.
	rec *recordingCache
}

func newPhase() *phase {
	return &phase{outputs: map[string]uint64{}, counts: counts{}, peaks: counts{}, classMS: map[string][]float64{}}
}

func (p *phase) fail(format string, args ...any) {
	p.failed++
	if len(p.failures) < 8 {
		p.failures = append(p.failures, fmt.Sprintf(format, args...))
	}
}

// allocMeter accumulates allocation counts over the regions it brackets, so
// interleaved baseline runs and harness bookkeeping stay out of the numbers.
type allocMeter struct{ before runtime.MemStats }

func (a *allocMeter) begin() { runtime.ReadMemStats(&a.before) }

func (a *allocMeter) end(p *phase) {
	var after runtime.MemStats
	runtime.ReadMemStats(&after)
	p.mallocs += after.Mallocs - a.before.Mallocs
	p.bytes += after.TotalAlloc - a.before.TotalAlloc
}

// counts is a bag of named raw counters.
type counts map[string]float64

func (c counts) add(o counts) {
	for k, v := range o {
		c[k] += v
	}
}

func (c counts) max(o counts) {
	for k, v := range o {
		if v > c[k] {
			c[k] = v
		}
	}
}

func (c counts) minus(o counts) counts {
	out := counts{}
	for k, v := range c {
		out[k] = v - o[k]
	}
	return out
}

// median returns the middle value (mean of the two middle values for an even
// count); 0 for no samples.
func median(v []float64) float64 {
	if len(v) == 0 {
		return 0
	}
	s := append([]float64(nil), v...)
	sort.Float64s(s)
	n := len(s)
	if n%2 == 1 {
		return s[n/2]
	}
	return (s[n/2-1] + s[n/2]) / 2
}

// nearestRank returns the q-quantile by the nearest-rank rule.
func nearestRank(v []float64, q float64) float64 {
	if len(v) == 0 {
		return 0
	}
	s := append([]float64(nil), v...)
	sort.Float64s(s)
	i := int(math.Ceil(q*float64(len(s)))) - 1
	if i < 0 {
		i = 0
	}
	return s[i]
}

// tailP99 is op_wall_p99_ms. With at least 5x200 samples the phase is cut
// into five equal consecutive batches and the median of their p99s is
// reported, which keeps one stall from setting the number; with fewer it is
// the nearest-rank p99 of all samples, which for fewer than 100 samples is
// the slowest operation.
func tailP99(v []float64) float64 {
	const batches, minPerBatch = 5, 200
	if len(v) < batches*minPerBatch {
		return nearestRank(v, 0.99)
	}
	per := len(v) / batches
	p := make([]float64, batches)
	for b := range p {
		p[b] = nearestRank(v[b*per:(b+1)*per], 0.99)
	}
	return median(p)
}

// batchThroughput is ops_per_s: the completion times are cut into ten equal
// consecutive batches and the median batch's rate is reported, so that a
// stall (a neighbour's burst on a shared box, one collection) moves one
// batch and not the number.
func batchThroughput(doneS []float64) float64 {
	const batches = 10
	n := len(doneS)
	if n == 0 {
		return 0
	}
	per := max(n/batches, 1)
	var rates []float64
	prev := 0.0
	for end := per; end <= n; end += per {
		rates = append(rates, ratio(float64(per), doneS[end-1]-prev))
		prev = doneS[end-1]
	}
	return median(rates)
}

// peakRSSMB reads the process's resident high-water mark.
func peakRSSMB() float64 {
	b, err := os.ReadFile("/proc/self/status")
	if err != nil {
		return 0
	}
	for _, line := range strings.Split(string(b), "\n") {
		if rest, ok := strings.CutPrefix(line, "VmHWM:"); ok {
			kb, _ := strconv.ParseFloat(strings.TrimSpace(strings.TrimSuffix(strings.TrimSpace(rest), "kB")), 64)
			return kb / 1024
		}
	}
	return 0
}

// pinParallelism fixes GOMAXPROCS and the kernel pool to min(nproc, 4) so a
// run means the same thing on every box, and returns the value.
func pinParallelism() int {
	n := runtime.NumCPU()
	if n > 4 {
		n = 4
	}
	runtime.GOMAXPROCS(n)
	data.SetParallelism(n)
	return n
}

// splitmix is the seed-derivation stream: draw k of seed s depends on (s, k)
// alone, so every generator gets an independent, reproducible sub-seed.
func splitmix(x uint64) uint64 {
	x += 0x9e3779b97f4a7c15
	x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9
	x = (x ^ (x >> 27)) * 0x94d049bb133111eb
	return x ^ (x >> 31)
}

type rng struct{ state uint64 }

func newRNG(seed int64, stream uint64) *rng {
	return &rng{state: splitmix(uint64(seed)) ^ splitmix(stream*0x9e3779b97f4a7c15+1)}
}

func (r *rng) next() uint64 {
	v := splitmix(r.state)
	r.state += 0x9e3779b97f4a7c15
	return v
}

func (r *rng) float64() float64 { return float64(r.next()>>11) / (1 << 53) }

// seedFor derives a positive 31-bit sub-seed (DML literals and the dataset
// generators take small integers).
func seedFor(seed int64, stream uint64) int64 { return int64(newRNG(seed, stream).next()>>33) + 1 }

// checksumAll folds the checksums of several matrices in order (FNV-1a); a
// nil matrix (an output the program failed to produce) contributes a fixed
// marker. It runs between timed operations inside the allocation meter's
// brackets, so the fold is by hand: hash/fnv would add its own allocations
// to every operation's count.
func checksumAll(ms ...*data.Matrix) uint64 {
	h := uint64(14695981039346656037)
	for _, m := range ms {
		v := uint64(0xdead)
		if m != nil {
			v = m.Checksum()
		}
		for i := 0; i < 8; i++ {
			h = (h ^ (v >> (8 * i) & 0xff)) * 1099511628211
		}
	}
	return h
}

// result is one run's report.
type result struct {
	Correct   bool
	Attempted int
	Failed    int
	Failures  []string
	// EndToEnd and Layer hold metric values by name. An untraced run fills
	// Layer too, with what costs nothing to read: virtual time and the
	// layers' own counters.
	EndToEnd, Layer map[string]float64
	Env             map[string]any
}

// runWorkload is the whole benchmark for one workload: repeated set-up,
// measured phase(s), oracle, correctness gate, metrics.
func runWorkload(c config) (*result, error) {
	w, ok := workloads[c.workload]
	if !ok {
		return nil, fmt.Errorf("unknown workload %q (have %s)", c.workload, strings.Join(workloadOrder, ", "))
	}
	par := pinParallelism()
	res := &result{
		EndToEnd: map[string]float64{}, Layer: map[string]float64{},
		Env: map[string]any{
			"workload": c.workload, "seed": c.seed, "seconds": c.seconds, "trace": c.trace, "quick": c.quick,
			"nproc": runtime.NumCPU(), "gomaxprocs": par, "kernel_parallelism": data.Parallelism(),
			"go": runtime.Version(),
		},
	}

	var inst instance
	closeInst := func() {
		if inst != nil {
			inst.close()
			inst = nil
			runtime.GC()
		}
	}
	defer closeInst()
	var setups []float64
	for spent := time.Duration(0); len(setups) < minSetups || spent < setupBudget && len(setups) < maxSetups; {
		closeInst()
		t0 := time.Now()
		var err error
		if inst, err = w.setup(c); err != nil {
			return nil, fmt.Errorf("%s: set-up: %w", c.workload, err)
		}
		took := time.Since(t0)
		spent += took
		setups = append(setups, took.Seconds())
		if c.quick {
			break
		}
	}
	res.EndToEnd["setup_s"] = median(setups)

	total := time.Duration(c.seconds * float64(time.Second))
	runtime.GC()
	var ph *phase
	var phases []*phase
	var failures []string
	if !c.trace {
		var err error
		if ph, err = inst.run(total, nil); err != nil {
			return nil, fmt.Errorf("%s: %w", c.workload, err)
		}
		phases = []*phase{ph}
	} else {
		// A quarter untraced, a quarter traced from the same starting state
		// (a fresh set-up), the rest for the probes. The two phases side by
		// side give trace.overhead_x, and show that the seams the harness
		// stands in change neither results nor virtual time.
		plain, err := inst.run(total/4, nil)
		if err != nil {
			return nil, fmt.Errorf("%s: %w", c.workload, err)
		}
		closeInst()
		if inst, err = w.setup(c); err != nil {
			return nil, fmt.Errorf("%s: set-up: %w", c.workload, err)
		}
		runtime.GC()
		tr := newTracer()
		if ph, err = inst.run(total/4, tr); err != nil {
			return nil, fmt.Errorf("%s: traced: %w", c.workload, err)
		}
		phases = []*phase{plain, ph}
		res.Layer["trace.overhead_x"] = ratio(median(ph.wallMS), median(plain.wallMS))
		res.Layer["trace.spans"] = float64(len(tr.spans))
		tr.summarize(res.Layer, ph)
		if c.outDir != "" {
			if err := tr.write(c.outDir, c.workload); err != nil {
				return nil, err
			}
		}
		failures = append(failures, tracedDiffers(plain, ph)...)
	}

	oracleFails, baseVtime := inst.verify(ph)
	failures = append(failures, oracleFails...)
	ops := float64(len(ph.wallMS))
	res.EndToEnd["op_wall_p50_ms"] = median(ph.wallMS)
	res.EndToEnd["ops_per_s"] = batchThroughput(ph.doneS)
	res.Layer["op_wall_p99_ms"] = tailP99(ph.wallMS)
	res.EndToEnd["allocs_per_op"] = ratio(float64(ph.mallocs), ops)
	res.EndToEnd["alloc_bytes_per_op"] = ratio(float64(ph.bytes), ops)

	vtimePerOp := ratio(ph.vtime, float64(ph.pinned))
	res.Layer["vtime.ms_per_op"] = vtimePerOp * 1e3
	res.Layer["vtime.speedup_x"] = ratio(baseVtime, vtimePerOp)
	res.Layer["reuse.wall_vs_base_x"] = ratio(median(ph.baseMS), median(ph.wallMS))
	layerCounters(res.Layer, ph)
	if c.trace {
		inst.probes(total/2, ph, res.Layer)
	}
	failures = append(failures, isolationFailures(c.workload, ph)...)
	failures = append(failures, checkExpected(c, ph, res.Layer)...)

	// A failed gate (oracle, isolation, pins) counts as at least one failed
	// operation each, so a wrong run can never report failed = 0.
	res.Failed = len(failures)
	for _, p := range phases {
		res.Attempted += p.attempted
		res.Failed += p.failed
		failures = append(failures, p.failures...)
	}
	res.Failed = min(res.Failed, res.Attempted)
	res.Failures = failures
	res.Correct = res.Failed == 0
	res.Layer["error_share"] = ratio(float64(res.Failed), float64(res.Attempted))
	res.EndToEnd["peak_rss_mb"] = peakRSSMB()
	return res, nil
}

// tracedDiffers compares a traced phase with the untraced one that started
// from the same state: the virtual time of the pinned operations (where the
// order of execution is fixed) and, key by key, the output checksums must be
// identical.
func tracedDiffers(plain, traced *phase) []string {
	var fails []string
	if !plain.unordered && (plain.pinned != traced.pinned || plain.vtime != traced.vtime) {
		fails = append(fails, fmt.Sprintf("traced phase: %d ops took %v virtual s, untraced: %d ops took %v",
			traced.pinned, traced.vtime, plain.pinned, plain.vtime))
	}
	for k, want := range plain.outputs {
		if got, ok := traced.outputs[k]; ok && got != want {
			fails = append(fails, fmt.Sprintf("traced outputs %q %016x differ from untraced %016x", k, got, want))
			break
		}
	}
	return fails
}

// ratio is a/b, and 0 where b is 0: a layer that did not run reports 0.
func ratio(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}
