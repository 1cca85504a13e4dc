// Command perfbench is the simulator's benchmark. It runs one workload for
// a measuring time, checks every simulation's output, and prints a report
// whose last line is one JSON object:
//
//	{"correct": true, "attempted": N, "failed": 0, "metrics": {...}}
//
// With --trace 0 the metrics are the end-to-end host costs (wall and CPU
// seconds of the timed body, peak RSS, set-up seconds), medians over the
// repetitions that fit the measuring time, with host times scaled to a
// reference host speed (see refKernel). With --trace 1 they are the
// per-layer metrics, from a run that spends half its time untraced and
// half with a CPU profile and benchmark-side spans on. See README.md.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"runtime"
	"runtime/debug"
	"runtime/pprof"
	"sort"
	"time"

	"clgp/internal/telemetry"
)

// minReps is the fewest repetitions a median is taken over.
const minReps = 3

func main() {
	if err := run(os.Args[1:], os.Stdout); err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
}

type value struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

type result struct {
	Correct   bool             `json:"correct"`
	Attempted int              `json:"attempted"`
	Failed    int              `json:"failed"`
	Metrics   map[string]value `json:"metrics"`
}

func run(args []string, stdout io.Writer) error {
	fs := flag.NewFlagSet("perfbench", flag.ContinueOnError)
	name := fs.String("workload", "", "workload: paper-grid, gcc-clgp-l0 or mcf-stream-warm")
	seed := fs.Int64("seed", 1, "workload generation seed")
	seconds := fs.Int("seconds", 15, "measuring time in seconds")
	traced := fs.Int("trace", 0, "1 = traced run reporting the per-layer metrics")
	out := fs.String("out", ".bench_build/out", "directory for scratch stores, profiles and spans")
	if err := fs.Parse(args); err != nil {
		return err
	}
	wl, ok := workloads[*name]
	if !ok {
		return fmt.Errorf("unknown workload %q", *name)
	}
	if *seconds <= 0 || (*traced != 0 && *traced != 1) {
		return fmt.Errorf("need --seconds > 0 and --trace 0 or 1")
	}
	if err := os.MkdirAll(*out, 0o755); err != nil {
		return err
	}
	work, err := os.MkdirTemp(*out, "work-")
	if err != nil {
		return err
	}
	defer os.RemoveAll(work)

	e := &env{seed: *seed, work: work, check: &checker{}, mem: startMemSampler()}
	defer e.mem.Stop()
	budget := time.Duration(*seconds) * time.Second
	var reps []rep
	var metrics map[string]value
	if *traced == 0 {
		reps, err = repeat(wl, e, budget)
		if err == nil {
			metrics = endToEndMetrics(reps, e, stdout)
			if metrics["peak_rss_mb"].Value == 0 {
				err = fmt.Errorf("no resident-memory samples: /proc/self/statm is unreadable")
			}
		}
	} else {
		tag := fmt.Sprintf("%s-seed%d", *name, *seed)
		reps, metrics, err = tracedRun(wl, e, budget, filepath.Join(*out, tag))
	}
	if err != nil {
		return err
	}

	c := e.check
	fmt.Fprintf(stdout, "%s seed=%d: %d repetitions\n", *name, *seed, len(reps))
	for _, n := range reps[0].notes {
		fmt.Fprintln(stdout, n)
	}
	fmt.Fprintf(stdout, "digest %s seed=%d sha256=%s\n", *name, *seed, c.digest)
	for _, f := range c.failures {
		fmt.Fprintf(stdout, "failed: %s\n", f)
	}
	if c.mismatched > 0 {
		fmt.Fprintf(stdout, "failed: %d repetitions produced other statistics than the first\n", c.mismatched)
	}
	line, err := json.Marshal(result{Correct: c.correct(), Attempted: c.attempted, Failed: c.failed, Metrics: metrics})
	if err != nil {
		return err
	}
	_, err = fmt.Fprintf(stdout, "%s\n", line)
	return err
}

// repeat runs repetitions of wl until budget has passed and at least
// minReps have run. Each starts from a collected heap whose freed memory
// has been returned to the system, so its peaks are its own.
func repeat(wl workloadFunc, e *env, budget time.Duration) ([]rep, error) {
	var reps []rep
	start := time.Now()
	for len(reps) < minReps || time.Since(start) < budget {
		for i := 0; i < refSamples; i++ {
			w, c := refKernel()
			e.refWall = append(e.refWall, w)
			e.refCPU = append(e.refCPU, c)
		}
		debug.FreeOSMemory()
		e.mem.take()
		root := e.spans.Begin(telemetry.SpanPhase, fmt.Sprintf("rep-%d", len(reps)), "perfbench", "")
		e.check.beginRep()
		r, err := wl(e, root.ID())
		root.End()
		if err != nil {
			return nil, err
		}
		r.rss, r.heap = e.mem.take()
		e.check.endRep()
		fmt.Fprintf(os.Stderr, "rep %d: setup %.4fs wall %.4fs cpu %.4fs rss %.1fMB\n", len(reps), r.setup, r.wall, r.cpu, r.rss)
		reps = append(reps, r)
	}
	return reps, nil
}

// column returns one field of every repetition.
func column(reps []rep, f func(rep) float64) []float64 {
	xs := make([]float64, len(reps))
	for i, r := range reps {
		xs[i] = f(r)
	}
	return xs
}

// endToEndMetrics takes the medians over the repetitions. Host times are
// scaled to the reference speed: × refNominalS / the reference kernel's
// median time in this run, wall by wall and CPU by CPU, so that they do not
// move with the host's speed.
func endToEndMetrics(reps []rep, e *env, report io.Writer) map[string]value {
	refWall, refCPU := median(e.refWall), median(e.refCPU)
	wall := median(column(reps, func(r rep) float64 { return r.wall }))
	cpu := median(column(reps, func(r rep) float64 { return r.cpu }))
	setup := median(column(reps, func(r rep) float64 { return r.setup }))
	fmt.Fprintf(report, "host: reference kernel %.4fs wall %.4fs cpu (scaled to %.3fs); unscaled medians: wall %.4fs cpu %.4fs setup %.4fs\n",
		refWall, refCPU, refNominalS, wall, cpu, setup)
	v := map[string]float64{
		"wall_s":      wall * refNominalS / refWall,
		"cpu_s":       cpu * refNominalS / refCPU,
		"setup_s":     setup * refNominalS / refWall,
		"peak_rss_mb": median(column(reps, func(r rep) float64 { return r.rss })),
	}
	m := make(map[string]value, len(endToEnd))
	for _, mt := range endToEnd {
		m[mt.name] = value{v[mt.name], mt.unit}
	}
	return m
}

// tracedRun measures half the budget untraced, then half with a CPU profile
// and spans on. The per-layer metrics are medians over the traced
// repetitions; self_s.* fold the profile by package per traced repetition.
// The profile and spans are written next to base.
func tracedRun(wl workloadFunc, e *env, budget time.Duration, base string) ([]rep, map[string]value, error) {
	plain, err := repeat(wl, e, budget/2)
	if err != nil {
		return nil, nil, err
	}

	profPath := base + ".pprof"
	f, err := os.Create(profPath)
	if err != nil {
		return nil, nil, err
	}
	defer f.Close()
	if err := pprof.StartCPUProfile(f); err != nil {
		return nil, nil, err
	}
	e.spans = telemetry.NewSpanRecorder("perfbench")
	reps, err := repeat(wl, e, budget/2)
	pprof.StopCPUProfile()
	if err != nil {
		return nil, nil, err
	}
	if err := f.Close(); err != nil {
		return nil, nil, err
	}
	spans, err := telemetry.EncodeSpans(e.spans.Spans())
	if err != nil {
		return nil, nil, err
	}
	if err := os.WriteFile(base+".spans.jsonl", spans, 0o644); err != nil {
		return nil, nil, err
	}

	v := map[string]float64{}
	names := map[string]bool{}
	for _, r := range reps {
		for k := range r.layer {
			names[k] = true
		}
	}
	for k := range names {
		v[k] = median(column(reps, func(r rep) float64 { return r.layer[k] }))
	}
	self, err := profileSelf(profPath)
	if err != nil {
		return nil, nil, err
	}
	for pkg, s := range self {
		v["self_s."+pkg] = s / float64(len(reps))
	}
	wall := func(r rep) float64 { return r.wall }
	if u := median(column(plain, wall)); u > 0 {
		v["bench.trace_overhead_frac"] = median(column(reps, wall))/u - 1
	}
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	v["go.gc_cpu_frac"] = ms.GCCPUFraction
	v["go.heap_peak_mb"] = median(column(reps, func(r rep) float64 { return r.heap }))

	m := make(map[string]value, len(perLayer))
	for _, mt := range perLayer {
		m[mt.name] = value{v[mt.name], mt.unit}
		delete(v, mt.name)
	}
	if len(v) > 0 {
		extra := make([]string, 0, len(v))
		for k := range v {
			extra = append(extra, k)
		}
		sort.Strings(extra)
		return nil, nil, fmt.Errorf("measured metrics missing from the per-layer table: %v", extra)
	}
	return append(plain, reps...), m, nil
}
