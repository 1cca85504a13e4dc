// Command benchab gates a change on the repository benchmark: a paired A/B
// of a base revision against the working tree, on one host.
//
//	go run ./cmd/benchab <base-rev>
//
// It checks out <base-rev> into a temporary git worktree holding the working
// tree's perfbench/, so both sides run identical benchmark code. For every
// workload in BENCHMARK.json it runs pairsPerSeed pairs at each seed, base
// first in alternate pairs, and reports per end-to-end metric the median
// paired ratio head/base with a bootstrap 95% interval, the pairs the head
// won and each side's median and quartiles. It fails when a median ratio is
// worse than the metric's bound, when the head fails a larger share of its
// operations than the base, or when one side's digest varies between its own
// runs of a seed. A metric whose interval alone crosses the bound is
// unresolved and passes. BENCH_ab.json in the repository root records the
// verdicts, both revisions and every raw run.
package main

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"math/rand"
	"os"
	"os/exec"
	"os/signal"
	"path/filepath"
	"runtime"
	"sort"
	"strconv"
	"strings"
	"syscall"
)

const (
	// pairsPerSeed gives ten pairs per workload over the two seeds, the
	// fewest a gain claim may rest on.
	pairsPerSeed = 5
	// bootstrapN resamples per interval, drawn from a fixed seed so a
	// record's intervals repeat exactly from its raw runs.
	bootstrapN    = 10000
	bootstrapSeed = 1
	recordFile    = "BENCH_ab.json"
)

// seeds are the benchmark seeds every workload runs at: 1, used while the
// benchmark was tuned, and 4242, held out from tuning.
var seeds = []int64{1, 4242}

var sides = [2]string{"base", "head"}

// benchmark is the part of BENCHMARK.json benchab reads.
type benchmark struct {
	Command    []string `json:"command"`
	RunSeconds int      `json:"run_seconds"`
	Workloads  []struct {
		Name string `json:"name"`
	} `json:"workloads"`
	EndToEnd []struct {
		Name   string `json:"name"`
		Better string `json:"better"`
		// Bound is the share by which the head may be worse.
		Bound float64 `json:"bound"`
	} `json:"end_to_end"`
}

// run is one benchmark process: what it ran and what it reported, the last
// three fields in the form of the benchmark's result JSON. Pair numbers the
// pairs of one workload across its seeds; First marks the side of a pair
// that ran before the other.
type run struct {
	Side      string `json:"side"`
	Workload  string `json:"workload"`
	Seed      int64  `json:"seed"`
	Pair      int    `json:"pair"`
	First     bool   `json:"first"`
	Digest    string `json:"digest"`
	Attempted int    `json:"attempted"`
	Failed    int    `json:"failed"`
	Metrics   map[string]struct {
		Value float64 `json:"value"`
	} `json:"metrics"`
}

// runFunc runs argv in directory dir and returns its standard output.
type runFunc func(ctx context.Context, dir string, argv []string) ([]byte, error)

func main() {
	if len(os.Args) != 2 || strings.HasPrefix(os.Args[1], "-") {
		fmt.Fprintln(os.Stderr, "usage: go run ./cmd/benchab <base-rev>")
		os.Exit(2)
	}
	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	err := abTest(ctx, os.Args[1])
	stop()
	if err != nil {
		fmt.Fprintln(os.Stderr, "benchab:", err)
		os.Exit(1)
	}
}

// abTest runs the whole A/B of baseRev against the working tree.
func abTest(ctx context.Context, baseRev string) error {
	root, err := gitLine(ctx, ".", "rev-parse", "--show-toplevel")
	if err != nil {
		return err
	}
	bm, err := loadBenchmark(filepath.Join(root, "BENCHMARK.json"))
	if err != nil {
		return err
	}
	rec := record{GoVersion: runtime.Version(), GOMAXPROCS: runtime.GOMAXPROCS(0),
		Command: bm.Command, RunSeconds: bm.RunSeconds}
	rec.Host, _ = os.Hostname() // provenance only; an unnamed host stays empty
	if rec.BaseRev, err = gitLine(ctx, root, "rev-parse", "--verify", baseRev+"^{commit}"); err != nil {
		return err
	}
	if rec.HeadRev, err = gitLine(ctx, root, "rev-parse", "HEAD"); err != nil {
		return err
	}
	status, err := gitLine(ctx, root, "status", "--porcelain")
	if err != nil {
		return err
	}
	rec.HeadDirty = status != ""

	tmp, err := os.MkdirTemp("", "benchab-")
	if err != nil {
		return err
	}
	// Deleting the checkout and pruning drops the worktree however this
	// function returns, including after a worktree add that failed halfway.
	defer func() {
		os.RemoveAll(tmp)
		execRun(context.Background(), root, []string{"git", "worktree", "prune"})
	}()
	baseDir := filepath.Join(tmp, "base")
	if _, err := execRun(ctx, root, []string{"git", "worktree", "add", "--detach", baseDir, rec.BaseRev}); err != nil {
		return err
	}
	if err := os.RemoveAll(filepath.Join(baseDir, "perfbench")); err != nil {
		return err
	}
	if _, err := execRun(ctx, root, []string{"cp", "-R", "perfbench", baseDir}); err != nil {
		return err
	}
	dirs := [2]string{baseDir, root}
	if err := buildSides(ctx, dirs, execRun); err != nil {
		return err
	}
	if rec.Runs, err = measure(ctx, bm, dirs, execRun, os.Stderr); err != nil {
		return err
	}
	rec.compare(bm)
	rec.print(os.Stdout)
	data, err := json.MarshalIndent(&rec, "", "  ")
	if err != nil {
		return err
	}
	if err := os.WriteFile(filepath.Join(root, recordFile), append(data, '\n'), 0o644); err != nil {
		return err
	}
	if !rec.Pass {
		return fmt.Errorf("gate failed: %s", strings.Join(rec.Failures, "; "))
	}
	return nil
}

func execRun(ctx context.Context, dir string, argv []string) ([]byte, error) {
	cmd := exec.CommandContext(ctx, argv[0], argv[1:]...)
	cmd.Dir = dir
	out, err := cmd.Output()
	if err != nil {
		var ee *exec.ExitError
		if errors.As(err, &ee) {
			err = fmt.Errorf("%w\n%s", err, bytes.TrimSpace(ee.Stderr))
		}
		return nil, fmt.Errorf("%s (in %s): %w", strings.Join(argv, " "), dir, err)
	}
	return out, nil
}

func gitLine(ctx context.Context, root string, args ...string) (string, error) {
	out, err := execRun(ctx, root, append([]string{"git"}, args...))
	return strings.TrimSpace(string(out)), err
}

func loadBenchmark(path string) (*benchmark, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var bm benchmark
	if err := json.Unmarshal(data, &bm); err != nil {
		return nil, fmt.Errorf("parsing %s: %w", path, err)
	}
	if len(bm.Command) == 0 || bm.RunSeconds <= 0 || len(bm.Workloads) == 0 || len(bm.EndToEnd) == 0 {
		return nil, fmt.Errorf("%s: need a command, run_seconds > 0, workloads and end_to_end metrics", path)
	}
	for _, m := range bm.EndToEnd {
		if m.Better != "lower" || m.Bound <= 0 {
			return nil, fmt.Errorf("%s: metric %q: only lower-is-better metrics with a bound > 0 are gated", path, m.Name)
		}
	}
	return &bm, nil
}

// buildSides compiles the benchmark on both checkouts, so a side that does
// not build is reported as such before any run.
func buildSides(ctx context.Context, dirs [2]string, run runFunc) error {
	for s, dir := range dirs {
		if _, err := run(ctx, dir, []string{"go", "-C", "perfbench", "build", "-o", os.DevNull, "."}); err != nil {
			return fmt.Errorf("%s does not build with this tree's perfbench/: %w", sides[s], err)
		}
	}
	return nil
}

// measure runs every pair of every workload and seed on dirs (base, head).
func measure(ctx context.Context, bm *benchmark, dirs [2]string, exec runFunc, log io.Writer) ([]run, error) {
	var runs []run
	for _, wl := range bm.Workloads {
		pair := 0
		for _, seed := range seeds {
			for i := 0; i < pairsPerSeed; i, pair = i+1, pair+1 {
				for n, s := range []int{pair % 2, 1 - pair%2} {
					r := run{Side: sides[s], Workload: wl.Name, Seed: seed, Pair: pair, First: n == 0}
					argv := append(append([]string{}, bm.Command...), "--workload", wl.Name,
						"--seed", strconv.FormatInt(seed, 10), "--seconds", strconv.Itoa(bm.RunSeconds), "--trace", "0")
					out, err := exec(ctx, dirs[s], argv)
					if err == nil {
						err = parseRun(out, &r)
					}
					for _, m := range bm.EndToEnd {
						if _, ok := r.Metrics[m.Name]; err == nil && !ok {
							err = fmt.Errorf("no %s in the result JSON", m.Name)
						}
					}
					if err != nil {
						return nil, fmt.Errorf("%s %s seed %d pair %d: %w", r.Side, wl.Name, seed, pair, err)
					}
					fmt.Fprintf(log, "%s seed=%d pair %d %s: %v failed %d/%d\n",
						wl.Name, seed, pair, r.Side, r.Metrics, r.Failed, r.Attempted)
					runs = append(runs, r)
				}
			}
		}
	}
	return runs, nil
}

// parseRun fills r from a benchmark's standard output: the result JSON on
// its last line and the digest line for r's workload and seed.
func parseRun(out []byte, r *run) error {
	lines := strings.Split(strings.TrimSpace(string(out)), "\n")
	if err := json.Unmarshal([]byte(lines[len(lines)-1]), r); err != nil {
		return fmt.Errorf("last output line is not the result JSON: %w", err)
	}
	prefix := fmt.Sprintf("digest %s seed=%d sha256=", r.Workload, r.Seed)
	for _, l := range lines {
		if d, ok := strings.CutPrefix(l, prefix); ok {
			r.Digest = d
		}
	}
	if r.Digest == "" {
		return fmt.Errorf("no %q line in the output", prefix)
	}
	return nil
}

// spread is one side's median and quartiles of a metric over its runs.
type spread struct {
	Median float64 `json:"median"`
	Q1     float64 `json:"q1"`
	Q3     float64 `json:"q3"`
}

// metricResult compares one end-to-end metric of one workload. Verdict is
// "pass", "unresolved" (the interval reaches past 1+Bound, the median does
// not) or "fail".
type metricResult struct {
	Name        string     `json:"name"`
	Bound       float64    `json:"bound"`
	MedianRatio float64    `json:"median_ratio"`
	CI95        [2]float64 `json:"ci95"`
	HeadWins    int        `json:"head_wins"`
	Pairs       int        `json:"pairs"`
	Base        spread     `json:"base"`
	Head        spread     `json:"head"`
	Verdict     string     `json:"verdict"`
}

type workloadResult struct {
	Name string `json:"name"`
	// SameDigest[i] says whether base and head simulated the same
	// statistics at seeds[i].
	SameDigest []bool `json:"same_digest"`
	// Failed and Attempted count operations of base and head.
	Failed    [2]int         `json:"failed"`
	Attempted [2]int         `json:"attempted"`
	Metrics   []metricResult `json:"metrics"`
}

// record is the BENCH_ab.json artifact.
type record struct {
	BaseRev    string           `json:"base_rev"`
	HeadRev    string           `json:"head_rev"`
	HeadDirty  bool             `json:"head_dirty"`
	GoVersion  string           `json:"go_version"`
	GOMAXPROCS int              `json:"gomaxprocs"`
	Host       string           `json:"host"`
	Command    []string         `json:"command"`
	RunSeconds int              `json:"run_seconds"`
	Pass       bool             `json:"pass"`
	Failures   []string         `json:"failures,omitempty"`
	Workloads  []workloadResult `json:"workloads"`
	Runs       []run            `json:"runs"`
}

// compare derives every verdict from rec.Runs, as measure recorded them.
func (rec *record) compare(bm *benchmark) {
	rec.Failures, rec.Workloads = nil, nil
	fail := func(format string, args ...any) { rec.Failures = append(rec.Failures, fmt.Sprintf(format, args...)) }
	for _, wl := range bm.Workloads {
		res := workloadResult{Name: wl.Name}
		pairs := make([][2]run, len(seeds)*pairsPerSeed) // seeds[i] ran pairs i*pairsPerSeed onwards
		for _, r := range rec.Runs {
			if r.Workload == wl.Name {
				s := map[string]int{sides[0]: 0, sides[1]: 1}[r.Side]
				pairs[r.Pair][s] = r
				res.Attempted[s] += r.Attempted
				res.Failed[s] += r.Failed
			}
		}
		for i, seed := range seeds {
			first := pairs[i*pairsPerSeed]
			for _, p := range pairs[i*pairsPerSeed : (i+1)*pairsPerSeed] {
				for s := range sides {
					if p[s].Digest != first[s].Digest {
						fail("%s seed %d: the %s digest varies between its own runs", wl.Name, seed, sides[s])
					}
				}
			}
			res.SameDigest = append(res.SameDigest, first[0].Digest == first[1].Digest)
		}
		if f, a := res.Failed, res.Attempted; f[1]*a[0] > f[0]*a[1] {
			fail("%s: head failed %d of %d operations, base %d of %d", wl.Name, f[1], a[1], f[0], a[0])
		}
		for _, m := range bm.EndToEnd {
			mr := metricResult{Name: m.Name, Bound: m.Bound, Pairs: len(pairs)}
			var ratios []float64
			var vals [2][]float64
			for _, p := range pairs {
				b, h := p[0].Metrics[m.Name].Value, p[1].Metrics[m.Name].Value
				vals[0], vals[1] = append(vals[0], b), append(vals[1], h)
				r := 1.0
				if b != h {
					r = h / b
				}
				if r < 1 {
					mr.HeadWins++
				}
				ratios = append(ratios, r)
			}
			mr.MedianRatio = spreadOf(ratios).Median
			mr.CI95 = bootstrapCI(ratios)
			mr.Base, mr.Head = spreadOf(vals[0]), spreadOf(vals[1])
			switch limit := 1 + m.Bound; {
			case !(mr.MedianRatio <= limit): // NaN fails too
				mr.Verdict = "fail"
				fail("%s %s: median ratio %.3f is worse than the %.0f%% bound", wl.Name, m.Name, mr.MedianRatio, 100*m.Bound)
			case mr.CI95[1] > limit:
				mr.Verdict = "unresolved"
			default:
				mr.Verdict = "pass"
			}
			res.Metrics = append(res.Metrics, mr)
		}
		rec.Workloads = append(rec.Workloads, res)
	}
	rec.Pass = len(rec.Failures) == 0
}

// quantile interpolates linearly between the order statistics of sorted,
// which must not be empty.
func quantile(sorted []float64, q float64) float64 {
	pos := q * float64(len(sorted)-1)
	i := int(pos)
	if i+1 >= len(sorted) {
		return sorted[len(sorted)-1]
	}
	return sorted[i] + (pos-float64(i))*(sorted[i+1]-sorted[i])
}

func spreadOf(xs []float64) spread {
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	return spread{Median: quantile(s, 0.5), Q1: quantile(s, 0.25), Q3: quantile(s, 0.75)}
}

// bootstrapCI is the percentile 95% interval of the median of xs over
// bootstrapN resamples drawn from a fixed seed.
func bootstrapCI(xs []float64) [2]float64 {
	rng := rand.New(rand.NewSource(bootstrapSeed))
	meds := make([]float64, bootstrapN)
	resample := make([]float64, len(xs))
	for i := range meds {
		for j := range resample {
			resample[j] = xs[rng.Intn(len(xs))]
		}
		sort.Float64s(resample)
		meds[i] = quantile(resample, 0.5)
	}
	sort.Float64s(meds)
	return [2]float64{quantile(meds, 0.025), quantile(meds, 0.975)}
}

func (rec *record) print(w io.Writer) {
	fmt.Fprintf(w, "base %s, head %s (dirty %v); %s, GOMAXPROCS %d, host %s\n",
		rec.BaseRev, rec.HeadRev, rec.HeadDirty, rec.GoVersion, rec.GOMAXPROCS, rec.Host)
	for _, wl := range rec.Workloads {
		fmt.Fprintf(w, "\n%s: failed base %d/%d head %d/%d; same digest at seeds %v: %v\n", wl.Name,
			wl.Failed[0], wl.Attempted[0], wl.Failed[1], wl.Attempted[1], seeds, wl.SameDigest)
		fmt.Fprintf(w, "  %-12s %7s %17s %5s %28s %28s %6s  %s\n",
			"metric", "ratio", "95% CI", "wins", "base median [q1, q3]", "head median [q1, q3]", "bound", "verdict")
		for _, m := range wl.Metrics {
			fmt.Fprintf(w, "  %-12s %7.3f  [%6.3f, %6.3f] %2d/%-2d %8.4g [%8.4g, %8.4g] %8.4g [%8.4g, %8.4g] %5.0f%%  %s\n",
				m.Name, m.MedianRatio, m.CI95[0], m.CI95[1], m.HeadWins, m.Pairs,
				m.Base.Median, m.Base.Q1, m.Base.Q3, m.Head.Median, m.Head.Q1, m.Head.Q3, 100*m.Bound, m.Verdict)
		}
	}
	if rec.Pass {
		fmt.Fprintln(w, "\ngate: pass")
	}
	for _, f := range rec.Failures {
		fmt.Fprintln(w, "gate: fail:", f)
	}
}
