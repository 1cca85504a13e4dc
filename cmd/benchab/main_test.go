package main

import (
	"context"
	"errors"
	"fmt"
	"io"
	"os"
	"reflect"
	"strings"
	"testing"
)

// outcome is what a fake benchmark process reports for one run.
type outcome struct {
	metrics map[string]float64
	digest  string
	failed  int
}

// fakeRunner stands in for both checkouts: dir "base" or "head" names the
// side, builds succeed, and each benchmark run reports what f returns for
// the n-th run of that side on the workload. calls collects
// "side workload seed" per run.
func fakeRunner(calls *[]string, f func(side, workload string, seed int64, n int) outcome) runFunc {
	count := map[string]int{}
	return func(_ context.Context, dir string, argv []string) ([]byte, error) {
		if argv[0] == "go" {
			return nil, nil
		}
		var wl, seed string
		for i := 0; i+1 < len(argv); i++ {
			switch argv[i] {
			case "--workload":
				wl = argv[i+1]
			case "--seed":
				seed = argv[i+1]
			}
		}
		*calls = append(*calls, fmt.Sprintf("%s %s %s", dir, wl, seed))
		var s int64
		fmt.Sscan(seed, &s)
		o := f(dir, wl, s, count[dir+wl])
		count[dir+wl]++
		var ms []string
		for k, v := range o.metrics {
			ms = append(ms, fmt.Sprintf("%q:{\"value\":%g,\"unit\":\"s\"}", k, v))
		}
		return []byte(fmt.Sprintf("%s seed=%s: 3 repetitions\ndigest %s seed=%s sha256=%s\n"+
			"{\"correct\":%v,\"attempted\":100,\"failed\":%d,\"metrics\":{%s}}\n",
			wl, seed, wl, seed, o.digest, o.failed == 0, o.failed, strings.Join(ms, ","))), nil
	}
}

func testBenchmark(t *testing.T) *benchmark {
	t.Helper()
	bm, err := loadBenchmark("../../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	return bm
}

// steady is a healthy outcome: every end-to-end metric near 1 with a few
// percent of run-to-run jitter, and a digest that depends only on the seed.
func steady(side, workload string, seed int64, n int) outcome {
	j := 1 + 0.01*float64(n%5)
	return outcome{
		metrics: map[string]float64{"wall_s": 4 * j, "cpu_s": 8 * j, "peak_rss_mb": 18 * j, "setup_s": 0.03 * j},
		digest:  fmt.Sprintf("%s-%d", workload, seed),
	}
}

func abRecord(t *testing.T, f func(side, workload string, seed int64, n int) outcome) (*record, []string) {
	t.Helper()
	bm := testBenchmark(t)
	var calls []string
	rec := &record{}
	var err error
	rec.Runs, err = measure(context.Background(), bm, [2]string{"base", "head"}, fakeRunner(&calls, f), io.Discard)
	if err != nil {
		t.Fatal(err)
	}
	rec.compare(bm)
	return rec, calls
}

func TestIdenticalRunsPass(t *testing.T) {
	rec, _ := abRecord(t, steady)
	if !rec.Pass || len(rec.Failures) != 0 {
		t.Fatalf("identical sides failed the gate: %v", rec.Failures)
	}
	if len(rec.Workloads) != 3 || len(rec.Runs) != 3*2*2*pairsPerSeed {
		t.Fatalf("got %d workloads and %d runs", len(rec.Workloads), len(rec.Runs))
	}
	for _, wl := range rec.Workloads {
		if !reflect.DeepEqual(wl.SameDigest, []bool{true, true}) {
			t.Errorf("%s: digests reported as differing: %v", wl.Name, wl.SameDigest)
		}
		for _, m := range wl.Metrics {
			if m.Verdict != "pass" || m.Pairs != 2*pairsPerSeed || m.MedianRatio != 1 {
				t.Errorf("%s %s: %+v", wl.Name, m.Name, m)
			}
		}
	}
}

func TestHeadThirtyPercentSlowerFails(t *testing.T) {
	rec, _ := abRecord(t, func(side, wl string, seed int64, n int) outcome {
		o := steady(side, wl, seed, n)
		if side == "head" {
			o.metrics["wall_s"] *= 1.3
		}
		return o
	})
	if rec.Pass || len(rec.Failures) != 3 {
		t.Fatalf("a +30%% wall_s head should fail once per workload, got %v", rec.Failures)
	}
	for _, f := range rec.Failures {
		if !strings.Contains(f, "wall_s") {
			t.Errorf("unexpected failure %q", f)
		}
	}
	for _, m := range rec.Workloads[0].Metrics {
		if want := map[bool]string{true: "fail", false: "pass"}[m.Name == "wall_s"]; m.Verdict != want {
			t.Errorf("%s: verdict %s, want %s", m.Name, m.Verdict, want)
		}
	}
}

func TestNoisyMetricIsUnresolved(t *testing.T) {
	// Four of the ten pairs run 40% slower on the head: the median ratio
	// stays at 1, but the interval reaches past the 24% bound.
	rec, _ := abRecord(t, func(side, wl string, seed int64, n int) outcome {
		o := steady(side, wl, seed, 0)
		if side == "head" && n%5 < 2 {
			o.metrics["wall_s"] *= 1.4
		}
		return o
	})
	if !rec.Pass {
		t.Fatalf("an unresolved metric must not fail the gate: %v", rec.Failures)
	}
	m := rec.Workloads[0].Metrics[0]
	if m.Name != "wall_s" || m.Verdict != "unresolved" || m.MedianRatio != 1 || m.HeadWins != 0 {
		t.Fatalf("got %+v", m)
	}
}

func TestLargerFailedShareFails(t *testing.T) {
	rec, _ := abRecord(t, func(side, wl string, seed int64, n int) outcome {
		o := steady(side, wl, seed, n)
		if side == "head" && wl == "gcc-clgp-l0" && n == 3 {
			o.failed = 1
		}
		return o
	})
	if rec.Pass || len(rec.Failures) != 1 || !strings.Contains(rec.Failures[0], "gcc-clgp-l0: head failed 1 of 1000") {
		t.Fatalf("got %v", rec.Failures)
	}
}

func TestDigestVaryingWithinOneSideFails(t *testing.T) {
	rec, _ := abRecord(t, func(side, wl string, seed int64, n int) outcome {
		o := steady(side, wl, seed, n)
		if side == "base" && wl == "paper-grid" && n == 2 {
			o.digest = "other"
		}
		return o
	})
	if rec.Pass || len(rec.Failures) != 1 || !strings.Contains(rec.Failures[0], "paper-grid seed 1: the base digest varies") {
		t.Fatalf("got %v", rec.Failures)
	}

	// A head that simulates other statistics, the same ones every run, is
	// reported but passes: a change to the model may move the digest.
	rec, _ = abRecord(t, func(side, wl string, seed int64, n int) outcome {
		o := steady(side, wl, seed, n)
		if side == "head" {
			o.digest += "-new"
		}
		return o
	})
	if !rec.Pass || !reflect.DeepEqual(rec.Workloads[1].SameDigest, []bool{false, false}) {
		t.Fatalf("consistent new digests: pass %v, same %v", rec.Pass, rec.Workloads[1].SameDigest)
	}
}

func TestPairOrderAlternates(t *testing.T) {
	_, calls := abRecord(t, steady)
	i := 0
	for _, wl := range []string{"paper-grid", "gcc-clgp-l0", "mcf-stream-warm"} {
		baseFirst := 0
		for pair := 0; pair < 2*pairsPerSeed; pair++ {
			seed := seeds[pair/pairsPerSeed]
			want := []string{"base", "head"}
			if pair%2 == 1 {
				want = []string{"head", "base"}
			} else {
				baseFirst++
			}
			for _, side := range want {
				if w := fmt.Sprintf("%s %s %d", side, wl, seed); calls[i] != w {
					t.Fatalf("call %d: %q, want %q", i, calls[i], w)
				}
				i++
			}
		}
		if baseFirst != pairsPerSeed {
			t.Errorf("%s: base ran first in %d of %d pairs", wl, baseFirst, 2*pairsPerSeed)
		}
	}
}

func TestBootstrapRepeatsExactly(t *testing.T) {
	xs := []float64{0.97, 1.02, 0.99, 1.05, 1.01, 0.96, 1.08, 1.00, 0.98, 1.03}
	a, b := bootstrapCI(xs), bootstrapCI(xs)
	if a != b {
		t.Fatalf("bootstrap differs between calls: %v vs %v", a, b)
	}
	if m := spreadOf(xs).Median; !(a[0] < m && m < a[1]) {
		t.Fatalf("interval %v does not contain the median %v", a, m)
	}
	r1, _ := abRecord(t, steady)
	r2, _ := abRecord(t, steady)
	if !reflect.DeepEqual(r1.Workloads, r2.Workloads) {
		t.Fatal("the same runs gave different verdicts")
	}
}

func TestBaseThatDoesNotBuildIsReported(t *testing.T) {
	run := func(_ context.Context, dir string, argv []string) ([]byte, error) {
		if dir == "base" {
			return nil, errors.New("undefined: sim.Something")
		}
		return nil, nil
	}
	err := buildSides(context.Background(), [2]string{"base", "head"}, run)
	if err == nil || !strings.Contains(err.Error(), "base does not build") {
		t.Fatalf("got %v", err)
	}
}

// TestRealBenchmarkAndCapturedOutput reads the repository's BENCHMARK.json
// and a perfbench report captured from a real paper-grid run.
func TestRealBenchmarkAndCapturedOutput(t *testing.T) {
	bm := testBenchmark(t)
	if bm.Command[0] != "bash" || bm.RunSeconds <= 0 || len(bm.Workloads) != 3 {
		t.Fatalf("unexpected benchmark %+v", bm)
	}
	out, err := os.ReadFile("testdata/perfbench-paper-grid.txt")
	if err != nil {
		t.Fatal(err)
	}
	r := run{Workload: "paper-grid", Seed: 1}
	if err := parseRun(out, &r); err != nil {
		t.Fatal(err)
	}
	if len(r.Digest) != 64 || r.Attempted != 1728 || r.Failed != 0 {
		t.Fatalf("parsed %+v", r)
	}
	for _, m := range bm.EndToEnd {
		if r.Metrics[m.Name].Value <= 0 || m.Bound <= 0 || m.Better != "lower" {
			t.Errorf("%s: value %v, spec %+v", m.Name, r.Metrics[m.Name].Value, m)
		}
	}
	other := run{Workload: "paper-grid", Seed: 4242}
	if err := parseRun(out, &other); err == nil {
		t.Fatal("a report for seed 1 was accepted as seed 4242")
	}
}
