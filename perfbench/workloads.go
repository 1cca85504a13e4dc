package main

import (
	"errors"
	"fmt"
	"io/fs"
	"os"
	"path/filepath"
	"sort"
	"time"

	"clgp/internal/cacti"
	"clgp/internal/core"
	"clgp/internal/dispatch"
	"clgp/internal/isa"
	"clgp/internal/sim"
	"clgp/internal/stats"
	"clgp/internal/telemetry"
	"clgp/internal/trace"
	"clgp/internal/tracefile"
	"clgp/internal/workload"
)

// Run counts and lengths, in simulated instructions, of one repetition.
// Each workload is a fixed amount of simulation; a run of the benchmark
// repeats it for the measuring time.
const (
	gccRuns   = 4
	gccInsts  = 500_000
	mcfRuns   = 8
	mcfInsts  = 600_000
	mcfWarmup = 300_000
	gridInsts = 20_000
	// gridWorkers is the sim pool inside each shard: the machine's 2 cores.
	gridWorkers = 2
)

// gridProfiles span large code (gcc, eon), tiny code (gzip) and pointer
// chasing (mcf).
var gridProfiles = []string{"gcc", "eon", "gzip", "mcf"}

// gridTechs are the paper's two nodes.
var gridTechs = []cacti.Tech{cacti.Tech90, cacti.Tech45}

// env is what the repetitions of one run share.
type env struct {
	seed  int64
	work  string                  // scratch directory inside the checkout
	spans *telemetry.SpanRecorder // nil outside a traced run
	check *checker
	mem   *memSampler
	// refWall and refCPU are the reference kernel's samples (refKernel).
	refWall, refCPU []float64
}

// rep is one repetition's measurements: host seconds of set-up and of the
// timed body (wall and CPU), peak resident memory and live heap in MB, and
// the per-layer values.
type rep struct {
	setup, wall, cpu float64
	rss, heap        float64
	layer            map[string]float64
	notes            []string // report lines, identical across repetitions
}

// workloadFunc runs one repetition, its spans parented under parent.
type workloadFunc func(e *env, parent string) (rep, error)

// workloads are the benchmark's workloads by name.
var workloads = map[string]workloadFunc{
	"paper-grid":      gridRep,
	"gcc-clgp-l0":     gccRep,
	"mcf-stream-warm": mcfRep,
}

// timeBody runs f and returns its wall and CPU seconds.
func timeBody(f func()) (wall, cpu float64) {
	c0, t0 := cpuNow(), time.Now()
	f()
	return time.Since(t0).Seconds(), cpuNow() - c0
}

// subSeeds derives the workload seeds of one repetition from the
// benchmark seed, distinct for distinct seeds. A repetition runs several
// program images so that its cost does not hinge on one of them.
func subSeeds(seed int64, n int) []int64 {
	out := make([]int64, n)
	for i := range out {
		out[i] = seed*int64(n) + int64(i)
	}
	return out
}

// engineTotals sums the engine runs of one repetition.
type engineTotals struct {
	runS                           float64
	insts, cycles, skipped, allocs uint64
	pooled                         stats.Results
}

// run runs eng to the end under a span and adds what it simulated.
func (t *engineTotals) run(e *env, parent string, eng *core.Engine) (*stats.Results, error) {
	c0, k0, s0, a0 := eng.Committed(), eng.Cycles(), eng.SkippedCycles(), heapAllocs()
	var res *stats.Results
	runS, err := timed(e.spans, "Engine.Run", parent, func() (err error) {
		res, err = eng.Run()
		return err
	})
	if err != nil {
		return nil, err
	}
	t.allocs += heapAllocs() - a0
	t.runS += runS
	t.insts += eng.Committed() - c0
	t.cycles += eng.Cycles() - k0
	t.skipped += eng.SkippedCycles() - s0
	t.pooled.Merge(res)
	return res, nil
}

// fill sets the core.* metrics of the summed runs and the model.* counters
// of their pooled results.
func (t *engineTotals) fill(l map[string]float64) {
	if t.insts == 0 || t.cycles == 0 || t.runS == 0 {
		return
	}
	insts, cycles := float64(t.insts), float64(t.cycles)
	l["core.run_s"] = t.runS
	l["core.kips"] = insts / t.runS / 1000
	l["core.ns_per_inst"] = t.runS * 1e9 / insts
	l["core.ns_per_cycle"] = t.runS * 1e9 / cycles
	l["core.skipped_frac"] = float64(t.skipped) / cycles
	l["core.allocs_per_kinst"] = float64(t.allocs) * 1000 / insts
	addModel(l, &t.pooled)
}

// gccRep is the paper's headline configuration: gcc with CLGP and an L0 at
// 90nm with a 2KB L1, traces generated in memory, caches cold. Each run
// sets up (generate, build the engine) and then runs timed.
func gccRep(e *env, parent string) (rep, error) {
	p, err := workload.ProfileByName("gcc")
	if err != nil {
		return rep{}, err
	}
	cfg := core.Config{Tech: cacti.Tech90, L1ISize: 2 << 10, UseL0: true, Engine: core.EngineCLGP}
	var r rep
	l := map[string]float64{}
	var tot engineTotals
	for _, seed := range subSeeds(e.seed, gccRuns) {
		cfg.Name = fmt.Sprintf("gcc-clgp-l0/seed=%d", seed)
		start := time.Now()
		var w *workload.Workload
		d, err := timed(e.spans, "workload.Generate", parent, func() (err error) {
			w, err = workload.Generate(p, gccInsts, seed)
			return err
		})
		if err != nil {
			return rep{}, err
		}
		l["workload.generate_s"] += d
		var eng *core.Engine
		if d, err = timed(e.spans, "core.NewEngine", parent, func() (err error) {
			eng, err = core.NewEngine(cfg, w.Dict, w.Trace)
			return err
		}); err != nil {
			return rep{}, err
		}
		l["core.new_s"] += d
		r.setup += time.Since(start).Seconds()

		var res *stats.Results
		wall, cpu := timeBody(func() { res, err = tot.run(e, parent, eng) })
		r.wall += wall
		r.cpu += cpu
		e.check.sim(cfg.Name, res, err, gccInsts)
	}
	tot.fill(l)
	r.layer = l
	return r, nil
}

// mcfRep is pointer chasing with no prefetching (engine none, 45nm, 64KB
// L1), started warm. Each run's set-up records a container, simulates the
// warm-up over it and saves a snapshot; the timed body restores the
// snapshot into a fresh engine over a bounded window of the container and
// runs to the end.
func mcfRep(e *env, parent string) (rep, error) {
	p, err := workload.ProfileByName("mcf")
	if err != nil {
		return rep{}, err
	}
	cfg := core.Config{Tech: cacti.Tech45, L1ISize: 64 << 10, Engine: core.EngineNone}
	tracePath := filepath.Join(e.work, "mcf.clgt")
	snapPath := filepath.Join(e.work, "mcf-warm.clgs")
	var r rep
	l := map[string]float64{}
	var tot engineTotals
	var traceBytes int64
	for _, seed := range subSeeds(e.seed, mcfRuns) {
		cfg.Name = fmt.Sprintf("mcf-stream-warm/seed=%d", seed)
		start := time.Now()
		var dict *isa.Dictionary
		d, err := timed(e.spans, "sim.RecordTrace", parent, func() (err error) {
			dict, err = sim.RecordTrace(p, mcfInsts, seed, tracePath, 0)
			return err
		})
		if err != nil {
			return rep{}, err
		}
		l["tracefile.record_s"] += d
		fi, err := os.Stat(tracePath)
		if err != nil {
			return rep{}, err
		}
		traceBytes += fi.Size()
		fp := workload.Fingerprint(p, dict)

		warm, closeWarm, err := streamEngine(cfg, dict, tracePath)
		if err != nil {
			return rep{}, err
		}
		_, err = timed(e.spans, "Engine.RunUntilCommitted", parent, func() error {
			return warm.RunUntilCommitted(mcfWarmup)
		})
		var data []byte
		if err == nil {
			d, err = timed(e.spans, "Engine.Snapshot", parent, func() (err error) {
				data, err = warm.Snapshot(p.Name, fp)
				return err
			})
			l["snap.save_s"] += d
		}
		closeWarm()
		if err != nil {
			return rep{}, fmt.Errorf("%s warm-up: %w", cfg.Name, err)
		}
		l["snap.bytes"] += float64(len(data))
		if err := os.WriteFile(snapPath, data, 0o644); err != nil {
			return rep{}, err
		}

		var eng *core.Engine
		var closeEng func()
		if d, err = timed(e.spans, "core.NewEngine", parent, func() (err error) {
			eng, closeEng, err = streamEngine(cfg, dict, tracePath)
			return err
		}); err != nil {
			return rep{}, err
		}
		l["core.new_s"] += d
		r.setup += time.Since(start).Seconds()

		var res *stats.Results
		var simErr error
		wall, cpu := timeBody(func() {
			saved, err := os.ReadFile(snapPath)
			if err == nil {
				d, err = timed(e.spans, "Engine.Restore", parent, func() error {
					return eng.Restore(saved, p.Name, fp)
				})
				l["snap.restore_s"] += d
			}
			if err != nil {
				simErr = fmt.Errorf("restore: %w", err)
				return
			}
			res, simErr = tot.run(e, parent, eng)
		})
		closeEng()
		r.wall += wall
		r.cpu += cpu
		e.check.sim(cfg.Name, res, simErr, mcfInsts)
	}
	l["tracefile.bytes_per_inst"] = float64(traceBytes) / (mcfRuns * mcfInsts)
	tot.fill(l)
	r.layer = l
	return r, nil
}

// streamEngine builds an engine over a bounded window of the container at
// path. The returned func closes the container.
func streamEngine(cfg core.Config, dict *isa.Dictionary, path string) (*core.Engine, func(), error) {
	rd, err := tracefile.Open(path)
	if err != nil {
		return nil, nil, err
	}
	closeRd := func() { rd.Close() }
	wt, err := trace.NewWindowTrace(rd, 0)
	if err != nil {
		closeRd()
		return nil, nil, err
	}
	eng, err := core.NewEngine(cfg, dict, wt)
	if err != nil {
		closeRd()
		return nil, nil, err
	}
	return eng, closeRd, nil
}

// gridRep is the default `clgpsim figures` path over four profiles and both
// nodes: an in-process launcher over a temporary directory store, one shard
// per profile, a sim pool of two, cold caches, no fusion or warm-up. The
// timed body runs the sweep, merges the store and writes the figures.
func gridRep(e *env, parent string) (rep, error) {
	dir, err := os.MkdirTemp(e.work, "grid-")
	if err != nil {
		return rep{}, err
	}
	defer os.RemoveAll(dir)
	specs, err := dispatch.GridSpecs(dispatch.GridConfig{
		Profiles: gridProfiles, Insts: gridInsts, Seed: e.seed, Techs: gridTechs,
		L0Variants: true, IncludeIdeal: true,
	})
	if err != nil {
		return rep{}, err
	}
	st := dispatch.NewDirStore(filepath.Join(dir, "store"))
	o := &dispatch.Orchestrator{Store: st, Workers: gridWorkers}
	l := map[string]float64{}

	var out *dispatch.Outcome
	var recs []dispatch.RunRecord
	var bodyErr error
	wall, cpu := timeBody(func() {
		if _, bodyErr = timed(e.spans, "Orchestrator.Run", parent, func() (err error) {
			out, err = o.Run(specs, 0, false)
			return err
		}); bodyErr != nil {
			return
		}
		if l["dispatch.merge_s"], bodyErr = timed(e.spans, "dispatch.MergeStore", parent, func() (err error) {
			recs, err = dispatch.MergeStore(st, out.Manifest)
			return err
		}); bodyErr != nil {
			return
		}
		l["stats.figures_s"], bodyErr = timed(e.spans, "stats.SeriesSet.WriteFiles", parent, func() error {
			return writeFigures(filepath.Join(dir, "figures"), recs)
		})
	})
	if bodyErr != nil {
		return rep{}, bodyErr
	}

	pooled := &stats.Results{}
	var jobWalls []float64
	for _, rec := range recs {
		var err error
		if rec.Err != "" {
			err = errors.New(rec.Err)
		}
		e.check.sim(rec.Job, rec.Stats, err, gridInsts)
		if rec.Stats != nil {
			pooled.Merge(rec.Stats)
		}
		jobWalls = append(jobWalls, rec.WallSeconds)
	}
	addModel(l, pooled)
	ipc := indexIPC(recs)
	l["paper.clgp_l0_gain_pct"] = clgpL0GainPct(ipc, gridProfiles)
	failed, checked := checkOrderings(ipc, gridProfiles)
	l["paper.orderings_failed"] = float64(len(failed))
	notes := []string{fmt.Sprintf("paper: clgp+l0 over none at 45nm/2KB: %+.4f%% HMEAN IPC; %d of %d orderings violated",
		l["paper.clgp_l0_gain_pct"], len(failed), checked)}
	for _, f := range failed {
		notes = append(notes, "paper: violated: "+f)
	}

	spans, err := dispatch.CollectSweepSpans(st, out.Manifest)
	if err != nil {
		return rep{}, err
	}
	phase := map[string]float64{}
	for _, sp := range spans {
		if sp.Cat == telemetry.SpanPhase {
			phase[sp.Name] += float64(sp.DurMicros) / 1e6
		}
	}
	l["dispatch.fetch_trace_s"] = phase["fetch-trace"]
	l["dispatch.simulate_s"] = phase["simulate"]
	l["dispatch.commit_s"] = phase["commit"]
	l["dispatch.shards"] = float64(len(out.Manifest.Shards))
	l["dispatch.retries"] = float64(out.Retries)
	if l["dispatch.store_bytes"], err = dirBytes(st.Dir); err != nil {
		return rep{}, err
	}
	l["workload.generate_s"] = phase["fetch-trace"]

	sort.Float64s(jobWalls)
	var busy float64
	for _, w := range jobWalls {
		busy += w
	}
	l["sim.jobs"] = float64(len(jobWalls))
	if n := len(jobWalls); n > 0 {
		l["sim.job_wall_p50_ms"] = 1000 * median(jobWalls)
		l["sim.job_wall_max_ms"] = 1000 * jobWalls[n-1]
	}
	if simS := phase["simulate"]; simS > 0 {
		l["sim.pool_busy_frac"] = busy / (gridWorkers * simS)
	}
	// Shards generate their workloads inside the sweep, so set-up is the
	// fetch-trace phase, and that time is inside wall_s too.
	return rep{setup: phase["fetch-trace"], wall: wall, cpu: cpu, layer: l, notes: notes}, nil
}

// dirBytes sums the sizes of the regular files under dir.
func dirBytes(dir string) (float64, error) {
	var n int64
	err := filepath.WalkDir(dir, func(path string, d fs.DirEntry, err error) error {
		if err != nil || d.IsDir() {
			return err
		}
		fi, err := d.Info()
		if err != nil {
			return err
		}
		n += fi.Size()
		return nil
	})
	return float64(n), err
}
