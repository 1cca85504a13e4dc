package sim

import (
	"fmt"
	"os"
	"reflect"
	"runtime"
	"sort"
	"strings"
	"time"

	"clgp/internal/cacti"
	"clgp/internal/core"
	"clgp/internal/workload"
)

// CoreBenchRecord is one (profile × engine) hot-loop measurement of the
// cycle engine, in both clock modes: the event-horizon fast-forward path
// (the default) and the per-cycle NoSkip reference it must never fall
// behind.
type CoreBenchRecord struct {
	// Name is "<profile>/<engine>", the grid-point label.
	Name string `json:"name"`
	// Profile and Engine identify the grid point's axes.
	Profile string `json:"profile"`
	Engine  string `json:"engine"`
	// Cycles is the simulated total (identical in both modes — the
	// equivalence contract).
	Cycles uint64 `json:"cycles"`
	// SkippedFrac is the share of the run the event-horizon clock
	// fast-forwarded over.
	SkippedFrac float64 `json:"skipped_frac"`
	// NsPerCycle measures the default (skipping) path, NoSkipNsPerCycle
	// the per-cycle reference path on the same workload.
	NsPerCycle       float64 `json:"ns_per_cycle"`
	NoSkipNsPerCycle float64 `json:"noskip_ns_per_cycle"`
	// SpeedupVsNoSkip is NoSkipNsPerCycle / NsPerCycle.
	SpeedupVsNoSkip float64 `json:"speedup_vs_noskip"`
	// AllocsPerKCycle is heap allocations per thousand simulated cycles
	// over a whole run (cold rings included); the steady-state loop itself
	// allocates nothing, so whole-run figures sit far below 1.
	AllocsPerKCycle float64 `json:"allocs_per_kcycle"`
}

// GridSnapshotRecord is the warm-state snapshot measurement: one grid run
// twice over the same workload — once cold with an empty snapshot store
// (every point simulates its full warm-up and publishes a snapshot, so the
// recording overhead is charged honestly) and once warm (every point restores
// and simulates only its measurement interval). Warm-up is half the run, so
// the warm pass does roughly half the simulation work; both passes are serial
// over bit-identical results, making the speedup a machine-independent
// property of the code.
type GridSnapshotRecord struct {
	// Profile is the workload the grid sweeps.
	Profile string `json:"profile"`
	// Points is the number of grid points (each with its own warm key).
	Points int `json:"points"`
	// Insts and Warmup are the per-run trace length and warm-up boundary in
	// committed instructions (Warmup = Insts/2: warm-up dominates).
	Insts  int `json:"insts"`
	Warmup int `json:"warmup"`
	// Cycles is the aggregate simulated cycles across the grid (identical in
	// both passes — restored runs are bit-identical by contract).
	Cycles uint64 `json:"cycles"`
	// ColdCyclesPerSec and WarmCyclesPerSec are aggregate throughputs of the
	// recording and restoring passes.
	ColdCyclesPerSec float64 `json:"cold_cycles_per_sec"`
	WarmCyclesPerSec float64 `json:"warm_cycles_per_sec"`
	// SpeedupVsCold is cold wall time / warm wall time.
	SpeedupVsCold float64 `json:"speedup_vs_cold"`
	// SnapshotBytes is the total size of the published snapshot artifacts.
	SnapshotBytes int64 `json:"snapshot_bytes"`
}

// CoreBench is one measurement of the cycle engine's in-process ratios, the
// floors `clgpsim bench` checks: each compares two code paths timed in the
// same process, so it holds on any host.
type CoreBench struct {
	// Records is one entry per (profile × engine) grid point.
	Records []CoreBenchRecord `json:"records"`
	// GridSnapshot is the warm-state snapshot measurement.
	GridSnapshot *GridSnapshotRecord `json:"grid_snapshot,omitempty"`
}

// CoreBenchProfiles is the default measurement grid: two front-end-bound
// profiles and the two miss-heavy pointer chasers the event-horizon clock
// exists for.
var CoreBenchProfiles = []string{"gzip", "gcc", "mcf", "twolf"}

// CoreBenchEngines is the default engine axis (all four schemes).
var CoreBenchEngines = []core.EngineKind{core.EngineNone, core.EngineNextN, core.EngineFDP, core.EngineCLGP}

// coreBenchConfig is the fixed grid-point configuration: the 90nm node with
// a 2KB L1, the regime where both instruction delivery and data stalls are
// exercised.
func coreBenchConfig(eng core.EngineKind, noSkip bool) core.Config {
	return core.Config{
		Tech: cacti.Tech90, L1ISize: 2 << 10, Engine: eng,
		UseL0: eng == core.EngineCLGP, PreBufferEntries: 8, NoSkip: noSkip,
	}
}

// timedRun executes one engine run and returns (wall, cycles, skipped,
// mallocs) for it.
func timedRun(cfg core.Config, w *workload.Workload) (time.Duration, uint64, uint64, uint64, error) {
	eng, err := core.NewEngine(cfg, w.Dict, w.Trace)
	if err != nil {
		return 0, 0, 0, 0, err
	}
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	start := time.Now()
	if _, err := eng.Run(); err != nil {
		return 0, 0, 0, 0, err
	}
	wall := time.Since(start)
	runtime.ReadMemStats(&after)
	return wall, eng.Cycles(), eng.SkippedCycles(), after.Mallocs - before.Mallocs, nil
}

// MeasureCore benchmarks the cycle engine over profiles × engines with
// insts-long traces (0 selects 200000) and returns one record per grid point.
// Each mode is run five times, interleaved, and the fastest wall time kept:
// the minimum touches the host's quiet-moment floor, so the skip-vs-noskip
// ratio holds even when single reps absorb scheduler noise.
func MeasureCore(profiles []string, engines []core.EngineKind, insts int, seed int64) (*CoreBench, error) {
	if len(profiles) == 0 {
		profiles = CoreBenchProfiles
	}
	if len(engines) == 0 {
		engines = CoreBenchEngines
	}
	if insts <= 0 {
		insts = 200_000
	}
	cb := &CoreBench{}
	for _, prof := range profiles {
		p, err := workload.ProfileByName(prof)
		if err != nil {
			return nil, err
		}
		w, err := workload.Generate(p, insts, seed)
		if err != nil {
			return nil, err
		}
		for _, ek := range engines {
			var rec CoreBenchRecord
			rec.Profile, rec.Engine = prof, ek.String()
			rec.Name = prof + "/" + ek.String()
			var skipWall, noskipWall time.Duration
			var allocs, skipped uint64
			for rep := 0; rep < 5; rep++ {
				wall, cycles, skippedCycles, mallocs, err := timedRun(coreBenchConfig(ek, false), w)
				if err != nil {
					return nil, fmt.Errorf("corebench %s: %w", rec.Name, err)
				}
				if skipWall == 0 || wall < skipWall {
					skipWall, allocs = wall, mallocs
				}
				rec.Cycles, skipped = cycles, skippedCycles
				wall, refCycles, _, _, err := timedRun(coreBenchConfig(ek, true), w)
				if err != nil {
					return nil, fmt.Errorf("corebench %s (noskip): %w", rec.Name, err)
				}
				if refCycles != rec.Cycles {
					return nil, fmt.Errorf("corebench %s: skip path simulated %d cycles, no-skip %d — equivalence broken",
						rec.Name, rec.Cycles, refCycles)
				}
				if noskipWall == 0 || wall < noskipWall {
					noskipWall = wall
				}
			}
			rec.SkippedFrac = float64(skipped) / float64(rec.Cycles)
			rec.NsPerCycle = float64(skipWall.Nanoseconds()) / float64(rec.Cycles)
			rec.NoSkipNsPerCycle = float64(noskipWall.Nanoseconds()) / float64(rec.Cycles)
			rec.SpeedupVsNoSkip = noskipWall.Seconds() / skipWall.Seconds()
			rec.AllocsPerKCycle = 1000 * float64(allocs) / float64(rec.Cycles)
			cb.Records = append(cb.Records, rec)
		}
	}
	return cb, nil
}

// snapshotGridJobs builds the snapshot measurement grid: all four engines
// over two L1 sizes, every point with its own warm key, all sharing one
// in-memory workload.
func snapshotGridJobs(w *workload.Workload, warmup int, store SnapshotStore) []Job {
	jobs := SweepJobs(w, cacti.Tech90,
		[]int{1 << 10, 2 << 10},
		[]core.EngineKind{core.EngineNone, core.EngineNextN, core.EngineFDP, core.EngineCLGP},
		false, 0)
	for i := range jobs {
		jobs[i].Warmup = warmup
		jobs[i].Snapshots = store
	}
	return jobs
}

// MeasureSnapshotGrid measures the GridSnapshot record: one profile's grid
// run cold (empty store: full warm-up plus snapshot recording) and warm
// (restore, simulate only the measurement interval), both serial, best of
// three reps each. Warm-up is half the run by construction. It fails if
// either pass's results differ from a plain snapshot-less run — the speedup
// is only meaningful over bit-identical work.
func MeasureSnapshotGrid(profile string, insts int, seed int64) (*GridSnapshotRecord, error) {
	if insts <= 0 {
		insts = 200_000
	}
	warmup := insts / 2
	p, err := workload.ProfileByName(profile)
	if err != nil {
		return nil, err
	}
	w, err := workload.Generate(p, insts, seed)
	if err != nil {
		return nil, err
	}
	plainJobs := snapshotGridJobs(w, 0, nil)
	rn := Runner{Workers: 1}
	plain := rn.Run(plainJobs)
	for i, r := range plain {
		if r.Err != nil {
			return nil, fmt.Errorf("snapshot grid %s: plain run: %w", plainJobs[i].Name, r.Err)
		}
	}
	check := func(pass string, res []Result) error {
		for i, r := range res {
			if r.Err != nil {
				return fmt.Errorf("snapshot grid %s: %s pass: %w", plainJobs[i].Name, pass, r.Err)
			}
			if !reflect.DeepEqual(r.Stats, plain[i].Stats) {
				return fmt.Errorf("snapshot grid %s: %s pass diverges from the plain run — equivalence broken",
					plainJobs[i].Name, pass)
			}
		}
		return nil
	}

	var coldWall, warmWall time.Duration
	var snapBytes int64
	for rep := 0; rep < 3; rep++ {
		dir, err := os.MkdirTemp("", "clgp-snap-bench")
		if err != nil {
			return nil, err
		}
		jobs := snapshotGridJobs(w, warmup, DirSnapshots{Dir: dir})

		start := time.Now()
		cold := rn.Run(jobs)
		wall := time.Since(start)
		if err := check("cold", cold); err != nil {
			os.RemoveAll(dir)
			return nil, err
		}
		if coldWall == 0 || wall < coldWall {
			coldWall = wall
		}

		start = time.Now()
		warm := rn.Run(jobs)
		wall = time.Since(start)
		if err := check("warm", warm); err != nil {
			os.RemoveAll(dir)
			return nil, err
		}
		if warmWall == 0 || wall < warmWall {
			warmWall = wall
		}

		if rep == 0 {
			ents, err := os.ReadDir(dir)
			if err != nil {
				os.RemoveAll(dir)
				return nil, err
			}
			if len(ents) != len(jobs) {
				os.RemoveAll(dir)
				return nil, fmt.Errorf("snapshot grid: cold pass published %d artifacts for %d points", len(ents), len(jobs))
			}
			for _, e := range ents {
				if info, err := e.Info(); err == nil {
					snapBytes += info.Size()
				}
			}
		}
		os.RemoveAll(dir)
	}
	var cycles uint64
	for _, r := range plain {
		cycles += r.Stats.Cycles
	}
	gs := &GridSnapshotRecord{
		Profile:          profile,
		Points:           len(plainJobs),
		Insts:            insts,
		Warmup:           warmup,
		Cycles:           cycles,
		ColdCyclesPerSec: float64(cycles) / coldWall.Seconds(),
		WarmCyclesPerSec: float64(cycles) / warmWall.Seconds(),
		SnapshotBytes:    snapBytes,
	}
	gs.SpeedupVsCold = coldWall.Seconds() / warmWall.Seconds()
	return gs, nil
}

// The floors `clgpsim bench` checks.
const (
	// minMissHeavySpeedup is the floor on SpeedupVsNoSkip for the
	// miss-heavy profiles (mcf) — the event-horizon clock's reason
	// to exist.
	minMissHeavySpeedup = 1.6
	// minSpeedup is the floor on SpeedupVsNoSkip everywhere: no profile
	// may be slower with skipping than without (0.95 leaves measurement
	// noise room).
	minSpeedup = 0.95
	// maxAllocsPerKCycle bounds whole-run heap allocations; a single
	// per-cycle allocation would show up as ~1000.
	maxAllocsPerKCycle = 1.0
	// minSnapshotSpeedup is the floor on the grid_snapshot record's
	// SpeedupVsCold. The warm pass simulates half the instructions of the
	// cold pass (warm-up is Insts/2), so the work ratio alone predicts ~2x;
	// restore/deserialisation overhead and the non-linearity of warm-up
	// cycles vs measurement cycles eat into it. 1.2 is the honest floor: if
	// restoring is not at least 20% faster than re-simulating a
	// warm-up-dominated grid, the snapshot path has regressed into
	// pointlessness.
	minSnapshotSpeedup = 1.2
)

// missHeavy reports whether a profile is one of the pointer-chase grid
// points the ≥2× tentpole targets. twolf dropped off this list when the
// backend-idle walk gate landed: eliding dead RUU walks speeds the
// per-cycle baseline up too, which compressed twolf's skip-vs-noskip
// ratio to ~1.2–1.3× (it is moderately miss-heavy, so most of its wins
// came from walk elision, which both clock modes now share). mcf's long
// memory stalls keep cycle skipping itself decisively ahead (~2×).
// twolf remains bound by minSpeedup like every other profile.
func missHeavy(profile string) bool { return profile == "mcf" }

// Gate checks current against the floors, returning one human-readable
// violation per failure; an empty slice is a pass.
func Gate(current *CoreBench) []string {
	var bad []string
	for _, r := range current.Records {
		if missHeavy(r.Profile) && r.SpeedupVsNoSkip < minMissHeavySpeedup {
			bad = append(bad, fmt.Sprintf("%s: event-horizon speedup %.2fx below the miss-heavy floor %.2fx",
				r.Name, r.SpeedupVsNoSkip, minMissHeavySpeedup))
		}
		if r.SpeedupVsNoSkip < minSpeedup {
			bad = append(bad, fmt.Sprintf("%s: skipping is slower than the per-cycle path (%.2fx < %.2fx)",
				r.Name, r.SpeedupVsNoSkip, minSpeedup))
		}
		if r.AllocsPerKCycle > maxAllocsPerKCycle {
			bad = append(bad, fmt.Sprintf("%s: %.2f allocs per 1000 cycles exceeds %.2f — the loop is allocating",
				r.Name, r.AllocsPerKCycle, maxAllocsPerKCycle))
		}
	}
	switch gs := current.GridSnapshot; {
	case gs == nil:
		bad = append(bad, "grid_snapshot: not measured")
	case gs.SpeedupVsCold < minSnapshotSpeedup:
		bad = append(bad, fmt.Sprintf("grid_snapshot/%s: warm-restore speedup %.2fx below the %.2fx floor over cold warm-up",
			gs.Profile, gs.SpeedupVsCold, minSnapshotSpeedup))
	}
	sort.Strings(bad)
	return bad
}

// FormatCoreComparison renders one row per grid point: ns/cycle in both
// clock modes, their ratio and the share of cycles skipped.
func FormatCoreComparison(current *CoreBench) string {
	var sb strings.Builder
	fmt.Fprintf(&sb, "%-16s %12s %12s %10s %8s\n", "grid point", "ns/cyc", "noskip", "speedup", "skipped")
	for _, r := range current.Records {
		fmt.Fprintf(&sb, "%-16s %12.1f %12.1f %9.2fx %7.1f%%\n",
			r.Name, r.NsPerCycle, r.NoSkipNsPerCycle, r.SpeedupVsNoSkip, 100*r.SkippedFrac)
	}
	return sb.String()
}
