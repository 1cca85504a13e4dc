package core

import (
	"errors"
	"reflect"
	"testing"

	"clgp/internal/cacti"
	"clgp/internal/snap"
	"clgp/internal/stats"
	"clgp/internal/trace"
	"clgp/internal/tracefile"
	"clgp/internal/workload"
)

// warmSnapshot runs a fresh engine to the warm-up boundary and serialises it.
func warmSnapshot(t *testing.T, cfg Config, w *workload.Workload, warmup uint64) []byte {
	t.Helper()
	eng, err := NewEngine(cfg, w.Dict, w.Trace)
	if err != nil {
		t.Fatalf("engine: %v", err)
	}
	if err := eng.RunUntilCommitted(warmup); err != nil {
		t.Fatalf("warm-up: %v", err)
	}
	data, err := eng.Snapshot(w.Name, workload.Fingerprint(w.Profile, w.Dict))
	if err != nil {
		t.Fatalf("snapshot: %v", err)
	}
	return data
}

// restoreAndRun builds a fresh engine, restores the snapshot into it and runs
// it to completion.
func restoreAndRun(t *testing.T, cfg Config, w *workload.Workload, data []byte) *stats.Results {
	t.Helper()
	eng, err := NewEngine(cfg, w.Dict, w.Trace)
	if err != nil {
		t.Fatalf("engine: %v", err)
	}
	if err := eng.Restore(data, w.Name, workload.Fingerprint(w.Profile, w.Dict)); err != nil {
		t.Fatalf("restore: %v", err)
	}
	r, err := eng.Run()
	if err != nil {
		t.Fatalf("restored run: %v", err)
	}
	return r
}

// TestSnapshotRestoreBitIdentical is the acceptance property of warm-state
// snapshots: for every engine kind, a run restored from a mid-run snapshot
// must finish with results bit-identical (modulo telemetry) to a
// straight-through run — same cycles, same cycle accounts, same every counter.
func TestSnapshotRestoreBitIdentical(t *testing.T) {
	const numInsts = 30_000
	const warmup = numInsts / 2
	w := icacheStressWorkload(t, numInsts, 7)
	for _, ek := range []EngineKind{EngineNone, EngineNextN, EngineFDP, EngineCLGP} {
		t.Run(ek.String(), func(t *testing.T) {
			cfg := Config{
				Tech: cacti.Tech90, L1ISize: 2 << 10, Engine: ek,
				UseL0: ek == EngineCLGP, PreBufferEntries: 8,
			}
			ref := runConfig(t, cfg, w)
			data := warmSnapshot(t, cfg, w, warmup)
			got := restoreAndRun(t, cfg, w, data)
			if !reflect.DeepEqual(got, ref) {
				t.Errorf("restored run diverges from straight-through:\nrestored: %+v\nstraight: %+v", got, ref)
			}
			if got.Cycles != ref.Cycles {
				t.Errorf("restored final cycle count %d != straight-through %d", got.Cycles, ref.Cycles)
			}
		})
	}
}

// TestSnapshotCrossModeRestore checks that a snapshot is a clock-mode-neutral
// architectural checkpoint: recorded under the per-cycle reference clock it
// must restore bit-identically under the event-horizon clock, and vice versa.
func TestSnapshotCrossModeRestore(t *testing.T) {
	const numInsts = 30_000
	const warmup = numInsts / 2
	w := icacheStressWorkload(t, numInsts, 11)
	base := Config{Tech: cacti.Tech90, L1ISize: 2 << 10, Engine: EngineCLGP, UseL0: true, PreBufferEntries: 8}
	perCycle := base
	perCycle.NoSkip = true

	modes := []struct {
		name            string
		record, restore Config
	}{
		{"percycle-to-skip", perCycle, base},
		{"skip-to-percycle", base, perCycle},
		{"skip-to-skip", base, base},
	}
	for _, m := range modes {
		t.Run(m.name, func(t *testing.T) {
			ref := runConfig(t, m.restore, w)
			data := warmSnapshot(t, m.record, w, warmup)
			got := restoreAndRun(t, m.restore, w, data)
			if !reflect.DeepEqual(got, ref) {
				t.Errorf("cross-mode restored run diverges:\nrestored: %+v\nstraight: %+v", got, ref)
			}
		})
	}
}

// TestSnapshotRestoreStreamed restores an in-memory-recorded snapshot into an
// engine streaming the same trace through a bounded window: the restore-time
// Advance must evict the committed prefix so the window stays bounded, and the
// results must stay bit-identical to the in-memory straight-through run.
func TestSnapshotRestoreStreamed(t *testing.T) {
	const numInsts = 60_000
	const warmup = numInsts / 2
	const windowCap = 4096
	path, w := recordTraceFile(t, numInsts, 41)
	cfg := Config{Tech: cacti.Tech90, L1ISize: 1 << 10, Engine: EngineCLGP, UseL0: true}
	ref := runConfig(t, cfg, w)
	data := warmSnapshot(t, cfg, w, warmup)

	rd, err := tracefile.Open(path)
	if err != nil {
		t.Fatalf("open: %v", err)
	}
	defer rd.Close()
	wt, err := trace.NewWindowTrace(rd, windowCap)
	if err != nil {
		t.Fatalf("window: %v", err)
	}
	eng, err := NewEngine(cfg, w.Dict, wt)
	if err != nil {
		t.Fatalf("engine: %v", err)
	}
	if err := eng.Restore(data, w.Name, workload.Fingerprint(w.Profile, w.Dict)); err != nil {
		t.Fatalf("restore: %v", err)
	}
	got, err := eng.Run()
	if err != nil {
		t.Fatalf("streamed restored run: %v", err)
	}
	if !reflect.DeepEqual(got, ref) {
		t.Errorf("streamed restored run diverges from in-memory straight-through:\nrestored: %+v\nstraight: %+v", got, ref)
	}
	if wt.MaxResident() > windowCap {
		t.Errorf("window held %d records, cap %d — restore broke the eviction frontier", wt.MaxResident(), windowCap)
	}
}

// TestSnapshotRejectsMismatch exercises every identity check Restore applies
// before touching engine state.
func TestSnapshotRejectsMismatch(t *testing.T) {
	const numInsts = 20_000
	w := icacheStressWorkload(t, numInsts, 13)
	fp := workload.Fingerprint(w.Profile, w.Dict)
	cfg := Config{Tech: cacti.Tech90, L1ISize: 2 << 10, Engine: EngineCLGP, UseL0: true}
	data := warmSnapshot(t, cfg, w, numInsts/2)

	fresh := func(c Config) *Engine {
		t.Helper()
		eng, err := NewEngine(c, w.Dict, w.Trace)
		if err != nil {
			t.Fatalf("engine: %v", err)
		}
		return eng
	}

	if err := fresh(cfg).Restore(data, "other-workload", fp); err == nil {
		t.Error("restore accepted a mismatched workload name")
	}
	if err := fresh(cfg).Restore(data, w.Name, fp+1); err == nil {
		t.Error("restore accepted a mismatched fingerprint")
	}
	other := cfg
	other.L1ISize = 4 << 10
	if err := fresh(other).Restore(data, w.Name, fp); err == nil {
		t.Error("restore accepted a configuration with a different warm key")
	}
	otherEng := cfg
	otherEng.Engine = EngineFDP
	otherEng.UseL0 = false
	if err := fresh(otherEng).Restore(data, w.Name, fp); err == nil {
		t.Error("restore accepted a different engine scheme")
	}

	// A non-fresh engine must refuse.
	used := fresh(cfg)
	if err := used.RunUntilCommitted(100); err != nil {
		t.Fatalf("warm-up: %v", err)
	}
	if err := used.Restore(data, w.Name, fp); err == nil {
		t.Error("restore accepted a non-fresh engine")
	}

	// A finished engine must refuse to snapshot.
	doneEng := fresh(cfg)
	if _, err := doneEng.Run(); err != nil {
		t.Fatalf("run: %v", err)
	}
	if _, err := doneEng.Snapshot(w.Name, fp); err == nil {
		t.Error("snapshot of a finished engine succeeded")
	}

	// Damage must be rejected by the container or the strict decoder.
	trunc := data[:len(data)/2]
	if err := fresh(cfg).Restore(trunc, w.Name, fp); err == nil {
		t.Error("restore accepted a truncated snapshot")
	}
	flip := append([]byte(nil), data...)
	flip[len(flip)/2] ^= 0x40
	if err := fresh(cfg).Restore(flip, w.Name, fp); !errors.Is(err, snap.ErrCorrupt) {
		t.Errorf("corrupted snapshot: got %v, want ErrCorrupt", err)
	}
}

// TestWarmKeyAxes pins which configuration axes participate in the warm key:
// result-label and stop-condition fields must not (they do not change warm
// state), microarchitectural fields must.
func TestWarmKeyAxes(t *testing.T) {
	base := Config{Tech: cacti.Tech90, L1ISize: 2 << 10, Engine: EngineCLGP, UseL0: true}
	key := base.WarmKey()

	same := base
	same.Name = "renamed"
	same.MaxInsts = 12345
	same.NoSkip = true
	if same.WarmKey() != key {
		t.Error("Name/MaxInsts/NoSkip changed the warm key; sweeps over those axes cannot share snapshots")
	}

	for name, mutate := range map[string]func(*Config){
		"L1ISize":          func(c *Config) { c.L1ISize = 4 << 10 },
		"Engine":           func(c *Config) { c.Engine = EngineFDP },
		"UseL0":            func(c *Config) { c.UseL0 = false },
		"PreBufferEntries": func(c *Config) { c.PreBufferEntries = 16 },
		"Tech":             func(c *Config) { c.Tech = cacti.Tech45 },
	} {
		c := base
		mutate(&c)
		if c.WarmKey() == key {
			t.Errorf("%s change did not change the warm key", name)
		}
	}
}

// TestSnapshotRestoreAtMispredictPoints snapshots a mispredict-heavy run at
// about 50 evenly spaced cycle points and restores each into a fresh engine:
// every restored run must finish bit-identical to the uninterrupted one. The
// points must include machine states with fetched instructions waiting for
// dispatch behind a wrong-path suffix in the RUU, the state the restore path
// rebuilds around the fetched segment.
func TestSnapshotRestoreAtMispredictPoints(t *testing.T) {
	p, err := workload.ProfileByName("twolf")
	if err != nil {
		t.Fatalf("profile: %v", err)
	}
	p.Name = "twolf-noisy"
	p.NoisyBranchFrac = 0.5
	p.NoisyTakenBias = 0.5
	w, err := workload.Generate(p, 12_000, 53)
	if err != nil {
		t.Fatalf("generate: %v", err)
	}
	fp := workload.Fingerprint(w.Profile, w.Dict)
	cfg := Config{Tech: cacti.Tech90, L1ISize: 2 << 10, Engine: EngineCLGP, UseL0: true, PreBufferEntries: 8}
	ref := runConfig(t, cfg, w)
	if ref.Mispredictions == 0 {
		t.Fatal("profile produced no mispredictions; the test exercises nothing")
	}

	eng, err := NewEngine(cfg, w.Dict, w.Trace)
	if err != nil {
		t.Fatalf("engine: %v", err)
	}
	// A wrong-path instruction is in the RUU when more were delivered since
	// the in-flight misprediction was detected than the fetched segment holds
	// (none commits, and none is squashed before the resolution that ends
	// the episode). A new episode starts in the predict stage, after the
	// Step's fetch, so the count at the end of that Step is its base.
	var episode, episodeBase uint64
	const points = 50
	every := ref.Cycles / points
	var taken, wrongSuffixWithFetched int
	for next := every; eng.Step(); {
		if eng.detectedMisp != episode {
			episode, episodeBase = eng.detectedMisp, eng.wrongPathFetched
		}
		if eng.Cycles() < next {
			continue
		}
		next += every
		fetched := uint64(eng.backend.Fetched())
		if eng.wrongPath && fetched > 0 && eng.wrongPathFetched-episodeBase > fetched {
			wrongSuffixWithFetched++
		}
		data, err := eng.Snapshot(w.Name, fp)
		if err != nil {
			t.Fatalf("snapshot at cycle %d: %v", eng.Cycles(), err)
		}
		taken++
		if got := restoreAndRun(t, cfg, w, data); !reflect.DeepEqual(got, ref) {
			t.Fatalf("run restored at cycle %d diverges from straight-through:\nrestored: %+v\nstraight: %+v", eng.Cycles(), got, ref)
		}
	}
	if taken < points-5 {
		t.Errorf("took %d snapshots, want about %d", taken, points)
	}
	if wrongSuffixWithFetched == 0 {
		t.Errorf("none of %d points had fetched instructions behind a wrong-path RUU suffix", taken)
	}
	t.Logf("%d snapshot points, %d with fetched instructions behind a wrong-path RUU suffix", taken, wrongSuffixWithFetched)
}
