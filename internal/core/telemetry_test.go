package core

import (
	"testing"

	"clgp/internal/cacti"
)

// TestInstrumentedLoopZeroAlloc is the allocs/op guard for the engine's
// hot-path counters (skipped cycles, cycle accounts, wrong-path fetches):
// they are plain single-writer fields, so stepping the engine must not touch
// the heap at all. Whole-run allocations are bounded by `clgpsim bench`
// (sim.Gate); their time cost by the paired A/B over
// the repo benchmark (cmd/benchab).
func TestInstrumentedLoopZeroAlloc(t *testing.T) {
	w := icacheStressWorkload(t, 400_000, 7)
	cfg := Config{Tech: cacti.Tech90, L1ISize: 2 << 10, Engine: EngineCLGP, UseL0: true}
	eng, err := NewEngine(cfg, w.Dict, w.Trace)
	if err != nil {
		t.Fatal(err)
	}
	// Warm past cold-start growth of pools and rings, as the cycle bench does.
	for i := 0; i < 20_000 && eng.Step(); i++ {
	}
	exhausted := false
	allocs := testing.AllocsPerRun(100, func() {
		for i := 0; i < 50; i++ {
			if !eng.Step() {
				exhausted = true
				return
			}
		}
	})
	if exhausted {
		t.Fatal("trace exhausted mid-measurement; grow the workload")
	}
	if allocs != 0 {
		t.Errorf("instrumented engine loop allocates %.1f allocs/run, want 0", allocs)
	}
}
