package sim

import (
	"strings"
	"testing"

	"clgp/internal/core"
)

func gateFixture() *CoreBench {
	return &CoreBench{
		Records: []CoreBenchRecord{
			{Name: "gcc/clgp", Profile: "gcc", Engine: "clgp", NsPerCycle: 150, SpeedupVsNoSkip: 2.1, AllocsPerKCycle: 0.01},
			{Name: "mcf/clgp", Profile: "mcf", Engine: "clgp", NsPerCycle: 60, SpeedupVsNoSkip: 4.5, AllocsPerKCycle: 0.01},
		},
		GridSnapshot: &GridSnapshotRecord{Profile: "gcc", Points: 8, SpeedupVsCold: 1.8},
	}
}

// TestGatePassesOnIdenticalRuns: a measurement that meets every floor
// passes, however slow its absolute ns/cycle.
func TestGatePassesOnIdenticalRuns(t *testing.T) {
	cb := gateFixture()
	for i := range cb.Records {
		cb.Records[i].NsPerCycle *= 10
	}
	if bad := Gate(cb); len(bad) != 0 {
		t.Fatalf("a measurement within every floor should pass the gate, got %v", bad)
	}
}

func TestGateEnforcesInvariants(t *testing.T) {
	cur := gateFixture()
	cur.Records[1].SpeedupVsNoSkip = 1.2  // miss-heavy floor is higher
	cur.Records[0].SpeedupVsNoSkip = 0.8  // slower than per-cycle
	cur.Records[0].AllocsPerKCycle = 12.0 // allocating on the hot path
	bad := Gate(cur)
	if len(bad) != 3 {
		t.Fatalf("expected 3 invariant violations, got %v", bad)
	}
}

// TestMeasureCoreSmoke runs a tiny real measurement end to end: both clock
// modes must simulate the same cycle count (MeasureCore errors otherwise)
// and the derived fields must be populated sanely.
func TestMeasureCoreSmoke(t *testing.T) {
	cb, err := MeasureCore([]string{"gzip"}, []core.EngineKind{core.EngineCLGP}, 5_000, 1)
	if err != nil {
		t.Fatal(err)
	}
	if len(cb.Records) != 1 {
		t.Fatalf("want 1 record, got %d", len(cb.Records))
	}
	r := cb.Records[0]
	if r.Cycles == 0 || r.NsPerCycle <= 0 || r.NoSkipNsPerCycle <= 0 || r.SpeedupVsNoSkip <= 0 {
		t.Fatalf("degenerate record: %+v", r)
	}
	if out := FormatCoreComparison(cb); !strings.Contains(out, "gzip/clgp") {
		t.Fatalf("comparison table missing the grid point:\n%s", out)
	}
}

func TestGateEnforcesSnapshotFloor(t *testing.T) {
	cur := gateFixture()
	cur.GridSnapshot.SpeedupVsCold = 1.05
	bad := Gate(cur)
	if len(bad) != 1 || !strings.Contains(bad[0], "grid_snapshot/gcc") {
		t.Fatalf("expected one snapshot-floor violation, got %v", bad)
	}

	// Dropping the measurement must fail.
	cur.GridSnapshot = nil
	bad = Gate(cur)
	if len(bad) != 1 || !strings.Contains(bad[0], "not measured") {
		t.Fatalf("expected a missing-grid_snapshot violation, got %v", bad)
	}
}

func TestMeasureSnapshotGridSmoke(t *testing.T) {
	gs, err := MeasureSnapshotGrid("gcc", 8_000, 3)
	if err != nil {
		t.Fatal(err)
	}
	if gs.Points != 8 {
		t.Errorf("measured %d points, want the 8-config grid", gs.Points)
	}
	if gs.Warmup != gs.Insts/2 {
		t.Errorf("warm-up %d is not half of %d insts", gs.Warmup, gs.Insts)
	}
	if gs.Cycles == 0 || gs.ColdCyclesPerSec <= 0 || gs.WarmCyclesPerSec <= 0 || gs.SpeedupVsCold <= 0 {
		t.Errorf("degenerate measurement: %+v", gs)
	}
	if gs.SnapshotBytes == 0 {
		t.Error("cold pass published no snapshot bytes")
	}
	// No throughput assertion at this trace length — construction cost
	// dominates 8k-inst runs; `clgpsim bench` holds the floor at full length.
}
