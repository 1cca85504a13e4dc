package main

import (
	"math"
	"strings"
	"testing"

	"clgp/internal/cacti"
	"clgp/internal/dispatch"
	"clgp/internal/stats"
)

// handGrid builds a complete two-profile grid whose IPC is ipc(point). Each
// record commits 1e6 instructions, so IPC is exact in its cycle count.
func handGrid(profiles []string, ipc func(gridPoint) float64) []dispatch.RunRecord {
	var recs []dispatch.RunRecord
	for _, tech := range gridTechs {
		for _, p := range profiles {
			for _, size := range cacti.L1Sizes() {
				for _, v := range append([]string{"ideal"}, variants...) {
					spec := dispatch.JobSpec{Profile: p, Tech: tech.String(), L1Size: size}
					spec.Engine, spec.UseL0 = strings.CutSuffix(v, "+l0")
					if v == "ideal" {
						spec.Engine, spec.Ideal = "none", true
					}
					cycles := uint64(math.Round(1e6 / ipc(gridPoint{p, tech.String(), v, size})))
					recs = append(recs, dispatch.RunRecord{Spec: spec, Stats: &stats.Results{Cycles: cycles, Committed: 1e6}})
				}
			}
		}
	}
	return recs
}

// paperLike holds every ordering: ideal on top, clgp+l0 > fdp > none, and a
// wider ideal/none gap at 45nm (none is slower there).
func paperLike(pt gridPoint) float64 {
	switch pt.variant {
	case "ideal":
		return 1.0
	case "clgp+l0":
		return 0.9
	case "none":
		if pt.tech == cacti.Tech45.String() {
			return 0.8
		}
		return 0.81
	}
	return 0.82
}

func TestPaperEffectOnHandBuiltRecords(t *testing.T) {
	profiles := []string{"gcc", "eon"}
	ipc := indexIPC(handGrid(profiles, paperLike))
	if got := clgpL0GainPct(ipc, profiles); math.Abs(got-12.5) > 1e-3 {
		t.Errorf("clgp_l0_gain_pct = %g, want 12.5 (0.9 over 0.8)", got)
	}
	failed, checked := checkOrderings(ipc, profiles)
	// Per (node, profile): 9 sizes x 7 variants under ideal, plus two at
	// 2KB; then one node-gap ordering.
	if want := 2*2*(9*7+2) + 1; checked != want {
		t.Errorf("checked %d orderings, want %d", checked, want)
	}
	if len(failed) != 0 {
		t.Errorf("orderings failed on a paper-like grid: %v", failed)
	}
}

func TestOrderingViolations(t *testing.T) {
	profiles := []string{"gcc", "eon"}
	// eon at 45nm: fdp falls just below none at 2KB.
	fdpBelowNone := func(pt gridPoint) float64 {
		if pt.profile == "eon" && pt.tech == cacti.Tech45.String() && pt.size == figL1 && pt.variant == "fdp" {
			return 0.79999
		}
		return paperLike(pt)
	}
	failed, _ := checkOrderings(indexIPC(handGrid(profiles, fdpBelowNone)), profiles)
	if len(failed) != 1 || !strings.Contains(failed[0], "eon 0.045um L1=2048: fdp") {
		t.Errorf("want exactly the eon fdp < none violation, got %v", failed)
	}

	// A tie is no violation: the orderings carry no tolerance either way.
	fdpTiesNone := func(pt gridPoint) float64 {
		if pt.profile == "eon" && pt.tech == cacti.Tech45.String() && pt.size == figL1 && pt.variant == "fdp" {
			return 0.8
		}
		return paperLike(pt)
	}
	if failed, _ := checkOrderings(indexIPC(handGrid(profiles, fdpTiesNone)), profiles); len(failed) != 0 {
		t.Errorf("a tie counted as a violation: %v", failed)
	}

	// The same none IPC at both nodes: the gap does not widen at 45nm.
	flatGap := func(pt gridPoint) float64 {
		if pt.variant == "none" {
			return 0.8
		}
		return paperLike(pt)
	}
	failed, _ = checkOrderings(indexIPC(handGrid(profiles, flatGap)), profiles)
	if len(failed) != 1 || !strings.Contains(failed[0], "gap") {
		t.Errorf("want exactly the node-gap violation, got %v", failed)
	}
}
