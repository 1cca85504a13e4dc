package main

import (
	"fmt"
	"os"
	"path/filepath"

	"clgp/internal/cacti"
	"clgp/internal/dispatch"
	"clgp/internal/stats"
)

// gridPoint names one simulated point of the paper grid.
type gridPoint struct {
	profile, tech, variant string
	size                   int
}

// variants are the figure columns in legend order; "ideal" is the
// ideal-I-cache baseline.
var variants = []string{"none", "nextn", "nextn+l0", "fdp", "fdp+l0", "clgp", "clgp+l0"}

// figL1 is the L1 size of the per-benchmark comparisons (Figure 6).
const figL1 = 2 << 10

// indexIPC keys the IPC of every successful record by its grid point.
func indexIPC(recs []dispatch.RunRecord) map[gridPoint]float64 {
	ipc := make(map[gridPoint]float64, len(recs))
	for _, rec := range recs {
		if rec.Stats == nil {
			continue
		}
		s := rec.Spec
		v := s.Engine
		if s.UseL0 {
			v += "+l0"
		}
		if s.Ideal {
			v = "ideal"
		}
		ipc[gridPoint{s.Profile, s.Tech, v, s.L1Size}] = rec.Stats.IPC()
	}
	return ipc
}

// hmean is the harmonic mean IPC of a variant over profiles, or false when
// a point is missing.
func hmean(ipc map[gridPoint]float64, profiles []string, tech, variant string, size int) (float64, bool) {
	xs := make([]float64, len(profiles))
	for i, p := range profiles {
		v, ok := ipc[gridPoint{p, tech, variant, size}]
		if !ok {
			return 0, false
		}
		xs[i] = v
	}
	return stats.HarmonicMean(xs), true
}

// clgpL0GainPct is the paper's headline effect: HMEAN IPC of clgp+l0 over
// none at 45nm with a 2KB L1, in percent.
func clgpL0GainPct(ipc map[gridPoint]float64, profiles []string) float64 {
	tech := cacti.Tech45.String()
	clgp, ok1 := hmean(ipc, profiles, tech, "clgp+l0", figL1)
	none, ok2 := hmean(ipc, profiles, tech, "none", figL1)
	if !ok1 || !ok2 || none == 0 {
		return 0
	}
	return 100 * (clgp/none - 1)
}

// checkOrderings tests the orderings the paper implies, with no tolerance:
//   - ideal >= every variant at each (profile, node, L1 size);
//   - clgp+l0 >= fdp >= none at each (profile, node) at 2KB;
//   - the relative HMEAN gap of ideal over none at 2KB is larger at 45nm
//     than at 90nm.
//
// It returns a description of each violated ordering and the number
// checked. Points absent from ipc are not checked.
func checkOrderings(ipc map[gridPoint]float64, profiles []string) (failed []string, checked int) {
	geq := func(a, b gridPoint) {
		va, ok1 := ipc[a]
		vb, ok2 := ipc[b]
		if !ok1 || !ok2 {
			return
		}
		checked++
		if va < vb {
			failed = append(failed, fmt.Sprintf("%s %s L1=%d: %s %.6g < %s %.6g",
				a.profile, a.tech, a.size, a.variant, va, b.variant, vb))
		}
	}
	sizes := cacti.L1Sizes()
	for _, tech := range gridTechs {
		t := tech.String()
		for _, p := range profiles {
			for _, size := range sizes {
				for _, v := range variants {
					geq(gridPoint{p, t, "ideal", size}, gridPoint{p, t, v, size})
				}
			}
			geq(gridPoint{p, t, "clgp+l0", figL1}, gridPoint{p, t, "fdp", figL1})
			geq(gridPoint{p, t, "fdp", figL1}, gridPoint{p, t, "none", figL1})
		}
	}
	gap := func(tech cacti.Tech) (float64, bool) {
		ideal, ok1 := hmean(ipc, profiles, tech.String(), "ideal", figL1)
		none, ok2 := hmean(ipc, profiles, tech.String(), "none", figL1)
		if !ok1 || !ok2 || none == 0 {
			return 0, false
		}
		return ideal/none - 1, true
	}
	g90, ok90 := gap(cacti.Tech90)
	g45, ok45 := gap(cacti.Tech45)
	if ok90 && ok45 {
		checked++
		if g45 <= g90 {
			failed = append(failed, fmt.Sprintf("ideal/none HMEAN gap at 2KB: 45nm %.4g <= 90nm %.4g", g45, g90))
		}
	}
	return failed, checked
}

// writeFigures emits Figure 1 (HMEAN IPC over the L1 sweep, baseline vs
// ideal) and Figure 6 (per-benchmark IPC at 2KB with the HMEAN bar) per
// node, as the figures command does, under dir.
func writeFigures(dir string, recs []dispatch.RunRecord) error {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return err
	}
	ipc := indexIPC(recs)
	for _, tech := range gridTechs {
		t := tech.String()
		fig1 := &stats.SeriesSet{Title: "Figure 1 " + t, XLabel: "L1I", YLabel: "HMEAN IPC"}
		for _, size := range cacti.L1Sizes() {
			for _, v := range []string{"none", "ideal"} {
				if h, ok := hmean(ipc, gridProfiles, t, v, size); ok {
					fig1.Ensure(v).Add(float64(size), h)
				}
			}
		}
		fig6 := &stats.SeriesSet{
			Title: "Figure 6 " + t, XLabel: "benchmark", YLabel: "IPC",
			Labels: append(append([]string{}, gridProfiles...), "HMEAN"),
		}
		for _, v := range variants {
			s := fig6.Ensure(v)
			for i, p := range gridProfiles {
				if x, ok := ipc[gridPoint{p, t, v, figL1}]; ok {
					s.Add(float64(i), x)
				}
			}
			if h, ok := hmean(ipc, gridProfiles, t, v, figL1); ok {
				s.Add(float64(len(gridProfiles)), h)
			}
		}
		for name, ss := range map[string]*stats.SeriesSet{"figure1_" + t: fig1, "figure6_" + t: fig6} {
			if err := ss.WriteFiles(filepath.Join(dir, name)); err != nil {
				return err
			}
		}
	}
	return nil
}
