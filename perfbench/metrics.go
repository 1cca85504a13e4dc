package main

import (
	"fmt"

	"clgp/internal/stats"
)

// metric names one reported number and its unit.
type metric struct {
	name, unit string
}

// endToEnd are the metrics a user of the simulator sees, printed with
// --trace 0 on every workload. All are host costs. The simulated results
// (model.*, paper.*) differ between seeds and can be 0, so they are
// per-layer metrics.
var endToEnd = []metric{
	{"wall_s", "s"},
	{"cpu_s", "s"},
	{"peak_rss_mb", "MB"},
	{"setup_s", "s"},
}

// cycleCauseMetric names the share of simulated cycles charged to c.
func cycleCauseMetric(c stats.CycleCause) string {
	return fmt.Sprintf("model.cycles.%s_frac", c)
}

// selfPackages are the packages a traced run folds CPU samples into, in
// report order. Samples in any other package land in "other".
var selfPackages = []string{
	"pipeline", "core", "bpred", "ftq", "prefetch", "prebuffer", "cache",
	"memory", "bus", "trace", "tracefile", "workload", "isa", "snap",
	"dispatch", "stats", "runtime", "other",
}

// perLayer are the metrics of single layers, printed with --trace 1. A
// layer a workload does not exercise reports 0 (README.md maps each metric
// to the workloads that measure it).
var perLayer = buildPerLayer()

func buildPerLayer() []metric {
	ms := []metric{
		{"workload.generate_s", "s"},
		{"core.new_s", "s"},
		{"tracefile.record_s", "s"},
		{"tracefile.bytes_per_inst", "B/inst"},
		{"snap.save_s", "s"},
		{"snap.bytes", "B"},
		{"snap.restore_s", "s"},
		{"core.run_s", "s"},
		{"core.kips", "kinst/s"},
		{"core.ns_per_inst", "ns"},
		{"core.ns_per_cycle", "ns"},
		{"core.skipped_frac", "frac"},
		{"core.allocs_per_kinst", "allocs/kinst"},
		{"sim.jobs", "count"},
		{"sim.job_wall_p50_ms", "ms"},
		{"sim.job_wall_max_ms", "ms"},
		{"sim.pool_busy_frac", "frac"},
		{"dispatch.shards", "count"},
		{"dispatch.retries", "count"},
		{"dispatch.fetch_trace_s", "s"},
		{"dispatch.simulate_s", "s"},
		{"dispatch.commit_s", "s"},
		{"dispatch.merge_s", "s"},
		{"dispatch.store_bytes", "B"},
		{"stats.figures_s", "s"},
		{"go.gc_cpu_frac", "frac"},
		{"go.heap_peak_mb", "MB"},
	}
	for _, pkg := range selfPackages {
		ms = append(ms, metric{"self_s." + pkg, "s"})
	}
	ms = append(ms,
		metric{"bench.trace_overhead_frac", "frac"},
		metric{"model.ipc", "inst/cycle"},
		metric{"model.bpred.mispredict_rate", "frac"},
		metric{"model.fetch.wrong_path_frac", "frac"},
		metric{"model.fetch.one_cycle_frac", "frac"},
		metric{"model.prefetch.per_kinst", "1/kinst"},
		metric{"model.prefetch.useful_frac", "frac"},
		metric{"model.l0.miss_rate", "frac"},
		metric{"model.l1i.miss_rate", "frac"},
		metric{"model.l2i.miss_rate", "frac"},
		metric{"model.dcache.miss_rate", "frac"},
		metric{"model.bus.conflicts_per_kcycle", "1/kcycle"},
	)
	for c := stats.CycleCause(0); c < stats.NumCycleCauses; c++ {
		ms = append(ms, metric{cycleCauseMetric(c), "frac"})
	}
	return append(ms,
		metric{"paper.clgp_l0_gain_pct", "%"},
		metric{"paper.orderings_failed", "count"},
	)
}

// addModel sets the simulated counters of one (possibly pooled) results
// record. They are deterministic for a seed and in simulated units.
func addModel(l map[string]float64, r *stats.Results) {
	ratio := func(num, den uint64, scale float64) float64 {
		if den == 0 {
			return 0
		}
		return scale * float64(num) / float64(den)
	}
	l["model.ipc"] = r.IPC()
	l["model.bpred.mispredict_rate"] = r.BranchMispredRate()
	l["model.fetch.wrong_path_frac"] = ratio(r.WrongPathFetched, r.Fetched, 1)
	l["model.fetch.one_cycle_frac"] = r.OneCycleFetchFraction()
	l["model.prefetch.per_kinst"] = ratio(r.PrefetchesIssued, r.Committed, 1000)
	l["model.prefetch.useful_frac"] = r.PrefetchUsefulness()
	l["model.l0.miss_rate"] = r.L0MissRate()
	l["model.l1i.miss_rate"] = r.L1MissRate()
	l["model.l2i.miss_rate"] = ratio(r.L2Misses, r.L2Accesses, 1)
	l["model.dcache.miss_rate"] = r.DCacheMissRate()
	l["model.bus.conflicts_per_kcycle"] = ratio(r.BusConflicts, r.Cycles, 1000)
	for c := stats.CycleCause(0); c < stats.NumCycleCauses; c++ {
		l[cycleCauseMetric(c)] = r.CycleAccounts.Fraction(c)
	}
}
