package obs

import (
	"repro/internal/ctmc"
	"repro/internal/dtmc"
	"repro/internal/faulttree"
	"repro/internal/gspn"
)

// kernelSeries is the one table of the solver kernels' process-wide
// counters: every field of ctmc, dtmc, gspn and faulttree's KernelStats, as
// kernel_<package>_<counter>_total.
var kernelSeries = []struct {
	name, help string
	fn         func() int64
}{
	{"kernel_ctmc_steady_solves_total", "ctmc GTH steady-state solves",
		func() int64 { return ctmc.ReadKernelStats().SteadySolves }},
	{"kernel_ctmc_transient_solves_total", "ctmc uniformization runs",
		func() int64 { return ctmc.ReadKernelStats().TransientSolves }},
	{"kernel_ctmc_uniformization_steps_total", "ctmc sparse matrix-vector products across transient solves",
		func() int64 { return ctmc.ReadKernelStats().UniformizationSteps }},
	{"kernel_ctmc_poisson_cache_hits_total", "ctmc Poisson terms reused for a repeated (rate·t, tolerance)",
		func() int64 { return ctmc.ReadKernelStats().PoissonCacheHits }},
	{"kernel_ctmc_poisson_cache_misses_total", "ctmc Poisson terms computed afresh",
		func() int64 { return ctmc.ReadKernelStats().PoissonCacheMisses }},
	{"kernel_ctmc_rate_refreshes_total", "ctmc SetRate updates applied to compiled chains",
		func() int64 { return ctmc.ReadKernelStats().RateRefreshes }},
	{"kernel_dtmc_compiles_total", "dtmc chain compiles",
		func() int64 { return dtmc.ReadKernelStats().Compiles }},
	{"kernel_dtmc_analyses_total", "dtmc compiled absorbing analyses",
		func() int64 { return dtmc.ReadKernelStats().Analyses }},
	{"kernel_dtmc_column_solves_total", "dtmc fundamental-matrix column solves",
		func() int64 { return dtmc.ReadKernelStats().ColumnSolves }},
	{"kernel_dtmc_refreshes_total", "dtmc SetProbability updates applied to compiled chains",
		func() int64 { return dtmc.ReadKernelStats().Refreshes }},
	{"kernel_gspn_freezes_total", "gspn reachability explorations",
		func() int64 { return gspn.ReadKernelStats().Freezes }},
	{"kernel_gspn_freeze_hits_total", "gspn analyses served from a frozen reachability graph",
		func() int64 { return gspn.ReadKernelStats().FreezeHits }},
	{"kernel_gspn_solves_total", "gspn frozen-graph solves",
		func() int64 { return gspn.ReadKernelStats().Solves }},
	{"kernel_gspn_edge_replays_total", "gspn frozen-edge rate re-evaluations across solves",
		func() int64 { return gspn.ReadKernelStats().EdgeReplays }},
	{"kernel_faulttree_compiles_total", "fault-tree compiles",
		func() int64 { return faulttree.ReadKernelStats().Compiles }},
	{"kernel_faulttree_evals_total", "fault-tree compiled top-event evaluations",
		func() int64 { return faulttree.ReadKernelStats().Evals }},
	{"kernel_faulttree_cut_set_queries_total", "fault-tree MinimalCutSets queries served from the structure cache",
		func() int64 { return faulttree.ReadKernelStats().CutSetQueries }},
}

// KernelSeries returns the names RegisterKernels publishes, in table order.
func KernelSeries() []string {
	names := make([]string, len(kernelSeries))
	for i, k := range kernelSeries {
		names[i] = k.name
	}
	return names
}

// RegisterKernels publishes the solver kernels' process-wide counters on reg,
// read at scrape time. Every binary that serves or prints metrics calls it,
// so the kernel_* series are the same wherever they appear.
func RegisterKernels(reg *Registry) error {
	for _, k := range kernelSeries {
		if err := reg.CounterFunc(k.name, k.help, k.fn); err != nil {
			return err
		}
	}
	return nil
}
