package experiments

import (
	"fmt"
	"strings"

	"repro/internal/core"
	"repro/internal/dataframe"
	"repro/internal/profile"
	"repro/internal/sim"
)

// figure4Kernels are the rows shown in the paper's Figures 4 and 14.
var figure4Kernels = []string{
	"Apps_NODAL_ACCUMULATION_3D", "Apps_VOL3D", "Lcals_HYDRO_1D", "Stream_DOT",
}

// figure9Kernels are the rows of the Figure 9/12 statistics tables.
var figure9Kernels = []string{
	"Apps_NODAL_ACCUMULATION_3D", "Apps_VOL3D", "Lcals_HYDRO_1D",
	"Polybench_GESUMMV", "Stream_DOT",
}

// rebaseAll rewrites every profile's root region to newRoot so trees from
// different execution variants align for composition.
func rebaseAll(profiles []*profile.Profile, newRoot string) ([]*profile.Profile, error) {
	out := make([]*profile.Profile, len(profiles))
	for i, p := range profiles {
		r, err := p.Rebase(newRoot)
		if err != nil {
			return nil, err
		}
		out[i] = r
	}
	return out, nil
}

// gpuWithNCU generates one lassen CUDA run per problem size and merges
// the NCU metrics into the Caliper GPU timing profile (the paper §5.1.2
// appends NCU metrics to the profiles), rebased onto the CPU root.
func gpuWithNCU(sizes []int64, blockSize int, seed int64) ([]*profile.Profile, error) {
	var out []*profile.Profile
	for _, size := range sizes {
		gpu, err := sim.GenerateRaja(sim.RajaConfig{
			Cluster: "lassen", Variant: sim.VariantCUDA, Tool: sim.ToolGPU,
			ProblemSize: size, Compiler: "xlc-16.1.1.12", Optimization: "-O0",
			CudaCompiler: "nvcc-11.2.152", BlockSize: blockSize, Seed: seed,
		})
		if err != nil {
			return nil, err
		}
		ncu, err := sim.GenerateRaja(sim.RajaConfig{
			Cluster: "lassen", Variant: sim.VariantCUDA, Tool: sim.ToolNCU,
			ProblemSize: size, Compiler: "xlc-16.1.1.12", Optimization: "-O0",
			CudaCompiler: "nvcc-11.2.152", BlockSize: blockSize, Seed: seed,
		})
		if err != nil {
			return nil, err
		}
		merged, err := gpu.MergeMetrics(ncu)
		if err != nil {
			return nil, err
		}
		rebased, err := merged.Rebase("Base_Seq")
		if err != nil {
			return nil, err
		}
		out = append(out, rebased)
	}
	return out, nil
}

// kernelRows returns a copy of a (node, …)-indexed frame keeping only
// rows whose node path ends at one of the named kernels, with node labels
// shortened to the kernel names (the paper's table rendering).
func kernelRows(th *core.Thicket, f *dataframe.Frame, kernels []string) *dataframe.Frame {
	want := map[string]bool{}
	for _, k := range kernels {
		want[k] = true
	}
	lv := f.Index().LevelByName(core.NodeLevel)
	filtered := f.Filter(func(r dataframe.Row) bool {
		path := lv.At(r.Pos()).Str()
		segs := strings.Split(path, "/")
		return want[segs[len(segs)-1]]
	})
	return th.RelabelledPerfData(filtered)
}

// metricRows is MetricVector with each value's profile given as its
// metadata row.
func metricRows(th *core.Thicket, node string, metric dataframe.ColKey) ([]float64, []int32, error) {
	vals, profs, err := th.MetricVector(node, metric)
	if err != nil {
		return nil, nil, err
	}
	lv, err := dataframe.SeriesOf(th.ProfileLevelName(), profs)
	if err != nil {
		return nil, nil, err
	}
	return vals, th.Metadata.Index().Locate(lv), nil
}

// meanByNodeSize aggregates a metric to means per (kernel, problem size)
// across trials; returns kernel -> size -> mean.
func meanByNodeSize(th *core.Thicket, metric dataframe.ColKey, kernels []string) (map[string]map[int64]float64, error) {
	col, err := th.PerfData.Column(metric)
	if err != nil {
		return nil, err
	}
	want := map[string]bool{}
	for _, k := range kernels {
		want[k] = true
	}
	nodeLv := th.PerfData.Index().LevelByName(core.NodeLevel)
	sizeCol, err := th.Metadata.ColumnByName("problem size")
	if err != nil {
		return nil, err
	}
	ords := th.ProfileOrdinals()

	sums := map[string]map[int64][2]float64{}
	for r := 0; r < th.PerfData.NRows(); r++ {
		path := nodeLv.At(r).Str()
		segs := strings.Split(path, "/")
		kernel := segs[len(segs)-1]
		if !want[kernel] {
			continue
		}
		v, ok := col.At(r).AsFloat()
		if !ok {
			continue
		}
		size := sizeCol.At(int(ords[r])).Int()
		if sums[kernel] == nil {
			sums[kernel] = map[int64][2]float64{}
		}
		acc := sums[kernel][size]
		sums[kernel][size] = [2]float64{acc[0] + v, acc[1] + 1}
	}
	out := map[string]map[int64]float64{}
	for kernel, bySize := range sums {
		out[kernel] = map[int64]float64{}
		for size, acc := range bySize {
			out[kernel][size] = acc[0] / acc[1]
		}
	}
	return out, nil
}

// section renders a titled report block.
func section(title, body string) string {
	return fmt.Sprintf("== %s ==\n%s\n", title, strings.TrimRight(body, "\n"))
}

// fig5Ensemble builds the four-profile ensemble of Figure 5: clang on
// quartz and xlc (CUDA) on lassen, at two problem sizes.
func fig5Ensemble(seed int64) ([]*profile.Profile, error) {
	var out []*profile.Profile
	for _, size := range []int64{1048576, 4194304} {
		cpu, err := sim.GenerateRaja(sim.RajaConfig{
			Cluster: "quartz", Variant: sim.VariantSequential, Tool: sim.ToolTiming,
			ProblemSize: size, Compiler: "clang++-9.0.0", Optimization: "-O2",
			OmpThreads: 1, Seed: seed,
		})
		if err != nil {
			return nil, err
		}
		gpu, err := sim.GenerateRaja(sim.RajaConfig{
			Cluster: "lassen", Variant: sim.VariantCUDA, Tool: sim.ToolGPU,
			ProblemSize: size, Compiler: "xlc-16.1.1.12", Optimization: "-O0",
			CudaCompiler: "nvcc-11.2.152", BlockSize: 256, Seed: seed,
		})
		if err != nil {
			return nil, err
		}
		out = append(out, cpu, gpu)
	}
	return out, nil
}

// metadataView selects the Figure 5 metadata columns.
func metadataView(th *core.Thicket) (*dataframe.Frame, error) {
	return th.Metadata.SelectColumns([]dataframe.ColKey{
		{"problem size"}, {"compiler"}, {"raja version"}, {"cluster"}, {"launch date"}, {"user"},
	})
}
