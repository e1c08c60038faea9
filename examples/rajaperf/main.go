// RAJA Performance Suite case study (paper §5.1): top-down analysis on
// the simulated Quartz CPU ensemble, a call-path query isolating the
// Stream kernels, silhouette-selected K-means clustering of speedup vs
// top-down metrics (Figure 10), and the composed CPU/GPU speedup table
// (Figure 15).
package main

import (
	"fmt"
	"log"
	"sort"
	"strings"

	thicket "repro"
	"repro/internal/core"
	"repro/internal/sim"
	"repro/internal/viz"
)

func main() {
	const seed = 1

	// ---- Top-down ensemble: 4 sizes × -O2 × 10 trials on quartz.
	sizes := []int64{1048576, 2097152, 4194304, 8388608}
	profiles, err := sim.TopdownEnsemble(sizes, []string{"-O2"}, 10, seed)
	if err != nil {
		log.Fatal(err)
	}
	th, err := thicket.FromProfiles(profiles, thicket.Options{})
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("loaded %d top-down profiles (%d perf rows)\n\n", th.NumProfiles(), th.PerfData.NRows())

	// Figure 14: stacked top-down bars per kernel × size.
	kernels := []string{"Apps_NODAL_ACCUMULATION_3D", "Apps_VOL3D", "Lcals_HYDRO_1D", "Stream_DOT"}
	metrics := []string{"Retiring", "Frontend bound", "Backend bound", "Bad speculation"}
	var bars []viz.StackedBar
	for _, kernel := range kernels {
		for _, size := range sizes {
			vals := make([]float64, len(metrics))
			for mi, m := range metrics {
				vals[mi] = meanAt(th, kernel, size, m)
			}
			bars = append(bars, viz.StackedBar{Label: fmt.Sprintf("%s %d", kernel, size), Values: vals})
		}
	}
	ascii, err := viz.StackedBars(metrics, bars, 56)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Println("== Figure 14: top-down breakdown ==")
	fmt.Print(ascii)

	// ---- Figure 10: cluster Stream kernels by speedup vs -O0.
	optProfiles, err := sim.TopdownEnsemble([]int64{8388608}, []string{"-O0", "-O1", "-O2", "-O3"}, 1, seed)
	if err != nil {
		log.Fatal(err)
	}
	optTh, err := thicket.FromProfiles(optProfiles, thicket.Options{})
	if err != nil {
		log.Fatal(err)
	}
	streamTh, err := optTh.Query(thicket.NewQuery().Match(".", thicket.NameStartsWith("Stream_")))
	if err != nil {
		log.Fatal(err)
	}
	type sample struct {
		kernel, opt       string
		speedup, retiring float64
	}
	samples := collectSamples(streamTh)
	var m thicket.Matrix
	for _, s := range samples {
		m = append(m, []float64{s.speedup, s.retiring})
	}
	scaled, err := thicket.Scale(m)
	if err != nil {
		log.Fatal(err)
	}
	k, res, err := thicket.ChooseK(scaled, 2, 6, seed)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("\n== Figure 10: K-means on (speedup, Retiring), silhouette k=%d ==\n", k)
	byCluster := map[int][]string{}
	for i, s := range samples {
		byCluster[res.Labels[i]] = append(byCluster[res.Labels[i]],
			fmt.Sprintf("%s@%s", strings.TrimPrefix(s.kernel, "Stream_"), s.opt))
	}
	var cids []int
	for c := range byCluster {
		cids = append(cids, c)
	}
	sort.Ints(cids)
	for _, c := range cids {
		fmt.Printf("  cluster %d: %s\n", c, strings.Join(byCluster[c], " "))
	}

	// ---- Figure 15: composed CPU/GPU table with derived speedup.
	fmt.Println("\n== Figure 15: CPU vs GPU speedup (8388608 elements) ==")
	cpu, err := sim.TimingEnsemble([]int64{8388608}, 1, seed)
	if err != nil {
		log.Fatal(err)
	}
	gpuRaw, err := sim.GenerateRaja(sim.RajaConfig{
		Cluster: "lassen", Variant: sim.VariantCUDA, Tool: sim.ToolGPU,
		ProblemSize: 8388608, Compiler: "xlc-16.1.1.12", Optimization: "-O0",
		CudaCompiler: "nvcc-11.2.152", BlockSize: 256, Seed: seed,
	})
	if err != nil {
		log.Fatal(err)
	}
	gpu, err := gpuRaw.Rebase("Base_Seq")
	if err != nil {
		log.Fatal(err)
	}
	cpuTh, err := thicket.FromProfiles(cpu, thicket.Options{IndexBy: "problem size"})
	if err != nil {
		log.Fatal(err)
	}
	gpuTh, err := thicket.FromProfiles([]*thicket.Profile{gpu}, thicket.Options{IndexBy: "problem size"})
	if err != nil {
		log.Fatal(err)
	}
	composed, err := thicket.Compose([]string{"CPU", "GPU"}, []*thicket.Thicket{cpuTh, gpuTh})
	if err != nil {
		log.Fatal(err)
	}
	err = composed.AddDerived(thicket.ColKey{"Derived", "speedup"}, func(r thicket.Row) thicket.Value {
		c, _ := r.ValueAt(thicket.ColKey{"CPU", "time (exc)"}).AsFloat()
		g, _ := r.ValueAt(thicket.ColKey{"GPU", "time (gpu)"}).AsFloat()
		if g == 0 {
			return thicket.Float64(0)
		}
		return thicket.Float64(c / g)
	})
	if err != nil {
		log.Fatal(err)
	}
	view, err := composed.PerfData.SelectColumns([]thicket.ColKey{
		{"CPU", "time (exc)"}, {"GPU", "time (gpu)"}, {"Derived", "speedup"},
	})
	if err != nil {
		log.Fatal(err)
	}
	fmt.Print(composed.RelabelledPerfData(view).String())

	// ---- CUDA block-size tuning (the Figure 8 variants): sweep block
	// sizes, pivot kernel × block size, pick the winner per kernel.
	fmt.Println("\n== CUDA block-size tuning (mean time (gpu), 3 runs each) ==")
	var blockProfiles []*thicket.Profile
	for _, bs := range []int{128, 256, 512, 1024} {
		for trial := 0; trial < 3; trial++ {
			p, err := sim.GenerateRaja(sim.RajaConfig{
				Cluster: "lassen", Variant: sim.VariantCUDA, Tool: sim.ToolGPU,
				ProblemSize: 8388608, Compiler: "xlc-16.1.1.12", Optimization: "-O0",
				CudaCompiler: "nvcc-11.2.152", BlockSize: bs, Trial: trial, Seed: seed,
			})
			if err != nil {
				log.Fatal(err)
			}
			blockProfiles = append(blockProfiles, p)
		}
	}
	blockTh, err := thicket.FromProfiles(blockProfiles, thicket.Options{})
	if err != nil {
		log.Fatal(err)
	}
	// Annotate every perf row with its profile's block size, then pivot.
	bsCol, err := blockTh.Metadata.ColumnByName("block size")
	if err != nil {
		log.Fatal(err)
	}
	bsOrds := blockTh.ProfileOrdinals()
	if err := blockTh.AddDerived(thicket.ColKey{"block"}, func(r thicket.Row) thicket.Value {
		return thicket.Int64(bsCol.At(int(bsOrds[r.Pos()])).Int())
	}); err != nil {
		log.Fatal(err)
	}
	leafOnly := blockTh.FilterNodes(func(n *thicket.Node) bool {
		return n.IsLeaf() && !strings.Contains(n.Name(), ".")
	})
	mean := func(xs []float64) float64 {
		s := 0.0
		for _, x := range xs {
			s += x
		}
		return s / float64(len(xs))
	}
	table, err := leafOnly.RelabelledPerfData(leafOnly.PerfData).Pivot(core.NodeLevel, "block", "time (gpu)", mean)
	if err != nil {
		log.Fatal(err)
	}
	// Ancestor rows (kept for tree context) carry no GPU time: drop them.
	table = table.Filter(func(r thicket.Row) bool {
		for c := 0; c < table.NCols(); c++ {
			if _, ok := table.ColumnAt(c).At(r.Pos()).AsFloat(); ok {
				return true
			}
		}
		return false
	})
	fmt.Print(table.String())
	// Winner per kernel.
	fmt.Println("\nbest block size per kernel:")
	lv := table.Index().LevelByName(core.NodeLevel)
	for r := 0; r < table.NRows(); r++ {
		best, bestT := "", 0.0
		for c := 0; c < table.NCols(); c++ {
			v := table.ColumnAt(c).FloatAt(r)
			if best == "" || v < bestT {
				best, bestT = table.ColIndex().Key(c).Leaf(), v
			}
		}
		fmt.Printf("  %-28s block %-5s (%.4fs)\n", lv.At(r).Str(), best, bestT)
	}
}

// meanAt averages one metric for (kernel leaf, problem size) over trials.
func meanAt(th *thicket.Thicket, kernel string, size int64, metric string) float64 {
	col, err := th.PerfData.Column(thicket.ColKey{metric})
	if err != nil {
		return 0
	}
	sizeCol, err := th.Metadata.ColumnByName("problem size")
	if err != nil {
		return 0
	}
	nodeLv := th.PerfData.Index().LevelByName(core.NodeLevel)
	ords := th.ProfileOrdinals()
	sum, n := 0.0, 0.0
	for r := 0; r < th.PerfData.NRows(); r++ {
		if !strings.HasSuffix(nodeLv.At(r).Str(), "/"+kernel) {
			continue
		}
		if sizeCol.At(int(ords[r])).Int() != size {
			continue
		}
		v, ok := col.At(r).AsFloat()
		if ok {
			sum += v
			n++
		}
	}
	if n == 0 {
		return 0
	}
	return sum / n
}

type sample struct {
	kernel, opt       string
	speedup, retiring float64
}

// collectSamples extracts (kernel, opt, speedup-vs-O0, retiring).
func collectSamples(streamTh *thicket.Thicket) []sample {
	optCol, err := streamTh.Metadata.ColumnByName("compiler optimizations")
	if err != nil {
		log.Fatal(err)
	}
	nodeLv := streamTh.PerfData.Index().LevelByName(core.NodeLevel)
	ords := streamTh.ProfileOrdinals()
	baseline := map[string]float64{}
	var samples []sample
	streamTh.PerfData.Each(func(r thicket.Row) {
		n := streamTh.NodeByPathString(nodeLv.At(r.Pos()).Str())
		if n == nil || !n.IsLeaf() {
			return
		}
		opt := optCol.At(int(ords[r.Pos()])).Str()
		tm, _ := r.Value("time (exc)").AsFloat()
		ret, _ := r.Value("Retiring").AsFloat()
		if opt == "-O0" {
			baseline[n.Name()] = tm
		}
		samples = append(samples, sample{kernel: n.Name(), opt: opt, speedup: tm, retiring: ret})
	})
	for i := range samples {
		samples[i].speedup = baseline[samples[i].kernel] / samples[i].speedup
	}
	return samples
}
