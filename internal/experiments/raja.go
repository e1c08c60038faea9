package experiments

import (
	"fmt"
	"math"
	"sort"
	"strings"

	"repro/internal/core"
	"repro/internal/dataframe"
	"repro/internal/mlkit"
	"repro/internal/profile"
	"repro/internal/query"
	"repro/internal/sim"
	"repro/internal/viz"
)

// Fig02 rebuilds the paper's Figure 2: a code with four call sites run
// twice, showing the call tree, the per-profile metrics, the two-profile
// performance table, the metadata table, and aggregated statistics.
func Fig02(seed int64) (*Result, error) {
	mk := func(run int64, scale float64) (*profile.Profile, error) {
		p := profile.New()
		p.SetMeta("run", dataframe.Int64(run))
		p.SetMeta("cluster", dataframe.Str("quartz"))
		p.SetMeta("user", dataframe.Str("John"))
		rows := []struct {
			path []string
			time float64
		}{
			{[]string{"MAIN"}, 10}, {[]string{"MAIN", "FOO"}, 4},
			{[]string{"MAIN", "FOO", "BAZ"}, 1}, {[]string{"MAIN", "BAR"}, 3},
		}
		for _, r := range rows {
			if err := p.AddSample(r.path, map[string]dataframe.Value{
				"time":      dataframe.Float64(r.time * scale),
				"L1 misses": dataframe.Int64(int64(r.time * scale * 10)),
			}); err != nil {
				return nil, err
			}
		}
		return p, nil
	}
	p1, err := mk(1, 1.0)
	if err != nil {
		return nil, err
	}
	p2, err := mk(2, 1.08)
	if err != nil {
		return nil, err
	}
	th, err := core.FromProfiles([]*profile.Profile{p1, p2}, core.Options{IndexBy: "run"})
	if err != nil {
		return nil, err
	}
	if err := th.AggregateStats(nil, []string{"mean", "var"}); err != nil {
		return nil, err
	}
	var report strings.Builder
	report.WriteString(section("(A) call tree", th.Tree.Render(nil)))
	report.WriteString(section("(C) multi-profile performance data", th.PerfData.String()))
	report.WriteString(section("(D) metadata", th.Metadata.String()))
	report.WriteString(section("(E) aggregated statistics", th.Stats.String()))
	res := &Result{Report: report.String()}
	res.Checks = append(res.Checks,
		check("one perf row per (node, profile)", th.PerfData.NRows() == 8, "%d rows for 4 nodes × 2 profiles", th.PerfData.NRows()),
		check("thicket invariants hold", th.Validate() == nil, "Validate() = %v", th.Validate()),
	)
	return res, nil
}

// Fig03 verifies the Figure 3 entity-relationship model: primary keys,
// foreign keys, and link cardinalities between the three components.
func Fig03(seed int64) (*Result, error) {
	profiles, err := sim.TimingEnsemble([]int64{1048576, 4194304}, 2, seed)
	if err != nil {
		return nil, err
	}
	th, err := core.FromProfiles(profiles, core.Options{})
	if err != nil {
		return nil, err
	}
	if err := th.AggregateStats([]dataframe.ColKey{{"time (exc)"}}, []string{"mean", "var", "std"}); err != nil {
		return nil, err
	}

	// Cardinalities: each metadata profile links to many perf rows; each
	// stats node links to many perf rows.
	perfProfiles := map[int32]int{} // metadata row → perf rows
	perfNodes := map[string]int{}
	nodeLv := th.PerfData.Index().LevelByName(core.NodeLevel)
	for r, o := range th.ProfileOrdinals() {
		perfProfiles[o]++
		perfNodes[nodeLv.At(r).Str()]++
	}
	oneToManyProfiles := true
	for _, n := range perfProfiles {
		if n < 2 {
			oneToManyProfiles = false
		}
	}
	oneToManyNodes := true
	for _, n := range perfNodes {
		if n < 2 {
			oneToManyNodes = false
		}
	}
	var report strings.Builder
	report.WriteString(section("component schemas", fmt.Sprintf(
		"PerfData : index (%s) — %d rows × %d metric columns\nMetadata : index (%s) — %d rows × %d columns\nStats    : index (%s) — %d rows × %d columns",
		strings.Join(th.PerfData.Index().Names(), ", "), th.PerfData.NRows(), th.PerfData.NCols(),
		strings.Join(th.Metadata.Index().Names(), ", "), th.Metadata.NRows(), th.Metadata.NCols(),
		strings.Join(th.Stats.Index().Names(), ", "), th.Stats.NRows(), th.Stats.NCols())))
	report.WriteString(section("aggregated statistics (keys in bold are the paper's fixed keys)", th.Stats.Render(dataframe.RenderOptions{MaxRows: 10, HideRepeated: true})))
	res := &Result{Report: report.String()}
	res.Checks = append(res.Checks,
		check("metadata profile is a primary key", !th.Metadata.Index().HasDuplicates(), "unique across %d rows", th.Metadata.NRows()),
		check("stats node is a primary key", !th.Stats.Index().HasDuplicates(), "unique across %d rows", th.Stats.NRows()),
		check("profile → perf rows is one-to-many", oneToManyProfiles, "min fan-out %d", minOf(perfProfiles)),
		check("node → perf rows is one-to-many", oneToManyNodes, "min fan-out %d", minOf(perfNodes)),
		check("foreign keys resolve", th.Validate() == nil, "Validate() = %v", th.Validate()),
	)
	return res, nil
}

func minOf[K comparable](m map[K]int) int {
	first := true
	out := 0
	for _, v := range m {
		if first || v < out {
			out = v
			first = false
		}
	}
	return out
}

// Fig04 rebuilds Figure 4: CPU and GPU thickets at two problem sizes
// composed into one table with a (CPU, GPU) column level and problem
// size as the secondary row index.
func Fig04(seed int64) (*Result, error) {
	sizes := []int64{1048576, 4194304}
	cpuProfiles, err := sim.TopdownEnsemble(sizes, []string{"-O2"}, 1, seed)
	if err != nil {
		return nil, err
	}
	cpuTh, err := core.FromProfiles(cpuProfiles, core.Options{IndexBy: "problem size"})
	if err != nil {
		return nil, err
	}
	gpuProfiles, err := gpuWithNCU(sizes, 256, seed)
	if err != nil {
		return nil, err
	}
	gpuTh, err := core.FromProfiles(gpuProfiles, core.Options{IndexBy: "problem size"})
	if err != nil {
		return nil, err
	}
	composed, err := core.Compose([]string{"CPU", "GPU"}, []*core.Thicket{cpuTh, gpuTh})
	if err != nil {
		return nil, err
	}
	view, err := composed.PerfData.SelectColumns([]dataframe.ColKey{
		{"CPU", "time (exc)"}, {"CPU", "Reps"}, {"CPU", "Retiring"}, {"CPU", "Backend bound"},
		{"GPU", "time (gpu)"}, {"GPU", "gpu__compute_memory_throughput"},
		{"GPU", "gpu__dram_throughput"}, {"GPU", "sm__throughput"},
	})
	if err != nil {
		return nil, err
	}
	table := kernelRows(composed, view, figure4Kernels)
	sorted, err := table.SortByColumns(core.NodeLevel, "problem size")
	if err != nil {
		return nil, err
	}
	var report strings.Builder
	report.WriteString(section("Figure 4: composed multi-dimensional performance data", sorted.String()))
	res := &Result{Report: report.String()}

	// Checks: both groups survived, two rows per kernel, GPU faster.
	cpuT, err := composed.PerfData.Column(dataframe.ColKey{"CPU", "time (exc)"})
	if err != nil {
		return nil, err
	}
	gpuT, err := composed.PerfData.Column(dataframe.ColKey{"GPU", "time (gpu)"})
	if err != nil {
		return nil, err
	}
	gpuFaster := true
	for r := 0; r < composed.PerfData.NRows(); r++ {
		c, okc := cpuT.At(r).AsFloat()
		g, okg := gpuT.At(r).AsFloat()
		if okc && okg && g >= c {
			gpuFaster = false
		}
	}
	res.Checks = append(res.Checks,
		check("column index gains (CPU, GPU) level", composed.PerfData.ColIndex().NLevels() == 2, "%d levels", composed.PerfData.ColIndex().NLevels()),
		check("two rows (problem sizes) per kernel", sorted.NRows() == 2*len(figure4Kernels), "%d rows", sorted.NRows()),
		check("GPU times below CPU times", gpuFaster, "checked %d joined rows", composed.PerfData.NRows()),
	)
	return res, nil
}

// Fig05 rebuilds the Figure 5 metadata table of four RAJA profiles.
func Fig05(seed int64) (*Result, error) {
	profiles, err := fig5Ensemble(seed)
	if err != nil {
		return nil, err
	}
	th, err := core.FromProfiles(profiles, core.Options{})
	if err != nil {
		return nil, err
	}
	view, err := metadataView(th)
	if err != nil {
		return nil, err
	}
	res := &Result{Report: section("Figure 5: metadata table", view.String())}
	hashes := th.Profiles()
	negSeen := false
	for _, h := range hashes {
		if h.Int() < 0 {
			negSeen = true
		}
	}
	res.Checks = append(res.Checks,
		check("four profiles with hash indexes", th.NumProfiles() == 4, "%d profiles", th.NumProfiles()),
		check("signed 64-bit hash indexes (paper shows negatives)", negSeen || len(hashes) < 4, "hashes: %v", hashes),
		check("two clusters present", clusterCount(th) == 2, "%d clusters", clusterCount(th)),
	)
	return res, nil
}

func clusterCount(th *core.Thicket) int {
	col, err := th.Metadata.ColumnByName("cluster")
	if err != nil {
		return 0
	}
	return len(col.Uniques())
}

// Fig06 rebuilds Figure 6: filtering the Figure 5 metadata on
// compiler == clang-9.0.0 (clang++-9.0.0 in our build matrix).
func Fig06(seed int64) (*Result, error) {
	profiles, err := fig5Ensemble(seed)
	if err != nil {
		return nil, err
	}
	th, err := core.FromProfiles(profiles, core.Options{})
	if err != nil {
		return nil, err
	}
	filtered := th.FilterMetadata(func(m core.MetaRow) bool {
		return m.Str("compiler") == "clang++-9.0.0"
	})
	view, err := metadataView(filtered)
	if err != nil {
		return nil, err
	}
	var report strings.Builder
	report.WriteString(section("t.filter_metadata(lambda x: x[\"compiler\"]==\"clang++-9.0.0\")", view.String()))
	res := &Result{Report: report.String()}
	allClang := true
	col, err := filtered.Metadata.ColumnByName("compiler")
	if err != nil {
		return nil, err
	}
	for r := 0; r < col.Len(); r++ {
		if col.At(r).Str() != "clang++-9.0.0" {
			allClang = false
		}
	}
	res.Checks = append(res.Checks,
		check("two clang profiles survive", filtered.NumProfiles() == 2, "%d profiles", filtered.NumProfiles()),
		check("only clang rows remain", allClang, "compiler column uniform"),
		check("source thicket untouched", th.NumProfiles() == 4, "%d profiles", th.NumProfiles()),
		check("perf data restricted consistently", filtered.Validate() == nil, "Validate() = %v", filtered.Validate()),
	)
	return res, nil
}

// Fig07 rebuilds Figure 7: group-by on (compiler, problem size) creating
// four thickets.
func Fig07(seed int64) (*Result, error) {
	profiles, err := fig5Ensemble(seed)
	if err != nil {
		return nil, err
	}
	th, err := core.FromProfiles(profiles, core.Options{})
	if err != nil {
		return nil, err
	}
	groups, err := th.GroupBy("compiler", "problem size")
	if err != nil {
		return nil, err
	}
	var report strings.Builder
	var keys []string
	for _, g := range groups {
		keys = append(keys, fmt.Sprintf("(%s)", dataframe.FormatKey(g.Key)))
	}
	report.WriteString(fmt.Sprintf("%d thickets created...\n[%s]\n\n", len(groups), strings.Join(keys, ", ")))
	for _, g := range groups {
		view, err := metadataView(g.Thicket)
		if err != nil {
			return nil, err
		}
		report.WriteString(view.String())
		report.WriteByte('\n')
	}
	res := &Result{Report: report.String()}
	total := 0
	for _, g := range groups {
		total += g.Thicket.NumProfiles()
	}
	res.Checks = append(res.Checks,
		check("four thickets created", len(groups) == 4, "%d groups", len(groups)),
		check("groups partition the profiles", total == th.NumProfiles(), "%d across groups vs %d", total, th.NumProfiles()),
	)
	return res, nil
}

// Fig08 rebuilds Figure 8: the call tree before and after querying for
// leaves named *.block_128 under Base_CUDA.
func Fig08(seed int64) (*Result, error) {
	gpu, err := sim.GenerateRaja(sim.RajaConfig{
		Cluster: "lassen", Variant: sim.VariantCUDA, Tool: sim.ToolGPU,
		ProblemSize: 1048576, Compiler: "xlc-16.1.1.12", Optimization: "-O0",
		CudaCompiler: "nvcc-11.2.152", BlockSize: 128, Seed: seed,
	})
	if err != nil {
		return nil, err
	}
	th, err := core.FromProfiles([]*profile.Profile{gpu}, core.Options{})
	if err != nil {
		return nil, err
	}
	q := query.NewMatcher().
		Match(".", query.NameEquals("Base_CUDA")).
		Rel("*").
		Rel(".", query.NameEndsWith("block_128"))
	out, err := th.Query(q)
	if err != nil {
		return nil, err
	}
	var report strings.Builder
	report.WriteString(section("call tree before query (exclusive time)", th.TreeString(dataframe.ColKey{"time (exc)"})))
	report.WriteString(section("query", `QueryMatcher().match(".", name == "Base_CUDA").rel("*").rel(".", name endswith "block_128")`))
	report.WriteString(section("call tree after query", out.TreeString(dataframe.ColKey{"time (exc)"})))
	res := &Result{Report: report.String()}
	allBlock128 := true
	for _, leaf := range out.Tree.Leaves() {
		if !strings.HasSuffix(leaf.Name(), "block_128") {
			allBlock128 = false
		}
	}
	res.Checks = append(res.Checks,
		check("result keeps only block_128 leaves", allBlock128, "%d leaves", len(out.Tree.Leaves())),
		check("ancestor paths retained", len(out.Tree.Roots()) == 1 && out.Tree.Roots()[0].Name() == "Base_CUDA", "rooted at %q", out.Tree.Roots()[0].Name()),
		check("query shrinks the tree", out.Tree.Len() < th.Tree.Len(), "%d → %d nodes", th.Tree.Len(), out.Tree.Len()),
	)
	return res, nil
}

// Fig09 rebuilds Figure 9: aggregated standard deviations of Retiring,
// Backend bound, and time (exc), then a stats filter to two nodes.
func Fig09(seed int64) (*Result, error) {
	th, err := fig9Thicket(seed)
	if err != nil {
		return nil, err
	}
	statsView := kernelStatsTable(th)
	filtered := th.FilterStats(func(s core.StatsRow) bool {
		leaf := s.Node()[strings.LastIndex(s.Node(), "/")+1:]
		return leaf == "Apps_NODAL_ACCUMULATION_3D" || leaf == "Apps_VOL3D"
	})
	filteredView := kernelStatsTable(filtered)
	var report strings.Builder
	report.WriteString(section("aggregated statistics (std across 10 profiles)", statsView.String()))
	report.WriteString(section("after filter_stats to NODAL_ACCUMULATION_3D and VOL3D", filteredView.String()))
	res := &Result{Report: report.String()}
	res.Checks = append(res.Checks,
		check("std computed for all five kernels", statsView.NRows() == 5, "%d rows", statsView.NRows()),
		check("filter keeps two nodes", filteredView.NRows() == 2, "%d rows", filteredView.NRows()),
		check("filtered thicket consistent", filtered.Validate() == nil, "Validate() = %v", filtered.Validate()),
	)
	return res, nil
}

// fig9Thicket builds the 10-trial topdown ensemble with std aggregates.
func fig9Thicket(seed int64) (*core.Thicket, error) {
	profiles, err := sim.TopdownEnsemble([]int64{8388608}, []string{"-O2"}, 10, seed)
	if err != nil {
		return nil, err
	}
	th, err := core.FromProfiles(profiles, core.Options{})
	if err != nil {
		return nil, err
	}
	err = th.AggregateStats([]dataframe.ColKey{
		{"Retiring"}, {"Backend bound"}, {"time (exc)"},
	}, []string{"std"})
	if err != nil {
		return nil, err
	}
	return th, nil
}

// kernelStatsTable restricts the stats table to the Figure 9 kernels and
// std columns, with shortened node labels.
func kernelStatsTable(th *core.Thicket) *dataframe.Frame {
	view, err := th.Stats.SelectColumns([]dataframe.ColKey{
		{"Retiring_std"}, {"Backend bound_std"}, {"time (exc)_std"},
	})
	if err != nil {
		return th.Stats
	}
	return kernelRows(th, view, figure9Kernels)
}

// Fig10 rebuilds Figure 10: speedup relative to -O0 for the Stream
// kernels, clustered per top-down metric with silhouette-selected K-means.
func Fig10(seed int64) (*Result, error) {
	profiles, err := sim.TopdownEnsemble([]int64{8388608}, []string{"-O0", "-O1", "-O2", "-O3"}, 1, seed)
	if err != nil {
		return nil, err
	}
	th, err := core.FromProfiles(profiles, core.Options{})
	if err != nil {
		return nil, err
	}
	streamTh, err := th.Query(query.NewMatcher().Match(".", query.NameStartsWith("Stream_")))
	if err != nil {
		return nil, err
	}

	type sample struct {
		kernel, opt                string
		speedup, retiring, backend float64
	}
	optCol, err := streamTh.Metadata.ColumnByName("compiler optimizations")
	if err != nil {
		return nil, err
	}
	baseline := map[string]float64{}
	var samples []sample
	nodeLv := streamTh.PerfData.Index().LevelByName(core.NodeLevel)
	ords := streamTh.ProfileOrdinals()
	streamTh.PerfData.Each(func(r dataframe.Row) {
		n := streamTh.NodeByPathString(nodeLv.At(r.Pos()).Str())
		if n == nil || !n.IsLeaf() {
			return
		}
		opt := optCol.At(int(ords[r.Pos()])).Str()
		tm, _ := r.Value("time (exc)").AsFloat()
		ret, _ := r.Value("Retiring").AsFloat()
		be, _ := r.Value("Backend bound").AsFloat()
		if opt == "-O0" {
			baseline[n.Name()] = tm
		}
		samples = append(samples, sample{kernel: n.Name(), opt: opt, speedup: tm, retiring: ret, backend: be})
	})
	for i := range samples {
		samples[i].speedup = baseline[samples[i].kernel] / samples[i].speedup
	}

	res := &Result{SVGs: map[string]string{}}
	var report strings.Builder
	bestOpt := map[string]string{}
	bestSpd := map[string]float64{}
	for _, s := range samples {
		if s.speedup > bestSpd[s.kernel] {
			bestSpd[s.kernel], bestOpt[s.kernel] = s.speedup, s.opt
		}
	}

	clusterOK := true
	for _, metric := range []struct {
		name string
		pick func(sample) float64
	}{
		{"Retiring", func(s sample) float64 { return s.retiring }},
		{"Backend bound", func(s sample) float64 { return s.backend }},
	} {
		var m mlkit.Matrix
		for _, s := range samples {
			m = append(m, []float64{s.speedup, metric.pick(s)})
		}
		var scaler mlkit.StandardScaler
		scaled, err := scaler.FitTransform(m)
		if err != nil {
			return nil, err
		}
		k, km, err := mlkit.ChooseK(scaled, 2, 6, mlkit.KMeansOptions{Seed: seed})
		if err != nil {
			return nil, err
		}
		sil, err := mlkit.Silhouette(scaled, km.Labels)
		if err != nil {
			return nil, err
		}
		fmt.Fprintf(&report, "metric %s: silhouette selects k=%d (score %.3f)\n", metric.name, k, sil)
		byCluster := map[int][]string{}
		for i, s := range samples {
			byCluster[km.Labels[i]] = append(byCluster[km.Labels[i]], fmt.Sprintf("%s@%s", strings.TrimPrefix(s.kernel, "Stream_"), s.opt))
		}
		var cids []int
		for c := range byCluster {
			cids = append(cids, c)
		}
		sort.Ints(cids)
		for _, c := range cids {
			fmt.Fprintf(&report, "  cluster %d: %s\n", c, strings.Join(byCluster[c], " "))
		}
		if k != 3 {
			clusterOK = false
		}
		// SVG scatter colored by cluster.
		series := map[int]*viz.ScatterSeries{}
		for i, s := range samples {
			c := km.Labels[i]
			if series[c] == nil {
				series[c] = &viz.ScatterSeries{Label: fmt.Sprintf("cluster %d", c)}
			}
			series[c].X = append(series[c].X, s.speedup)
			series[c].Y = append(series[c].Y, metric.pick(s))
		}
		var ordered []viz.ScatterSeries
		for _, c := range cids {
			ordered = append(ordered, *series[c])
		}
		svg, err := viz.SVGScatter("K-means: "+metric.name+" vs speedup (Stream kernels)", "Speedup", metric.name, ordered)
		if err != nil {
			return nil, err
		}
		res.SVGs[fmt.Sprintf("fig10_%s.svg", strings.ReplaceAll(strings.ToLower(metric.name), " ", "_"))] = svg
	}

	allO2 := true
	var bests []string
	kernels := make([]string, 0, len(bestOpt))
	for k := range bestOpt {
		kernels = append(kernels, k)
	}
	sort.Strings(kernels)
	for _, k := range kernels {
		bests = append(bests, fmt.Sprintf("%s:%s(%.2fx)", strings.TrimPrefix(k, "Stream_"), bestOpt[k], bestSpd[k]))
		if bestOpt[k] != "-O2" {
			allO2 = false
		}
	}
	fmt.Fprintf(&report, "best optimization per kernel: %s\n", strings.Join(bests, " "))
	res.Report = report.String()
	res.Checks = append(res.Checks,
		check("silhouette selects three clusters on both metrics", clusterOK, "see report"),
		check("-O2 gives the best performance for all kernels", allO2, "%s", strings.Join(bests, " ")),
	)
	return res, nil
}

// Fig12 rebuilds Figure 12: the std heatmap plus histograms of the
// outlier nodes' distributions.
func Fig12(seed int64) (*Result, error) {
	th, err := fig9Thicket(seed)
	if err != nil {
		return nil, err
	}
	table := kernelStatsTable(th)
	// Build heatmap inputs.
	var rowLabels []string
	cols := []string{"Retiring_std", "Backend bound_std", "time (exc)_std"}
	var data [][]float64
	lv := table.Index().LevelByName(core.NodeLevel)
	for r := 0; r < table.NRows(); r++ {
		rowLabels = append(rowLabels, lv.At(r).Str())
		var row []float64
		for _, c := range cols {
			v, err := table.Cell(r, dataframe.ColKey{c})
			if err != nil {
				return nil, err
			}
			f, _ := v.AsFloat()
			row = append(row, f)
		}
		data = append(data, row)
	}
	heat, err := viz.Heatmap(rowLabels, cols, data)
	if err != nil {
		return nil, err
	}
	heatSVG, err := viz.SVGHeatmap("Aggregated std heatmap", rowLabels, cols, data)
	if err != nil {
		return nil, err
	}

	// Outlier histograms: GESUMMV Backend bound and HYDRO_1D time (exc).
	gesummvBE, _, err := th.MetricVector(nodePathOf(th, "Polybench_GESUMMV"), dataframe.ColKey{"Backend bound"})
	if err != nil {
		return nil, err
	}
	hydroT, _, err := th.MetricVector(nodePathOf(th, "Lcals_HYDRO_1D"), dataframe.ColKey{"time (exc)"})
	if err != nil {
		return nil, err
	}
	h1, err := viz.Histogram(gesummvBE, 5, 30)
	if err != nil {
		return nil, err
	}
	h2, err := viz.Histogram(hydroT, 5, 30)
	if err != nil {
		return nil, err
	}
	h1SVG, err := viz.SVGHistogram("Polybench_GESUMMV Backend bound", "Backend bound", gesummvBE, 5)
	if err != nil {
		return nil, err
	}
	h2SVG, err := viz.SVGHistogram("Lcals_HYDRO_1D time (exc)", "time (exc)", hydroT, 5)
	if err != nil {
		return nil, err
	}

	var report strings.Builder
	report.WriteString(section("std heatmap (per-column normalized shades)", heat))
	report.WriteString(section("histogram: Polybench_GESUMMV Backend bound", h1))
	report.WriteString(section("histogram: Lcals_HYDRO_1D time (exc)", h2))
	res := &Result{Report: report.String(), SVGs: map[string]string{
		"fig12_heatmap.svg":      heatSVG,
		"fig12_hist_gesummv.svg": h1SVG,
		"fig12_hist_hydro.svg":   h2SVG,
	}}

	// Outlier claims: GESUMMV has the largest top-down stds, HYDRO the
	// largest time std.
	colIdx := func(name string) int {
		for i, c := range cols {
			if c == name {
				return i
			}
		}
		return -1
	}
	argmax := func(ci int) string {
		best, bi := math.Inf(-1), 0
		for r := range data {
			if data[r][ci] > best {
				best, bi = data[r][ci], r
			}
		}
		return rowLabels[bi]
	}
	beOutlier := argmax(colIdx("Backend bound_std"))
	timeOutlier := argmax(colIdx("time (exc)_std"))
	res.Checks = append(res.Checks,
		check("GESUMMV is the Backend bound_std outlier", beOutlier == "Polybench_GESUMMV", "argmax = %s", beOutlier),
		check("HYDRO_1D is the time (exc)_std outlier", timeOutlier == "Lcals_HYDRO_1D", "argmax = %s", timeOutlier),
	)
	return res, nil
}

// nodePathOf finds the full node path whose leaf name matches.
func nodePathOf(th *core.Thicket, leaf string) string {
	for _, p := range th.NodePaths() {
		if strings.HasSuffix(p, "/"+leaf) || p == leaf {
			return p
		}
	}
	return leaf
}

// Fig13 rebuilds the Figure 13 campaign table: the five configuration
// rows and 560 profiles of the RAJA study.
func Fig13(seed int64) (*Result, error) {
	profiles, err := sim.Figure13Ensemble(seed)
	if err != nil {
		return nil, err
	}
	th, err := core.FromProfiles(profiles, core.Options{})
	if err != nil {
		return nil, err
	}
	summary, err := th.MetadataSummary("cluster", "systype", "compiler", "variant", "omp num threads")
	if err != nil {
		return nil, err
	}
	var report strings.Builder
	report.WriteString(section("Figure 13: RAJA Performance Suite configurations", summary.String()))
	res := &Result{Report: report.String()}

	counts := map[string]int64{}
	cnt, err := summary.ColumnByName("#profiles")
	if err != nil {
		return nil, err
	}
	variant, err := summary.ColumnByName("variant")
	if err != nil {
		return nil, err
	}
	for r := 0; r < summary.NRows(); r++ {
		counts[variant.At(r).Str()] += cnt.At(r).Int()
	}
	res.Checks = append(res.Checks,
		check("560 total profiles", th.NumProfiles() == 560, "%d", th.NumProfiles()),
		check("five configuration rows", summary.NRows() == 5, "%d", summary.NRows()),
		check("Sequential rows hold 160 profiles each", counts["Sequential"] == 320, "%d", counts["Sequential"]),
		check("OpenMP rows hold 40 profiles each", counts["OpenMP"] == 80, "%d", counts["OpenMP"]),
		check("CUDA row holds 160 profiles", counts["CUDA"] == 160, "%d", counts["CUDA"]),
	)
	return res, nil
}

// Fig14 rebuilds Figure 14: the top-down stacked-bar view per kernel and
// problem size.
func Fig14(seed int64) (*Result, error) {
	sizes := []int64{1048576, 2097152, 4194304, 8388608}
	profiles, err := sim.TopdownEnsemble(sizes, []string{"-O2"}, 10, seed)
	if err != nil {
		return nil, err
	}
	th, err := core.FromProfiles(profiles, core.Options{})
	if err != nil {
		return nil, err
	}
	metrics := []string{"Retiring", "Frontend bound", "Backend bound", "Bad speculation"}
	means := map[string]map[string]map[int64]float64{} // metric -> kernel -> size -> mean
	for _, m := range metrics {
		mm, err := meanByNodeSize(th, dataframe.ColKey{m}, figure4Kernels)
		if err != nil {
			return nil, err
		}
		means[m] = mm
	}
	var bars []viz.StackedBar
	for _, kernel := range figure4Kernels {
		for _, size := range sizes {
			var vals []float64
			for _, m := range metrics {
				vals = append(vals, means[m][kernel][size])
			}
			bars = append(bars, viz.StackedBar{
				Label:  fmt.Sprintf("%s %d", kernel, size),
				Values: vals,
			})
		}
	}
	ascii, err := viz.StackedBars(metrics, bars, 60)
	if err != nil {
		return nil, err
	}
	svg, err := viz.SVGStackedBars("Top-down breakdown by kernel and problem size", metrics, bars)
	if err != nil {
		return nil, err
	}
	// The paper's Figure 14 uses a tree + table paradigm: render the
	// call tree beside the aggregated top-down columns as well.
	treeTable, err := th.TreeTableString([]dataframe.ColKey{
		{"Retiring"}, {"Frontend bound"}, {"Backend bound"}, {"Bad speculation"},
	}, "mean")
	if err != nil {
		return nil, err
	}
	res := &Result{
		Report: section("Figure 14: top-down stacked bars", ascii) +
			section("tree + table view (mean fractions across the ensemble)", treeTable),
		SVGs: map[string]string{"fig14_topdown.svg": svg},
	}
	small, big := sizes[0], sizes[len(sizes)-1]
	vol3dRet := means["Retiring"]["Apps_VOL3D"][big]
	maxOtherRet := 0.0
	for _, k := range figure4Kernels {
		if k != "Apps_VOL3D" && means["Retiring"][k][big] > maxOtherRet {
			maxOtherRet = means["Retiring"][k][big]
		}
	}
	res.Checks = append(res.Checks,
		check("VOL3D retires more than the other kernels", vol3dRet > maxOtherRet, "%.3f vs max-other %.3f", vol3dRet, maxOtherRet),
		check("NODAL_ACCUMULATION_3D grows backend bound with size",
			means["Backend bound"]["Apps_NODAL_ACCUMULATION_3D"][big] > means["Backend bound"]["Apps_NODAL_ACCUMULATION_3D"][small],
			"%.3f → %.3f", means["Backend bound"]["Apps_NODAL_ACCUMULATION_3D"][small], means["Backend bound"]["Apps_NODAL_ACCUMULATION_3D"][big]),
		check("HYDRO_1D grows backend bound with size (data saturation)",
			means["Backend bound"]["Lcals_HYDRO_1D"][big] > means["Backend bound"]["Lcals_HYDRO_1D"][small],
			"%.3f → %.3f", means["Backend bound"]["Lcals_HYDRO_1D"][small], means["Backend bound"]["Lcals_HYDRO_1D"][big]),
		check("Stream_DOT grows backend bound with size",
			means["Backend bound"]["Stream_DOT"][big] > means["Backend bound"]["Stream_DOT"][small],
			"%.3f → %.3f", means["Backend bound"]["Stream_DOT"][small], means["Backend bound"]["Stream_DOT"][big]),
	)
	return res, nil
}

// Fig15 rebuilds Figure 15: the four-group composed table (CPU timing,
// CPU top-down, GPU, NCU) with the derived CPU/GPU speedup column.
func Fig15(seed int64) (*Result, error) {
	sizes := []int64{8388608}
	timing, err := sim.TimingEnsemble(sizes, 1, seed)
	if err != nil {
		return nil, err
	}
	topdownProfiles, err := sim.TopdownEnsemble(sizes, []string{"-O2"}, 1, seed)
	if err != nil {
		return nil, err
	}
	var gpuProfiles, ncuProfiles []*profile.Profile
	for _, tool := range []sim.RajaTool{sim.ToolGPU, sim.ToolNCU} {
		p, err := sim.GenerateRaja(sim.RajaConfig{
			Cluster: "lassen", Variant: sim.VariantCUDA, Tool: tool,
			ProblemSize: sizes[0], Compiler: "xlc-16.1.1.12", Optimization: "-O0",
			CudaCompiler: "nvcc-11.2.152", BlockSize: 256, Seed: seed,
		})
		if err != nil {
			return nil, err
		}
		r, err := p.Rebase("Base_Seq")
		if err != nil {
			return nil, err
		}
		if tool == sim.ToolGPU {
			gpuProfiles = append(gpuProfiles, r)
		} else {
			ncuProfiles = append(ncuProfiles, r)
		}
	}
	mkTh := func(ps []*profile.Profile) (*core.Thicket, error) {
		return core.FromProfiles(ps, core.Options{IndexBy: "problem size"})
	}
	thTiming, err := mkTh(timing)
	if err != nil {
		return nil, err
	}
	thTopdown, err := mkTh(topdownProfiles)
	if err != nil {
		return nil, err
	}
	thGPU, err := mkTh(gpuProfiles)
	if err != nil {
		return nil, err
	}
	thNCU, err := mkTh(ncuProfiles)
	if err != nil {
		return nil, err
	}
	composed, err := core.Compose(
		[]string{"CPU", "CPU top-down", "GPU", "GPU Nsight Compute"},
		[]*core.Thicket{thTiming, thTopdown, thGPU, thNCU})
	if err != nil {
		return nil, err
	}
	err = composed.AddDerived(dataframe.ColKey{"Derived", "speedup"}, func(r dataframe.Row) dataframe.Value {
		c, okc := r.ValueAt(dataframe.ColKey{"CPU", "time (exc)"}).AsFloat()
		g, okg := r.ValueAt(dataframe.ColKey{"GPU", "time (gpu)"}).AsFloat()
		if !okc || !okg || g == 0 {
			return dataframe.NaN()
		}
		return dataframe.Float64(c / g)
	})
	if err != nil {
		return nil, err
	}
	view, err := composed.PerfData.SelectColumns([]dataframe.ColKey{
		{"CPU", "time (exc)"}, {"CPU", "Bytes/Rep"}, {"CPU", "Flops/Rep"},
		{"CPU top-down", "Retiring"}, {"CPU top-down", "Backend bound"},
		{"GPU", "time (gpu)"},
		{"GPU Nsight Compute", "gpu__compute_memory_throughput"},
		{"GPU Nsight Compute", "gpu__dram_throughput"},
		{"GPU Nsight Compute", "sm__throughput"},
		{"GPU Nsight Compute", "sm__warps_active"},
		{"Derived", "speedup"},
	})
	if err != nil {
		return nil, err
	}
	table := kernelRows(composed, view, []string{"Apps_VOL3D", "Lcals_HYDRO_1D"})
	var report strings.Builder
	report.WriteString(section("Figure 15: composed multi-tool table with derived speedup", table.String()))
	res := &Result{Report: report.String()}

	getF := func(kernel string, key dataframe.ColKey) float64 {
		lv := table.Index().LevelByName(core.NodeLevel)
		for r := 0; r < table.NRows(); r++ {
			if lv.At(r).Str() == kernel {
				v, err := table.Cell(r, key)
				if err == nil {
					f, _ := v.AsFloat()
					return f
				}
			}
		}
		return math.NaN()
	}
	volSp := getF("Apps_VOL3D", dataframe.ColKey{"Derived", "speedup"})
	hydSp := getF("Lcals_HYDRO_1D", dataframe.ColKey{"Derived", "speedup"})
	hydBE := getF("Lcals_HYDRO_1D", dataframe.ColKey{"CPU top-down", "Backend bound"})
	volRet := getF("Apps_VOL3D", dataframe.ColKey{"CPU top-down", "Retiring"})
	res.Checks = append(res.Checks,
		check("VOL3D GPU speedup exceeds HYDRO_1D's", volSp > hydSp, "%.2fx vs %.2fx (paper: 12.2 vs 8.6)", volSp, hydSp),
		check("HYDRO_1D ≈ 90% backend bound", hydBE >= 0.85, "%.3f", hydBE),
		check("VOL3D retires ≈ 37%", volRet > 0.30 && volRet < 0.50, "%.3f", volRet),
		check("four tool groups plus Derived present", len(composed.PerfData.ColIndex().Groups()) == 5, "groups: %v", composed.PerfData.ColIndex().Groups()),
	)
	return res, nil
}
