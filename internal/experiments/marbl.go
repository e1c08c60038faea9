package experiments

import (
	"fmt"
	"math"
	"sort"
	"strings"

	"repro/internal/core"
	"repro/internal/dataframe"
	"repro/internal/extrap"
	"repro/internal/sim"
	"repro/internal/stats"
	"repro/internal/viz"
)

const solverNode = "main/timeStepLoop/LagrangeLeapFrog/M_solver->Mult"

// marblThicket builds one cluster's thicket over the given node counts.
func marblThicket(cluster sim.MarblCluster, nodes []int, trials int, seed int64) (*core.Thicket, error) {
	profiles, err := sim.MarblEnsemble([]sim.MarblCluster{cluster}, nodes, trials, seed)
	if err != nil {
		return nil, err
	}
	return core.FromProfiles(profiles, core.Options{})
}

// Fig11 rebuilds Figure 11: Extra-P models of M_solver->Mult on the CTS
// cluster (RZTopaz) and AWS ParallelCluster.
func Fig11(seed int64) (*Result, error) {
	res := &Result{SVGs: map[string]string{}}
	var report strings.Builder
	models := map[sim.MarblCluster]extrap.Model{}
	names := map[sim.MarblCluster]string{sim.ClusterRZTopaz: "CTS", sim.ClusterAWS: "AWS"}
	for _, cluster := range []sim.MarblCluster{sim.ClusterRZTopaz, sim.ClusterAWS} {
		th, err := marblThicket(cluster, sim.Figure16Nodes(), 5, seed)
		if err != nil {
			return nil, err
		}
		model, err := th.ModelNode(solverNode, dataframe.ColKey{"Avg time/rank"}, "mpi.world.size", extrap.Options{})
		if err != nil {
			return nil, err
		}
		models[cluster] = model
		fmt.Fprintf(&report, "%s Extra-P model: %s   (R²=%.4f, SMAPE=%.2f%%)\n", names[cluster], model, model.R2, model.SMAPE)

		// Measured means per rank count + the fitted curve.
		vals, rows, err := metricRows(th, solverNode, dataframe.ColKey{"Avg time/rank"})
		if err != nil {
			return nil, err
		}
		rankCol, err := th.Metadata.ColumnByName("mpi.world.size")
		if err != nil {
			return nil, err
		}
		sums := map[float64][2]float64{}
		for i, v := range vals {
			p, _ := rankCol.At(int(rows[i])).AsFloat()
			acc := sums[p]
			sums[p] = [2]float64{acc[0] + v, acc[1] + 1}
		}
		var ps []float64
		for p := range sums {
			ps = append(ps, p)
		}
		sort.Float64s(ps)
		measured := viz.LineSeries{Label: "measured " + names[cluster]}
		for _, p := range ps {
			measured.X = append(measured.X, p)
			measured.Y = append(measured.Y, sums[p][0]/sums[p][1])
		}
		curve := viz.LineSeries{Label: "model " + names[cluster]}
		for p := 36.0; p <= 3600; p += 36 {
			curve.X = append(curve.X, p)
			curve.Y = append(curve.Y, model.Eval(p))
		}
		svg, err := viz.SVGLine(names[cluster]+" Extra-P model: "+model.String(), "nprocs", "Avg time/rank_mean (s)",
			[]viz.LineSeries{curve, measured}, false, false)
		if err != nil {
			return nil, err
		}
		res.SVGs["fig11_"+strings.ToLower(names[cluster])+".svg"] = svg

		ascii, err := viz.LinePlot([]viz.LineSeries{curve, measured}, 64, 16, false, false)
		if err != nil {
			return nil, err
		}
		report.WriteString(section(names[cluster]+" model vs measurements", ascii))
	}
	res.Report = report.String()

	cts, aws := models[sim.ClusterRZTopaz], models[sim.ClusterAWS]
	ctsShape := len(cts.Terms) == 1 && cts.Terms[0].Exp == extrap.Fraction{Num: 1, Den: 3} && cts.Terms[0].LogExp == 0
	awsShape := len(aws.Terms) == 1 && aws.Terms[0].Exp == extrap.Fraction{Num: 1, Den: 3} && aws.Terms[0].LogExp == 0
	awsFaster := true
	for _, p := range []float64{36, 144, 576, 1152} {
		if aws.Eval(p) >= cts.Eval(p) {
			awsFaster = false
		}
	}
	res.Checks = append(res.Checks,
		check("CTS model has the paper's c + a·p^(1/3) shape", ctsShape, "%s (paper: 200.23 + -18.28·p^(1/3))", cts),
		check("AWS model has the paper's c + a·p^(1/3) shape", awsShape, "%s (paper: 154.88 + -14.01·p^(1/3))", aws),
		check("CTS constant ≈ 200.23", math.Abs(cts.Constant-200.23) < 5, "%.3f", cts.Constant),
		check("AWS constant ≈ 154.88", math.Abs(aws.Constant-154.88) < 5, "%.3f", aws.Constant),
		check("solver faster on AWS, similar scaling shape", awsFaster && ctsShape == awsShape, "AWS below CTS at all measured p"),
	)
	return res, nil
}

// Fig16 rebuilds the Figure 16 MARBL campaign table.
func Fig16(seed int64) (*Result, error) {
	profiles, err := sim.MarblEnsemble(sim.BothClusters(), sim.Figure16Nodes(), 5, seed)
	if err != nil {
		return nil, err
	}
	th, err := core.FromProfiles(profiles, core.Options{})
	if err != nil {
		return nil, err
	}
	summary, err := th.MetadataSummary("cluster", "ccompiler", "mpi", "version")
	if err != nil {
		return nil, err
	}
	res := &Result{Report: section("Figure 16: MARBL configurations", summary.String())}
	counts := map[string]int64{}
	cnt, err := summary.ColumnByName("#profiles")
	if err != nil {
		return nil, err
	}
	mpi, err := summary.ColumnByName("mpi")
	if err != nil {
		return nil, err
	}
	for r := 0; r < summary.NRows(); r++ {
		counts[mpi.At(r).Str()] = cnt.At(r).Int()
	}
	res.Checks = append(res.Checks,
		check("two configuration rows (impi on AWS, openmpi on CTS)", summary.NRows() == 2, "%d rows", summary.NRows()),
		check("30 profiles per row (6 node counts × 5 trials)", counts["impi"] == 30 && counts["openmpi"] == 30, "impi=%d openmpi=%d", counts["impi"], counts["openmpi"]),
	)
	return res, nil
}

// Fig17 rebuilds Figure 17: node-to-node strong scaling of the MARBL
// time-step loop on both systems with ideal-scaling reference lines.
func Fig17(seed int64) (*Result, error) {
	names := map[sim.MarblCluster]string{sim.ClusterAWS: "C5n.18xlarge-IntelMPI", sim.ClusterRZTopaz: "CTS1-OpenMPI"}
	nodes := sim.Figure17Nodes()
	var series []viz.LineSeries
	perCluster := map[sim.MarblCluster]map[int][2]float64{} // nodes -> (mean tpc, std)
	for _, cluster := range []sim.MarblCluster{sim.ClusterAWS, sim.ClusterRZTopaz} {
		th, err := marblThicket(cluster, nodes, 5, seed)
		if err != nil {
			return nil, err
		}
		// time per cycle = timeStepLoop Avg time/rank ÷ cycles, per profile.
		vals, rows, err := metricRows(th, "main/timeStepLoop", dataframe.ColKey{"Avg time/rank"})
		if err != nil {
			return nil, err
		}
		hostsCol, err := th.Metadata.ColumnByName("numhosts")
		if err != nil {
			return nil, err
		}
		cyclesCol, err := th.Metadata.ColumnByName("cycles")
		if err != nil {
			return nil, err
		}
		byNodes := map[int][]float64{}
		for i, v := range vals {
			hosts := int(hostsCol.At(int(rows[i])).Int())
			cycles, _ := cyclesCol.At(int(rows[i])).AsFloat()
			byNodes[hosts] = append(byNodes[hosts], v/cycles)
		}
		perCluster[cluster] = map[int][2]float64{}
		s := viz.LineSeries{Label: names[cluster]}
		for _, n := range nodes {
			m := stats.Mean(byNodes[n])
			perCluster[cluster][n] = [2]float64{m, stats.Std(byNodes[n])}
			s.X = append(s.X, float64(n))
			s.Y = append(s.Y, m)
		}
		series = append(series, s)
		// Ideal scaling reference from the 1-node mean.
		ideal := viz.LineSeries{Label: names[cluster] + "-ideal"}
		t1 := perCluster[cluster][1][0]
		for _, n := range nodes {
			ideal.X = append(ideal.X, float64(n))
			ideal.Y = append(ideal.Y, t1/float64(n))
		}
		series = append(series, ideal)
	}
	ascii, err := viz.LinePlot(series, 64, 18, true, true)
	if err != nil {
		return nil, err
	}
	svg, err := viz.SVGLine("MARBL (lag) — Triple-Pt-3D — node-to-node strong scaling — timeStepLoop",
		"compute nodes", "time per cycle (s)", series, true, true)
	if err != nil {
		return nil, err
	}
	var report strings.Builder
	report.WriteString(section("Figure 17: strong scaling (5-run means)", ascii))
	report.WriteString("cluster, nodes, mean s/cycle, std:\n")
	for _, cluster := range []sim.MarblCluster{sim.ClusterAWS, sim.ClusterRZTopaz} {
		for _, n := range nodes {
			v := perCluster[cluster][n]
			fmt.Fprintf(&report, "  %-22s %2d  %8.3f  ±%.3f\n", names[cluster], n, v[0], v[1])
		}
	}
	res := &Result{Report: report.String(), SVGs: map[string]string{"fig17_scaling.svg": svg}}

	eff := func(cl sim.MarblCluster, n int) float64 {
		return perCluster[cl][1][0] / (float64(n) * perCluster[cl][n][0])
	}
	res.Checks = append(res.Checks,
		check("both systems scale well to 16 nodes (eff ≥ 0.85)",
			eff(sim.ClusterAWS, 16) >= 0.85 && eff(sim.ClusterRZTopaz, 16) >= 0.85,
			"AWS %.2f, CTS %.2f", eff(sim.ClusterAWS, 16), eff(sim.ClusterRZTopaz, 16)),
		check("efficiency declines past 16 nodes",
			eff(sim.ClusterAWS, 64) < eff(sim.ClusterAWS, 16) && eff(sim.ClusterRZTopaz, 64) < eff(sim.ClusterRZTopaz, 16),
			"AWS %.2f→%.2f, CTS %.2f→%.2f", eff(sim.ClusterAWS, 16), eff(sim.ClusterAWS, 64), eff(sim.ClusterRZTopaz, 16), eff(sim.ClusterRZTopaz, 64)),
		check("AWS consistently below CTS", perCluster[sim.ClusterAWS][16][0] < perCluster[sim.ClusterRZTopaz][16][0],
			"at 16 nodes: %.3f vs %.3f s/cycle", perCluster[sim.ClusterAWS][16][0], perCluster[sim.ClusterRZTopaz][16][0]),
	)
	return res, nil
}

// Fig18 rebuilds Figure 18: parallel-coordinate and scatter exploration
// of the MARBL ensemble metadata, colored by architecture.
func Fig18(seed int64) (*Result, error) {
	profiles, err := sim.MarblEnsemble(sim.BothClusters(), sim.Figure16Nodes(), 5, seed)
	if err != nil {
		return nil, err
	}
	th, err := core.FromProfiles(profiles, core.Options{})
	if err != nil {
		return nil, err
	}

	// Metadata vectors in metadata row order.
	col := func(name string) ([]float64, error) {
		c, err := th.Metadata.ColumnByName(name)
		if err != nil {
			return nil, err
		}
		return c.Floats(), nil
	}
	ranks, err := col("mpi.world.size")
	if err != nil {
		return nil, err
	}
	wall, err := col("walltime")
	if err != nil {
		return nil, err
	}
	elems, err := col("num_elems_max")
	if err != nil {
		return nil, err
	}
	archCol, err := th.Metadata.ColumnByName("arch")
	if err != nil {
		return nil, err
	}
	arch := make([]string, th.Metadata.NRows())
	for r := range arch {
		arch[r] = archCol.At(r).Str()
	}

	// timeStepLoop per-profile metric aligned to metadata order.
	vals, rows, err := metricRows(th, "main/timeStepLoop", dataframe.ColKey{"max#inclusive#sum#time.duration"})
	if err != nil {
		return nil, err
	}
	stepTime := make([]float64, th.Metadata.NRows())
	for i, v := range vals {
		stepTime[rows[i]] = v
	}

	// Scatter 1: num_elems_max vs timeStepLoop duration, by architecture.
	// Scatter 2: walltime vs step time.
	mkSeries := func(x, y []float64) []viz.ScatterSeries {
		byArch := map[string]*viz.ScatterSeries{}
		var order []string
		for i := range x {
			s, ok := byArch[arch[i]]
			if !ok {
				s = &viz.ScatterSeries{Label: arch[i]}
				byArch[arch[i]] = s
				order = append(order, arch[i])
			}
			s.X = append(s.X, x[i])
			s.Y = append(s.Y, y[i])
		}
		var out []viz.ScatterSeries
		for _, a := range order {
			out = append(out, *byArch[a])
		}
		return out
	}
	sc1, err := viz.SVGScatter("timeStepLoop duration vs elements per rank", "num_elems_max", "max inclusive time", mkSeries(elems, stepTime))
	if err != nil {
		return nil, err
	}
	sc2, err := viz.SVGScatter("walltime vs timeStepLoop duration", "timeStepLoop max time", "walltime", mkSeries(stepTime, wall))
	if err != nil {
		return nil, err
	}
	pcp, err := viz.SVGParallelCoordinates("MARBL ensemble metadata",
		[]viz.PCPAxis{
			{Label: "num_elems_max", Values: elems},
			{Label: "mpi.world.size", Values: ranks},
			{Label: "walltime", Values: wall},
			{Label: "timeStepLoop", Values: stepTime},
		}, arch)
	if err != nil {
		return nil, err
	}
	ascii, err := viz.Scatter(mkSeries(elems, stepTime), 64, 16)
	if err != nil {
		return nil, err
	}

	// Correlations backing the paper's reading of the PCP.
	rankWall, err := stats.Spearman(ranks, wall)
	if err != nil {
		return nil, err
	}
	elemWall, err := stats.Spearman(elems, wall)
	if err != nil {
		return nil, err
	}
	// AWS below CTS at matched scale: compare mean walltime per rank count.
	awsBetter := 0
	total := 0
	byKey := map[int64][2][]float64{}
	for i := range ranks {
		k := int64(ranks[i])
		pair := byKey[k]
		if arch[i] == "C5n.18xlarge" {
			pair[0] = append(pair[0], wall[i])
		} else {
			pair[1] = append(pair[1], wall[i])
		}
		byKey[k] = pair
	}
	for _, pair := range byKey {
		if len(pair[0]) == 0 || len(pair[1]) == 0 {
			continue
		}
		total++
		if stats.Mean(pair[0]) < stats.Mean(pair[1]) {
			awsBetter++
		}
	}

	var report strings.Builder
	report.WriteString(section("scatter: timeStepLoop vs elements per rank (0/1 = architectures)", ascii))
	fmt.Fprintf(&report, "Spearman(mpi.world.size, walltime) = %.3f (criss-crossing PCP lines → inverse correlation)\n", rankWall)
	fmt.Fprintf(&report, "Spearman(num_elems_max, walltime)  = %.3f (parallel PCP lines → direct correlation)\n", elemWall)
	fmt.Fprintf(&report, "AWS mean walltime below CTS at %d/%d matched rank counts\n", awsBetter, total)
	res := &Result{Report: report.String(), SVGs: map[string]string{
		"fig18_pcp.svg":      pcp,
		"fig18_scatter1.svg": sc1,
		"fig18_scatter2.svg": sc2,
	}}
	res.Checks = append(res.Checks,
		check("more MPI ranks ↔ lower runtimes (inverse correlation)", rankWall < -0.9, "Spearman = %.3f", rankWall),
		check("more elements per rank ↔ higher runtimes", elemWall > 0.9, "Spearman = %.3f", elemWall),
		check("AWS consistently lower walltime than RZTopaz", awsBetter == total, "%d/%d rank counts", awsBetter, total),
	)
	return res, nil
}
