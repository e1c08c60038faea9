// MARBL case study (paper §5.2): strong scaling of the simulated 3D
// triple-point problem on RZTopaz vs AWS ParallelCluster (Figure 17),
// Extra-P models of the solver (Figure 11), and a parallel-coordinate
// exploration of the ensemble metadata (Figure 18) written as SVG.
package main

import (
	"flag"
	"fmt"
	"log"
	"os"
	"path/filepath"
	"sort"

	thicket "repro"
	"repro/internal/dataframe"
	"repro/internal/sim"
	"repro/internal/stats"
	"repro/internal/viz"
)

const solverNode = "main/timeStepLoop/LagrangeLeapFrog/M_solver->Mult"

func main() {
	out := flag.String("out", "", "directory for SVG output (omit to skip)")
	seed := flag.Int64("seed", 1, "RNG seed")
	flag.Parse()

	names := map[sim.MarblCluster]string{
		sim.ClusterRZTopaz: "CTS1-OpenMPI",
		sim.ClusterAWS:     "C5n.18xlarge-IntelMPI",
	}

	// ---- Figure 17: strong scaling study, 5 runs per point.
	fmt.Println("== Figure 17: node-to-node strong scaling (time/cycle) ==")
	var series []viz.LineSeries
	for _, cluster := range []sim.MarblCluster{sim.ClusterAWS, sim.ClusterRZTopaz} {
		profiles, err := sim.MarblEnsemble([]sim.MarblCluster{cluster}, sim.Figure17Nodes(), 5, *seed)
		if err != nil {
			log.Fatal(err)
		}
		th, err := thicket.FromProfiles(profiles, thicket.Options{})
		if err != nil {
			log.Fatal(err)
		}
		byNodes := timePerCycleByNodes(th)
		var nodes []int
		for n := range byNodes {
			nodes = append(nodes, n)
		}
		sort.Ints(nodes)
		s := viz.LineSeries{Label: names[cluster]}
		for _, n := range nodes {
			mean := stats.Mean(byNodes[n])
			s.X = append(s.X, float64(n))
			s.Y = append(s.Y, mean)
			fmt.Printf("  %-22s %2d nodes  %7.3f s/cycle (±%.3f over %d runs)\n",
				names[cluster], n, mean, stats.Std(byNodes[n]), len(byNodes[n]))
		}
		series = append(series, s)
	}
	ascii, err := viz.LinePlot(series, 64, 16, true, true)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Print(ascii)

	// ---- Figure 11: Extra-P models of the solver on both systems.
	fmt.Println("\n== Figure 11: Extra-P models of M_solver->Mult ==")
	for _, cluster := range []sim.MarblCluster{sim.ClusterRZTopaz, sim.ClusterAWS} {
		profiles, err := sim.MarblEnsemble([]sim.MarblCluster{cluster}, sim.Figure16Nodes(), 5, *seed)
		if err != nil {
			log.Fatal(err)
		}
		th, err := thicket.FromProfiles(profiles, thicket.Options{})
		if err != nil {
			log.Fatal(err)
		}
		model, err := th.ModelNode(solverNode, thicket.ColKey{"Avg time/rank"}, "mpi.world.size", thicket.ExtrapOptions{})
		if err != nil {
			log.Fatal(err)
		}
		fmt.Printf("  %-22s %s   (R²=%.4f)\n", names[cluster], model, model.R2)
		fmt.Printf("  %-22s extrapolated to 4608 ranks: %.2f s\n", "", model.Eval(4608))
	}

	// ---- Figure 18: parallel-coordinate plot of the full ensemble.
	profiles, err := sim.MarblEnsemble(sim.BothClusters(), sim.Figure16Nodes(), 5, *seed)
	if err != nil {
		log.Fatal(err)
	}
	th, err := thicket.FromProfiles(profiles, thicket.Options{})
	if err != nil {
		log.Fatal(err)
	}
	ranks := metaFloats(th, "mpi.world.size")
	wall := metaFloats(th, "walltime")
	elems := metaFloats(th, "num_elems_max")
	archCol, err := th.Metadata.ColumnByName("arch")
	if err != nil {
		log.Fatal(err)
	}
	arch := make([]string, th.Metadata.NRows())
	for r := range arch {
		arch[r] = archCol.At(r).Str()
	}
	rho, err := stats.Spearman(ranks, wall)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("\n== Figure 18 ==\nSpearman(mpi.world.size, walltime) = %.3f — criss-crossing PCP axes (inverse correlation)\n", rho)

	if *out != "" {
		pcp, err := viz.SVGParallelCoordinates("MARBL ensemble metadata",
			[]viz.PCPAxis{
				{Label: "num_elems_max", Values: elems},
				{Label: "mpi.world.size", Values: ranks},
				{Label: "walltime", Values: wall},
			}, arch)
		if err != nil {
			log.Fatal(err)
		}
		if err := os.MkdirAll(*out, 0o755); err != nil {
			log.Fatal(err)
		}
		path := filepath.Join(*out, "marbl_pcp.svg")
		if err := os.WriteFile(path, []byte(pcp), 0o644); err != nil {
			log.Fatal(err)
		}
		fmt.Println("wrote", path)
	}
}

// timePerCycleByNodes computes per-profile timeStepLoop time/cycle keyed
// by node count.
func timePerCycleByNodes(th *thicket.Thicket) map[int][]float64 {
	vals, profs, err := th.MetricVector("main/timeStepLoop", thicket.ColKey{"Avg time/rank"})
	if err != nil {
		log.Fatal(err)
	}
	profLv, err := dataframe.SeriesOf(th.ProfileLevelName(), profs)
	if err != nil {
		log.Fatal(err)
	}
	rows := th.Metadata.Index().Locate(profLv)
	hostsCol, err := th.Metadata.ColumnByName("numhosts")
	if err != nil {
		log.Fatal(err)
	}
	cyclesCol, err := th.Metadata.ColumnByName("cycles")
	if err != nil {
		log.Fatal(err)
	}
	out := map[int][]float64{}
	for i, v := range vals {
		hosts := int(hostsCol.At(int(rows[i])).Int())
		cycles, _ := cyclesCol.At(int(rows[i])).AsFloat()
		out[hosts] = append(out[hosts], v/cycles)
	}
	return out
}

func metaFloats(th *thicket.Thicket, column string) []float64 {
	c, err := th.Metadata.ColumnByName(column)
	if err != nil {
		log.Fatal(err)
	}
	return c.Floats()
}
