package core

import (
	"fmt"
	"math"

	"repro/internal/calltree"
	"repro/internal/dataframe"
	"repro/internal/stats"
	"repro/internal/viz"
)

// This file holds the Hatchet-style single/dual-profile analyses the
// paper cites as Hatchet's use cases ("computing load imbalance across
// nodes in a single run, or computing the speedup of a single core to
// many cores") lifted to whole ensembles.

// LoadImbalance adds a stats column "<leaf>_imbalance" holding, per
// call-tree node, the mean over profiles of maxMetric/avgMetric — the
// classic load-imbalance factor (1.0 = perfectly balanced). maxMetric
// and avgMetric are typically the per-rank max and average durations.
func (t *Thicket) LoadImbalance(maxMetric, avgMetric dataframe.ColKey) error {
	maxCol, err := t.PerfData.Column(maxMetric)
	if err != nil {
		return err
	}
	avgCol, err := t.PerfData.Column(avgMetric)
	if err != nil {
		return err
	}
	nodeLv := t.PerfData.Index().LevelByName(NodeLevel)
	ratios := map[string][]float64{}
	for r := 0; r < t.PerfData.NRows(); r++ {
		mx, okm := maxCol.At(r).AsFloat()
		av, oka := avgCol.At(r).AsFloat()
		if !okm || !oka || av == 0 {
			continue
		}
		p := nodeLv.At(r).Str()
		ratios[p] = append(ratios[p], mx/av)
	}
	statsLv := t.Stats.Index().LevelByName(NodeLevel)
	out := make([]float64, t.Stats.NRows())
	for sr := 0; sr < t.Stats.NRows(); sr++ {
		vals := ratios[statsLv.At(sr).Str()]
		if len(vals) == 0 {
			out[sr] = math.NaN()
			continue
		}
		out[sr] = stats.Mean(vals)
	}
	name := avgMetric.Leaf() + "_imbalance"
	key := avgMetric.Copy()
	key[len(key)-1] = name
	return t.Stats.AddColumnWithKey(key, dataframe.NewFloatSeries(name, out))
}

// SpeedupBetween computes, per call-tree node, the ratio of a metric's
// mean in the baseline thicket to its mean in t — e.g. baseline =
// single-core runs, t = many-core runs, the Hatchet speedup use case.
// Nodes absent from either side yield NaN. The result is a (node)-indexed
// frame with one "speedup" column, ordered by t's tree.
func (t *Thicket) SpeedupBetween(baseline *Thicket, metric dataframe.ColKey) (*dataframe.Frame, error) {
	own, err := t.NodeMeans(metric)
	if err != nil {
		return nil, err
	}
	base, err := baseline.NodeMeans(metric)
	if err != nil {
		return nil, fmt.Errorf("core: baseline: %w", err)
	}
	paths := t.NodePaths()
	names := make([]string, len(paths))
	vals := make([]float64, len(paths))
	for i, p := range paths {
		names[i] = p
		b, okB := base[p]
		o, okO := own[p]
		if !okB || !okO || o == 0 {
			vals[i] = math.NaN()
			continue
		}
		vals[i] = b / o
	}
	ix, err := dataframe.NewIndex(dataframe.NewStringSeries(NodeLevel, names))
	if err != nil {
		return nil, err
	}
	return dataframe.NewFrame(ix, dataframe.NewFloatSeries("speedup", vals))
}

// NodeMeans averages one metric per call-tree node across all
// profiles, keyed by node path. Null and non-numeric cells are skipped,
// and nodes without a numeric cell are absent. Values are summed in
// perf-row order, so every caller sees the same rounding.
func (t *Thicket) NodeMeans(metric dataframe.ColKey) (map[string]float64, error) {
	col, err := t.PerfData.Column(metric)
	if err != nil {
		return nil, err
	}
	nodeLv := t.PerfData.Index().LevelByName(NodeLevel)
	sums := map[string][2]float64{}
	for r := 0; r < t.PerfData.NRows(); r++ {
		v, ok := col.At(r).AsFloat()
		if !ok {
			continue
		}
		p := nodeLv.At(r).Str()
		acc := sums[p]
		sums[p] = [2]float64{acc[0] + v, acc[1] + 1}
	}
	out := make(map[string]float64, len(sums))
	for p, acc := range sums {
		out[p] = acc[0] / acc[1]
	}
	return out, nil
}

// TreeTableString renders the tree + table view (the Figure 14
// paradigm): the call tree on the left, one aligned column per requested
// metric holding the named aggregate across profiles. Nodes without
// measurements show empty cells.
func (t *Thicket) TreeTableString(metrics []dataframe.ColKey, agg string) (string, error) {
	if len(metrics) == 0 {
		metrics = t.MetricColumns()
	}
	aggregator, err := stats.ByName(agg)
	if err != nil {
		return "", err
	}
	nodeLv := t.PerfData.Index().LevelByName(NodeLevel)
	byNode := make([]map[string][]float64, len(metrics))
	for i, mk := range metrics {
		col, err := t.PerfData.Column(mk)
		if err != nil {
			return "", err
		}
		m := map[string][]float64{}
		for r := 0; r < t.PerfData.NRows(); r++ {
			v, ok := col.At(r).AsFloat()
			if !ok {
				continue
			}
			p := nodeLv.At(r).Str()
			m[p] = append(m[p], v)
		}
		byNode[i] = m
	}
	labels := make([]string, len(metrics))
	for i, mk := range metrics {
		labels[i] = mk.Leaf() + "_" + agg
	}
	return viz.TreeTable(t.Tree, labels, func(n *calltree.Node) []string {
		cells := make([]string, len(metrics))
		any := false
		for i := range metrics {
			vals := byNode[i][n.PathString()]
			if len(vals) == 0 {
				continue
			}
			cells[i] = fmt.Sprintf("%.6g", aggregator.Fn(vals))
			any = true
		}
		if !any {
			return nil
		}
		return cells
	})
}

// NodeFeatureMatrix assembles an (nodes × metrics) matrix of per-node
// metric means — the input shape for PCA or clustering over call-tree
// regions ("applying external functions such as clustering or principal
// component analysis (PCA)", §2). Rows follow tree pre-order; nodes
// lacking any requested metric are dropped. Returns the matrix and the
// retained node paths.
func (t *Thicket) NodeFeatureMatrix(metrics []dataframe.ColKey) ([][]float64, []string, error) {
	if len(metrics) == 0 {
		metrics = t.MetricColumns()
	}
	means := make([]map[string]float64, len(metrics))
	for i, mk := range metrics {
		m, err := t.NodeMeans(mk)
		if err != nil {
			return nil, nil, err
		}
		means[i] = m
	}
	var matrix [][]float64
	var nodes []string
	for _, p := range t.NodePaths() {
		row := make([]float64, len(metrics))
		ok := true
		for i := range metrics {
			v, has := means[i][p]
			if !has || math.IsNaN(v) {
				ok = false
				break
			}
			row[i] = v
		}
		if ok {
			matrix = append(matrix, row)
			nodes = append(nodes, p)
		}
	}
	if len(matrix) == 0 {
		return nil, nil, fmt.Errorf("core: no node has all %d requested metrics", len(metrics))
	}
	return matrix, nodes, nil
}

// ProfileFeatureMatrix assembles a (profiles × metrics) matrix for one
// call-tree node: each row is a profile's metric vector at that node —
// the input shape for clustering runs (Figure 10 clusters per-run
// samples). Returns the matrix and the aligned profile-index values.
func (t *Thicket) ProfileFeatureMatrix(node string, metrics []dataframe.ColKey) ([][]float64, []dataframe.Value, error) {
	if len(metrics) == 0 {
		metrics = t.MetricColumns()
	}
	cols := make([]*dataframe.Series, len(metrics))
	for i, mk := range metrics {
		c, err := t.PerfData.Column(mk)
		if err != nil {
			return nil, nil, err
		}
		cols[i] = c
	}
	nodeLv := t.PerfData.Index().LevelByName(NodeLevel)
	profLv := t.PerfData.Index().LevelByName(t.profileLevel)
	var matrix [][]float64
	var profs []dataframe.Value
	for r := 0; r < t.PerfData.NRows(); r++ {
		if nodeLv.At(r).Str() != node {
			continue
		}
		row := make([]float64, len(cols))
		ok := true
		for i, c := range cols {
			v, has := c.At(r).AsFloat()
			if !has {
				ok = false
				break
			}
			row[i] = v
		}
		if ok {
			matrix = append(matrix, row)
			profs = append(profs, profLv.At(r))
		}
	}
	if len(matrix) == 0 {
		return nil, nil, fmt.Errorf("core: node %q has no complete metric rows", node)
	}
	return matrix, profs, nil
}
