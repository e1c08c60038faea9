package core

import (
	"fmt"
	"math"
	"strconv"

	"repro/internal/dataframe"
	"repro/internal/parallel"
	"repro/internal/stats"
	"repro/internal/telemetry"
)

// rowsByNodeOf groups a frame's row positions by the named index level,
// scanning chunks in parallel; merging partials in chunk order keeps
// per-node row lists in ascending (sequential) order. Dict-encoded
// levels partition on integer codes — no per-row string materialization
// or string hashing; the codes decode to paths once per distinct node.
func rowsByNodeOf(f *dataframe.Frame, level string) (map[string][]int, error) {
	lv := f.Index().LevelByName(level)
	if lv == nil {
		return nil, fmt.Errorf("core: frame lacks index level %q", level)
	}
	dict, codes := lv.StringData()
	if dict == nil {
		return rowsByNodeSlow(f.NRows(), lv), nil
	}
	nulls := lv.Nulls()
	// Null cells group under the empty path, matching Value.Str() on a
	// null. The dict may intern "" itself, so nulls borrow its code when
	// present and a reserved out-of-range code otherwise.
	nullKey := uint32(dict.Len())
	if c, ok := dict.Code(""); ok {
		nullKey = c
	}
	type partition struct {
		rows  map[uint32][]int
		order []uint32
	}
	parts := parallel.MapChunks(f.NRows(), func(lo, hi int) partition {
		p := partition{rows: make(map[uint32][]int)}
		for r := lo; r < hi; r++ {
			c := codes[r]
			if nulls[r] {
				c = nullKey
			}
			if _, ok := p.rows[c]; !ok {
				p.order = append(p.order, c)
			}
			p.rows[c] = append(p.rows[c], r)
		}
		return p
	})
	words := dict.Words()
	out := make(map[string][]int)
	for _, p := range parts {
		for _, c := range p.order {
			path := ""
			if int(c) < len(words) {
				path = words[c]
			}
			out[path] = append(out[path], p.rows[c]...)
		}
	}
	return out, nil
}

// rowsByNodeSlow is the per-value fallback for non-string levels.
func rowsByNodeSlow(n int, lv *dataframe.Series) map[string][]int {
	type partition struct {
		rows  map[string][]int
		order []string
	}
	parts := parallel.MapChunks(n, func(lo, hi int) partition {
		p := partition{rows: make(map[string][]int)}
		for r := lo; r < hi; r++ {
			path := lv.At(r).Str()
			if _, ok := p.rows[path]; !ok {
				p.order = append(p.order, path)
			}
			p.rows[path] = append(p.rows[path], r)
		}
		return p
	})
	out := make(map[string][]int)
	for _, p := range parts {
		for _, path := range p.order {
			out[path] = append(out[path], p.rows[path]...)
		}
	}
	return out
}

// AggregateStats computes order-reduced statistics (paper §4.2.1): for
// each requested metric column and aggregator, one statistics column
// named "<metric>_<agg>" is added to the stats table, holding the
// aggregate of that metric across all profiles per call-tree node. On
// hierarchically composed thickets the metric's group label is preserved
// as the outer column level.
//
// Metrics are addressed by PerfData column key; aggregators by name
// ("mean", "median", "var", "std", "min", "max", "sum", "count", "pNN").
// Nodes fan out across a bounded worker pool; results are written to
// fixed positions so the output is deterministic.
func (t *Thicket) AggregateStats(metrics []dataframe.ColKey, aggs []string) error {
	sp := telemetry.StartOp("core.AggregateStats")
	if sp != nil {
		sp.SetAttr("rows", strconv.Itoa(t.PerfData.NRows()))
		sp.SetAttr("aggs", strconv.Itoa(len(aggs)))
		defer sp.End()
	}
	if len(metrics) == 0 {
		metrics = t.MetricColumns()
	}
	if len(aggs) == 0 {
		aggs = []string{"mean", "std"}
	}
	aggregators := make([]stats.Aggregator, len(aggs))
	for i, name := range aggs {
		a, err := stats.ByName(name)
		if err != nil {
			return err
		}
		aggregators[i] = a
	}
	cols := make([]*dataframe.Series, len(metrics))
	for i, mk := range metrics {
		c, err := t.PerfData.Column(mk)
		if err != nil {
			return err
		}
		cols[i] = c
	}

	// Group PerfData rows per node path.
	rowsByNode, err := rowsByNodeOf(t.PerfData, NodeLevel)
	if err != nil {
		return fmt.Errorf("core: perf data lacks node level")
	}

	statsLv := t.Stats.Index().LevelByName(NodeLevel)
	if statsLv == nil {
		return fmt.Errorf("core: stats table lacks node level")
	}

	// results[mi][ai][statsRow] = aggregate.
	results := make([][][]float64, len(metrics))
	for mi := range results {
		results[mi] = make([][]float64, len(aggregators))
		for ai := range results[mi] {
			results[mi][ai] = make([]float64, t.Stats.NRows())
		}
	}

	// Nodes fan out across the worker pool; every aggregate is computed
	// by the same sequential stats code over the node's full (ascending)
	// row list and written to a fixed slot, so the output is bit-identical
	// to the sequential path at any parallelism.
	parallel.For(t.Stats.NRows(), func(sr int) {
		rows := rowsByNode[statsLv.At(sr).Str()]
		for mi, col := range cols {
			vals := make([]float64, 0, len(rows))
			for _, r := range rows {
				f, ok := col.At(r).AsFloat()
				if ok {
					vals = append(vals, f)
				}
			}
			for ai, agg := range aggregators {
				results[mi][ai][sr] = agg.Fn(vals)
			}
		}
	})

	for mi, mk := range metrics {
		for ai, agg := range aggregators {
			name := mk.Leaf() + "_" + agg.Name
			key := mk.Copy()
			key[len(key)-1] = name
			series := dataframe.NewFloatSeries(name, results[mi][ai])
			if t.Stats.HasColumn(key) {
				// Recomputing an existing statistic overwrites in place.
				existing, err := t.Stats.Column(key)
				if err != nil {
					return err
				}
				for r := 0; r < series.Len(); r++ {
					if err := existing.Set(r, series.At(r)); err != nil {
						return err
					}
				}
				continue
			}
			if err := t.Stats.AddColumnWithKey(key, series); err != nil {
				return err
			}
		}
	}
	return nil
}

// CorrelateMetrics computes the correlation coefficient between two
// metric columns per call-tree node across profiles, adding a stats
// column "<a>_vs_<b>_<method>" (method "pearson" or "spearman").
func (t *Thicket) CorrelateMetrics(a, b dataframe.ColKey, method string) error {
	colA, err := t.PerfData.Column(a)
	if err != nil {
		return err
	}
	colB, err := t.PerfData.Column(b)
	if err != nil {
		return err
	}
	var corr func(x, y []float64) (float64, error)
	switch method {
	case "pearson":
		corr = stats.Pearson
	case "spearman":
		corr = stats.Spearman
	default:
		return fmt.Errorf("core: unknown correlation method %q", method)
	}
	rowsByNode, err := rowsByNodeOf(t.PerfData, NodeLevel)
	if err != nil {
		return err
	}
	statsLv := t.Stats.Index().LevelByName(NodeLevel)
	out := make([]float64, t.Stats.NRows())
	if err := parallel.ForErr(t.Stats.NRows(), func(sr int) error {
		rows := rowsByNode[statsLv.At(sr).Str()]
		xs := make([]float64, len(rows))
		ys := make([]float64, len(rows))
		for i, r := range rows {
			xs[i], _ = colA.At(r).AsFloat()
			ys[i], _ = colB.At(r).AsFloat()
		}
		c, err := corr(xs, ys)
		if err != nil {
			return err
		}
		out[sr] = c
		return nil
	}); err != nil {
		return err
	}
	name := fmt.Sprintf("%s_vs_%s_%s", a.Leaf(), b.Leaf(), method)
	return t.Stats.AddColumnWithKey(dataframe.ColKey{name}, dataframe.NewFloatSeries(name, out))
}

// MetricVector gathers one metric as a float slice aligned with the
// given node, ordered by profile appearance in the metadata table;
// profiles lacking the node yield no entry. It also returns the aligned
// profile-index values.
func (t *Thicket) MetricVector(node string, metric dataframe.ColKey) ([]float64, []dataframe.Value, error) {
	col, err := t.PerfData.Column(metric)
	if err != nil {
		return nil, nil, err
	}
	nodeLv := t.PerfData.Index().LevelByName(NodeLevel)
	profLv := t.PerfData.Index().LevelByName(t.profileLevel)
	var vals []float64
	var profs []dataframe.Value
	for r := 0; r < t.PerfData.NRows(); r++ {
		if nodeLv.At(r).Str() != node {
			continue
		}
		f, _ := col.At(r).AsFloat()
		vals = append(vals, f)
		profs = append(profs, profLv.At(r))
	}
	if vals == nil {
		return nil, nil, fmt.Errorf("core: no rows for node %q", node)
	}
	return vals, profs, nil
}

// GroupedStats computes per-group aggregated statistics in one shot:
// profiles are grouped by the metadata columns, then each metric is
// order-reduced per (group, node). The result frame is indexed by
// (groupCols..., node) with one "<metric>_<agg>" column per pair — the
// pandas groupby().agg() workflow over an ensemble.
func (t *Thicket) GroupedStats(groupColumns []string, metrics []dataframe.ColKey, aggs []string) (*dataframe.Frame, error) {
	sp := telemetry.StartOp("core.GroupedStats")
	if sp != nil {
		sp.SetAttr("rows", strconv.Itoa(t.PerfData.NRows()))
		sp.SetAttr("by", strconv.Itoa(len(groupColumns)))
		defer sp.End()
	}
	if len(groupColumns) == 0 {
		return nil, fmt.Errorf("core: GroupedStats requires group columns")
	}
	groups, err := t.GroupBy(groupColumns...)
	if err != nil {
		return nil, err
	}
	return groupedStats(groups, groupColumns, metrics, aggs)
}

// groupedStats order-reduces every group's sub-thicket and stacks the
// per-group stats tables under (groupColumns..., node).
func groupedStats(groups []GroupedThicket, groupColumns []string, metrics []dataframe.ColKey, aggs []string) (*dataframe.Frame, error) {
	// Each group's order reduction touches only its own sub-thicket;
	// groups fan out across the pool, then rows are assembled in group
	// order so the result is independent of parallelism.
	if err := parallel.ForErr(len(groups), func(gi int) error {
		return groups[gi].Thicket.AggregateStats(metrics, aggs)
	}); err != nil {
		return nil, err
	}
	indexNames := append(append([]string(nil), groupColumns...), NodeLevel)
	var b *dataframe.Builder
	for _, g := range groups {
		sub := g.Thicket
		if b == nil {
			kinds := make([]dataframe.Kind, len(indexNames))
			for i, kv := range g.Key {
				kinds[i] = kv.Kind()
			}
			kinds[len(kinds)-1] = dataframe.String
			b = dataframe.NewBuilder(indexNames, kinds)
		}
		lv := sub.Stats.Index().LevelByName(NodeLevel)
		for r := 0; r < sub.Stats.NRows(); r++ {
			key := append(append([]dataframe.Value(nil), g.Key...), lv.At(r))
			cells := map[string]dataframe.Value{}
			for c := 0; c < sub.Stats.NCols(); c++ {
				cells[sub.Stats.ColIndex().Key(c).String()] = sub.Stats.ColumnAt(c).At(r)
			}
			if err := b.AddRow(key, cells); err != nil {
				return nil, err
			}
		}
	}
	if b == nil {
		return nil, fmt.Errorf("core: no groups")
	}
	return b.Build()
}

// PivotMetric builds a wide table of one metric: rows are call-tree
// nodes, columns are the unique values of a metadata column, and cells
// hold the named aggregate across the matching profiles — the data prep
// behind Figure 14 (kernel × problem size) as a single call.
func (t *Thicket) PivotMetric(metric dataframe.ColKey, metaColumn, agg string) (*dataframe.Frame, error) {
	aggregator, err := stats.ByName(agg)
	if err != nil {
		return nil, err
	}
	col, err := t.PerfData.Column(metric)
	if err != nil {
		return nil, err
	}
	metaCol, err := t.Metadata.ColumnByName(metaColumn)
	if err != nil {
		return nil, err
	}
	// Metadata row -> output column: the position of its value among the
	// column's distinct non-null values, or -1 for a null.
	colKeys := metaCol.Uniques()
	uniq, err := dataframe.SeriesOf(metaColumn, colKeys)
	if err != nil {
		return nil, err
	}
	colOf := dataframe.MustIndex(uniq).Locate(metaCol)
	paths := t.NodePaths()
	rowPos := map[string]int{}
	for i, p := range paths {
		rowPos[p] = i
	}
	cells := make([][][]float64, len(paths))
	for i := range cells {
		cells[i] = make([][]float64, len(colKeys))
	}
	nodeLv := t.PerfData.Index().LevelByName(NodeLevel)
	for r, o := range t.ProfileOrdinals() {
		v, ok := col.At(r).AsFloat()
		if !ok || o < 0 || colOf[o] < 0 {
			continue
		}
		ci := colOf[o]
		ri := rowPos[nodeLv.At(r).Str()]
		cells[ri][ci] = append(cells[ri][ci], v)
	}
	ix, err := dataframe.NewIndex(dataframe.NewStringSeries(NodeLevel, paths))
	if err != nil {
		return nil, err
	}
	columns := make([]*dataframe.Series, len(colKeys))
	for ci, ck := range colKeys {
		data := make([]float64, len(paths))
		for ri := range paths {
			if len(cells[ri][ci]) == 0 {
				data[ri] = math.NaN()
				continue
			}
			data[ri] = aggregator.Fn(cells[ri][ci])
		}
		columns[ci] = dataframe.NewFloatSeries(ck.String(), data)
	}
	return dataframe.NewFrame(ix, columns...)
}
