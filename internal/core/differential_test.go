package core

import (
	"fmt"
	"math"
	"math/rand"
	"runtime"
	"slices"
	"strings"
	"sync"
	"testing"

	"repro/internal/calltree"
	"repro/internal/dataframe"
	"repro/internal/extrap"
	"repro/internal/parallel"
	"repro/internal/profile"
	"repro/internal/stats"
)

// This file is the differential harness for moving core off string
// keys: the pre-rewrite implementations (EncodeKey maps, per-row key
// probes) are preserved here as executable references, and every
// rewritten verb is checked bit for bit against them on randomized
// thickets — profile keys of every kind, nulls and NaN, keys of another
// kind than the metadata's, profiles absent from the metadata, shuffled
// perf rows — at one worker and at several.

// ---- reference implementations (string-keyed, pre-rewrite) ------------

func refFilterMetadata(t *Thicket, pred func(MetaRow) bool) *Thicket {
	meta := t.Metadata.Filter(func(r dataframe.Row) bool { return pred(MetaRow{row: r}) })
	keep := make(map[string]bool, meta.NRows())
	for r := 0; r < meta.NRows(); r++ {
		keep[dataframe.EncodeKey(meta.Index().KeyAt(r))] = true
	}
	profLv := t.PerfData.Index().LevelByName(t.profileLevel)
	perf := t.PerfData.Filter(func(r dataframe.Row) bool {
		return keep[dataframe.EncodeKey([]dataframe.Value{profLv.At(r.Pos())})]
	})
	return t.copyWith(t.Tree.Copy(), perf, meta, t.Stats.Copy())
}

func refFilterProfiles(t *Thicket, values []dataframe.Value) *Thicket {
	want := make(map[string]bool, len(values))
	for _, v := range values {
		want[dataframe.EncodeKey([]dataframe.Value{v})] = true
	}
	return refFilterMetadata(t, func(m MetaRow) bool {
		return want[dataframe.EncodeKey([]dataframe.Value{m.Profile(t.profileLevel)})]
	})
}

func refGroupBy(t *Thicket, columns ...string) ([]GroupedThicket, error) {
	groups, err := t.Metadata.GroupBy(columns...)
	if err != nil {
		return nil, err
	}
	out := make([]GroupedThicket, 0, len(groups))
	for _, g := range groups {
		g := g
		sub := refFilterMetadata(t, func(m MetaRow) bool {
			for ci, col := range columns {
				if !m.Value(col).Equal(g.Key[ci]) {
					return false
				}
			}
			return true
		})
		out = append(out, GroupedThicket{Key: g.Key, Columns: columns, Thicket: sub})
	}
	return out, nil
}

func refGroupedStats(t *Thicket, groupColumns []string, metrics []dataframe.ColKey, aggs []string) (*dataframe.Frame, error) {
	groups, err := refGroupBy(t, groupColumns...)
	if err != nil {
		return nil, err
	}
	return groupedStats(groups, groupColumns, metrics, aggs)
}

func refPivotMetric(t *Thicket, metric dataframe.ColKey, metaColumn, agg string) (*dataframe.Frame, error) {
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
	// profile index -> metadata value.
	valOf := map[string]dataframe.Value{}
	for r := 0; r < t.Metadata.NRows(); r++ {
		valOf[dataframe.EncodeKey(t.Metadata.Index().KeyAt(r))] = metaCol.At(r)
	}
	colKeys := metaCol.Uniques()
	colPos := map[string]int{}
	for i, v := range colKeys {
		colPos[dataframe.EncodeKey([]dataframe.Value{v})] = i
	}
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
	profLv := t.PerfData.Index().LevelByName(t.profileLevel)
	for r := 0; r < t.PerfData.NRows(); r++ {
		v, ok := col.At(r).AsFloat()
		if !ok {
			continue
		}
		mv, ok := valOf[dataframe.EncodeKey([]dataframe.Value{profLv.At(r)})]
		if !ok || mv.IsNull() {
			continue
		}
		ci := colPos[dataframe.EncodeKey([]dataframe.Value{mv})]
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

func refModelExtrap(t *Thicket, metric dataframe.ColKey, paramColumn string, opts extrap.Options) ([]NodeModel, error) {
	paramCol, err := t.Metadata.ColumnByName(paramColumn)
	if err != nil {
		return nil, err
	}
	// profile index value -> parameter value.
	params := make(map[string]float64, t.Metadata.NRows())
	for r := 0; r < t.Metadata.NRows(); r++ {
		key := dataframe.EncodeKey(t.Metadata.Index().KeyAt(r))
		f, ok := paramCol.At(r).AsFloat()
		if !ok {
			return nil, fmt.Errorf("core: metadata %q at profile %s is not numeric", paramColumn, dataframe.FormatKey(t.Metadata.Index().KeyAt(r)))
		}
		params[key] = f
	}

	col, err := t.PerfData.Column(metric)
	if err != nil {
		return nil, err
	}
	nodeLv := t.PerfData.Index().LevelByName(NodeLevel)
	profLv := t.PerfData.Index().LevelByName(t.profileLevel)

	type sample struct{ p, y float64 }
	samples := map[string][]sample{}
	for r := 0; r < t.PerfData.NRows(); r++ {
		y, ok := col.At(r).AsFloat()
		if !ok {
			continue
		}
		pkey := dataframe.EncodeKey([]dataframe.Value{profLv.At(r)})
		pv, ok := params[pkey]
		if !ok {
			continue
		}
		node := nodeLv.At(r).Str()
		samples[node] = append(samples[node], sample{p: pv, y: y})
	}

	paths := t.NodePaths()
	out := make([]NodeModel, len(paths))
	workers := runtime.GOMAXPROCS(0)
	if workers > len(paths) && len(paths) > 0 {
		workers = len(paths)
	}
	if workers < 1 {
		workers = 1
	}
	var wg sync.WaitGroup
	idxCh := make(chan int)
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := range idxCh {
				node := paths[i]
				ss := samples[node]
				if len(ss) == 0 {
					out[i] = NodeModel{Node: node, Err: fmt.Errorf("core: no measurements for node %q", node)}
					continue
				}
				ps := make([]float64, len(ss))
				ys := make([]float64, len(ss))
				for j, s := range ss {
					ps[j] = s.p
					ys[j] = s.y
				}
				m, err := extrap.Fit(ps, ys, opts)
				out[i] = NodeModel{Node: node, Model: m, Err: err}
			}
		}()
	}
	for i := range paths {
		idxCh <- i
	}
	close(idxCh)
	wg.Wait()
	return out, nil
}

func refModelExtrap2(t *Thicket, metric dataframe.ColKey, paramP, paramQ string, opts extrap.Options2) ([]NodeModel2, error) {
	lookupParam := func(column string) (map[string]float64, error) {
		col, err := t.Metadata.ColumnByName(column)
		if err != nil {
			return nil, err
		}
		out := make(map[string]float64, t.Metadata.NRows())
		for r := 0; r < t.Metadata.NRows(); r++ {
			f, ok := col.At(r).AsFloat()
			if !ok {
				return nil, fmt.Errorf("core: metadata %q at profile %s is not numeric", column, dataframe.FormatKey(t.Metadata.Index().KeyAt(r)))
			}
			out[dataframe.EncodeKey(t.Metadata.Index().KeyAt(r))] = f
		}
		return out, nil
	}
	pOf, err := lookupParam(paramP)
	if err != nil {
		return nil, err
	}
	qOf, err := lookupParam(paramQ)
	if err != nil {
		return nil, err
	}
	col, err := t.PerfData.Column(metric)
	if err != nil {
		return nil, err
	}
	nodeLv := t.PerfData.Index().LevelByName(NodeLevel)
	profLv := t.PerfData.Index().LevelByName(t.profileLevel)

	type sample struct{ p, q, y float64 }
	samples := map[string][]sample{}
	for r := 0; r < t.PerfData.NRows(); r++ {
		y, ok := col.At(r).AsFloat()
		if !ok {
			continue
		}
		pkey := dataframe.EncodeKey([]dataframe.Value{profLv.At(r)})
		pv, pok := pOf[pkey]
		qv, qok := qOf[pkey]
		if !pok || !qok {
			continue
		}
		node := nodeLv.At(r).Str()
		samples[node] = append(samples[node], sample{p: pv, q: qv, y: y})
	}

	paths := t.NodePaths()
	out := make([]NodeModel2, len(paths))
	workers := runtime.GOMAXPROCS(0)
	if workers > len(paths) && len(paths) > 0 {
		workers = len(paths)
	}
	if workers < 1 {
		workers = 1
	}
	var wg sync.WaitGroup
	idxCh := make(chan int)
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := range idxCh {
				node := paths[i]
				ss := samples[node]
				if len(ss) == 0 {
					out[i] = NodeModel2{Node: node, Err: fmt.Errorf("core: no measurements for node %q", node)}
					continue
				}
				ps := make([]float64, len(ss))
				qs := make([]float64, len(ss))
				ys := make([]float64, len(ss))
				for j, s := range ss {
					ps[j], qs[j], ys[j] = s.p, s.q, s.y
				}
				m, err := extrap.Fit2(ps, qs, ys, opts)
				out[i] = NodeModel2{Node: node, Model: m, Err: err}
			}
		}()
	}
	for i := range paths {
		idxCh <- i
	}
	close(idxCh)
	wg.Wait()
	return out, nil
}

func refCompose(groups []string, thickets []*Thicket) (*Thicket, error) {
	if len(groups) != len(thickets) {
		return nil, fmt.Errorf("core: %d group labels for %d thickets", len(groups), len(thickets))
	}
	if len(thickets) < 2 {
		return nil, fmt.Errorf("core: Compose requires at least two thickets")
	}
	seen := map[string]bool{}
	for _, g := range groups {
		if seen[g] {
			return nil, fmt.Errorf("core: duplicate group label %q", g)
		}
		seen[g] = true
	}
	first := thickets[0]
	for i, th := range thickets[1:] {
		if th.profileLevel != first.profileLevel {
			return nil, fmt.Errorf("core: thicket %d uses profile level %q, want %q (compose requires the same hierarchical index)", i+1, th.profileLevel, first.profileLevel)
		}
	}

	frames := make([]*dataframe.Frame, len(thickets))
	trees := make([]*calltree.Tree, len(thickets))
	for i, th := range thickets {
		frames[i] = th.PerfData
		trees[i] = th.Tree
	}
	perf, err := dataframe.InnerJoinOnIndex(groups, frames)
	if err != nil {
		return nil, err
	}
	tree := calltree.Intersect(trees...)

	// Surviving profile-index values: encode per-profile rows in chunk
	// parallel, then union the partials (set union is order-insensitive).
	profLv := perf.Index().LevelByName(first.profileLevel)
	if profLv == nil {
		return nil, fmt.Errorf("core: composed index lacks level %q", first.profileLevel)
	}
	parts := parallel.MapChunks(profLv.Len(), func(lo, hi int) map[string]bool {
		part := make(map[string]bool)
		for r := lo; r < hi; r++ {
			part[dataframe.EncodeKey([]dataframe.Value{profLv.At(r)})] = true
		}
		return part
	})
	keep := map[string]bool{}
	for _, part := range parts {
		for enc := range part {
			keep[enc] = true
		}
	}
	meta := first.Metadata.Filter(func(r dataframe.Row) bool {
		return keep[dataframe.EncodeKey(first.Metadata.Index().KeyAt(r.Pos()))]
	})

	return &Thicket{
		Tree:         tree,
		PerfData:     perf,
		Metadata:     meta,
		Stats:        emptyStats(tree),
		profileLevel: first.profileLevel,
	}, nil
}

func refValidate(t *Thicket) error {
	if t.Metadata.Index().HasDuplicates() {
		return fmt.Errorf("core: duplicate profile index in metadata")
	}
	nodeLv := t.PerfData.Index().LevelByName(NodeLevel)
	profLv := t.PerfData.Index().LevelByName(t.profileLevel)
	if nodeLv == nil || profLv == nil {
		return fmt.Errorf("core: perf data index must have levels (%s, %s)", NodeLevel, t.profileLevel)
	}
	// Perf rows are the cross product of nodes × profiles, so distinct
	// level values are few; memoize the per-value checks instead of
	// re-resolving paths and index keys on every row.
	okNodes := make(map[string]struct{}, t.Tree.Len())
	okProfiles := make(map[dataframe.Value]struct{}, t.Metadata.NRows())
	for r := 0; r < t.PerfData.NRows(); r++ {
		if path := nodeLv.At(r).Str(); !mapHas(okNodes, path) {
			if t.NodeByPathString(path) == nil {
				return fmt.Errorf("core: perf row %d references unknown node %q", r, path)
			}
			okNodes[path] = struct{}{}
		}
		if prof := profLv.At(r); !mapHasValue(okProfiles, prof) {
			if !t.Metadata.Index().Contains([]dataframe.Value{prof}) {
				return fmt.Errorf("core: perf row %d references unknown profile %s", r, prof)
			}
			okProfiles[prof] = struct{}{}
		}
	}
	statsLv := t.Stats.Index().LevelByName(NodeLevel)
	if statsLv == nil {
		return fmt.Errorf("core: stats index must have level %q", NodeLevel)
	}
	for r := 0; r < t.Stats.NRows(); r++ {
		if path := statsLv.At(r).Str(); !mapHas(okNodes, path) {
			if t.NodeByPathString(path) == nil {
				return fmt.Errorf("core: stats row %d references unknown node %q", r, path)
			}
			okNodes[path] = struct{}{}
		}
	}
	return nil
}

func mapHas(m map[string]struct{}, k string) bool {
	_, ok := m[k]
	return ok
}

func mapHasValue(m map[dataframe.Value]struct{}, k dataframe.Value) bool {
	_, ok := m[k]
	return ok
}

// refIndexValues is FromProfiles' index-value pass: the first missing
// value or repeated key, in profile order, is its error.
func refIndexValues(profiles []*profile.Profile, opts Options) error {
	seen := make(map[string]int)
	for i, p := range profiles {
		var v dataframe.Value
		if opts.IndexBy != "" {
			mv, ok := p.Meta(opts.IndexBy)
			if !ok {
				return fmt.Errorf("core: profile %d lacks metadata %q requested as index", i, opts.IndexBy)
			}
			v = mv
		} else {
			v = dataframe.Int64(p.Hash())
		}
		enc := dataframe.EncodeKey([]dataframe.Value{v})
		if j, dup := seen[enc]; dup {
			return fmt.Errorf("core: profiles %d and %d share index value %s; use the default hash index or a distinguishing column", j, i, v)
		}
		seen[enc] = i
	}
	return nil
}

// refFromProfiles is FromProfiles before it built its perf columns
// directly: the call trees unioned one profile at a time, and every
// (node, profile) row's metrics copied through dataframe.Builder.
func refFromProfiles(profiles []*profile.Profile, opts Options) (*Thicket, error) {
	if len(profiles) == 0 {
		return nil, fmt.Errorf("core: no profiles")
	}
	for i, p := range profiles {
		if err := p.Validate(); err != nil {
			return nil, fmt.Errorf("core: profile %d: %w", i, err)
		}
		for _, n := range p.Tree().Nodes() {
			if strings.Contains(n.Name(), "/") {
				return nil, fmt.Errorf("core: profile %d: region name %q contains '/'", i, n.Name())
			}
		}
	}

	level := ProfileLevel
	if opts.IndexBy != "" {
		level = opts.IndexBy
	}

	// Assign profile index values. A repeat before the first profile
	// lacking its index value is reported first, as a one-pass scan would.
	indexVals := make([]dataframe.Value, 0, len(profiles))
	var lackErr error
	for i, p := range profiles {
		if opts.IndexBy == "" {
			indexVals = append(indexVals, dataframe.Int64(p.Hash()))
			continue
		}
		mv, ok := p.Meta(opts.IndexBy)
		if !ok {
			lackErr = fmt.Errorf("core: profile %d lacks metadata %q requested as index", i, opts.IndexBy)
			break
		}
		indexVals = append(indexVals, mv)
	}
	if j, i, dup := firstRepeat(level, indexVals); dup {
		return nil, fmt.Errorf("core: profiles %d and %d share index value %s; use the default hash index or a distinguishing column", j, i, indexVals[i])
	}
	if lackErr != nil {
		return nil, lackErr
	}

	// Union (or intersection) call tree and metric-name union in
	// first-appearance order.
	tree := calltree.New()
	var metricOrder []string
	metricSeen := map[string]bool{}
	for _, p := range profiles {
		tree = calltree.Union(tree, p.Tree())
		for _, m := range p.MetricNames() {
			if !metricSeen[m] {
				metricSeen[m] = true
				metricOrder = append(metricOrder, m)
			}
		}
	}
	if opts.IntersectTrees {
		trees := make([]*calltree.Tree, len(profiles))
		for i, p := range profiles {
			trees[i] = p.Tree()
		}
		tree = calltree.Intersect(trees...)
	}

	// Performance data: rows ordered tree pre-order × profile order.
	indexKind := dataframe.Int
	if len(indexVals) > 0 {
		indexKind = indexVals[0].Kind()
	}
	pb := dataframe.NewBuilder([]string{NodeLevel, level}, []dataframe.Kind{dataframe.String, indexKind})
	for _, n := range tree.Nodes() {
		for pi, p := range profiles {
			own := p.Tree().NodeByKey(n.Key())
			if own == nil {
				continue // node absent from this profile's tree
			}
			metrics := p.NodeMetrics(own.Key())
			cells := make(map[string]dataframe.Value, len(metrics))
			for name, v := range metrics {
				cells[name] = v
			}
			if err := pb.AddRow([]dataframe.Value{dataframe.Str(nodePath(n)), indexVals[pi]}, cells); err != nil {
				return nil, err
			}
		}
	}
	perf, err := pb.Build()
	if err != nil {
		return nil, err
	}
	// Column order: metric union order, not first-row order.
	perf, err = reorderColumns(perf, metricOrder)
	if err != nil {
		return nil, err
	}

	// Metadata: union of keys in first-appearance order.
	var metaOrder []string
	metaSeen := map[string]bool{}
	for _, p := range profiles {
		for _, k := range p.MetaKeys() {
			if k == opts.IndexBy {
				continue // promoted to the index (pandas set_index semantics)
			}
			if !metaSeen[k] {
				metaSeen[k] = true
				metaOrder = append(metaOrder, k)
			}
		}
	}
	mb := dataframe.NewBuilder([]string{level}, []dataframe.Kind{indexKind})
	for pi, p := range profiles {
		cells := make(map[string]dataframe.Value, len(metaOrder))
		for _, k := range metaOrder {
			if v, ok := p.Meta(k); ok {
				cells[k] = v
			}
		}
		if err := mb.AddRow([]dataframe.Value{indexVals[pi]}, cells); err != nil {
			return nil, err
		}
	}
	meta, err := mb.Build()
	if err != nil {
		return nil, err
	}
	meta, err = reorderColumns(meta, metaOrder)
	if err != nil {
		return nil, err
	}

	return &Thicket{
		Tree:         tree,
		PerfData:     perf,
		Metadata:     meta,
		Stats:        emptyStats(tree),
		profileLevel: level,
	}, nil
}

// ---- randomized thicket generator -------------------------------------

var diffPaths = [][]string{{"main"}, {"main", "solve"}, {"main", "solve", "mult"}, {"main", "io"}, {"main", "halo"}}

// diffKey is the i-th distinct profile key of a kind. The same i gives
// equal-looking keys across kinds (Int 1, Float 1.0, String "1"), which
// the kind-aware identity must keep apart.
func diffKey(kind dataframe.Kind, i int) dataframe.Value {
	switch kind {
	case dataframe.Float:
		return dataframe.Float64(float64(i))
	case dataframe.String:
		return dataframe.Str(fmt.Sprint(i))
	case dataframe.Bool:
		return dataframe.BoolVal(i%2 == 1)
	}
	return dataframe.Int64(int64(i))
}

// diffNull is a null of the kind, a Float one sometimes stored as NaN.
func diffNull(rng *rand.Rand, kind dataframe.Kind) dataframe.Value {
	if kind == dataframe.Float && rng.Intn(2) == 0 {
		return dataframe.NaN()
	}
	return dataframe.Null(kind)
}

// diffThicket builds a random thicket whose metadata is keyed by
// metaKind values (one of them sometimes null) and whose perf rows carry
// perfKind profile values: the metadata's keys when the kinds agree,
// their look-alikes of the other kind when not, plus keys the metadata
// lacks and nulls. Perf rows come shuffled. When valid is set, every
// perf row's profile and node resolve, so FromParts would accept it.
func diffThicket(t testing.TB, rng *rand.Rand, metaKind, perfKind dataframe.Kind, valid bool) *Thicket {
	t.Helper()
	tree := calltree.New()
	for _, p := range diffPaths {
		tree.MustAddPath(p...)
	}
	nProf := 3 + rng.Intn(10)
	if metaKind == dataframe.Bool {
		nProf = 2
	}
	keys := make([]dataframe.Value, nProf)
	for i := range keys {
		keys[i] = diffKey(metaKind, i)
	}
	hasNull := rng.Intn(2) == 0
	if hasNull {
		keys = append(keys, diffNull(rng, metaKind))
	}
	rng.Shuffle(len(keys), func(a, b int) { keys[a], keys[b] = keys[b], keys[a] })

	compilers := []string{"gcc", "clang", "xl"}
	compiler := dataframe.NewSeries("compiler", dataframe.String)
	size := dataframe.NewSeries("size", dataframe.Int)
	ratio := dataframe.NewSeries("ratio", dataframe.Float)
	flag := dataframe.NewSeries("flag", dataframe.Bool)
	ranks := dataframe.NewSeries("ranks", dataframe.Int)
	threads := dataframe.NewSeries("threads", dataframe.Float)
	unset := dataframe.NewSeries("unset", dataframe.Int) // every cell null
	must := func(err error) {
		t.Helper()
		if err != nil {
			t.Fatal(err)
		}
	}
	for range keys {
		if rng.Intn(8) == 0 {
			must(compiler.Append(dataframe.Null(dataframe.String)))
		} else {
			must(compiler.Append(dataframe.Str(compilers[rng.Intn(len(compilers))])))
		}
		if rng.Intn(8) == 0 {
			must(size.Append(dataframe.Null(dataframe.Int)))
		} else {
			must(size.Append(dataframe.Int64(int64(1 << rng.Intn(3)))))
		}
		switch rng.Intn(8) {
		case 0:
			must(ratio.Append(dataframe.NaN()))
		case 1:
			must(ratio.Append(dataframe.Float64(math.Copysign(0, -1))))
		default:
			must(ratio.Append(dataframe.Float64(float64(rng.Intn(3)) / 2)))
		}
		must(flag.Append(dataframe.BoolVal(rng.Intn(2) == 0)))
		must(ranks.Append(dataframe.Int64(int64(1 << rng.Intn(5)))))
		must(threads.Append(dataframe.Float64(float64(1 + rng.Intn(8)))))
		must(unset.Append(dataframe.Null(dataframe.Int)))
	}
	metaIx, err := dataframe.SeriesOf(ProfileLevel, keys)
	must(err)
	meta := dataframe.MustFrame(dataframe.MustIndex(metaIx), compiler, size, ratio, flag, ranks, threads, unset)

	// Perf rows: node × profile, a random subset, with look-alike, absent
	// and null profile values mixed in unless the thicket must be valid.
	node := dataframe.NewSeries(NodeLevel, dataframe.String)
	prof := dataframe.NewSeries(ProfileLevel, perfKind)
	tm := dataframe.NewSeries("time", dataframe.Float)
	bytes := dataframe.NewSeries("bytes", dataframe.Int)
	addRow := func(path string, v dataframe.Value) {
		must(node.Append(dataframe.Str(path)))
		must(prof.Append(v))
		if rng.Intn(10) == 0 {
			must(tm.Append(dataframe.NaN()))
		} else {
			must(tm.Append(dataframe.Float64(rng.Float64() * 100)))
		}
		must(bytes.Append(dataframe.Int64(int64(rng.Intn(1000)))))
	}
	perfKey := func(i int) dataframe.Value {
		switch k := keys[i]; {
		case k.IsNull():
			return diffNull(rng, perfKind)
		case perfKind == metaKind:
			return k
		}
		return diffKey(perfKind, i)
	}
	for _, n := range tree.Nodes() {
		for i := range keys {
			if rng.Intn(5) > 0 {
				addRow(nodePath(n), perfKey(i))
			}
		}
		if !valid && perfKind != dataframe.Bool {
			addRow(nodePath(n), diffKey(perfKind, 100+rng.Intn(3))) // absent from metadata
			if rng.Intn(3) == 0 {
				addRow(nodePath(n), diffNull(rng, perfKind))
			}
		}
	}
	if !valid && rng.Intn(2) == 0 {
		addRow("main/bogus", perfKey(0))
	}
	perf := dataframe.MustFrame(dataframe.MustIndex(node, prof), tm, bytes)
	order := rng.Perm(perf.NRows())
	perf = perf.SelectRows(order)

	st := emptyStats(tree)
	if !valid && rng.Intn(3) == 0 {
		st = dataframe.MustFrame(dataframe.MustIndex(dataframe.NewStringSeries(NodeLevel, []string{"main", "main/gone"})))
	}
	return &Thicket{Tree: tree, PerfData: perf, Metadata: meta, Stats: st, profileLevel: ProfileLevel}
}

var diffKinds = []dataframe.Kind{dataframe.Int, dataframe.Float, dataframe.String, dataframe.Bool}

// eachDiffThicket runs check over randomized thickets of every
// (metadata, perf) key-kind pair, valid and not.
func eachDiffThicket(t *testing.T, seeds int, check func(t *testing.T, label string, rng *rand.Rand, th *Thicket)) {
	t.Helper()
	for _, mk := range diffKinds {
		for _, pk := range diffKinds {
			for seed := 0; seed < seeds; seed++ {
				rng := rand.New(rand.NewSource(int64(seed*100 + int(mk)*10 + int(pk))))
				valid := seed%2 == 0 && mk == pk
				th := diffThicket(t, rng, mk, pk, valid)
				check(t, fmt.Sprintf("meta %s perf %s seed %d", mk, pk, seed), rng, th)
			}
		}
	}
}

// eachWorkerCount runs the check sequentially and at several worker
// counts; the results must be identical (determinism contract).
func eachWorkerCount(t *testing.T, check func(t *testing.T)) {
	t.Helper()
	for _, workers := range []int{1, 3, 8} {
		prev := parallel.Set(workers)
		check(t)
		parallel.Set(prev)
	}
}

func assertThicketsEqual(t *testing.T, label string, want, got *Thicket) {
	t.Helper()
	switch {
	case !want.Tree.Equal(got.Tree):
		t.Fatalf("%s: trees differ", label)
	case !want.PerfData.Equal(got.PerfData):
		t.Fatalf("%s: perf data differs: %d rows, want %d", label, got.PerfData.NRows(), want.PerfData.NRows())
	case !want.Metadata.Equal(got.Metadata):
		t.Fatalf("%s: metadata differs: %d rows, want %d", label, got.Metadata.NRows(), want.Metadata.NRows())
	case !want.Stats.Equal(got.Stats):
		t.Fatalf("%s: stats differ", label)
	case want.profileLevel != got.profileLevel:
		t.Fatalf("%s: profile level %q, want %q", label, got.profileLevel, want.profileLevel)
	}
}

func assertErrorsEqual(t *testing.T, label string, want, got error) {
	t.Helper()
	if fmt.Sprint(want) != fmt.Sprint(got) {
		t.Fatalf("%s: error %v, want %v", label, got, want)
	}
}

// ---- differential tests ------------------------------------------------

func TestDifferentialFilterMetadata(t *testing.T) {
	eachDiffThicket(t, 4, func(t *testing.T, label string, rng *rand.Rand, th *Thicket) {
		keep := make([]bool, th.Metadata.NRows())
		for i := range keep {
			keep[i] = rng.Intn(2) == 0
		}
		preds := map[string]func(MetaRow) bool{
			"random": func(m MetaRow) bool { return keep[m.Pos()] },
			"none":   func(MetaRow) bool { return false },
			"all":    func(MetaRow) bool { return true },
			"gcc":    func(m MetaRow) bool { return m.Str("compiler") == "gcc" },
		}
		for name, pred := range preds {
			want := refFilterMetadata(th, pred)
			eachWorkerCount(t, func(t *testing.T) {
				assertThicketsEqual(t, label+" "+name, want, th.FilterMetadata(pred))
			})
		}
	})
}

func TestDifferentialFilterProfiles(t *testing.T) {
	eachDiffThicket(t, 4, func(t *testing.T, label string, rng *rand.Rand, th *Thicket) {
		var values []dataframe.Value
		for _, v := range th.Profiles() {
			if rng.Intn(2) == 0 {
				values = append(values, v)
			}
		}
		// Look-alikes of every kind, an absent key and nulls of every kind.
		values = append(values, diffKey(diffKinds[rng.Intn(len(diffKinds))], 1), diffKey(dataframe.Int, 100),
			diffNull(rng, diffKinds[rng.Intn(len(diffKinds))]))
		for _, vs := range [][]dataframe.Value{values, nil, th.Profiles()} {
			want := refFilterProfiles(th, vs)
			eachWorkerCount(t, func(t *testing.T) {
				assertThicketsEqual(t, label, want, th.FilterProfiles(vs))
			})
		}
	})
}

func TestDifferentialGroupBy(t *testing.T) {
	eachDiffThicket(t, 3, func(t *testing.T, label string, _ *rand.Rand, th *Thicket) {
		for _, cols := range [][]string{{"compiler"}, {"size", "flag"}, {"ratio"}, {ProfileLevel}} {
			want, werr := refGroupBy(th, cols...)
			eachWorkerCount(t, func(t *testing.T) {
				got, err := th.GroupBy(cols...)
				assertErrorsEqual(t, label, werr, err)
				if len(got) != len(want) {
					t.Fatalf("%s by %v: %d groups, want %d", label, cols, len(got), len(want))
				}
				for i := range want {
					if dataframe.CompareKeys(want[i].Key, got[i].Key) != 0 {
						t.Fatalf("%s by %v: group %d key %v, want %v", label, cols, i, got[i].Key, want[i].Key)
					}
					assertThicketsEqual(t, fmt.Sprintf("%s by %v group %d", label, cols, i), want[i].Thicket, got[i].Thicket)
				}
				wantStats, werr := refGroupedStats(th, cols, nil, []string{"mean", "max"})
				gotStats, err := th.GroupedStats(cols, nil, []string{"mean", "max"})
				assertErrorsEqual(t, label+" grouped stats", werr, err)
				if werr == nil && !wantStats.Equal(gotStats) {
					t.Fatalf("%s by %v: grouped stats differ", label, cols)
				}
			})
		}
	})
}

func TestDifferentialPivotMetric(t *testing.T) {
	eachDiffThicket(t, 3, func(t *testing.T, label string, _ *rand.Rand, th *Thicket) {
		for _, col := range []string{"compiler", "size", "ratio", "flag", "unset", "missing"} {
			want, werr := refPivotMetric(th, dataframe.ColKey{"time"}, col, "mean")
			eachWorkerCount(t, func(t *testing.T) {
				got, err := th.PivotMetric(dataframe.ColKey{"time"}, col, "mean")
				assertErrorsEqual(t, label+" "+col, werr, err)
				if werr == nil && !want.Equal(got) {
					t.Fatalf("%s: pivot by %s differs", label, col)
				}
			})
		}
	})
}

func TestDifferentialModelExtrap(t *testing.T) {
	eachDiffThicket(t, 2, func(t *testing.T, label string, _ *rand.Rand, th *Thicket) {
		// size holds nulls, so some draws take the non-numeric error path.
		for _, param := range []string{"ranks", "threads", "size", "compiler"} {
			want, werr := refModelExtrap(th, dataframe.ColKey{"time"}, param, extrap.Options{})
			eachWorkerCount(t, func(t *testing.T) {
				got, err := th.ModelExtrap(dataframe.ColKey{"time"}, param, extrap.Options{})
				assertErrorsEqual(t, label+" "+param, werr, err)
				if fmt.Sprintf("%v", want) != fmt.Sprintf("%v", got) {
					t.Fatalf("%s: models over %s differ:\n%v\nwant\n%v", label, param, got, want)
				}
			})
		}
		for _, pq := range [][2]string{{"ranks", "threads"}, {"ranks", "size"}} {
			want, werr := refModelExtrap2(th, dataframe.ColKey{"time"}, pq[0], pq[1], extrap.Options2{})
			eachWorkerCount(t, func(t *testing.T) {
				got, err := th.ModelExtrap2(dataframe.ColKey{"time"}, pq[0], pq[1], extrap.Options2{})
				assertErrorsEqual(t, label+" "+pq[1], werr, err)
				if fmt.Sprintf("%v", want) != fmt.Sprintf("%v", got) {
					t.Fatalf("%s: two-parameter models over %v differ", label, pq)
				}
			})
		}
	})
}

func TestDifferentialCompose(t *testing.T) {
	eachDiffThicket(t, 3, func(t *testing.T, label string, rng *rand.Rand, th *Thicket) {
		var rows []int
		for r := 0; r < th.PerfData.NRows(); r++ {
			if rng.Intn(3) > 0 {
				rows = append(rows, r)
			}
		}
		other := th.copyWith(th.Tree.Copy(), th.PerfData.SelectRows(rows), th.Metadata.Copy(), th.Stats.Copy())
		inputs := []*Thicket{th, other}
		want, werr := refCompose([]string{"A", "B"}, inputs)
		eachWorkerCount(t, func(t *testing.T) {
			got, err := Compose([]string{"A", "B"}, inputs)
			assertErrorsEqual(t, label, werr, err)
			if werr == nil {
				assertThicketsEqual(t, label, want, got)
			}
		})
	})
}

func TestDifferentialValidate(t *testing.T) {
	var failures int
	eachDiffThicket(t, 6, func(t *testing.T, label string, _ *rand.Rand, th *Thicket) {
		want := refValidate(th)
		if want != nil {
			failures++
		}
		eachWorkerCount(t, func(t *testing.T) {
			assertErrorsEqual(t, label, want, th.Validate())
			_, err := FromParts(th.Tree, th.PerfData, th.Metadata, th.Stats, th.profileLevel)
			assertErrorsEqual(t, label+" FromParts", want, err)
		})
	})
	// Duplicate metadata keys and a null node cell.
	th := diffThicket(t, rand.New(rand.NewSource(1)), dataframe.Int, dataframe.Int, true)
	dup := th.copyWith(th.Tree, th.PerfData, th.Metadata.SelectRows([]int{0, 1, 0}), th.Stats)
	assertErrorsEqual(t, "duplicate metadata", refValidate(dup), dup.Validate())
	nodes := dataframe.NewSeries(NodeLevel, dataframe.String)
	for r := 0; r < th.PerfData.NRows(); r++ {
		v := th.PerfData.Index().Level(0).At(r)
		if r == th.PerfData.NRows()/2 {
			v = dataframe.Null(dataframe.String)
		}
		if err := nodes.Append(v); err != nil {
			t.Fatal(err)
		}
	}
	nullNode := th.copyWith(th.Tree, dataframe.MustFrame(dataframe.MustIndex(nodes, th.PerfData.Index().Level(1))), th.Metadata, th.Stats)
	assertErrorsEqual(t, "null node", refValidate(nullNode), nullNode.Validate())
	if failures == 0 {
		t.Fatal("no randomized thicket exercised a validation failure")
	}
}

func TestDifferentialFromProfilesIndex(t *testing.T) {
	rng := rand.New(rand.NewSource(9))
	pool := []dataframe.Value{
		dataframe.Int64(1), dataframe.Int64(2), dataframe.Float64(1), dataframe.Float64(math.Copysign(0, -1)),
		dataframe.Float64(0), dataframe.Str("1"), dataframe.Str("a"), dataframe.BoolVal(true),
		dataframe.Null(dataframe.Int), dataframe.Null(dataframe.String), dataframe.NaN(),
	}
	var dups int
	for trial := 0; trial < 400; trial++ {
		n := 2 + rng.Intn(5)
		profiles := make([]*profile.Profile, n)
		for i := range profiles {
			p := profile.New()
			if err := p.AddSample([]string{"main"}, map[string]dataframe.Value{"time": dataframe.Float64(1)}); err != nil {
				t.Fatal(err)
			}
			p.SetMeta("trial", dataframe.Int64(int64(trial*10+i)))
			if rng.Intn(12) > 0 { // sometimes the index value is missing
				p.SetMeta("key", pool[rng.Intn(len(pool))])
			}
			profiles[i] = p
		}
		for _, opts := range []Options{{IndexBy: "key"}, {}} {
			want := refIndexValues(profiles, opts)
			_, got := FromProfiles(profiles, opts)
			if want != nil {
				if strings.Contains(want.Error(), "share index value") {
					dups++
				}
				assertErrorsEqual(t, fmt.Sprintf("trial %d", trial), want, got)
			} else if got != nil && (strings.Contains(got.Error(), "share index value") || strings.Contains(got.Error(), "requested as index")) {
				t.Fatalf("trial %d: spurious index error %v", trial, got)
			}
		}
	}
	if dups == 0 {
		t.Fatal("no trial produced a repeated index value")
	}
}

// fromProfilesCases are hand-built ensembles for the edges of
// FromProfiles' column building: a column whose first present cell is
// null, kind conflicts (reported for the column Build would check
// first), disjoint and intersected trees, and index errors.
func fromProfilesCases(t *testing.T) map[string][]*profile.Profile {
	t.Helper()
	type sample struct {
		path    []string
		metrics map[string]dataframe.Value
	}
	mk := func(meta map[string]dataframe.Value, samples ...sample) *profile.Profile {
		p := profile.New()
		for _, k := range []string{"id", "key", "group"} {
			if v, ok := meta[k]; ok {
				p.SetMeta(k, v)
			}
		}
		for _, s := range samples {
			if err := p.AddSample(s.path, s.metrics); err != nil {
				t.Fatal(err)
			}
		}
		return p
	}
	id := func(i int64) map[string]dataframe.Value { return map[string]dataframe.Value{"id": dataframe.Int64(i)} }
	at := func(metrics map[string]dataframe.Value, path ...string) sample { return sample{path, metrics} }
	vals := func(kv ...any) map[string]dataframe.Value {
		m := map[string]dataframe.Value{}
		for i := 0; i < len(kv); i += 2 {
			m[kv[i].(string)] = kv[i+1].(dataframe.Value)
		}
		return m
	}
	f, n := dataframe.Float64, dataframe.Int64
	return map[string][]*profile.Profile{
		"first cell null": {
			mk(id(1), at(vals("x", dataframe.Null(dataframe.String)), "main")),
			mk(id(2), at(vals("x", dataframe.Str("b"), "y", dataframe.Null(dataframe.Int)), "main"), at(vals("x", dataframe.Str("a")), "main", "solve")),
			mk(id(3), at(vals("y", n(4)), "main", "solve")),
		},
		"first cell null then another kind": {
			mk(id(1), at(vals("x", dataframe.Null(dataframe.Float)), "main")),
			mk(id(2), at(vals("x", n(1)), "main")),
		},
		"int then float": {
			mk(id(1), at(vals("t", n(1)), "main")),
			mk(id(2), at(vals("t", f(1.5)), "main")),
		},
		"two conflicts": {
			// Metric order is a, b, but b's first cell is in an earlier
			// row, so Build checks b first.
			mk(id(1), at(vals("a", dataframe.BoolVal(true)), "root", "kid"), at(vals("b", n(1)), "root")),
			mk(id(2), at(vals("b", dataframe.Str("s")), "root"), at(vals("a", f(2)), "root", "kid")),
		},
		"same row conflicts": {
			// Metric order is b, a; both first appear in row 0, so Build
			// checks a first.
			mk(id(1), at(vals("b", n(1)), "root", "kid"), at(vals("a", n(2), "b", n(3)), "root")),
			mk(id(2), at(vals("a", f(2), "b", f(1)), "root")),
		},
		"disjoint trees": {
			mk(id(1), at(vals("t", f(1)), "a", "x"), at(vals("u", n(1)), "a", "y")),
			mk(id(2), at(vals("t", f(2)), "b", "x")),
			mk(id(3), at(vals("v", dataframe.Str("q")), "c"), at(nil, "a", "z", "w")),
		},
		"index kinds differ": {
			mk(map[string]dataframe.Value{"id": n(1), "key": n(1)}, at(vals("t", f(1)), "main")),
			mk(map[string]dataframe.Value{"id": n(2), "key": f(2)}, at(vals("t", f(2)), "main")),
		},
		"index null then value": {
			mk(map[string]dataframe.Value{"id": n(1), "key": dataframe.Null(dataframe.String)}, at(vals("t", f(1)), "main")),
			mk(map[string]dataframe.Value{"id": n(2), "key": n(7)}, at(vals("t", f(2)), "main", "x")),
		},
		"slash after lacking index": {
			mk(id(1), at(vals("t", f(1)), "main")),
			mk(map[string]dataframe.Value{"id": n(2), "key": n(2)}, at(vals("t", f(2)), "main", "a/b")),
		},
		"repeat before lacking index": {
			mk(map[string]dataframe.Value{"id": n(1), "key": n(1)}, at(vals("t", f(1)), "main")),
			mk(map[string]dataframe.Value{"id": n(1), "key": n(1)}, at(vals("t", f(1)), "main")),
			mk(id(3), at(vals("t", f(1)), "main")),
		},
		"lacking index before repeat": {
			mk(map[string]dataframe.Value{"id": n(1), "key": n(1)}, at(vals("t", f(1)), "main")),
			mk(id(2), at(vals("t", f(1)), "main")),
			mk(map[string]dataframe.Value{"id": n(3), "key": n(1)}, at(vals("t", f(1)), "main")),
		},
		"invalid profile": {
			mk(id(1), at(vals("t", f(1)), "main")),
			profile.New(),
		},
	}
}

// assertSameDicts checks that two equal frames' string index levels and
// columns also hold the same dictionaries and codes: words interned in
// the same order, which stored segments carry.
func assertSameDicts(t *testing.T, label string, want, got *dataframe.Frame) {
	t.Helper()
	var ws, gs []*dataframe.Series
	for i := 0; i < want.Index().NLevels(); i++ {
		ws, gs = append(ws, want.Index().Level(i)), append(gs, got.Index().Level(i))
	}
	for i := 0; i < want.NCols(); i++ {
		ws, gs = append(ws, want.ColumnAt(i)), append(gs, got.ColumnAt(i))
	}
	for i, w := range ws {
		if w.Kind() != dataframe.String {
			continue
		}
		wd, wc := w.StringData()
		gd, gc := gs[i].StringData()
		if !slices.Equal(wd.Words(), gd.Words()) || !slices.Equal(wc, gc) {
			t.Fatalf("%s: series %q: dictionary %q codes %v, want %q codes %v", label, w.Name(), gd.Words(), gc, wd.Words(), wc)
		}
	}
}

// TestDifferentialFromProfiles checks FromProfiles against
// refFromProfiles on random ensembles and fromProfilesCases, under every
// option shape, at one worker and at several: equal thickets, with trees
// in the same pre-order and the same string dictionaries, or equal error
// text.
func TestDifferentialFromProfiles(t *testing.T) {
	inputs := fromProfilesCases(t)
	for seed := int64(0); seed < 40; seed++ {
		inputs[fmt.Sprintf("random %d", seed)] = randomEnsemble(seed, 1+int(seed%7))
	}
	optsList := []Options{{}, {IndexBy: "id"}, {IndexBy: "key"}, {IntersectTrees: true}, {IndexBy: "id", IntersectTrees: true}}
	var errs, oks int
	for name, profiles := range inputs {
		for _, opts := range optsList {
			label := fmt.Sprintf("%s %+v", name, opts)
			want, wantErr := refFromProfiles(profiles, opts)
			eachWorkerCount(t, func(t *testing.T) {
				got, err := FromProfiles(profiles, opts)
				assertErrorsEqual(t, label, wantErr, err)
				if err != nil {
					errs++
					return
				}
				oks++
				assertThicketsEqual(t, label, want, got)
				if w, g := want.Tree.Paths(), got.Tree.Paths(); !slices.EqualFunc(w, g, slices.Equal) {
					t.Fatalf("%s: tree pre-order %q, want %q", label, g, w)
				}
				assertSameDicts(t, label, want.PerfData, got.PerfData)
			})
		}
	}
	if errs == 0 || oks == 0 {
		t.Fatalf("%d errors and %d thickets: the inputs must exercise both", errs, oks)
	}
}
