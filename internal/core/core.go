// Package core implements the thicket object — the paper's contribution:
// a unified, relational view of an ensemble of performance profiles built
// from three linked components (§3.1):
//
//   - PerfData: a multi-indexed table with one row per (call-tree node,
//     profile) pair and one column per measured or derived metric; after
//     horizontal composition the columns gain an outer group level
//     (e.g. CPU / GPU).
//   - Metadata: one row per profile holding build settings and execution
//     context, keyed by the profile index.
//   - Stats: one row per call-tree node holding order-reduced statistics
//     computed across profiles.
//
// The components are linked by the profile index (PerfData ↔ Metadata)
// and the call-tree node (PerfData ↔ Stats), exactly the primary/foreign
// keys of the paper's Figure 3. Every manipulation verb returns a new
// thicket; inputs are never mutated (§4.1).
package core

import (
	"fmt"
	"slices"
	"strings"

	"repro/internal/calltree"
	"repro/internal/dataframe"
	"repro/internal/profile"
)

// Index level names used across the three components.
const (
	NodeLevel    = "node"
	ProfileLevel = "profile"
)

// Thicket is the unified ensemble object.
type Thicket struct {
	// Tree is the union call tree over all composed profiles.
	Tree *calltree.Tree
	// PerfData is indexed by (node, profile); see package comment.
	PerfData *dataframe.Frame
	// Metadata is indexed by (profile).
	Metadata *dataframe.Frame
	// Stats is indexed by (node); empty until AggregateStats runs.
	Stats *dataframe.Frame

	// profileLevel is the name of the profile index level: ProfileLevel
	// by default, or the metadata column chosen via Options.IndexBy.
	profileLevel string
}

// Options configures FromProfiles.
type Options struct {
	// IndexBy selects a metadata column to use as the profile index
	// (paper §3.2.1: "a study-relevant metadata column such as problem
	// size") instead of the default metadata hash. The chosen values must
	// be unique across profiles.
	IndexBy string

	// IntersectTrees keeps only call-tree nodes present in every profile
	// instead of the default union — the paper's intersection semantics
	// ("find intersections of the call trees") for ensembles whose trees
	// diverge, e.g. different code versions.
	IntersectTrees bool
}

// ProfileLevelName returns the name of the profile index level.
func (t *Thicket) ProfileLevelName() string { return t.profileLevel }

// nodePath renders a call-tree node's root path as the index value used
// in the data tables.
func nodePath(n *calltree.Node) string { return n.PathString() }

// FromProfiles composes a set of profiles into one thicket (paper
// §3.2.1): the call trees are unioned on node identity, each profile
// receives a profile index (metadata hash by default), and the three
// component tables are assembled.
func FromProfiles(profiles []*profile.Profile, opts Options) (*Thicket, error) {
	if len(profiles) == 0 {
		return nil, fmt.Errorf("core: no profiles")
	}
	// A profile that cannot be composed at all fails first. One lacking
	// its index value fails after any repeat among the profiles before
	// it, as a one-pass scan over the index values would.
	lacking := len(profiles)
	var lackErr error
	for i, p := range profiles {
		bad, lacks := checkProfile(i, p, opts.IndexBy)
		if bad != nil {
			return nil, bad
		}
		if lacks != nil && lackErr == nil {
			lacking, lackErr = i, lacks
		}
	}

	level := ProfileLevel
	if opts.IndexBy != "" {
		level = opts.IndexBy
	}
	indexVals := make([]dataframe.Value, lacking)
	for i, p := range profiles[:lacking] {
		if opts.IndexBy == "" {
			indexVals[i] = dataframe.Int64(p.Hash())
		} else {
			indexVals[i], _ = p.Meta(opts.IndexBy)
		}
	}
	if j, i, dup := firstRepeat(level, indexVals); dup {
		return nil, fmt.Errorf("core: profiles %d and %d share index value %s; use the default hash index or a distinguishing column", j, i, indexVals[i])
	}
	if lackErr != nil {
		return nil, lackErr
	}

	// One union (or intersection) of all call trees, and the metric-name
	// union in first-appearance order.
	trees := make([]*calltree.Tree, len(profiles))
	var metricOrder []string
	metricSeen := map[string]bool{}
	for i, p := range profiles {
		trees[i] = p.Tree()
		for _, m := range p.MetricNames() {
			if !metricSeen[m] {
				metricSeen[m] = true
				metricOrder = append(metricOrder, m)
			}
		}
	}
	var tree *calltree.Tree
	if opts.IntersectTrees {
		tree = calltree.Intersect(trees...)
	} else {
		tree = calltree.Union(trees...)
	}
	nodes := tree.Nodes()
	paths := make([]string, len(nodes))
	for i, n := range nodes {
		paths[i] = nodePath(n)
	}

	perf, err := perfFrame(nodes, paths, profiles, indexVals, level, metricOrder)
	if err != nil {
		return nil, err
	}

	// Metadata: union of keys in first-appearance order.
	indexKind := indexVals[0].Kind()
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
		Stats:        nodeFrame(paths),
		profileLevel: level,
	}, nil
}

// CheckProfile reports why p cannot be composed under opts, even on its
// own: the error FromProfiles returns for p alone, or nil when
// FromProfiles would compose it.
func CheckProfile(p *profile.Profile, opts Options) error {
	bad, lacks := checkProfile(0, p, opts.IndexBy)
	if bad != nil {
		return bad
	}
	if lacks != nil {
		return lacks
	}
	return checkKinds(p)
}

// checkKinds is perfFrame's kind rule over one profile, whose rows are
// its nodes in pre-order: a metric column takes the kind of its first
// present cell, null or not, and a later non-null cell of another kind
// fails. It returns the error perfFrame reports: that of the failing
// column whose first cell comes first, by name within a row.
func checkKinds(p *profile.Profile) error {
	type column struct {
		kind  dataframe.Kind
		first int
	}
	cols := map[string]column{}
	var failed error
	var failedFirst int
	var failedName string
	for row, n := range p.Tree().Nodes() {
		for name, v := range p.MetricRow(n.Key()) {
			c, ok := cols[name]
			if !ok {
				cols[name] = column{v.Kind(), row}
				continue
			}
			if v.IsNull() || v.Kind() == c.kind {
				continue
			}
			if failed == nil || c.first < failedFirst || c.first == failedFirst && name < failedName {
				failed = fmt.Errorf("column %q: %w", name, dataframe.NewSeries(name, c.kind).Append(v))
				failedFirst, failedName = c.first, name
			}
		}
	}
	return failed
}

// checkProfile is FromProfiles' check of its i-th profile on its own.
// bad is set when p fails Validate or a region name contains '/', and
// lacks when p has no value in the metadata column indexBy names.
func checkProfile(i int, p *profile.Profile, indexBy string) (bad, lacks error) {
	if err := p.Validate(); err != nil {
		return fmt.Errorf("core: profile %d: %w", i, err), nil
	}
	for _, n := range p.Tree().Nodes() {
		if strings.Contains(n.Name(), "/") {
			return fmt.Errorf("core: profile %d: region name %q contains '/'", i, n.Name()), nil
		}
	}
	if indexBy != "" {
		if _, ok := p.Meta(indexBy); !ok {
			return nil, fmt.Errorf("core: profile %d lacks metadata %q requested as index", i, indexBy)
		}
	}
	return nil, nil
}

// perfFrame builds the performance table straight from the profiles: a
// row per (node, profile) pair whose profile has the node, in node order
// × profile order, and a column per metric present in some row, in
// metricOrder. paths holds each node's index value. It keeps
// dataframe.Builder's rules: a column takes the kind of its first present
// cell in row order, absent cells are nulls, and a cell of another kind
// fails with the error Build would report first.
func perfFrame(nodes []*calltree.Node, paths []string, profiles []*profile.Profile, indexVals []dataframe.Value, level string, metricOrder []string) (*dataframe.Frame, error) {
	type column struct {
		s     *dataframe.Series // nil until the column's first present cell
		first int               // row of that cell
		err   error             // first cell of another kind
	}
	cols := make([]column, len(metricOrder))
	colOf := make(map[string]*column, len(metricOrder))
	for i, name := range metricOrder {
		colOf[name] = &cols[i]
	}
	dict := dataframe.NewDict()
	var codes []uint32
	profLevel := dataframe.NewSeries(level, indexVals[0].Kind())
	for ni, n := range nodes {
		code := dict.Intern(paths[ni])
		for pi, p := range profiles {
			if p.Tree().NodeByKey(n.Key()) == nil {
				continue // node absent from this profile's tree
			}
			row := len(codes)
			codes = append(codes, code)
			if err := profLevel.Append(indexVals[pi]); err != nil {
				return nil, fmt.Errorf("index level %q: %w", level, err)
			}
			for name, v := range p.MetricRow(n.Key()) {
				c := colOf[name]
				if c.err != nil {
					continue
				}
				if c.s == nil {
					c.s, c.first = dataframe.NewSeries(name, v.Kind()), row
				}
				if gap := row - c.s.Len(); gap > 0 {
					c.s.AppendNulls(gap)
				}
				if err := c.s.Append(v); err != nil {
					c.err = fmt.Errorf("column %q: %w", name, err)
				}
			}
		}
	}
	// Build registers columns by first row, then name within a row, and
	// reports the first failing column in that order.
	var failed *column
	series := make([]*dataframe.Series, 0, len(cols))
	for i := range cols {
		c := &cols[i]
		if c.s == nil {
			continue
		}
		if c.err != nil && (failed == nil || c.first < failed.first || c.first == failed.first && c.s.Name() < failed.s.Name()) {
			failed = c
		}
		if gap := len(codes) - c.s.Len(); gap > 0 {
			c.s.AppendNulls(gap)
		}
		series = append(series, c.s)
	}
	if failed != nil {
		return nil, failed.err
	}
	nodeLevel, err := dataframe.NewStringSeriesFromCodes(NodeLevel, dict, codes, nil)
	if err != nil {
		return nil, err
	}
	ix, err := dataframe.NewIndex(nodeLevel, profLevel)
	if err != nil {
		return nil, err
	}
	return dataframe.NewFrame(ix, series...)
}

// FromParts assembles a thicket directly from its components — the
// reconstruction path used by deserializers (the JSON reader and the
// columnar store). A nil stats frame gets the canonical empty per-node
// stats table. The relational invariants of Figure 3 are validated
// before the thicket is returned.
func FromParts(tree *calltree.Tree, perf, meta, stats *dataframe.Frame, profileLevel string) (*Thicket, error) {
	if tree == nil || perf == nil || meta == nil {
		return nil, fmt.Errorf("core: FromParts requires tree, perf data, and metadata")
	}
	if profileLevel == "" {
		return nil, fmt.Errorf("core: missing profile level")
	}
	th := Assemble(tree, perf, meta, stats, profileLevel)
	if err := th.Validate(); err != nil {
		return nil, err
	}
	return th, nil
}

// Assemble is FromParts without the validation, for callers that have
// validated the components (or the originals they copied) already, or
// that check them themselves (CheckParts).
func Assemble(tree *calltree.Tree, perf, meta, stats *dataframe.Frame, profileLevel string) *Thicket {
	if stats == nil {
		stats = emptyStats(tree)
	}
	return &Thicket{
		Tree:         tree,
		PerfData:     perf,
		Metadata:     meta,
		Stats:        stats,
		profileLevel: profileLevel,
	}
}

// reorderColumns returns a copy of f with columns in the given leaf-name
// order; names absent from f are skipped.
func reorderColumns(f *dataframe.Frame, order []string) (*dataframe.Frame, error) {
	var keys []dataframe.ColKey
	for _, name := range order {
		k := dataframe.ColKey{name}
		if f.HasColumn(k) {
			keys = append(keys, k)
		}
	}
	if len(keys) == 0 {
		return f, nil
	}
	return f.SelectColumns(keys)
}

// emptyStats builds the (node)-indexed empty statistics frame covering
// every tree node in pre-order.
func emptyStats(tree *calltree.Tree) *dataframe.Frame {
	nodes := tree.Nodes()
	names := make([]string, len(nodes))
	for i, n := range nodes {
		names[i] = nodePath(n)
	}
	return nodeFrame(names)
}

// nodeFrame is the empty statistics frame over the given node paths.
func nodeFrame(paths []string) *dataframe.Frame {
	return dataframe.MustFrame(dataframe.MustIndex(dataframe.NewStringSeries(NodeLevel, paths)))
}

// Profiles returns the distinct profile-index values in metadata order.
func (t *Thicket) Profiles() []dataframe.Value {
	return t.Metadata.Index().Level(0).Values()
}

// NumProfiles reports the number of composed profiles.
func (t *Thicket) NumProfiles() int { return t.Metadata.NRows() }

// NodePaths returns the node index values (root-path strings) in tree
// pre-order.
func (t *Thicket) NodePaths() []string {
	nodes := t.Tree.Nodes()
	out := make([]string, len(nodes))
	for i, n := range nodes {
		out[i] = nodePath(n)
	}
	return out
}

// NodeByPathString resolves a "/"-joined node path back to the tree node.
func (t *Thicket) NodeByPathString(path string) *calltree.Node {
	return t.Tree.NodeByPath(strings.Split(path, "/"))
}

// copyWith assembles a new thicket from the given parts, keeping t's
// profile level. It copies nothing: whatever the caller passes in is
// shared with its other holders, so callers that need isolation pass
// fresh copies.
func (t *Thicket) copyWith(tree *calltree.Tree, perf, meta, stats *dataframe.Frame) *Thicket {
	return &Thicket{
		Tree:         tree,
		PerfData:     perf,
		Metadata:     meta,
		Stats:        stats,
		profileLevel: t.profileLevel,
	}
}

// Copy returns a deep copy of the thicket.
func (t *Thicket) Copy() *Thicket {
	return t.copyWith(t.Tree.Copy(), t.PerfData.Copy(), t.Metadata.Copy(), t.Stats.Copy())
}

// StatsCopy returns a thicket that shares t's tree, performance data and
// metadata, read-only, and owns a deep copy of the stats table: enough
// isolation for AggregateStats, which writes only Stats, to run on a
// thicket other goroutines are reading.
func (t *Thicket) StatsCopy() *Thicket {
	return t.copyWith(t.Tree, t.PerfData, t.Metadata, t.Stats.Copy())
}

// Validate checks the relational invariants of Figure 3: every PerfData
// row's profile exists in Metadata, every PerfData node exists in the
// tree, every Stats node exists in the tree, and Metadata profiles are
// unique. A failure names the first offending row; a PerfData row with
// both an unknown node and an unknown profile reports the node.
func (t *Thicket) Validate() error {
	_, err := t.ValidOrdinals()
	return err
}

// ValidOrdinals is Validate returning, when the thicket passes, its
// ProfileOrdinals, which the profile check computes anyway.
func (t *Thicket) ValidOrdinals() ([]int32, error) {
	return CheckParts(t.Tree, t.PerfData, t.Metadata, t.Stats, t.profileLevel)
}

// CheckParts is ValidOrdinals over the parts of a thicket not yet
// assembled. A nil stats table is not checked: the empty per-node table
// Assemble would give it covers the tree by construction, so a reader
// that read no stats table builds none to check.
func CheckParts(tree *calltree.Tree, perf, meta, stats *dataframe.Frame, profileLevel string) ([]int32, error) {
	if meta.Index().HasDuplicates() {
		return nil, fmt.Errorf("core: duplicate profile index in metadata")
	}
	nodeLv := perf.Index().LevelByName(NodeLevel)
	profLv := perf.Index().LevelByName(profileLevel)
	if nodeLv == nil || profLv == nil {
		return nil, fmt.Errorf("core: perf data index must have levels (%s, %s)", NodeLevel, profileLevel)
	}
	resolved := make(map[string]bool, tree.Len())
	badNode, path := firstUnknownNode(tree, nodeLv, resolved)
	badProf := -1
	ords := meta.Index().Locate(profLv)
	for r, o := range ords {
		if o < 0 {
			badProf = r
			break
		}
	}
	switch {
	case badNode >= 0 && (badProf < 0 || badNode <= badProf):
		return nil, fmt.Errorf("core: perf row %d references unknown node %q", badNode, path)
	case badProf >= 0:
		return nil, fmt.Errorf("core: perf row %d references unknown profile %s", badProf, profLv.At(badProf))
	}
	if stats == nil {
		return ords, nil
	}
	statsLv := stats.Index().LevelByName(NodeLevel)
	if statsLv == nil {
		return nil, fmt.Errorf("core: stats index must have level %q", NodeLevel)
	}
	if r, path := firstUnknownNode(tree, statsLv, resolved); r >= 0 {
		return nil, fmt.Errorf("core: stats row %d references unknown node %q", r, path)
	}
	return ords, nil
}

// firstUnknownNode returns the first row of a node level whose path is
// not in the tree, and that path; -1 when every row resolves. Each
// dictionary code is checked once, not each row, and each path resolves
// once across calls sharing resolved. Null and non-string cells read as
// the empty path, as Value.Str renders them.
func firstUnknownNode(tree *calltree.Tree, lv *dataframe.Series, resolved map[string]bool) (int, string) {
	dict, codes := lv.StringData()
	words := 0
	if dict != nil {
		words = dict.Len()
	}
	pathOf := func(c int) string {
		if c < words {
			return dict.Word(uint32(c))
		}
		return ""
	}
	const unseen, known, unknown = 0, 1, 2
	state := make([]uint8, words+1) // per code; the last slot is the empty path
	for r, null := range lv.Nulls() {
		c := words
		if dict != nil && !null {
			c = int(codes[r])
		}
		if state[c] == unseen {
			path := pathOf(c)
			ok, seen := resolved[path]
			if !seen {
				ok = tree.NodeByPath(strings.Split(path, "/")) != nil
				resolved[path] = ok
			}
			state[c] = unknown
			if ok {
				state[c] = known
			}
		}
		if state[c] == unknown {
			return r, pathOf(c)
		}
	}
	return -1, ""
}

// ProfileOrdinals maps every PerfData row onto its profile's Metadata
// row, or -1 for a profile the metadata lacks (which Validate rules
// out): profileOrdinals over the thicket's own frames.
func (t *Thicket) ProfileOrdinals() []int32 {
	return profileOrdinals(t.PerfData, t.Metadata, t.profileLevel)
}

// profileOrdinals maps every row of perf onto meta, the integer form of
// Figure 3's PerfData → Metadata key: out[r] is the metadata row of perf
// row r's profile, or -1 when meta lacks it (or perf has no such level).
// Identity is the profile index's own: kind-aware and null-blind. The
// rewritten verbs compare ordinals where they once compared string keys,
// relying on the invariant Validate enforces: metadata profiles are
// unique, so each profile has exactly one row.
func profileOrdinals(perf, meta *dataframe.Frame, level string) []int32 {
	profLv := perf.Index().LevelByName(level)
	if profLv == nil {
		out := make([]int32, perf.NRows())
		for r := range out {
			out[r] = -1
		}
		return out
	}
	return meta.Index().Locate(profLv)
}

// firstRepeat reports the first i whose value repeats an earlier vals[j]
// under the profile-index identity. Values of different kinds never
// match while nulls of every kind do, so each kind's values are located
// together with the nulls, one pass per kind.
func firstRepeat(level string, vals []dataframe.Value) (j, i int, found bool) {
	i = len(vals)
	var kinds []dataframe.Kind
	for _, v := range vals {
		if !v.IsNull() && !slices.Contains(kinds, v.Kind()) {
			kinds = append(kinds, v.Kind())
		}
	}
	if len(kinds) == 0 {
		kinds = []dataframe.Kind{dataframe.Int} // all null: any kind will do
	}
	for _, k := range kinds {
		var pos []int
		var part []dataframe.Value
		for x, v := range vals {
			if v.IsNull() || v.Kind() == k {
				pos = append(pos, x)
				part = append(part, v)
			}
		}
		s, err := dataframe.SeriesOf(level, part)
		if err != nil {
			panic(err) // part holds one kind plus nulls
		}
		for x, first := range dataframe.MustIndex(s).Locate(s) {
			if int(first) != x {
				if pos[x] < i {
					j, i, found = pos[first], pos[x], true
				}
				break
			}
		}
	}
	return j, i, found
}

// MetricColumns returns the PerfData column keys holding numeric metrics.
func (t *Thicket) MetricColumns() []dataframe.ColKey {
	var out []dataframe.ColKey
	for i := 0; i < t.PerfData.NCols(); i++ {
		k := t.PerfData.ColumnAt(i).Kind()
		if k == dataframe.Float || k == dataframe.Int {
			out = append(out, t.PerfData.ColIndex().Key(i))
		}
	}
	return out
}

// SortedByIndex returns a copy whose PerfData rows are ordered by
// composite (node, profile) key — convenient before table rendering.
func (t *Thicket) SortedByIndex() *Thicket {
	return t.copyWith(t.Tree.Copy(), t.PerfData.SortByIndex(), t.Metadata.Copy(), t.Stats.Copy())
}

// ShortNodeLabels returns a mapping from full node-path index values to
// display labels: the leaf region name when it is unique in the tree,
// else the full path. The paper's tables label rows with bare kernel
// names (e.g. Apps_VOL3D); this reproduces that rendering.
func (t *Thicket) ShortNodeLabels() map[string]string {
	count := map[string]int{}
	for _, n := range t.Tree.Nodes() {
		count[n.Name()]++
	}
	out := make(map[string]string, t.Tree.Len())
	for _, n := range t.Tree.Nodes() {
		p := nodePath(n)
		if count[n.Name()] == 1 {
			out[p] = n.Name()
		} else {
			out[p] = p
		}
	}
	return out
}

// RelabelledPerfData returns a copy of a (node, …)-indexed frame with
// node index values shortened via ShortNodeLabels.
func (t *Thicket) RelabelledPerfData(f *dataframe.Frame) *dataframe.Frame {
	labels := t.ShortNodeLabels()
	out := f.Copy()
	lv := out.Index().LevelByName(NodeLevel)
	if lv == nil {
		return out
	}
	for r := 0; r < lv.Len(); r++ {
		if lbl, ok := labels[lv.At(r).Str()]; ok {
			// Index levels are series; relabeling is safe on a copy.
			if err := lv.Set(r, dataframe.Str(lbl)); err != nil {
				return out
			}
		}
	}
	return out
}

// MetadataSummary groups metadata by the given columns and reports one
// row per unique combination with a trailing "#profiles" count — the
// rendering of the paper's Figures 13 and 16 configuration tables.
func (t *Thicket) MetadataSummary(columns ...string) (*dataframe.Frame, error) {
	groups, err := t.Metadata.GroupBy(columns...)
	if err != nil {
		return nil, err
	}
	b := dataframe.NewBuilder([]string{"config"}, []dataframe.Kind{dataframe.Int})
	for gi, g := range groups {
		cells := make(map[string]dataframe.Value, len(columns)+1)
		for ci, col := range columns {
			cells[col] = g.Key[ci]
		}
		cells["#profiles"] = dataframe.Int64(int64(g.Frame.NRows()))
		if err := b.AddRow([]dataframe.Value{dataframe.Int64(int64(gi))}, cells); err != nil {
			return nil, err
		}
	}
	f, err := b.Build()
	if err != nil {
		return nil, err
	}
	return reorderColumns(f, append(append([]string(nil), columns...), "#profiles"))
}

// TreeString renders the union call tree annotated with an aggregated
// metric (mean across profiles by default) — the display of Figures 8
// and 2.
func (t *Thicket) TreeString(metric dataframe.ColKey) string {
	means, err := t.NodeMeans(metric)
	if err != nil {
		return t.Tree.Render(nil)
	}
	return t.Tree.Render(func(n *calltree.Node) (string, bool) {
		m, ok := means[nodePath(n)]
		if !ok {
			return "", false
		}
		return fmt.Sprintf("%.3f", m), true
	})
}
