package core

import (
	"math"
	"strings"
	"testing"

	"repro/internal/calltree"
	"repro/internal/dataframe"
	"repro/internal/extrap"
	"repro/internal/profile"
	"repro/internal/query"
	"repro/internal/stats"
)

// figure2Profiles builds the paper's Figure 2 setup: a code with four
// call sites run twice, yielding two profiles.
func figure2Profiles(t testing.TB) []*profile.Profile {
	t.Helper()
	mk := func(run int, scale float64) *profile.Profile {
		p := profile.New()
		p.SetMeta("run", dataframe.Int64(int64(run)))
		p.SetMeta("cluster", dataframe.Str("quartz"))
		p.SetMeta("user", dataframe.Str("John"))
		for _, n := range []struct {
			path []string
			time float64
			l1   int64
		}{
			{[]string{"MAIN"}, 10, 100},
			{[]string{"MAIN", "FOO"}, 4, 40},
			{[]string{"MAIN", "FOO", "BAZ"}, 1, 10},
			{[]string{"MAIN", "BAR"}, 3, 30},
		} {
			if err := p.AddSample(n.path, map[string]dataframe.Value{
				"time":      dataframe.Float64(n.time * scale),
				"L1 misses": dataframe.Int64(int64(float64(n.l1) * scale)),
			}); err != nil {
				t.Fatal(err)
			}
		}
		return p
	}
	return []*profile.Profile{mk(1, 1.0), mk(2, 1.1)}
}

func TestFromProfilesFigure2(t *testing.T) {
	th, err := FromProfiles(figure2Profiles(t), Options{})
	if err != nil {
		t.Fatal(err)
	}
	if err := th.Validate(); err != nil {
		t.Fatal(err)
	}
	// 4 nodes × 2 profiles = 8 perf rows; 2 metadata rows; 4 stats rows.
	if th.PerfData.NRows() != 8 {
		t.Errorf("perf rows = %d, want 8", th.PerfData.NRows())
	}
	if th.Metadata.NRows() != 2 || th.NumProfiles() != 2 {
		t.Errorf("metadata rows = %d, want 2", th.Metadata.NRows())
	}
	if th.Stats.NRows() != 4 {
		t.Errorf("stats rows = %d, want 4", th.Stats.NRows())
	}
	if th.Tree.Len() != 4 {
		t.Errorf("tree nodes = %d, want 4", th.Tree.Len())
	}
	// Two rows per node (one per profile index).
	groups, err := th.PerfData.GroupBy(NodeLevel)
	if err != nil {
		t.Fatal(err)
	}
	for _, g := range groups {
		if g.Frame.NRows() != 2 {
			t.Errorf("node %v has %d rows, want 2", g.Key, g.Frame.NRows())
		}
	}
	// Profile index defaults to the signed metadata hash.
	if th.ProfileLevelName() != ProfileLevel {
		t.Errorf("profile level = %q", th.ProfileLevelName())
	}
	if th.Metadata.Index().Level(0).Kind() != dataframe.Int {
		t.Error("default profile index should be the int64 hash")
	}
}

func TestFromProfilesIndexBy(t *testing.T) {
	ps := figure2Profiles(t)
	th, err := FromProfiles(ps, Options{IndexBy: "run"})
	if err != nil {
		t.Fatal(err)
	}
	if th.ProfileLevelName() != "run" {
		t.Errorf("profile level = %q, want run", th.ProfileLevelName())
	}
	rows := th.PerfData.Index().Lookup([]dataframe.Value{dataframe.Str("MAIN"), dataframe.Int64(2)})
	if len(rows) != 1 {
		t.Fatalf("lookup (MAIN, 2) = %v", rows)
	}
	v, err := th.PerfData.Cell(rows[0], dataframe.ColKey{"time"})
	if err != nil || math.Abs(v.Float()-11) > 1e-9 {
		t.Errorf("time(MAIN, run 2) = %v, want 11", v)
	}
	// Colliding index values must be rejected.
	ps[1].SetMeta("run", dataframe.Int64(1))
	if _, err := FromProfiles(ps, Options{IndexBy: "run"}); err == nil {
		t.Error("duplicate index values must error")
	}
	if _, err := FromProfiles(ps, Options{IndexBy: "ghost"}); err == nil {
		t.Error("missing index column must error")
	}
}

func TestFromProfilesErrors(t *testing.T) {
	if _, err := FromProfiles(nil, Options{}); err == nil {
		t.Error("empty profile list must error")
	}
	bad := profile.New()
	if _, err := FromProfiles([]*profile.Profile{bad}, Options{}); err == nil {
		t.Error("invalid profile must error")
	}
	slash := profile.New()
	if err := slash.AddSample([]string{"a/b"}, nil); err != nil {
		t.Fatal(err)
	}
	if _, err := FromProfiles([]*profile.Profile{slash}, Options{}); err == nil {
		t.Error("region names containing '/' must be rejected")
	}
}

func TestFromProfilesMissingNodesAndMetrics(t *testing.T) {
	a := profile.New()
	a.SetMeta("id", dataframe.Int64(1))
	if err := a.AddSample([]string{"main", "onlyA"}, map[string]dataframe.Value{"time": dataframe.Float64(1)}); err != nil {
		t.Fatal(err)
	}
	b := profile.New()
	b.SetMeta("id", dataframe.Int64(2))
	if err := b.AddSample([]string{"main", "onlyB"}, map[string]dataframe.Value{"other": dataframe.Float64(2)}); err != nil {
		t.Fatal(err)
	}
	th, err := FromProfiles([]*profile.Profile{a, b}, Options{IndexBy: "id"})
	if err != nil {
		t.Fatal(err)
	}
	// Union tree: main, onlyA, onlyB.
	if th.Tree.Len() != 3 {
		t.Errorf("union tree = %d nodes, want 3", th.Tree.Len())
	}
	// onlyA has a row only for profile 1.
	rows := th.PerfData.Index().Lookup([]dataframe.Value{dataframe.Str("main/onlyA"), dataframe.Int64(2)})
	if len(rows) != 0 {
		t.Error("profile 2 should not have a row for onlyA")
	}
	// Metric union: both columns exist; missing cells are null.
	rows = th.PerfData.Index().Lookup([]dataframe.Value{dataframe.Str("main/onlyA"), dataframe.Int64(1)})
	if len(rows) != 1 {
		t.Fatal("missing row for (onlyA, 1)")
	}
	v, err := th.PerfData.Cell(rows[0], dataframe.ColKey{"other"})
	if err != nil {
		t.Fatal(err)
	}
	if !v.IsNull() {
		t.Error("metric absent from a profile should be null")
	}
}

func TestFilterMetadataFigure6(t *testing.T) {
	th, err := FromProfiles(figure2Profiles(t), Options{IndexBy: "run"})
	if err != nil {
		t.Fatal(err)
	}
	filtered := th.FilterMetadata(func(m MetaRow) bool { return m.Int("run") == 1 })
	if filtered.NumProfiles() != 1 {
		t.Fatalf("filtered profiles = %d, want 1", filtered.NumProfiles())
	}
	if filtered.PerfData.NRows() != 4 {
		t.Errorf("filtered perf rows = %d, want 4", filtered.PerfData.NRows())
	}
	if err := filtered.Validate(); err != nil {
		t.Error(err)
	}
	// Original untouched (copy-on-write discipline, §4.1.1).
	if th.NumProfiles() != 2 || th.PerfData.NRows() != 8 {
		t.Error("filter mutated the source thicket")
	}
	// Typed accessors.
	none := th.FilterMetadata(func(m MetaRow) bool { return m.Str("cluster") == "lassen" })
	if none.NumProfiles() != 0 {
		t.Error("no profile matches lassen")
	}
}

func TestGroupByFigure7(t *testing.T) {
	ps := figure2Profiles(t)
	ps[0].SetMeta("compiler", dataframe.Str("clang"))
	ps[1].SetMeta("compiler", dataframe.Str("xlc"))
	th, err := FromProfiles(ps, Options{})
	if err != nil {
		t.Fatal(err)
	}
	groups, err := th.GroupBy("compiler", "run")
	if err != nil {
		t.Fatal(err)
	}
	if len(groups) != 2 {
		t.Fatalf("groups = %d, want 2", len(groups))
	}
	total := 0
	for _, g := range groups {
		total += g.Thicket.NumProfiles()
		if err := g.Thicket.Validate(); err != nil {
			t.Error(err)
		}
		if len(g.Key) != 2 || len(g.Columns) != 2 {
			t.Error("group key shape wrong")
		}
	}
	if total != th.NumProfiles() {
		t.Error("groups must partition the profiles")
	}
	if _, err := th.GroupBy("nope"); err == nil {
		t.Error("grouping by missing column must error")
	}
}

func TestQueryFigure8(t *testing.T) {
	a := profile.New()
	a.SetMeta("id", dataframe.Int64(1))
	for _, kernel := range []string{"Algorithm_MEMCPY", "Algorithm_MEMSET"} {
		for _, variant := range []string{".block_128", ".block_256"} {
			if err := a.AddSample([]string{"Base_CUDA", "Algorithm", kernel, kernel + variant},
				map[string]dataframe.Value{"time (exc)": dataframe.Float64(0.002)}); err != nil {
				t.Fatal(err)
			}
		}
	}
	th, err := FromProfiles([]*profile.Profile{a}, Options{IndexBy: "id"})
	if err != nil {
		t.Fatal(err)
	}
	q := query.NewMatcher().
		Match(".", query.NameEquals("Base_CUDA")).
		Rel("*").
		Rel(".", query.NameEndsWith("block_128"))
	out, err := th.Query(q)
	if err != nil {
		t.Fatal(err)
	}
	// Kept: Base_CUDA, Algorithm, 2 kernels, 2 block_128 leaves = 6.
	if out.Tree.Len() != 6 {
		t.Errorf("query tree = %d nodes, want 6:\n%s", out.Tree.Len(), out.Tree.Render(nil))
	}
	for _, leaf := range out.Tree.Leaves() {
		if !strings.HasSuffix(leaf.Name(), "block_128") {
			t.Errorf("unexpected leaf %q", leaf.Name())
		}
	}
	if err := out.Validate(); err != nil {
		t.Error(err)
	}
	if out.PerfData.NRows() != 6 {
		t.Errorf("query perf rows = %d, want 6", out.PerfData.NRows())
	}
	// DSL equivalent.
	out2, err := th.QueryString(". name == Base_CUDA / * / . name $= block_128")
	if err != nil {
		t.Fatal(err)
	}
	if out2.Tree.Len() != out.Tree.Len() {
		t.Error("DSL and builder queries disagree")
	}
	if _, err := th.QueryString("bogus ?? query"); err == nil {
		t.Error("bad DSL must error")
	}
}

func TestAggregateStatsFigure9(t *testing.T) {
	th, err := FromProfiles(figure2Profiles(t), Options{})
	if err != nil {
		t.Fatal(err)
	}
	if err := th.AggregateStats([]dataframe.ColKey{{"time"}}, []string{"mean", "std", "var"}); err != nil {
		t.Fatal(err)
	}
	for _, col := range []string{"time_mean", "time_std", "time_var"} {
		if !th.Stats.HasColumn(dataframe.ColKey{col}) {
			t.Errorf("missing stats column %q", col)
		}
	}
	// MAIN: times 10 and 11 → mean 10.5, var 0.5.
	rows := th.Stats.Index().Lookup([]dataframe.Value{dataframe.Str("MAIN")})
	if len(rows) != 1 {
		t.Fatal("missing MAIN stats row")
	}
	mean, _ := th.Stats.Cell(rows[0], dataframe.ColKey{"time_mean"})
	variance, _ := th.Stats.Cell(rows[0], dataframe.ColKey{"time_var"})
	if math.Abs(mean.Float()-10.5) > 1e-9 {
		t.Errorf("time_mean = %v, want 10.5", mean.Float())
	}
	if math.Abs(variance.Float()-0.5) > 1e-9 {
		t.Errorf("time_var = %v, want 0.5", variance.Float())
	}
	// Cross-check against the stats package directly.
	if got := stats.Variance([]float64{10, 11}); math.Abs(got-variance.Float()) > 1e-12 {
		t.Error("stats table disagrees with stats package")
	}
	// Recomputing overwrites rather than duplicating.
	if err := th.AggregateStats([]dataframe.ColKey{{"time"}}, []string{"mean"}); err != nil {
		t.Fatal(err)
	}
	if err := th.Validate(); err != nil {
		t.Error(err)
	}
	// Unknown aggregator errors.
	if err := th.AggregateStats(nil, []string{"bogus"}); err == nil {
		t.Error("unknown aggregator must error")
	}
}

func TestFilterStatsFigure9(t *testing.T) {
	th, err := FromProfiles(figure2Profiles(t), Options{})
	if err != nil {
		t.Fatal(err)
	}
	if err := th.AggregateStats(nil, []string{"mean"}); err != nil {
		t.Fatal(err)
	}
	// Keep nodes with mean time >= 4 (MAIN and FOO).
	out := th.FilterStats(func(s StatsRow) bool { return s.Float("time_mean") >= 4 })
	if out.Stats.NRows() != 2 {
		t.Errorf("filtered stats rows = %d, want 2", out.Stats.NRows())
	}
	if err := out.Validate(); err != nil {
		t.Error(err)
	}
	// Perf data restricted consistently.
	if out.PerfData.NRows() != 4 {
		t.Errorf("filtered perf rows = %d, want 4", out.PerfData.NRows())
	}
	// Node accessor works.
	found := false
	out.Stats.Each(func(r dataframe.Row) {
		if (StatsRow{row: r}).Node() == "MAIN" {
			found = true
		}
	})
	if !found {
		t.Error("MAIN should survive the stats filter")
	}
}

func TestAddDerivedSpeedup(t *testing.T) {
	th, err := FromProfiles(figure2Profiles(t), Options{IndexBy: "run"})
	if err != nil {
		t.Fatal(err)
	}
	err = th.AddDerived(dataframe.ColKey{"norm"}, func(r dataframe.Row) dataframe.Value {
		v, _ := r.Value("time").AsFloat()
		return dataframe.Float64(v / 10)
	})
	if err != nil {
		t.Fatal(err)
	}
	col, err := th.PerfData.ColumnByName("norm")
	if err != nil {
		t.Fatal(err)
	}
	if col.Len() != th.PerfData.NRows() {
		t.Error("derived column wrong length")
	}
	// Duplicate key rejected.
	if err := th.AddDerived(dataframe.ColKey{"norm"}, func(dataframe.Row) dataframe.Value { return dataframe.Float64(0) }); err == nil {
		t.Error("duplicate derived column must error")
	}
}

func TestComposeFigure4(t *testing.T) {
	mkTool := func(metric string, scale float64, extraNode string) []*profile.Profile {
		var out []*profile.Profile
		for _, size := range []int64{1048576, 4194304} {
			p := profile.New()
			p.SetMeta("problem size", dataframe.Int64(size))
			p.SetMeta("tool", dataframe.Str(metric))
			for _, kernel := range []string{"Apps_VOL3D", "Stream_DOT"} {
				if err := p.AddSample([]string{"main", kernel}, map[string]dataframe.Value{
					metric: dataframe.Float64(scale * float64(size) / 1e6),
				}); err != nil {
					t.Fatal(err)
				}
			}
			if extraNode != "" {
				if err := p.AddSample([]string{"main", extraNode}, map[string]dataframe.Value{
					metric: dataframe.Float64(1),
				}); err != nil {
					t.Fatal(err)
				}
			}
			out = append(out, p)
		}
		return out
	}
	cpuTh, err := FromProfiles(mkTool("time (exc)", 0.2, "Lcals_HYDRO_1D"), Options{IndexBy: "problem size"})
	if err != nil {
		t.Fatal(err)
	}
	gpuTh, err := FromProfiles(mkTool("time (gpu)", 0.01, ""), Options{IndexBy: "problem size"})
	if err != nil {
		t.Fatal(err)
	}
	composed, err := Compose([]string{"CPU", "GPU"}, []*Thicket{cpuTh, gpuTh})
	if err != nil {
		t.Fatal(err)
	}
	if err := composed.Validate(); err != nil {
		t.Error(err)
	}
	// Column index gains the group level.
	if composed.PerfData.ColIndex().NLevels() != 2 {
		t.Fatalf("composed column levels = %d, want 2", composed.PerfData.ColIndex().NLevels())
	}
	gs := composed.PerfData.ColIndex().Groups()
	if len(gs) != 2 || gs[0] != "CPU" || gs[1] != "GPU" {
		t.Errorf("groups = %v", gs)
	}
	// Intersection: HYDRO (CPU-only) dropped; main + 2 kernels × 2 sizes.
	if composed.Tree.Len() != 3 {
		t.Errorf("intersected tree = %d nodes, want 3", composed.Tree.Len())
	}
	if composed.PerfData.NRows() != 6 {
		t.Errorf("composed rows = %d, want 6", composed.PerfData.NRows())
	}
	// Cells preserved under group keys.
	rows := composed.PerfData.Index().Lookup([]dataframe.Value{dataframe.Str("main/Apps_VOL3D"), dataframe.Int64(4194304)})
	if len(rows) != 1 {
		t.Fatal("missing composed row")
	}
	cpuV, err := composed.PerfData.Cell(rows[0], dataframe.ColKey{"CPU", "time (exc)"})
	if err != nil || math.Abs(cpuV.Float()-0.2*4194304/1e6) > 1e-9 {
		t.Errorf("CPU cell = %v (%v)", cpuV, err)
	}
	gpuV, err := composed.PerfData.Cell(rows[0], dataframe.ColKey{"GPU", "time (gpu)"})
	if err != nil || math.Abs(gpuV.Float()-0.01*4194304/1e6) > 1e-9 {
		t.Errorf("GPU cell = %v (%v)", gpuV, err)
	}
	// Derived speedup across groups (Figure 15).
	err = composed.AddDerived(dataframe.ColKey{"Derived", "speedup"}, func(r dataframe.Row) dataframe.Value {
		c, _ := r.ValueAt(dataframe.ColKey{"CPU", "time (exc)"}).AsFloat()
		g, _ := r.ValueAt(dataframe.ColKey{"GPU", "time (gpu)"}).AsFloat()
		return dataframe.Float64(c / g)
	})
	if err != nil {
		t.Fatal(err)
	}
	sp, err := composed.PerfData.Cell(rows[0], dataframe.ColKey{"Derived", "speedup"})
	if err != nil || math.Abs(sp.Float()-20) > 1e-9 {
		t.Errorf("speedup = %v, want 20", sp.Float())
	}
	// Aggregated stats on a composed thicket keep group labels.
	if err := composed.AggregateStats([]dataframe.ColKey{{"CPU", "time (exc)"}}, []string{"mean"}); err != nil {
		t.Fatal(err)
	}
	if !composed.Stats.HasColumn(dataframe.ColKey{"CPU", "time (exc)_mean"}) {
		t.Error("composed stats should carry the group level")
	}
}

func TestComposeErrors(t *testing.T) {
	th, err := FromProfiles(figure2Profiles(t), Options{})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := Compose([]string{"A"}, []*Thicket{th}); err == nil {
		t.Error("single thicket must error")
	}
	if _, err := Compose([]string{"A", "A"}, []*Thicket{th, th.Copy()}); err == nil {
		t.Error("duplicate group labels must error")
	}
	other, err := FromProfiles(figure2Profiles(t), Options{IndexBy: "run"})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := Compose([]string{"A", "B"}, []*Thicket{th, other}); err == nil {
		t.Error("mismatched profile levels must error")
	}
}

func TestConcatProfiles(t *testing.T) {
	ps := figure2Profiles(t)
	a, err := FromProfiles(ps[:1], Options{})
	if err != nil {
		t.Fatal(err)
	}
	b, err := FromProfiles(ps[1:], Options{})
	if err != nil {
		t.Fatal(err)
	}
	cat, err := ConcatProfiles([]*Thicket{a, b})
	if err != nil {
		t.Fatal(err)
	}
	if cat.NumProfiles() != 2 || cat.PerfData.NRows() != 8 {
		t.Errorf("concat shape: %d profiles, %d rows", cat.NumProfiles(), cat.PerfData.NRows())
	}
	if err := cat.Validate(); err != nil {
		t.Error(err)
	}
	// Duplicate profiles rejected.
	if _, err := ConcatProfiles([]*Thicket{a, a.Copy()}); err == nil {
		t.Error("duplicate profile indexes must error")
	}
}

func TestMetadataSummary(t *testing.T) {
	ps := figure2Profiles(t)
	ps[0].SetMeta("compiler", dataframe.Str("clang"))
	ps[1].SetMeta("compiler", dataframe.Str("clang"))
	th, err := FromProfiles(ps, Options{})
	if err != nil {
		t.Fatal(err)
	}
	sum, err := th.MetadataSummary("compiler")
	if err != nil {
		t.Fatal(err)
	}
	if sum.NRows() != 1 {
		t.Fatalf("summary rows = %d, want 1", sum.NRows())
	}
	cnt, err := sum.Cell(0, dataframe.ColKey{"#profiles"})
	if err != nil || cnt.Int() != 2 {
		t.Errorf("#profiles = %v", cnt)
	}
}

func TestShortNodeLabels(t *testing.T) {
	p := profile.New()
	p.SetMeta("id", dataframe.Int64(1))
	if err := p.AddSample([]string{"main", "solverA", "Mult"}, map[string]dataframe.Value{"t": dataframe.Float64(1)}); err != nil {
		t.Fatal(err)
	}
	if err := p.AddSample([]string{"main", "solverB", "Mult"}, map[string]dataframe.Value{"t": dataframe.Float64(2)}); err != nil {
		t.Fatal(err)
	}
	th, err := FromProfiles([]*profile.Profile{p}, Options{IndexBy: "id"})
	if err != nil {
		t.Fatal(err)
	}
	labels := th.ShortNodeLabels()
	if labels["main/solverA"] != "solverA" {
		t.Errorf("unique leaf should shorten: %q", labels["main/solverA"])
	}
	if labels["main/solverA/Mult"] != "main/solverA/Mult" {
		t.Errorf("ambiguous leaf must keep full path: %q", labels["main/solverA/Mult"])
	}
	re := th.RelabelledPerfData(th.PerfData)
	lv := re.Index().LevelByName(NodeLevel)
	foundShort := false
	for r := 0; r < lv.Len(); r++ {
		if lv.At(r).Str() == "solverA" {
			foundShort = true
		}
	}
	if !foundShort {
		t.Error("relabelled frame should contain shortened labels")
	}
}

func TestMetricVectorAndCorrelate(t *testing.T) {
	th, err := FromProfiles(figure2Profiles(t), Options{IndexBy: "run"})
	if err != nil {
		t.Fatal(err)
	}
	vals, profs, err := th.MetricVector("MAIN", dataframe.ColKey{"time"})
	if err != nil {
		t.Fatal(err)
	}
	if len(vals) != 2 || len(profs) != 2 {
		t.Fatalf("vector lengths = %d/%d", len(vals), len(profs))
	}
	if _, _, err := th.MetricVector("GHOST", dataframe.ColKey{"time"}); err == nil {
		t.Error("missing node must error")
	}
	if err := th.CorrelateMetrics(dataframe.ColKey{"time"}, dataframe.ColKey{"L1 misses"}, "pearson"); err != nil {
		t.Fatal(err)
	}
	if !th.Stats.HasColumn(dataframe.ColKey{"time_vs_L1 misses_pearson"}) {
		t.Error("correlation column missing")
	}
	if err := th.CorrelateMetrics(dataframe.ColKey{"time"}, dataframe.ColKey{"L1 misses"}, "kendall"); err == nil {
		t.Error("unknown method must error")
	}
}

func TestTreeString(t *testing.T) {
	th, err := FromProfiles(figure2Profiles(t), Options{})
	if err != nil {
		t.Fatal(err)
	}
	out := th.TreeString(dataframe.ColKey{"time"})
	if !strings.Contains(out, "MAIN") || !strings.Contains(out, "10.500") {
		t.Errorf("tree rendering missing mean annotation:\n%s", out)
	}
	// Unknown metric degrades to bare rendering.
	bare := th.TreeString(dataframe.ColKey{"nope"})
	if !strings.Contains(bare, "MAIN") {
		t.Error("bare rendering broken")
	}
}

func TestValidateCatchesCorruption(t *testing.T) {
	th, err := FromProfiles(figure2Profiles(t), Options{})
	if err != nil {
		t.Fatal(err)
	}
	if err := th.Validate(); err != nil {
		t.Fatal(err)
	}
	// Corrupt a perf node reference.
	lv := th.PerfData.Index().LevelByName(NodeLevel)
	if err := lv.Set(0, dataframe.Str("GHOST")); err != nil {
		t.Fatal(err)
	}
	if err := th.Validate(); err == nil {
		t.Error("corrupted node reference must fail validation")
	}
}

func TestFilterNodes(t *testing.T) {
	th, err := FromProfiles(figure2Profiles(t), Options{})
	if err != nil {
		t.Fatal(err)
	}
	out := th.FilterNodes(func(n *calltree.Node) bool { return n.Name() == "BAZ" })
	// BAZ plus ancestors MAIN, FOO.
	if out.Tree.Len() != 3 {
		t.Errorf("filtered tree = %d nodes, want 3", out.Tree.Len())
	}
	if out.PerfData.NRows() != 6 {
		t.Errorf("filtered perf rows = %d, want 6", out.PerfData.NRows())
	}
	if err := out.Validate(); err != nil {
		t.Error(err)
	}
	none := th.FilterNodes(func(n *calltree.Node) bool { return false })
	if none.Tree.Len() != 0 || none.PerfData.NRows() != 0 {
		t.Error("empty node filter should clear tree and perf data")
	}
}

func TestConcatProfilesMixedSchemas(t *testing.T) {
	// Thickets with different metric sets (multi-tool) concatenate with
	// nulls for the missing cells.
	a := profile.New()
	a.SetMeta("id", dataframe.Int64(1))
	a.SetMeta("tool", dataframe.Str("timing"))
	if err := a.AddSample([]string{"main"}, map[string]dataframe.Value{"time": dataframe.Float64(1)}); err != nil {
		t.Fatal(err)
	}
	b := profile.New()
	b.SetMeta("id", dataframe.Int64(2))
	b.SetMeta("gpu", dataframe.BoolVal(true))
	if err := b.AddSample([]string{"main"}, map[string]dataframe.Value{"sm__throughput": dataframe.Float64(40)}); err != nil {
		t.Fatal(err)
	}
	thA, err := FromProfiles([]*profile.Profile{a}, Options{IndexBy: "id"})
	if err != nil {
		t.Fatal(err)
	}
	thB, err := FromProfiles([]*profile.Profile{b}, Options{IndexBy: "id"})
	if err != nil {
		t.Fatal(err)
	}
	cat, err := ConcatProfiles([]*Thicket{thA, thB})
	if err != nil {
		t.Fatal(err)
	}
	if cat.NumProfiles() != 2 || cat.PerfData.NCols() != 2 {
		t.Fatalf("shape: %d profiles × %d metric cols", cat.NumProfiles(), cat.PerfData.NCols())
	}
	if err := cat.Validate(); err != nil {
		t.Error(err)
	}
	rows := cat.PerfData.Index().Lookup([]dataframe.Value{dataframe.Str("main"), dataframe.Int64(1)})
	v, err := cat.PerfData.Cell(rows[0], dataframe.ColKey{"sm__throughput"})
	if err != nil || !v.IsNull() {
		t.Error("profile 1 should have null GPU metric")
	}
}

func TestQueryCompound(t *testing.T) {
	th, err := FromProfiles(figure2Profiles(t), Options{})
	if err != nil {
		t.Fatal(err)
	}
	either := query.AnyOf(
		query.NewMatcher().Match(".", query.NameEquals("BAZ")),
		query.NewMatcher().Match(".", query.NameEquals("BAR")),
	)
	out, err := th.Query(either)
	if err != nil {
		t.Fatal(err)
	}
	// BAZ + BAR + their ancestors MAIN, FOO.
	if out.Tree.Len() != 4 {
		t.Errorf("compound query tree = %d nodes, want 4", out.Tree.Len())
	}
	if err := out.Validate(); err != nil {
		t.Error(err)
	}
}

func TestSmallAccessors(t *testing.T) {
	th, err := FromProfiles(figure2Profiles(t), Options{IndexBy: "run"})
	if err != nil {
		t.Fatal(err)
	}
	// Profiles lists the index values in metadata order.
	profs := th.Profiles()
	if len(profs) != 2 || profs[0].Int() != 1 || profs[1].Int() != 2 {
		t.Errorf("Profiles = %v", profs)
	}
	// SortedByIndex orders perf rows by (node, profile).
	sorted := th.SortedByIndex()
	ix := sorted.PerfData.Index()
	for r := 1; r < ix.NRows(); r++ {
		if dataframe.CompareKeys(ix.KeyAt(r-1), ix.KeyAt(r)) > 0 {
			t.Fatal("SortedByIndex not ordered")
		}
	}
	// FilterProfiles keeps the named profiles only.
	one := th.FilterProfiles([]dataframe.Value{dataframe.Int64(2)})
	if one.NumProfiles() != 1 {
		t.Errorf("FilterProfiles kept %d", one.NumProfiles())
	}
	// SelectMetrics narrows the perf columns.
	narrowed, err := th.SelectMetrics(dataframe.ColKey{"time"})
	if err != nil {
		t.Fatal(err)
	}
	if narrowed.PerfData.NCols() != 1 {
		t.Errorf("SelectMetrics cols = %d", narrowed.PerfData.NCols())
	}
	if _, err := th.SelectMetrics(dataframe.ColKey{"ghost"}); err == nil {
		t.Error("missing metric must error")
	}
	// MetaRow.Profile / Value / Float accessors.
	th.Metadata.Each(func(r dataframe.Row) {
		m := MetaRow{row: r}
		if m.Profile("run").IsNull() {
			t.Error("MetaRow.Profile broken")
		}
		if m.Float("run") < 1 {
			t.Error("MetaRow.Float broken")
		}
	})
	// StatsRow.Value accessor.
	if err := th.AggregateStats(nil, []string{"mean"}); err != nil {
		t.Fatal(err)
	}
	seen := false
	_ = th.FilterStats(func(s StatsRow) bool {
		if !s.Value("time_mean").IsNull() {
			seen = true
		}
		return true
	})
	if !seen {
		t.Error("StatsRow.Value broken")
	}
	// ModelNode error paths.
	if _, err := th.ModelNode("ghost", dataframe.ColKey{"time"}, "run", extrap.Options{}); err == nil {
		t.Error("missing node must error")
	}
}
