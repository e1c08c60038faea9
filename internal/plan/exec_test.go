package plan_test

import (
	"fmt"
	"math"
	"math/rand"
	"path/filepath"
	"strings"
	"testing"

	"repro/internal/calltree"
	"repro/internal/core"
	"repro/internal/dataframe"
	"repro/internal/parallel"
	"repro/internal/plan"
	"repro/internal/profile"
	"repro/internal/store"
)

// ensemble builds nProfiles random profiles with ids starting at
// idBase. Metadata covers every scalar kind; drift drops some columns
// from some profiles so multi-segment stores exercise the outer-concat
// null-fill path.
func ensemble(t *testing.T, seed, idBase int64, nProfiles int, drift bool) []*profile.Profile {
	t.Helper()
	rng := rand.New(rand.NewSource(seed))
	vocab := []string{"solve", "io", "mult", "add", "halo"}
	out := make([]*profile.Profile, nProfiles)
	for i := range out {
		p := profile.New()
		p.SetMeta("id", dataframe.Int64(idBase+int64(i)))
		p.SetMeta("group", dataframe.Str(fmt.Sprintf("g%d", rng.Intn(3))))
		if !drift || rng.Intn(3) > 0 {
			p.SetMeta("scale", dataframe.Int64(int64(1<<rng.Intn(4))))
		}
		if !drift || rng.Intn(3) > 0 {
			p.SetMeta("tuned", dataframe.BoolVal(rng.Intn(2) == 0))
		}
		if !drift || rng.Intn(4) > 0 {
			p.SetMeta("ratio", dataframe.Float64(float64(rng.Intn(40))/4))
		}
		for j := 0; j < 1+rng.Intn(4); j++ {
			path := []string{"main"}
			for d := 0; d < rng.Intn(3); d++ {
				path = append(path, vocab[rng.Intn(len(vocab))])
			}
			metrics := map[string]dataframe.Value{"time": dataframe.Float64(rng.NormFloat64() * 10)}
			if err := p.AddSample(path, metrics); err != nil {
				t.Fatal(err)
			}
		}
		out[i] = p
	}
	return out
}

func thicketOf(t *testing.T, profiles []*profile.Profile) *core.Thicket {
	t.Helper()
	th, err := core.FromProfiles(profiles, core.Options{IndexBy: "id"})
	if err != nil {
		t.Fatal(err)
	}
	return th
}

// buildStore writes one segment per batch into a directory store:
// CreateDir with the first, Append the rest. Returns the opened store
// (closed via t.Cleanup).
func buildStore(t *testing.T, batches ...[]*profile.Profile) *store.Store {
	t.Helper()
	path := filepath.Join(t.TempDir(), "plan.tks")
	if err := store.CreateDir(path, thicketOf(t, batches[0])); err != nil {
		t.Fatal(err)
	}
	s, err := store.Open(path)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { s.Close() })
	for _, b := range batches[1:] {
		if err := s.Append(thicketOf(t, b)); err != nil {
			t.Fatal(err)
		}
	}
	return s
}

func assertThicketsEqual(t *testing.T, label string, want, got *core.Thicket) {
	t.Helper()
	if !want.Tree.Equal(got.Tree) {
		t.Fatalf("%s: trees differ", label)
	}
	if !want.PerfData.Equal(got.PerfData) {
		t.Fatalf("%s: perf data differs", label)
	}
	if !want.Metadata.Equal(got.Metadata) {
		t.Fatalf("%s: metadata differs", label)
	}
	if !want.Stats.Equal(got.Stats) {
		t.Fatalf("%s: stats differ", label)
	}
	if want.ProfileLevelName() != got.ProfileLevelName() {
		t.Fatalf("%s: profile level %q vs %q", label, want.ProfileLevelName(), got.ProfileLevelName())
	}
}

// randomPreds draws 1-3 predicates over the generated schema, mixing
// numeric and string literals, in-range and out-of-range values, NaN,
// empty strings, and the promoted "id" index level.
func randomPreds(rng *rand.Rand) []plan.Predicate {
	cols := []string{"group", "scale", "tuned", "ratio", "id"}
	ops := []string{"=", "!=", "<", ">", "<=", ">="}
	vals := []string{"0", "1", "2.5", "-3", "8", "9.75", "200", "g1", "g9", "zzz", "", "NaN", "true", "false"}
	n := 1 + rng.Intn(3)
	exprs := make([]string, n)
	for i := range exprs {
		exprs[i] = cols[rng.Intn(len(cols))] + ops[rng.Intn(len(ops))] + vals[rng.Intn(len(vals))]
	}
	preds, err := plan.Compile(exprs)
	if err != nil {
		panic(err)
	}
	return preds
}

// memStore holds th as a one-segment in-memory store — how a thicket
// that did not come from a store reaches the planner.
func memStore(t *testing.T, th *core.Thicket) *store.Store {
	t.Helper()
	s, err := store.FromThicket(th)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { s.Close() })
	return s
}

// TestInMemoryStoreMatchesNaive is the store-less differential: for
// random thickets held as in-memory stores and random predicate
// conjunctions, the compiled path must reproduce NaiveFilter over the
// source thicket exactly.
func TestInMemoryStoreMatchesNaive(t *testing.T) {
	for seed := int64(0); seed < 30; seed++ {
		rng := rand.New(rand.NewSource(9000 + seed))
		th := thicketOf(t, ensemble(t, seed, 0, 2+int(seed%5), seed%2 == 0))
		preds := randomPreds(rng)
		got, st, err := plan.ExecuteStore(memStore(t, th), preds)
		if err != nil {
			// Drift can drop a column from every profile; the compiled
			// path must then fail validation exactly like the endpoints.
			if strings.Contains(err.Error(), "unknown metadata column") &&
				plan.Validate(th.Metadata, preds) != nil {
				continue
			}
			t.Fatalf("seed %d (%s): %v", seed, plan.Describe(preds), err)
		}
		want := plan.NaiveFilter(th, preds)
		assertThicketsEqual(t, fmt.Sprintf("seed %d (%s)", seed, plan.Describe(preds)), want, got)
		if st.RowsMaterialized != got.Metadata.NRows() {
			t.Fatalf("seed %d: RowsMaterialized %d, survivors %d", seed, st.RowsMaterialized, got.Metadata.NRows())
		}
		if st.Rows != th.Metadata.NRows() {
			t.Fatalf("seed %d: Rows %d, want %d", seed, st.Rows, th.Metadata.NRows())
		}
	}
}

// TestExecuteStoreMatchesNaive is the acceptance differential: random
// multi-segment stores (with schema drift across segments), random
// predicates, at decode parallelism 1, 3, and 8 — the compiled
// store-side path must be bit-identical to filtering the naive load.
func TestExecuteStoreMatchesNaive(t *testing.T) {
	for _, workers := range []int{1, 3, 8} {
		workers := workers
		t.Run(fmt.Sprintf("workers=%d", workers), func(t *testing.T) {
			prev := parallel.Set(workers)
			defer parallel.Set(prev)
			for seed := int64(0); seed < 12; seed++ {
				rng := rand.New(rand.NewSource(100*int64(workers) + seed))
				nseg := 1 + rng.Intn(3)
				batches := make([][]*profile.Profile, nseg)
				for i := range batches {
					batches[i] = ensemble(t, seed*10+int64(i), int64(1000*i), 2+rng.Intn(4), true)
				}
				s := buildStore(t, batches...)
				naive, err := s.Load()
				if err != nil {
					t.Fatal(err)
				}
				for trial := 0; trial < 6; trial++ {
					preds := randomPreds(rng)
					got, st, err := plan.ExecuteStore(s, preds)
					label := fmt.Sprintf("seed %d trial %d (%s)", seed, trial, plan.Describe(preds))
					if err != nil {
						if strings.Contains(err.Error(), "unknown metadata column") &&
							plan.Validate(naive.Metadata, preds) != nil {
							continue
						}
						t.Fatalf("%s: %v", label, err)
					}
					want := plan.NaiveFilter(naive, preds)
					assertThicketsEqual(t, label, want, got)
					if st.RowsMaterialized != got.Metadata.NRows() {
						t.Fatalf("%s: RowsMaterialized %d, survivors %d", label, st.RowsMaterialized, got.Metadata.NRows())
					}
					if st.Segments != nseg || st.SegmentsPruned > nseg {
						t.Fatalf("%s: stats %+v", label, st)
					}
				}
			}
		})
	}
}

// TestExecuteStoreNoPredicates must return the plain load untouched.
func TestExecuteStoreNoPredicates(t *testing.T) {
	s := buildStore(t, ensemble(t, 1, 0, 3, false), ensemble(t, 2, 100, 3, false))
	want, err := s.Load()
	if err != nil {
		t.Fatal(err)
	}
	got, st, err := plan.ExecuteStore(s, nil)
	if err != nil {
		t.Fatal(err)
	}
	assertThicketsEqual(t, "no predicates", want, got)
	if st.Rows != 6 || st.RowsMaterialized != 6 {
		t.Fatalf("stats %+v", st)
	}
}

// TestUnknownColumnError pins the endpoints' historical message.
func TestUnknownColumnError(t *testing.T) {
	s := buildStore(t, ensemble(t, 3, 0, 3, false))
	preds, err := plan.Compile([]string{"ghost=1"})
	if err != nil {
		t.Fatal(err)
	}
	if _, _, err := plan.ExecuteStore(s, preds); err == nil ||
		err.Error() != `unknown metadata column "ghost"` {
		t.Fatalf("store path error = %v", err)
	}
}

// TestPruneDisjointRanges: segments with disjoint profile-id ranges must
// be pruned by the index level's zone map, with block accounting to
// match, and the result must still equal the naive path.
func TestPruneDisjointRanges(t *testing.T) {
	s := buildStore(t,
		ensemble(t, 10, 0, 4, false),    // ids 0..3
		ensemble(t, 11, 1000, 4, false), // ids 1000..1003
		ensemble(t, 12, 2000, 4, false), // ids 2000..2003
	)
	naive, err := s.Load()
	if err != nil {
		t.Fatal(err)
	}
	preds, _ := plan.Compile([]string{"id<=3"})
	got, st, err := plan.ExecuteStore(s, preds)
	if err != nil {
		t.Fatal(err)
	}
	assertThicketsEqual(t, "id<=3", plan.NaiveFilter(naive, preds), got)
	if st.SegmentsPruned != 2 {
		t.Fatalf("SegmentsPruned = %d, want 2 (stats %+v)", st.SegmentsPruned, st)
	}
	if st.BlocksSkipped == 0 || st.BlocksScanned == 0 {
		t.Fatalf("block accounting: %+v", st)
	}
	if st.RowsScanned != 4 || st.RowsMaterialized != 4 {
		t.Fatalf("row accounting: %+v", st)
	}

	// An equality probe inside a hole between zone maps prunes everything.
	preds, _ = plan.Compile([]string{"id=500"})
	got, st, err = plan.ExecuteStore(s, preds)
	if err != nil {
		t.Fatal(err)
	}
	assertThicketsEqual(t, "id=500", plan.NaiveFilter(naive, preds), got)
	if st.SegmentsPruned != 3 || st.BlocksScanned != 0 || st.RowsScanned != 0 {
		t.Fatalf("hole probe stats: %+v", st)
	}
}

// TestPruneDictAbsentValue: string equality against a word in no
// segment's dictionary must prune every segment without decoding any
// block (satellite: dict predicate on absent value).
func TestPruneDictAbsentValue(t *testing.T) {
	s := buildStore(t, ensemble(t, 20, 0, 4, false), ensemble(t, 21, 100, 4, false))
	naive, err := s.Load()
	if err != nil {
		t.Fatal(err)
	}
	preds, _ := plan.Compile([]string{"group=doesnotexist"})
	got, st, err := plan.ExecuteStore(s, preds)
	if err != nil {
		t.Fatal(err)
	}
	assertThicketsEqual(t, "absent word", plan.NaiveFilter(naive, preds), got)
	if st.SegmentsPruned != 2 || st.BlocksScanned != 0 {
		t.Fatalf("stats %+v", st)
	}
	if got.Metadata.NRows() != 0 || got.PerfData.NRows() != 0 {
		t.Fatal("result should be empty")
	}

	// Inequality on the same absent word cannot prune: every non-null
	// row matches.
	preds, _ = plan.Compile([]string{"group!=doesnotexist"})
	got, st, err = plan.ExecuteStore(s, preds)
	if err != nil {
		t.Fatal(err)
	}
	assertThicketsEqual(t, "absent word !=", plan.NaiveFilter(naive, preds), got)
	if st.SegmentsPruned != 0 {
		t.Fatalf("!= pruned segments: %+v", st)
	}
}

// TestPruneAllNullColumn: a float column that is NaN (null) in every row
// of a segment can never match an equality the null rendering fails, so
// the segment prunes on its null count alone (satellite: all-null
// columns). The zone map itself is open — NaN poisons min/max — so the
// skip must come from Nulls==NRows.
func TestPruneAllNullColumn(t *testing.T) {
	allNull := ensemble(t, 30, 0, 3, false)
	for _, p := range allNull {
		p.SetMeta("ratio", dataframe.Float64(math.NaN()))
	}
	s := buildStore(t, allNull, ensemble(t, 31, 100, 3, false))
	naive, err := s.Load()
	if err != nil {
		t.Fatal(err)
	}
	preds, _ := plan.Compile([]string{"ratio=2.5"})
	got, st, err := plan.ExecuteStore(s, preds)
	if err != nil {
		t.Fatal(err)
	}
	assertThicketsEqual(t, "all-null ratio", plan.NaiveFilter(naive, preds), got)
	if st.SegmentsPruned < 1 {
		t.Fatalf("all-null segment not pruned: %+v", st)
	}

	// ratio>0 must NOT prune the all-null segment: a null float renders
	// "NaN", which string-compares greater than "0" and therefore
	// matches. Soundness over aggressiveness.
	preds, _ = plan.Compile([]string{"ratio>0"})
	got, st, err = plan.ExecuteStore(s, preds)
	if err != nil {
		t.Fatal(err)
	}
	assertThicketsEqual(t, "null matches NaN-render", plan.NaiveFilter(naive, preds), got)
	if st.SegmentsPruned != 0 {
		t.Fatalf("unsound prune of matching nulls: %+v", st)
	}
}

// TestSingleRowSegments: one-profile segments exercise single-row blocks
// end to end (satellite: single-row blocks).
func TestSingleRowSegments(t *testing.T) {
	s := buildStore(t,
		ensemble(t, 40, 0, 1, false),
		ensemble(t, 41, 1, 1, false),
		ensemble(t, 42, 2, 1, false),
	)
	naive, err := s.Load()
	if err != nil {
		t.Fatal(err)
	}
	rng := rand.New(rand.NewSource(43))
	for trial := 0; trial < 12; trial++ {
		preds := randomPreds(rng)
		got, _, err := plan.ExecuteStore(s, preds)
		if err != nil {
			t.Fatalf("%s: %v", plan.Describe(preds), err)
		}
		assertThicketsEqual(t, plan.Describe(preds), plan.NaiveFilter(naive, preds), got)
	}
	preds, _ := plan.Compile([]string{"id=1"})
	got, st, err := plan.ExecuteStore(s, preds)
	if err != nil {
		t.Fatal(err)
	}
	assertThicketsEqual(t, "single-row id=1", plan.NaiveFilter(naive, preds), got)
	if st.SegmentsPruned != 2 || got.Metadata.NRows() != 1 {
		t.Fatalf("stats %+v rows %d", st, got.Metadata.NRows())
	}
}

// TestFullScanStats: a predicate no header evidence can refute must scan
// every segment and keep every row.
func TestFullScanStats(t *testing.T) {
	s := buildStore(t, ensemble(t, 50, 0, 4, false), ensemble(t, 51, 100, 4, false))
	preds, _ := plan.Compile([]string{"group!=doesnotexist"})
	got, st, err := plan.ExecuteStore(s, preds)
	if err != nil {
		t.Fatal(err)
	}
	if st.SegmentsPruned != 0 || st.BlocksSkipped != 0 {
		t.Fatalf("stats %+v", st)
	}
	if st.RowsMaterialized != st.Rows || got.Metadata.NRows() != st.Rows {
		t.Fatalf("full scan lost rows: %+v", st)
	}
}

// TestSelectivePredicateSkipsBlocks is the headline pushdown property on
// a store shaped like the bench: many segments, disjoint ranges, a
// selective predicate touching one. More than half the blocks skip.
func TestSelectivePredicateSkipsBlocks(t *testing.T) {
	batches := make([][]*profile.Profile, 6)
	for i := range batches {
		batches[i] = ensemble(t, 60+int64(i), int64(1000*i), 3, false)
	}
	s := buildStore(t, batches...)
	preds, _ := plan.Compile([]string{"id>=5000"})
	_, st, err := plan.ExecuteStore(s, preds)
	if err != nil {
		t.Fatal(err)
	}
	if st.SegmentsPruned != 5 {
		t.Fatalf("SegmentsPruned = %d, want 5", st.SegmentsPruned)
	}
	total := st.BlocksScanned + st.BlocksSkipped
	if total == 0 || 2*st.BlocksSkipped <= total {
		t.Fatalf("skip rate %d/%d not >50%%", st.BlocksSkipped, total)
	}
}

// ambiguousThicket hand-builds a thicket whose metadata carries two
// 2-part column keys sharing the leaf "dup" — unreachable from profile
// ingestion, which only makes 1-part keys, but legal in a frame.
func ambiguousThicket(t *testing.T, levelName string) *core.Thicket {
	t.Helper()
	tree := calltree.New()
	if _, err := tree.AddPath([]string{"main"}); err != nil {
		t.Fatal(err)
	}
	const n = 4
	pb := dataframe.NewBuilder([]string{core.NodeLevel, levelName}, []dataframe.Kind{dataframe.String, dataframe.Int})
	lvl := dataframe.NewSeries(levelName, dataframe.Int)
	var a, b []dataframe.Value
	for i := 0; i < n; i++ {
		if err := pb.AddRow([]dataframe.Value{dataframe.Str("main"), dataframe.Int64(int64(i))},
			map[string]dataframe.Value{"time": dataframe.Float64(float64(i))}); err != nil {
			t.Fatal(err)
		}
		if err := lvl.Append(dataframe.Int64(int64(i))); err != nil {
			t.Fatal(err)
		}
		a = append(a, dataframe.Int64(int64(i)))
		b = append(b, dataframe.Int64(int64(i+1)))
	}
	perf, err := pb.Build()
	if err != nil {
		t.Fatal(err)
	}
	ix, err := dataframe.NewIndex(lvl)
	if err != nil {
		t.Fatal(err)
	}
	sa, err := dataframe.SeriesOf("dup", a)
	if err != nil {
		t.Fatal(err)
	}
	sb, err := dataframe.SeriesOf("dup", b)
	if err != nil {
		t.Fatal(err)
	}
	meta, err := dataframe.NewFrameWithColIndex(ix, []dataframe.ColKey{{"a", "dup"}, {"b", "dup"}}, []*dataframe.Series{sa, sb})
	if err != nil {
		t.Fatal(err)
	}
	th, err := core.FromParts(tree, perf, meta, nil, levelName)
	if err != nil {
		t.Fatal(err)
	}
	return th
}

// TestAmbiguousLeafResolution: when two multi-part keys share a leaf,
// the naive path reads the cell as a String null, and a same-named
// index level then supplies the value. The compiled path, run over the
// thicket held as an in-memory store, must agree. With no such level,
// both paths reject the column like the endpoints.
func TestAmbiguousLeafResolution(t *testing.T) {
	// The index level is itself named "dup": every cell resolves
	// ambiguous → null → level fallback, so the predicate effectively
	// filters on the level.
	th := ambiguousThicket(t, "dup")
	s := memStore(t, th)
	for _, c := range []struct {
		expr string
		rows int
	}{{"dup=1", 1}, {"dup!=1", 3}, {"dup<=2", 3}} {
		preds, _ := plan.Compile([]string{c.expr})
		want := plan.NaiveFilter(th, preds)
		got, _, err := plan.ExecuteStore(s, preds)
		if err != nil {
			t.Fatalf("%s: %v", c.expr, err)
		}
		assertThicketsEqual(t, c.expr, want, got)
		if got.Metadata.NRows() != c.rows {
			t.Fatalf("%s: %d rows, want %d", c.expr, got.Metadata.NRows(), c.rows)
		}
	}

	// Without a same-named level the ambiguity is a validation error.
	th = ambiguousThicket(t, "id")
	preds, _ := plan.Compile([]string{"dup=1"})
	if _, _, err := plan.ExecuteStore(memStore(t, th), preds); err == nil ||
		err.Error() != `unknown metadata column "dup"` {
		t.Fatalf("ambiguous without level: %v", err)
	}
}

// TestPredicateOnMissingSegmentColumn: a column present only in one
// segment null-fills in the others; equality against a real value must
// both prune the lacking segments and match the naive null-fill rows.
func TestPredicateOnMissingSegmentColumn(t *testing.T) {
	withCol := ensemble(t, 80, 0, 3, false)
	withoutCol := ensemble(t, 81, 100, 3, false)
	for _, p := range withCol {
		p.SetMeta("only", dataframe.Str("yes"))
	}
	s := buildStore(t, withCol, withoutCol)
	naive, err := s.Load()
	if err != nil {
		t.Fatal(err)
	}
	for _, expr := range []string{"only=yes", "only!=yes", "only="} {
		preds, err := plan.Compile([]string{expr})
		if err != nil {
			t.Fatal(err)
		}
		got, st, err := plan.ExecuteStore(s, preds)
		if err != nil {
			t.Fatalf("%s: %v", expr, err)
		}
		assertThicketsEqual(t, expr, plan.NaiveFilter(naive, preds), got)
		if expr == "only=yes" && st.SegmentsPruned != 1 {
			t.Fatalf("%s: lacking segment not pruned: %+v", expr, st)
		}
	}
}

// TestNumericStringCrossTalk pins the trap cases where one side parses
// as a number and the other does not.
func TestNumericStringCrossTalk(t *testing.T) {
	ps := ensemble(t, 90, 0, 4, false)
	words := []string{"16", "3.5", "chama", " 7 "}
	for i, p := range ps {
		p.SetMeta("label", dataframe.Str(words[i%len(words)]))
	}
	s := buildStore(t, ps)
	naive, err := s.Load()
	if err != nil {
		t.Fatal(err)
	}
	for _, expr := range []string{"label=16", "label=16.0", "label<4", "label=chama", "label>=3.5", "label!=7"} {
		preds, _ := plan.Compile([]string{expr})
		got, _, err := plan.ExecuteStore(s, preds)
		if err != nil {
			t.Fatalf("%s: %v", expr, err)
		}
		assertThicketsEqual(t, expr, plan.NaiveFilter(naive, preds), got)
	}
}
