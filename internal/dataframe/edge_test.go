package dataframe

import (
	"math"
	"strings"
	"sync"
	"testing"
)

// Edge-case coverage for the rewritten kernels: all-null columns,
// duplicate keys, empty inputs, and the Index lookup sharing lifecycle.

// TestIndexLookupLifecycle pins the lazy-lookup sharing contract:
// immutable once built, shared by deep copies and identity gathers, and
// dropped (only by the mutated index) on mutation.
func TestIndexLookupLifecycle(t *testing.T) {
	ix := MustIndex(
		NewStringSeries("node", []string{"a", "b", "a", "c"}),
		NewIntSeries("trial", []int64{0, 0, 1, 0}),
	)
	if ix.lookup.Load() != nil {
		t.Fatal("lookup built eagerly")
	}
	ix.HasDuplicates()
	built := ix.lookup.Load()
	if built == nil {
		t.Fatal("first use did not build the lookup")
	}

	// Deep copy shares the built structure.
	cp := ix.Copy()
	if cp.lookup.Load() != built {
		t.Error("Copy did not share the built lookup")
	}
	// Identity gather shares; a reordering gather must not.
	if g := ix.Gather([]int{0, 1, 2, 3}); g.lookup.Load() != built {
		t.Error("identity Gather did not share the built lookup")
	}
	if g := ix.Gather([]int{3, 2, 1, 0}); g.lookup.Load() != nil {
		t.Error("reordering Gather must not carry the lookup")
	}
	if g := ix.Gather([]int{0, 1}); g.lookup.Load() != nil {
		t.Error("subset Gather must not carry the lookup")
	}

	// Mutation drops only the mutated index's reference...
	key := []Value{Str("d"), Int64(5)}
	if err := ix.AppendKey(key); err != nil {
		t.Fatal(err)
	}
	if ix.lookup.Load() != nil {
		t.Error("AppendKey did not invalidate the lookup")
	}
	if cp.lookup.Load() != built {
		t.Error("mutating the original invalidated the copy's lookup")
	}
	// ...and the rebuilt lookup sees the new row.
	if rows := ix.Lookup(key); len(rows) != 1 || rows[0] != 4 {
		t.Fatalf("post-mutation Lookup = %v, want [4]", rows)
	}
	// The copy still answers from its shared (pre-mutation) structure.
	if cp.Contains(key) {
		t.Error("copy sees a row appended only to the original")
	}
	if rows := cp.Lookup([]Value{Str("a"), Int64(1)}); len(rows) != 1 || rows[0] != 2 {
		t.Fatalf("copy Lookup = %v, want [2]", rows)
	}
}

// TestFrameCopySharesWarmLookup: Frame.Copy and whole-frame SelectRows
// ride the same sharing path — no lookup rebuild on either side.
func TestFrameCopySharesWarmLookup(t *testing.T) {
	f := MustFrame(
		MustIndex(NewStringSeries("node", []string{"a", "b", "c"})),
		NewFloatSeries("time", []float64{1, 2, 3}),
	)
	f.Index().HasDuplicates()
	built := f.index.lookup.Load()
	if built == nil {
		t.Fatal("first use did not build the lookup")
	}
	if cp := f.Copy(); cp.index.lookup.Load() != built {
		t.Error("Frame.Copy rebuilt the index lookup")
	}
	if sel := f.SelectRows([]int{0, 1, 2}); sel.index.lookup.Load() != built {
		t.Error("identity SelectRows rebuilt the index lookup")
	}
	if sel := f.SelectRows([]int{2, 0}); sel.index.lookup.Load() != nil {
		t.Error("subset SelectRows must not carry the lookup")
	}
}

// TestIndexConcurrentFirstUse: readers that hit a fresh index at the
// same time each may build the lookup, but exactly one is published and
// every reader answers from a correct structure. Run under -race.
func TestIndexConcurrentFirstUse(t *testing.T) {
	const n = 2000
	nodes := make([]string, n)
	trials := make([]int64, n)
	for i := range nodes {
		nodes[i] = string(rune('a' + i%7))
		trials[i] = int64(i / 7)
	}
	ix := MustIndex(NewStringSeries("node", nodes), NewIntSeries("trial", trials))
	const readers = 8
	var wg sync.WaitGroup
	got := make([]*indexLookup, readers)
	for g := 0; g < readers; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			if g%2 == 0 {
				if ix.HasDuplicates() {
					t.Error("HasDuplicates on unique keys = true")
				}
			} else {
				r := (g * 131) % n
				if rows := ix.Lookup(ix.KeyAt(r)); len(rows) != 1 || rows[0] != r {
					t.Errorf("Lookup(row %d) = %v", r, rows)
				}
			}
			got[g] = ix.lookup.Load()
		}(g)
	}
	wg.Wait()
	for g, lk := range got {
		if lk == nil || lk != got[0] {
			t.Fatalf("reader %d saw lookup %p, reader 0 saw %p: one structure must win", g, lk, got[0])
		}
	}
}

func allNullSeries(name string, k Kind, n int) *Series {
	s := NewSeries(name, k)
	s.AppendNulls(n)
	return s
}

// TestConcatRowsOuterAllNull: columns that are entirely null — in one
// frame or in every frame — union correctly and keep their declared kind.
func TestConcatRowsOuterAllNull(t *testing.T) {
	a := MustFrame(
		MustIndex(NewStringSeries("node", []string{"x", "y"})),
		NewFloatSeries("time", []float64{1, 2}),
		allNullSeries("extra", Int, 2),
	)
	b := MustFrame(
		MustIndex(NewStringSeries("node", []string{"z"})),
		NewFloatSeries("time", []float64{3}),
	)
	cat, err := ConcatRowsOuter(a, b)
	if err != nil {
		t.Fatal(err)
	}
	ref, err := refConcatRowsOuter(a, b)
	if err != nil {
		t.Fatal(err)
	}
	if !ref.Equal(cat) {
		t.Fatal("all-null concat differs from reference")
	}
	col, err := cat.Column(ColKey{"extra"})
	if err != nil {
		t.Fatal(err)
	}
	if col.Kind() != Int {
		t.Fatalf("all-null column kind = %v, want Int", col.Kind())
	}
	for r := 0; r < cat.NRows(); r++ {
		if !col.At(r).IsNull() {
			t.Fatalf("row %d of all-null union column is %v", r, col.At(r))
		}
	}

	// All-null string column meeting an all-null float column of the same
	// name still conflicts on declared kind.
	c := MustFrame(
		MustIndex(NewStringSeries("node", []string{"w"})),
		NewFloatSeries("time", []float64{4}),
		allNullSeries("extra", String, 1),
	)
	if _, err := ConcatRowsOuter(a, c); err == nil || !strings.Contains(err.Error(), "conflicting kinds") {
		t.Fatalf("conflicting all-null kinds: err = %v", err)
	}
}

// TestConcatRowsOuterDuplicateKeys: duplicate index keys are legal in a
// row concat; every occurrence survives in order.
func TestConcatRowsOuterDuplicateKeys(t *testing.T) {
	a := MustFrame(
		MustIndex(NewStringSeries("node", []string{"x", "x", "y"})),
		NewFloatSeries("time", []float64{1, 2, 3}),
	)
	b := MustFrame(
		MustIndex(NewStringSeries("node", []string{"x"})),
		NewFloatSeries("time", []float64{4}),
	)
	cat, err := ConcatRowsOuter(a, b)
	if err != nil {
		t.Fatal(err)
	}
	rows := cat.Index().Lookup([]Value{Str("x")})
	if len(rows) != 3 {
		t.Fatalf("duplicate key x has %d rows, want 3", len(rows))
	}
	want := []float64{1, 2, 4}
	for i, r := range rows {
		v, err := cat.Cell(r, ColKey{"time"})
		if err != nil || v.Float() != want[i] {
			t.Fatalf("x occurrence %d = %v, want %v", i, v, want[i])
		}
	}
}

// TestConcatRowsOuterEmptyFrames: zero-row inputs contribute nothing but
// still widen the union and check kinds.
func TestConcatRowsOuterEmptyFrames(t *testing.T) {
	empty := MustFrame(
		MustIndex(NewStringSeries("node", nil)),
		NewFloatSeries("time", nil),
		NewIntSeries("reps", nil),
	)
	a := MustFrame(
		MustIndex(NewStringSeries("node", []string{"x"})),
		NewFloatSeries("time", []float64{1}),
	)
	cat, err := ConcatRowsOuter(empty, a, empty)
	if err != nil {
		t.Fatal(err)
	}
	if cat.NRows() != 1 || cat.NCols() != 2 {
		t.Fatalf("shape = (%d,%d), want (1,2)", cat.NRows(), cat.NCols())
	}
	if v, _ := cat.Cell(0, ColKey{"reps"}); !v.IsNull() {
		t.Fatalf("reps cell = %v, want null (column only in empty frame)", v)
	}

	// All inputs empty: a valid zero-row union.
	cat, err = ConcatRowsOuter(empty, empty)
	if err != nil {
		t.Fatal(err)
	}
	if cat.NRows() != 0 || cat.NCols() != 2 {
		t.Fatalf("empty-only shape = (%d,%d), want (0,2)", cat.NRows(), cat.NCols())
	}

	// A zero-row frame still causes kind conflicts.
	conflict := MustFrame(
		MustIndex(NewStringSeries("node", nil)),
		NewStringSeries("time", nil),
	)
	if _, err := ConcatRowsOuter(a, conflict); err == nil {
		t.Fatal("zero-row kind conflict not detected")
	}
}

// TestPivotNullKeys: rows whose row- or column-key is null are skipped,
// and the unique key sets exclude nulls.
func TestPivotNullKeys(t *testing.T) {
	node := NewSeries("node", String)
	group := NewSeries("group", String)
	val := NewSeries("v", Float)
	for _, row := range []struct {
		n, g string
		v    float64
	}{
		{"a", "g0", 1},
		{"", "g0", 100}, // null node
		{"a", "", 100},  // null group
		{"b", "g1", 2},
		{"a", "g1", 3},
	} {
		if row.n == "" {
			node.Append(Null(String))
		} else {
			node.Append(Str(row.n))
		}
		if row.g == "" {
			group.Append(Null(String))
		} else {
			group.Append(Str(row.g))
		}
		val.Append(Float64(row.v))
	}
	f := MustFrame(RangeIndex("i", 5), node, group, val)
	sum := func(vs []float64) float64 {
		s := 0.0
		for _, v := range vs {
			s += v
		}
		return s
	}
	p, err := f.Pivot("node", "group", "v", sum)
	if err != nil {
		t.Fatal(err)
	}
	if p.NRows() != 2 || p.NCols() != 2 {
		t.Fatalf("shape = (%d,%d), want (2,2)", p.NRows(), p.NCols())
	}
	total := 0.0
	for c := 0; c < p.NCols(); c++ {
		for r := 0; r < p.NRows(); r++ {
			if v, ok := p.ColumnAt(c).At(r).AsFloat(); ok {
				total += v
			}
		}
	}
	if total != 6 {
		t.Fatalf("total = %v, want 6 (null-keyed rows must be skipped)", total)
	}
}

// TestPivotEmptyKeys: an all-null key column or a zero-row frame leaves
// no keys to pivot over, which is an error (not a panic or empty frame).
func TestPivotEmptyKeys(t *testing.T) {
	sum := func(vs []float64) float64 { return float64(len(vs)) }
	allNull := MustFrame(
		RangeIndex("i", 3),
		allNullSeries("node", String, 3),
		NewStringSeries("group", []string{"g", "g", "g"}),
		NewFloatSeries("v", []float64{1, 2, 3}),
	)
	if _, err := allNull.Pivot("node", "group", "v", sum); err == nil {
		t.Error("all-null row keys must error")
	}
	if _, err := allNull.Pivot("group", "node", "v", sum); err == nil {
		t.Error("all-null column keys must error")
	}
	empty := MustFrame(
		RangeIndex("i", 0),
		NewStringSeries("node", nil),
		NewStringSeries("group", nil),
		NewFloatSeries("v", nil),
	)
	if _, err := empty.Pivot("node", "group", "v", sum); err == nil {
		t.Error("zero-row pivot must error")
	}
}

// TestPivotDuplicateCells: every occurrence of a duplicated (row, col)
// pair reaches the aggregator, in row order.
func TestPivotDuplicateCells(t *testing.T) {
	f := MustFrame(
		RangeIndex("i", 4),
		NewStringSeries("node", []string{"a", "a", "a", "b"}),
		NewStringSeries("group", []string{"g", "g", "g", "g"}),
		NewFloatSeries("v", []float64{10, 20, 30, 5}),
	)
	last := func(vs []float64) float64 { return vs[len(vs)-1] }
	p, err := f.Pivot("node", "group", "v", last)
	if err != nil {
		t.Fatal(err)
	}
	rows := p.Index().Lookup([]Value{Str("a")})
	v, err := p.Cell(rows[0], ColKey{"g"})
	if err != nil || v.Float() != 30 {
		t.Fatalf("last(a,g) = %v, want 30 (samples must arrive in row order)", v)
	}
}

// TestGroupByAllNullColumn: grouping on an all-null column yields one
// group keyed by null.
func TestGroupByAllNullColumn(t *testing.T) {
	f := MustFrame(
		RangeIndex("i", 3),
		allNullSeries("g", String, 3),
		NewFloatSeries("v", []float64{1, 2, 3}),
	)
	groups, err := f.GroupBy("g")
	if err != nil {
		t.Fatal(err)
	}
	if len(groups) != 1 {
		t.Fatalf("%d groups, want 1", len(groups))
	}
	if !groups[0].Key[0].IsNull() {
		t.Fatalf("group key = %v, want null", groups[0].Key[0])
	}
	if groups[0].Frame.NRows() != 3 {
		t.Fatalf("group has %d rows, want 3", groups[0].Frame.NRows())
	}
	// NaN floats group with nulls (missing semantics).
	f2 := MustFrame(
		RangeIndex("i", 3),
		NewFloatSeries("g", []float64{math.NaN(), math.NaN(), 1}),
		NewFloatSeries("v", []float64{1, 2, 3}),
	)
	groups, err = f2.GroupBy("g")
	if err != nil {
		t.Fatal(err)
	}
	if len(groups) != 2 {
		t.Fatalf("%d groups, want 2 (NaN collapses with null)", len(groups))
	}
}
