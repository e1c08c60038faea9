package dataframe

import (
	"fmt"
	"math"
	"math/rand"
	"slices"
	"strings"
	"testing"
)

// appendConcatRowsOuter is ConcatRowsOuter as it was before ConcatParts:
// one AppendSeries per frame into growing columns. It is the reference
// for the dictionary word order, the raw cells under null flags and the
// error texts.
func appendConcatRowsOuter(frames ...*Frame) (*Frame, error) {
	if len(frames) == 0 {
		return nil, fmt.Errorf("dataframe: ConcatRowsOuter requires at least one frame")
	}
	first := frames[0]
	for i, f := range frames[1:] {
		if f.index.NLevels() != first.index.NLevels() {
			return nil, fmt.Errorf("dataframe: frame %d has %d index levels, want %d", i+1, f.index.NLevels(), first.index.NLevels())
		}
		for l, name := range f.index.Names() {
			if name != first.index.Names()[l] {
				return nil, fmt.Errorf("dataframe: frame %d index level %d is %q, want %q", i+1, l, name, first.index.Names()[l])
			}
		}
	}
	var keys []ColKey
	var encs []string
	kinds := map[string]Kind{}
	for _, f := range frames {
		for c := 0; c < f.NCols(); c++ {
			k := f.cols.Key(c)
			enc := k.encode()
			if kind, seen := kinds[enc]; seen {
				if kind != f.data[c].Kind() {
					return nil, fmt.Errorf("dataframe: column %v has conflicting kinds %s and %s", k, kind, f.data[c].Kind())
				}
				continue
			}
			kinds[enc] = f.data[c].Kind()
			keys = append(keys, k.Copy())
			encs = append(encs, enc)
		}
	}
	levels := make([]*Series, first.index.NLevels())
	for l := range levels {
		levels[l] = NewSeries(first.index.Names()[l], first.index.Level(l).Kind())
	}
	cols := make([]*Series, len(keys))
	for i, k := range keys {
		cols[i] = NewSeries(k.Leaf(), kinds[encs[i]])
	}
	for _, f := range frames {
		for l := range levels {
			if err := levels[l].AppendSeries(f.index.Level(l)); err != nil {
				return nil, err
			}
		}
		for i := range keys {
			pos, ok := f.cols.lookup[encs[i]]
			if !ok {
				cols[i].AppendNulls(f.NRows())
				continue
			}
			if err := cols[i].AppendSeries(f.data[pos]); err != nil {
				return nil, err
			}
		}
	}
	ix, err := NewIndex(levels...)
	if err != nil {
		return nil, err
	}
	return NewFrameWithColIndex(ix, keys, cols)
}

// selectThenConcat is the two-step form ConcatParts replaces: SelectRows
// per part, then the reference concatenation.
func selectThenConcat(parts []Part) (*Frame, error) {
	frames := make([]*Frame, len(parts))
	for i, p := range parts {
		frames[i] = p.Frame
		if !p.All {
			frames[i] = p.Frame.SelectRows(p.Rows)
		}
	}
	return appendConcatRowsOuter(frames...)
}

// sameSeriesBits compares two series down to their storage: name, kind,
// null flags, raw values under them (float bits), dictionary words in
// code order and codes.
func sameSeriesBits(a, b *Series) error {
	if a.name != b.name || a.kind != b.kind || a.Len() != b.Len() {
		return fmt.Errorf("series %q/%s/%d vs %q/%s/%d", a.name, a.kind, a.Len(), b.name, b.kind, b.Len())
	}
	if !slices.Equal(a.null, b.null) {
		return fmt.Errorf("series %q: null flags differ", a.name)
	}
	switch a.kind {
	case Float:
		for i := range a.f {
			if math.Float64bits(a.f[i]) != math.Float64bits(b.f[i]) {
				return fmt.Errorf("series %q row %d: %v vs %v", a.name, i, a.f[i], b.f[i])
			}
		}
	case Int:
		if !slices.Equal(a.i, b.i) {
			return fmt.Errorf("series %q: ints differ", a.name)
		}
	case Bool:
		if !slices.Equal(a.b, b.b) {
			return fmt.Errorf("series %q: bools differ", a.name)
		}
	case String:
		if !slices.Equal(a.dict.Words(), b.dict.Words()) {
			return fmt.Errorf("series %q: dictionaries %q vs %q", a.name, a.dict.Words(), b.dict.Words())
		}
		if !slices.Equal(a.sc, b.sc) {
			return fmt.Errorf("series %q: codes differ", a.name)
		}
	}
	return nil
}

// sameFrameBits compares two frames level by level and column by column
// with sameSeriesBits, keys included.
func sameFrameBits(a, b *Frame) error {
	if !slices.Equal(a.index.names, b.index.names) || a.NCols() != b.NCols() {
		return fmt.Errorf("shape: levels %q vs %q, %d vs %d columns", a.index.names, b.index.names, a.NCols(), b.NCols())
	}
	for l := range a.index.levels {
		if err := sameSeriesBits(a.index.levels[l], b.index.levels[l]); err != nil {
			return fmt.Errorf("level %d: %w", l, err)
		}
	}
	for c := 0; c < a.NCols(); c++ {
		if !a.cols.Key(c).Equal(b.cols.Key(c)) {
			return fmt.Errorf("column %d: key %q vs %q", c, a.cols.Key(c), b.cols.Key(c))
		}
		if err := sameSeriesBits(a.data[c], b.data[c]); err != nil {
			return fmt.Errorf("column %v: %w", a.cols.Key(c), err)
		}
	}
	return nil
}

// driftFrame is diffFrame with a drifting schema: a random subset of its
// columns in random order, under group when that is not empty, plus
// sometimes a float column of edge values and sometimes a string column
// whose dictionary holds unused words in a scrambled code order.
func driftFrame(rng *rand.Rand, nRows int, group string) *Frame {
	f := diffFrame(rng, nRows, rng.Intn(2) == 0)
	var keys []ColKey
	for _, c := range rng.Perm(f.NCols()) {
		if rng.Intn(4) != 0 {
			keys = append(keys, f.cols.Key(c))
		}
	}
	out, err := f.SelectColumns(keys)
	if err != nil {
		panic(err)
	}
	key := func(name string) ColKey { return ColKey{name} }
	if group != "" {
		out.cols = out.cols.Prefixed(group)
		key = func(name string) ColKey { return ColKey{group, name} }
	}
	if rng.Intn(2) == 0 {
		vals := make([]float64, nRows)
		for r := range vals {
			vals[r] = []float64{0, math.Copysign(0, -1), 1e-6, 1e21, math.NaN()}[rng.Intn(5)]
		}
		if err := out.AddColumnWithKey(key("edge"), NewFloatSeries("edge", vals)); err != nil {
			panic(err)
		}
	}
	if rng.Intn(2) == 0 {
		dict := NewDict()
		for _, w := range rng.Perm(6) {
			dict.Intern(fmt.Sprintf("w%d", w))
		}
		codes := make([]uint32, nRows)
		nulls := make([]bool, nRows)
		for r := range codes {
			codes[r] = uint32(rng.Intn(3)) // half the words stay unused
			nulls[r] = rng.Intn(5) == 0
		}
		s, err := NewStringSeriesFromCodes("label", dict, codes, nulls)
		if err != nil {
			panic(err)
		}
		if err := out.AddColumnWithKey(key("label"), s); err != nil {
			panic(err)
		}
	}
	return out
}

// randomPart takes every row, none, all of them listed, or a random
// list with repeats and out-of-order rows.
func randomPart(rng *rand.Rand, f *Frame) Part {
	switch rng.Intn(5) {
	case 0:
		return AllRows(f)
	case 1:
		return Part{Frame: f} // empty selection: no rows
	case 2:
		rows := make([]int, f.NRows())
		for r := range rows {
			rows[r] = r
		}
		return Part{Frame: f, Rows: rows}
	}
	rows := []int{}
	for n := rng.Intn(f.NRows() + 1); n > 0; n-- {
		rows = append(rows, rng.Intn(f.NRows()))
	}
	if rng.Intn(2) == 0 {
		slices.Sort(rows)
	}
	return Part{Frame: f, Rows: rows}
}

// TestDifferentialConcatParts: the one-pass gather must equal SelectRows
// of every part followed by the pre-gather concatenation, down to the
// storage, at every worker count; ConcatRowsOuter, its all-rows case,
// must equal that concatenation too.
func TestDifferentialConcatParts(t *testing.T) {
	for seed := int64(0); seed < 40; seed++ {
		rng := rand.New(rand.NewSource(900 + seed))
		frames := make([]*Frame, 1+rng.Intn(4))
		parts := make([]Part, len(frames))
		groups := []string{""}
		if seed%2 == 1 {
			groups = []string{"CPU", "GPU"}
		}
		for i := range frames {
			frames[i] = driftFrame(rng, 1+rng.Intn(60), groups[rng.Intn(len(groups))])
			if rng.Intn(6) == 0 {
				frames[i] = frames[i].SelectRows(nil) // zero-row frame
			}
			parts[i] = randomPart(rng, frames[i])
		}
		if rng.Intn(3) == 0 && len(frames) > 1 {
			// Two parts cut from one frame share its dictionaries.
			parts[len(parts)-1] = randomPart(rng, frames[0])
		}
		want, wantErr := selectThenConcat(parts)
		eachWorkerCount(t, func(t *testing.T) {
			got, err := ConcatParts(parts...)
			if fmt.Sprint(err) != fmt.Sprint(wantErr) {
				t.Fatalf("seed %d: error %v, reference %v", seed, err, wantErr)
			}
			if err != nil {
				return
			}
			if err := sameFrameBits(want, got); err != nil {
				t.Fatalf("seed %d: %v", seed, err)
			}
		})
		want, wantErr = appendConcatRowsOuter(frames...)
		got, err := ConcatRowsOuter(frames...)
		if fmt.Sprint(err) != fmt.Sprint(wantErr) {
			t.Fatalf("seed %d: ConcatRowsOuter error %v, reference %v", seed, err, wantErr)
		}
		if err == nil {
			if err := sameFrameBits(want, got); err != nil {
				t.Fatalf("seed %d: ConcatRowsOuter: %v", seed, err)
			}
		}
	}
}

// TestConcatPartsEdges: every failure the pre-gather concatenation
// reported comes back with the same text, a part's whole schema counts
// even when it takes no rows, an empty or nil row list takes no rows,
// never every row, and an index level of another kind fails only when a
// row it contributes is not null.
func TestConcatPartsEdges(t *testing.T) {
	idx := func(name string, vals ...string) *Index { return MustIndex(NewStringSeries(name, vals)) }
	a := MustFrame(idx("node", "x", "y"), NewFloatSeries("time", []float64{1, 2}))
	twoLevels := MustFrame(MustIndex(NewStringSeries("node", []string{"z"}), NewIntSeries("rank", []int64{0})))
	renamed := MustFrame(idx("path", "z"), NewFloatSeries("time", []float64{3}))
	conflict := MustFrame(idx("node", "z"), NewStringSeries("time", []string{"slow"}))
	// A float node level: row 0 is NaN (null), row 1 is not.
	floatNode := MustFrame(MustIndex(NewFloatSeries("node", []float64{math.NaN(), 7})), NewFloatSeries("time", []float64{4, 5}))
	// Two mismatched levels in two frames: the first frame's level 1
	// fails before the second frame's level 0.
	lvA := MustFrame(MustIndex(NewStringSeries("node", []string{"x"}), NewIntSeries("rank", []int64{0})))
	lvB := MustFrame(MustIndex(NewStringSeries("node", []string{"y"}), NewStringSeries("rank", []string{"r"})))
	lvC := MustFrame(MustIndex(NewIntSeries("node", []int64{1}), NewIntSeries("rank", []int64{1})))

	for _, tc := range []struct {
		name  string
		parts []Part
		err   string // "" when the concatenation succeeds
	}{
		{"no parts", nil, "requires at least one frame"},
		{"level count", []Part{AllRows(a), AllRows(twoLevels)}, "frame 1 has 2 index levels, want 1"},
		{"level name", []Part{AllRows(a), AllRows(renamed)}, `frame 1 index level 0 is "path", want "node"`},
		{"kind conflict", []Part{AllRows(a), AllRows(conflict)}, "conflicting kinds"},
		{"kind conflict, empty selection", []Part{AllRows(a), {Frame: conflict}}, "conflicting kinds"},
		{"empty row lists take no rows", []Part{{Frame: a, Rows: []int{}}, {Frame: a, Rows: nil}, {Frame: a, Rows: []int{1}}}, ""},
		{"level kind, null rows only", []Part{AllRows(a), {Frame: floatNode, Rows: []int{0, 0}}}, ""},
		{"level kind, no rows", []Part{AllRows(a), {Frame: floatNode}}, ""},
		{"level kind, non-null row", []Part{AllRows(a), {Frame: floatNode, Rows: []int{0, 1}}}, `series "node" holds string, cannot append float`},
		{"level kind, every row", []Part{AllRows(a), AllRows(floatNode)}, `series "node" holds string, cannot append float`},
		{"level order", []Part{AllRows(lvA), AllRows(lvB), AllRows(lvC)}, `series "rank" holds int, cannot append string`},
	} {
		want, wantErr := selectThenConcat(tc.parts)
		got, err := ConcatParts(tc.parts...)
		if fmt.Sprint(err) != fmt.Sprint(wantErr) {
			t.Fatalf("%s: error %v, reference %v", tc.name, err, wantErr)
		}
		if tc.err == "" {
			if err != nil {
				t.Fatalf("%s: %v", tc.name, err)
			}
			if err := sameFrameBits(want, got); err != nil {
				t.Fatalf("%s: %v", tc.name, err)
			}
			continue
		}
		if err == nil || !strings.Contains(err.Error(), tc.err) {
			t.Fatalf("%s: error %v, want %q", tc.name, err, tc.err)
		}
	}
}
