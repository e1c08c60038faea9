package dataframe

import (
	"fmt"
	"math"
	"math/rand"
	"testing"

	"repro/internal/parallel"
)

// This file is the differential harness for the integer-key kernel
// rewrite: the pre-rewrite string-key implementations (EncodeKey maps,
// per-cell appends) are preserved here as executable references, and
// every hot kernel is checked bit-for-bit against them on randomized
// frames — at one worker and at several, since the engine's determinism
// contract requires identical output at any parallelism.

// ---- reference implementations (string-keyed, pre-rewrite) ------------

type refBucket struct {
	key  []Value
	rows []int
}

// refPartition is the old sequential EncodeKey partition: buckets in
// first-appearance order, rows ascending.
func refPartition(n int, keyAt func(r int) []Value) (map[string]*refBucket, []string) {
	byKey := make(map[string]*refBucket)
	var order []string
	for r := 0; r < n; r++ {
		key := keyAt(r)
		enc := EncodeKey(key)
		b, ok := byKey[enc]
		if !ok {
			b = &refBucket{key: key}
			byKey[enc] = b
			order = append(order, enc)
		}
		b.rows = append(b.rows, r)
	}
	return byKey, order
}

func refGroupBy(t testing.TB, f *Frame, names ...string) []Group {
	t.Helper()
	cols := make([]*Series, len(names))
	for i, n := range names {
		c, err := f.seriesByName(n)
		if err != nil {
			t.Fatal(err)
		}
		cols[i] = c
	}
	byKey, order := refPartition(f.NRows(), func(r int) []Value {
		key := make([]Value, len(cols))
		for i, c := range cols {
			key[i] = c.At(r)
		}
		return key
	})
	// Old GroupBy sorted the order slice by key.
	ordered := append([]string(nil), order...)
	for i := 1; i < len(ordered); i++ {
		for j := i; j > 0 && CompareKeys(byKey[ordered[j]].key, byKey[ordered[j-1]].key) < 0; j-- {
			ordered[j], ordered[j-1] = ordered[j-1], ordered[j]
		}
	}
	groups := make([]Group, len(ordered))
	for i, enc := range ordered {
		b := byKey[enc]
		groups[i] = Group{Key: b.key, Frame: f.SelectRows(b.rows)}
	}
	return groups
}

// refLookup is the old Index lookup: an EncodeKey map built per index.
func refLookup(ix *Index, key []Value) []int {
	m := make(map[string][]int)
	for r := 0; r < ix.NRows(); r++ {
		enc := EncodeKey(ix.KeyAt(r))
		m[enc] = append(m[enc], r)
	}
	if len(key) != ix.NLevels() {
		return nil
	}
	return m[EncodeKey(key)]
}

// refInnerJoin is the old InnerJoinOnIndex: per-key Lookup through
// EncodeKey maps.
func refInnerJoin(groups []string, frames []*Frame) (*Frame, error) {
	base := frames[0]
	for i, f := range frames {
		if f.index.HasDuplicates() {
			return nil, fmt.Errorf("frame %d has duplicate keys", i)
		}
	}
	maps := make([]map[string]int, len(frames))
	for i, f := range frames {
		m := make(map[string]int, f.NRows())
		for r := 0; r < f.NRows(); r++ {
			m[EncodeKey(f.index.KeyAt(r))] = r
		}
		maps[i] = m
	}
	var keys [][]Value
	for r := 0; r < base.NRows(); r++ {
		key := base.index.KeyAt(r)
		enc := EncodeKey(key)
		ok := true
		for i := 1; i < len(frames); i++ {
			if _, present := maps[i][enc]; !present {
				ok = false
				break
			}
		}
		if ok {
			keys = append(keys, key)
		}
	}
	levels := make([]*Series, base.index.NLevels())
	for l := 0; l < base.index.NLevels(); l++ {
		levels[l] = NewSeries(base.index.Names()[l], base.index.Level(l).Kind())
	}
	for _, key := range keys {
		for l, v := range key {
			if err := levels[l].Append(v); err != nil {
				return nil, err
			}
		}
	}
	outIndex, err := NewIndex(levels...)
	if err != nil {
		return nil, err
	}
	var outKeys []ColKey
	var outCols []*Series
	for gi, f := range frames {
		rows := make([]int, len(keys))
		for ki, key := range keys {
			rows[ki] = maps[gi][EncodeKey(key)]
		}
		pref := f.cols.Prefixed(groups[gi])
		for c := 0; c < f.NCols(); c++ {
			outKeys = append(outKeys, pref.Key(c))
			outCols = append(outCols, f.data[c].Gather(rows))
		}
	}
	return NewFrameWithColIndex(outIndex, outKeys, outCols)
}

// refConcatRowsOuter is the old per-cell append union concatenation.
func refConcatRowsOuter(frames ...*Frame) (*Frame, error) {
	first := frames[0]
	var keys []ColKey
	kinds := map[string]Kind{}
	seen := map[string]bool{}
	for _, f := range frames {
		for c := 0; c < f.NCols(); c++ {
			k := f.cols.Key(c)
			enc := k.encode()
			if seen[enc] {
				if kinds[enc] != f.data[c].Kind() {
					return nil, fmt.Errorf("conflicting kinds for %v", k)
				}
				continue
			}
			seen[enc] = true
			kinds[enc] = f.data[c].Kind()
			keys = append(keys, k.Copy())
		}
	}
	levels := make([]*Series, first.index.NLevels())
	for l := range levels {
		levels[l] = NewSeries(first.index.Names()[l], first.index.Level(l).Kind())
	}
	cols := make([]*Series, len(keys))
	for i, k := range keys {
		cols[i] = NewSeries(k.Leaf(), kinds[k.encode()])
	}
	for _, f := range frames {
		pos := make([]int, len(keys))
		for i, k := range keys {
			pos[i] = f.cols.Find(k)
		}
		for r := 0; r < f.NRows(); r++ {
			for l, v := range f.index.KeyAt(r) {
				if err := levels[l].Append(v); err != nil {
					return nil, err
				}
			}
			for i := range keys {
				v := Null(cols[i].Kind())
				if pos[i] >= 0 {
					v = f.data[pos[i]].At(r)
				}
				if err := cols[i].Append(v); err != nil {
					return nil, err
				}
			}
		}
	}
	ix, err := NewIndex(levels...)
	if err != nil {
		return nil, err
	}
	return NewFrameWithColIndex(ix, keys, cols)
}

// refPivot is the old EncodeKey-map pivot (sequential).
func refPivot(t testing.TB, f *Frame, rowName, colName, valueName string, agg func([]float64) float64) *Frame {
	t.Helper()
	rowS, _ := f.seriesByName(rowName)
	colS, _ := f.seriesByName(colName)
	valS, _ := f.seriesByName(valueName)
	rowKeys := rowS.Uniques()
	colKeys := colS.Uniques()
	if len(rowKeys) == 0 || len(colKeys) == 0 {
		t.Fatal("pivot over empty keys")
	}
	rowPos := map[string]int{}
	for i, k := range rowKeys {
		rowPos[EncodeKey([]Value{k})] = i
	}
	colPos := map[string]int{}
	for i, k := range colKeys {
		colPos[EncodeKey([]Value{k})] = i
	}
	cells := make([][][]float64, len(rowKeys))
	for i := range cells {
		cells[i] = make([][]float64, len(colKeys))
	}
	for r := 0; r < f.NRows(); r++ {
		rv, cv := rowS.At(r), colS.At(r)
		if rv.IsNull() || cv.IsNull() {
			continue
		}
		v, ok := valS.At(r).AsFloat()
		if !ok {
			continue
		}
		ri := rowPos[EncodeKey([]Value{rv})]
		ci := colPos[EncodeKey([]Value{cv})]
		cells[ri][ci] = append(cells[ri][ci], v)
	}
	idxSeries := NewSeries(rowName, rowKeys[0].Kind())
	for _, k := range rowKeys {
		if err := idxSeries.Append(k); err != nil {
			t.Fatal(err)
		}
	}
	ix, err := NewIndex(idxSeries)
	if err != nil {
		t.Fatal(err)
	}
	columns := make([]*Series, len(colKeys))
	for ci := range colKeys {
		data := make([]float64, len(rowKeys))
		for ri := range rowKeys {
			if len(cells[ri][ci]) == 0 {
				data[ri] = math.NaN()
				continue
			}
			data[ri] = agg(cells[ri][ci])
		}
		columns[ci] = NewFloatSeries(colKeys[ci].String(), data)
	}
	out, err := NewFrame(ix, columns...)
	if err != nil {
		t.Fatal(err)
	}
	return out
}

// ---- randomized frame generator ---------------------------------------

// diffFrame builds a random frame with a two-level (node, trial) index,
// groupable columns of every scalar kind, nulls, NaNs, and (optionally)
// duplicate index keys.
func diffFrame(rng *rand.Rand, nRows int, uniqueIndex bool) *Frame {
	nodes := []string{"main", "solve", "io", "mult", "halo"}
	node := NewSeries("node", String)
	trial := NewSeries("trial", Int)
	group := NewSeries("group", String)
	scale := NewSeries("scale", Int)
	tuned := NewSeries("tuned", Bool)
	ratio := NewSeries("ratio", Float)
	tm := NewSeries("time", Float)
	for r := 0; r < nRows; r++ {
		if uniqueIndex {
			node.Append(Str(fmt.Sprintf("n%d", r%7)))
			trial.Append(Int64(int64(r / 7)))
		} else {
			node.Append(Str(nodes[rng.Intn(len(nodes))]))
			trial.Append(Int64(int64(rng.Intn(4))))
		}
		if rng.Intn(10) == 0 {
			group.Append(Null(String))
		} else {
			group.Append(Str(fmt.Sprintf("g%d", rng.Intn(3))))
		}
		if rng.Intn(10) == 0 {
			scale.Append(Null(Int))
		} else {
			scale.Append(Int64(int64(1 << rng.Intn(3))))
		}
		tuned.Append(BoolVal(rng.Intn(2) == 0))
		switch rng.Intn(12) {
		case 0:
			ratio.Append(Null(Float))
		case 1:
			ratio.Append(Float64(math.NaN()))
		default:
			ratio.Append(Float64(math.Floor(rng.Float64()*4) / 4))
		}
		tm.Append(Float64(rng.NormFloat64() * 10))
	}
	return MustFrame(MustIndex(node, trial), group, scale, tuned, ratio, tm)
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

func assertGroupsEqual(t *testing.T, label string, want, got []Group) {
	t.Helper()
	if len(want) != len(got) {
		t.Fatalf("%s: %d groups, want %d", label, len(got), len(want))
	}
	for i := range want {
		if CompareKeys(want[i].Key, got[i].Key) != 0 {
			t.Fatalf("%s: group %d key %v, want %v", label, i, got[i].Frame, want[i].Key)
		}
		if !want[i].Frame.Equal(got[i].Frame) {
			t.Fatalf("%s: group %d (%v) frame differs", label, i, want[i].Key)
		}
	}
}

// ---- differential tests ------------------------------------------------

func TestDifferentialGroupBy(t *testing.T) {
	for seed := int64(0); seed < 10; seed++ {
		f := diffFrame(rand.New(rand.NewSource(seed)), 200+int(seed)*37, false)
		want := refGroupBy(t, f, "group", "scale", "tuned")
		eachWorkerCount(t, func(t *testing.T) {
			got, err := f.GroupBy("group", "scale", "tuned")
			if err != nil {
				t.Fatal(err)
			}
			assertGroupsEqual(t, fmt.Sprintf("seed %d", seed), want, got)
		})

		// Grouping by an index level plus a float column with NaNs.
		want2 := refGroupBy(t, f, "node", "ratio")
		got2, err := f.GroupBy("node", "ratio")
		if err != nil {
			t.Fatal(err)
		}
		assertGroupsEqual(t, fmt.Sprintf("seed %d node+ratio", seed), want2, got2)
	}
}

func TestDifferentialIndexLookup(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	f := diffFrame(rng, 300, false)
	ix := f.Index()
	// Every existing key, plus absent and malformed ones.
	queries := [][]Value{}
	for r := 0; r < ix.NRows(); r += 3 {
		queries = append(queries, ix.KeyAt(r))
	}
	queries = append(queries,
		[]Value{Str("nope"), Int64(0)},
		[]Value{Str("main"), Int64(99)},
		[]Value{Null(String), Int64(1)},
		[]Value{Str("main")},                         // wrong arity
		[]Value{Int64(1), Str("main")},               // wrong kinds
		[]Value{Str("main"), Int64(1), Str("extra")}, // too long
	)
	for qi, key := range queries {
		want := refLookup(ix, key)
		got := ix.Lookup(key)
		if len(want) != len(got) {
			t.Fatalf("query %d (%v): %d rows, want %d", qi, FormatKey(key), len(got), len(want))
		}
		for i := range want {
			if want[i] != got[i] {
				t.Fatalf("query %d (%v): rows %v, want %v", qi, FormatKey(key), got, want)
			}
		}
		if ix.Contains(key) != (len(want) > 0) {
			t.Fatalf("query %d: Contains mismatch", qi)
		}
	}
}

func TestDifferentialInnerJoin(t *testing.T) {
	for seed := int64(0); seed < 8; seed++ {
		rng := rand.New(rand.NewSource(200 + seed))
		// Unique-keyed frames with overlapping but distinct key ranges.
		a := diffFrame(rng, 120, true)
		b := diffFrame(rng, 90, true)
		c := diffFrame(rng, 140, true)
		want, err := refInnerJoin([]string{"A", "B", "C"}, []*Frame{a, b, c})
		if err != nil {
			t.Fatal(err)
		}
		eachWorkerCount(t, func(t *testing.T) {
			got, err := InnerJoinOnIndex([]string{"A", "B", "C"}, []*Frame{a, b, c})
			if err != nil {
				t.Fatal(err)
			}
			if !want.Equal(got) {
				t.Fatalf("seed %d: join differs from reference", seed)
			}
		})
	}
}

func TestDifferentialConcatRowsOuter(t *testing.T) {
	for seed := int64(0); seed < 8; seed++ {
		rng := rand.New(rand.NewSource(300 + seed))
		frames := []*Frame{
			diffFrame(rng, 60, false),
			diffFrame(rng, 40, false),
			diffFrame(rng, 80, false),
		}
		// Drop a column from the middle frame so the union has holes.
		sub, err := frames[1].SelectColumns([]ColKey{{"group"}, {"time"}})
		if err != nil {
			t.Fatal(err)
		}
		frames[1] = sub
		want, err := refConcatRowsOuter(frames...)
		if err != nil {
			t.Fatal(err)
		}
		got, err := ConcatRowsOuter(frames...)
		if err != nil {
			t.Fatal(err)
		}
		if !want.Equal(got) {
			t.Fatalf("seed %d: outer concat differs from reference", seed)
		}
	}
}

func TestDifferentialPivot(t *testing.T) {
	sum := func(vs []float64) float64 {
		s := 0.0
		for _, v := range vs {
			s += v
		}
		return s
	}
	for seed := int64(0); seed < 8; seed++ {
		f := diffFrame(rand.New(rand.NewSource(400+seed)), 250, false)
		want := refPivot(t, f, "group", "scale", "time", sum)
		eachWorkerCount(t, func(t *testing.T) {
			got, err := f.Pivot("group", "scale", "time", sum)
			if err != nil {
				t.Fatal(err)
			}
			if !want.Equal(got) {
				t.Fatalf("seed %d: pivot differs from reference", seed)
			}
		})
	}
}

func TestDifferentialUniques(t *testing.T) {
	for seed := int64(0); seed < 6; seed++ {
		f := diffFrame(rand.New(rand.NewSource(500+seed)), 200, false)
		for c := 0; c < f.NCols(); c++ {
			s := f.ColumnAt(c)
			// Reference: sequential EncodeKey scan.
			seen := map[string]bool{}
			var want []Value
			for r := 0; r < s.Len(); r++ {
				v := s.At(r)
				if v.IsNull() {
					continue
				}
				enc := EncodeKey([]Value{v})
				if !seen[enc] {
					seen[enc] = true
					want = append(want, v)
				}
			}
			got := s.Uniques()
			if len(want) != len(got) {
				t.Fatalf("seed %d col %s: %d uniques, want %d", seed, s.Name(), len(got), len(want))
			}
			for i := range want {
				if !want[i].Equal(got[i]) {
					t.Fatalf("seed %d col %s: unique %d = %v, want %v", seed, s.Name(), i, got[i], want[i])
				}
			}
		}
	}
}

// refLocate is Locate as a sequential EncodeKey scan: the first row of
// every key, then one map probe per probe cell.
func refLocate(ix *Index, probe *Series) []int32 {
	first := make(map[string]int32)
	for r := ix.NRows() - 1; r >= 0; r-- {
		first[EncodeKey(ix.KeyAt(r))] = int32(r)
	}
	out := make([]int32, probe.Len())
	for r := range out {
		pos, ok := first[EncodeKey([]Value{probe.At(r)})]
		if !ok {
			pos = -1
		}
		out[r] = pos
	}
	return out
}

func TestDifferentialIndexLocate(t *testing.T) {
	assertLocate := func(t *testing.T, label string, ix *Index, probe *Series) {
		t.Helper()
		want, got := refLocate(ix, probe), ix.Locate(probe)
		if len(want) != len(got) {
			t.Fatalf("%s: %d positions, want %d", label, len(got), len(want))
		}
		for r := range want {
			if want[r] != got[r] {
				t.Fatalf("%s: cell %d (%v) -> %d, want %d", label, r, probe.At(r), got[r], want[r])
			}
		}
	}
	for seed := int64(0); seed < 6; seed++ {
		rng := rand.New(rand.NewSource(600 + seed))
		base, other := diffFrame(rng, 120, false), diffFrame(rng, 200, false)
		// Every column of base as a single-level index (repeated keys and
		// nulls included), probed with every column of other: same-kind
		// probes hit, cross-kind probes miss except on nulls.
		for c := 0; c < base.NCols(); c++ {
			ix := MustIndex(base.ColumnAt(c))
			for p := 0; p < other.NCols(); p++ {
				assertLocate(t, fmt.Sprintf("seed %d %s<-%s", seed, base.ColumnAt(c).Name(), other.ColumnAt(p).Name()),
					ix, other.ColumnAt(p))
			}
		}
		assertLocate(t, fmt.Sprintf("seed %d multi-level", seed), base.Index(), other.Index().Level(1))
	}
	// A unique Int index (the perf → metadata shape) probed in index
	// order with gaps, repeats, absent keys and nulls.
	rng := rand.New(rand.NewSource(42))
	for _, withNull := range []bool{false, true} {
		keys := rng.Perm(50)
		vals := make([]Value, len(keys))
		for i, k := range keys {
			vals[i] = Int64(int64(k))
		}
		if withNull {
			vals[rng.Intn(len(vals))] = Null(Int)
		}
		ix := MustIndex(mustSeries(t, "p", vals))
		var probe []Value
		for round := 0; round < 4; round++ {
			for _, v := range vals {
				switch rng.Intn(10) {
				case 0: // a profile missing from this node
				case 1:
					probe = append(probe, Int64(1000+int64(rng.Intn(5))))
				case 2:
					probe = append(probe, Null(Int))
				case 3:
					probe = append(probe, vals[rng.Intn(len(vals))])
				default:
					probe = append(probe, v)
				}
			}
		}
		assertLocate(t, fmt.Sprintf("unique int index, null %v", withNull), ix, mustSeries(t, "p", probe))
	}

	// Int 1 ≠ Float 1.0; an Int null, a Float NaN and a String null are
	// one key.
	ints := MustIndex(NewIntSeries("p", []int64{0, 1, 2}))
	withNull := MustIndex(mustSeries(t, "p", []Value{Int64(7), Null(Int), Int64(1)}))
	floats := mustSeries(t, "q", []Value{Float64(1), Float64(0), NaN(), Null(Float), Float64(2)})
	strs := mustSeries(t, "q", []Value{Str("1"), Null(String)})
	// A null Int cell stores 0, which must not match the probe's 0.
	zeros := mustSeries(t, "q", []Value{Int64(7), Int64(0), Int64(1), Null(Int)})
	for _, ix := range []*Index{ints, withNull} {
		assertLocate(t, "int<-float", ix, floats)
		assertLocate(t, "int<-string", ix, strs)
		assertLocate(t, "int<-int", ix, zeros)
	}
	if got := withNull.Locate(floats); got[2] != 1 || got[3] != 1 || got[0] != -1 {
		t.Fatalf("null-blind, kind-aware identity broken: %v", got)
	}
}

// mustSeries builds a series from values or fails the test.
func mustSeries(t *testing.T, name string, vals []Value) *Series {
	t.Helper()
	s, err := SeriesOf(name, vals)
	if err != nil {
		t.Fatal(err)
	}
	return s
}

// refEncodeColKey is the fmt-based ColKey encoding that encode replaced.
func refEncodeColKey(k ColKey) string {
	out := ""
	for _, p := range k {
		out += fmt.Sprintf("%d:", len(p)) + p + "|"
	}
	return out
}

// TestDifferentialColKeyEncode: the buffer-built encoding must produce
// the fmt reference's bytes for every key shape — no levels, empty
// labels, several levels, multi-byte labels and separator characters
// inside labels — and, like it, keep distinct keys apart.
func TestDifferentialColKeyEncode(t *testing.T) {
	rng := rand.New(rand.NewSource(41))
	alphabet := []string{"a", "Z", "0", ":", "|", "/", " ", "é", "時間", "🔥", "\x00"}
	label := func() string {
		s := ""
		for n := rng.Intn(14); n > 0; n-- {
			s += alphabet[rng.Intn(len(alphabet))]
		}
		return s
	}
	keys := []ColKey{nil, {}, {""}, {"", ""}, {"time (exc)"}, {"CPU", "time (exc)"}, {"1:a|", ""}, {"時間"}}
	for i := 0; i < 2000; i++ {
		k := make(ColKey, rng.Intn(4))
		for j := range k {
			k[j] = label()
		}
		keys = append(keys, k)
	}
	byEnc := map[string]ColKey{}
	for _, k := range keys {
		got, want := k.encode(), refEncodeColKey(k)
		if got != want {
			t.Fatalf("encode(%q) = %q, reference %q", []string(k), got, want)
		}
		if prev, ok := byEnc[got]; ok && !prev.Equal(k) {
			t.Fatalf("keys %q and %q share encoding %q", []string(prev), []string(k), got)
		}
		byEnc[got] = k
	}
}
