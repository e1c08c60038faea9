package dataframe

import (
	"math/rand"
	"testing"

	"repro/internal/parallel"
)

// Old-vs-new kernel benchmarks. The Ref variants run the preserved
// string-key implementations from differential_test.go; the New variants
// run the shipping integer-key kernels. scripts/bench.sh diffs the pairs
// into BENCH_kernels.json.

const benchRows = 20000

func benchFrame(b *testing.B) *Frame {
	b.Helper()
	return diffFrame(rand.New(rand.NewSource(1)), benchRows, false)
}

func benchSequential(b *testing.B) {
	b.Helper()
	prev := parallel.Set(1)
	b.Cleanup(func() { parallel.Set(prev) })
}

// Partition benchmarks isolate the rewritten key kernel (dense ids +
// counting sort vs per-row EncodeKey strings into a hash map); the
// GroupBy pairs below additionally include group materialization, which
// is identical on both paths and dilutes the ratio.
func BenchmarkPartitionByKeyRef(b *testing.B) {
	f := benchFrame(b)
	cols := []*Series{f.data[0], f.data[1], f.data[2]}
	benchSequential(b)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		refPartition(f.NRows(), func(r int) []Value {
			key := make([]Value, len(cols))
			for j, c := range cols {
				key[j] = c.At(r)
			}
			return key
		})
	}
}

func BenchmarkPartitionByKeyNew(b *testing.B) {
	f := benchFrame(b)
	cols := []*Series{f.data[0], f.data[1], f.data[2]}
	benchSequential(b)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		buckets, keys := f.partitionByKey(cols)
		_, _ = buckets, keys
	}
}

func BenchmarkGroupByRef(b *testing.B) {
	f := benchFrame(b)
	benchSequential(b)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		refGroupBy(b, f, "group", "scale", "tuned")
	}
}

func BenchmarkGroupByNew(b *testing.B) {
	f := benchFrame(b)
	benchSequential(b)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if _, err := f.GroupBy("group", "scale", "tuned"); err != nil {
			b.Fatal(err)
		}
	}
}

// Lookup benchmarks measure a build-plus-probe cycle: the old path paid
// an EncodeKey map build and string hashing per probe; the new path pays
// one keySpace build and integer probes.
func BenchmarkIndexLookupRef(b *testing.B) {
	f := benchFrame(b)
	ix := f.Index()
	keys := make([][]Value, 64)
	for i := range keys {
		keys[i] = ix.KeyAt(i * 17 % ix.NRows())
	}
	benchSequential(b)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		m := make(map[string][]int)
		for r := 0; r < ix.NRows(); r++ {
			enc := EncodeKey(ix.KeyAt(r))
			m[enc] = append(m[enc], r)
		}
		for _, key := range keys {
			_ = m[EncodeKey(key)]
		}
	}
}

func BenchmarkIndexLookupNew(b *testing.B) {
	f := benchFrame(b)
	ix := f.Index()
	keys := make([][]Value, 64)
	for i := range keys {
		keys[i] = ix.KeyAt(i * 17 % ix.NRows())
	}
	benchSequential(b)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		fresh := ix.Copy()
		fresh.lookup.Store(nil) // force a rebuild, matching the Ref loop
		for _, key := range keys {
			_ = fresh.Lookup(key)
		}
	}
}

func benchJoinFrames(b *testing.B) []*Frame {
	b.Helper()
	rng := rand.New(rand.NewSource(2))
	return []*Frame{
		diffFrame(rng, benchRows, true),
		diffFrame(rng, benchRows*3/4, true),
		diffFrame(rng, benchRows/2, true),
	}
}

func BenchmarkInnerJoinRef(b *testing.B) {
	frames := benchJoinFrames(b)
	benchSequential(b)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if _, err := refInnerJoin([]string{"A", "B", "C"}, frames); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkInnerJoinNew(b *testing.B) {
	frames := benchJoinFrames(b)
	benchSequential(b)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		for _, f := range frames {
			f.index.lookup.Store(nil) // charge the build each round, as Ref does
		}
		if _, err := InnerJoinOnIndex([]string{"A", "B", "C"}, frames); err != nil {
			b.Fatal(err)
		}
	}
}

func benchConcatFrames(b *testing.B) []*Frame {
	b.Helper()
	rng := rand.New(rand.NewSource(3))
	frames := make([]*Frame, 6)
	for i := range frames {
		frames[i] = diffFrame(rng, benchRows/6, false)
		if i%2 == 1 {
			sub, err := frames[i].SelectColumns([]ColKey{{"group"}, {"time"}})
			if err != nil {
				b.Fatal(err)
			}
			frames[i] = sub
		}
	}
	return frames
}

func BenchmarkConcatRowsOuterRef(b *testing.B) {
	frames := benchConcatFrames(b)
	benchSequential(b)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if _, err := refConcatRowsOuter(frames...); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkConcatRowsOuterNew(b *testing.B) {
	frames := benchConcatFrames(b)
	benchSequential(b)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if _, err := ConcatRowsOuter(frames...); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkPivotRef(b *testing.B) {
	f := benchFrame(b)
	sum := func(vs []float64) float64 {
		s := 0.0
		for _, v := range vs {
			s += v
		}
		return s
	}
	benchSequential(b)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		refPivot(b, f, "group", "scale", "time", sum)
	}
}

func BenchmarkPivotNew(b *testing.B) {
	f := benchFrame(b)
	sum := func(vs []float64) float64 {
		s := 0.0
		for _, v := range vs {
			s += v
		}
		return s
	}
	benchSequential(b)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if _, err := f.Pivot("group", "scale", "time", sum); err != nil {
			b.Fatal(err)
		}
	}
}
