// Property tests for the parallelized dataframe operations: for random
// frames spanning the awkward shapes (0 rows, 1 row, fewer rows than
// workers, rows ≫ workers, NaN/missing cells), every parallelized op
// must equal the sequential reference exactly — not approximately — at
// every THICKET_PARALLELISM in {1, 2, 8}.
//
// This is an external test package: parallel is imported by dataframe,
// so the frame-level properties have to live outside the engine package
// to avoid an import cycle.
package parallel_test

import (
	"fmt"
	"math"
	"math/rand"
	"testing"

	"repro/internal/dataframe"
	"repro/internal/parallel"
)

// workerCounts is the THICKET_PARALLELISM matrix every property runs
// under; 1 is the sequential reference.
var workerCounts = []int{1, 2, 8}

// atParallelism runs fn under a fixed worker count.
func atParallelism[T any](n int, fn func() T) T {
	prev := parallel.Set(n)
	defer parallel.Set(prev)
	return fn()
}

// frameShapes are the fuzzed row counts: empty, singleton, fewer rows
// than the largest worker count, and rows far exceeding it.
var frameShapes = []int{0, 1, 3, 5, 17, 250, 600}

// randomFrame builds a frame with a two-level (node, profile) index,
// low-cardinality group columns, and float metrics salted with NaN and
// null cells.
func randomFrame(rng *rand.Rand, nRows int) *dataframe.Frame {
	nodes := make([]string, nRows)
	profiles := make([]int64, nRows)
	variants := make([]string, nRows)
	times := dataframe.NewSeries("time", dataframe.Float)
	bytesCol := dataframe.NewSeries("bytes", dataframe.Float)
	for i := 0; i < nRows; i++ {
		nodes[i] = fmt.Sprintf("main/k%d", rng.Intn(5))
		profiles[i] = int64(rng.Intn(7))
		variants[i] = []string{"seq", "omp", "cuda"}[rng.Intn(3)]
		switch rng.Intn(5) {
		case 0:
			_ = times.Append(dataframe.NaN())
		case 1:
			_ = times.Append(dataframe.Null(dataframe.Float))
		default:
			_ = times.Append(dataframe.Float64(rng.NormFloat64() * 100))
		}
		if rng.Intn(6) == 0 {
			_ = bytesCol.Append(dataframe.NaN())
		} else {
			_ = bytesCol.Append(dataframe.Float64(rng.Float64() * 1e9))
		}
	}
	ix := dataframe.MustIndex(
		dataframe.NewStringSeries("node", nodes),
		dataframe.NewIntSeries("profile", profiles),
	)
	return dataframe.MustFrame(ix,
		times,
		bytesCol,
		dataframe.NewStringSeries("variant", variants),
	)
}

// groupsEqual asserts two group-by results are exactly identical: same
// group count, same keys in the same order, cell-identical sub-frames.
func groupsEqual(t *testing.T, label string, want, got []dataframe.Group) {
	t.Helper()
	if len(want) != len(got) {
		t.Fatalf("%s: %d groups sequentially, %d in parallel", label, len(want), len(got))
	}
	for gi := range want {
		if len(want[gi].Key) != len(got[gi].Key) {
			t.Fatalf("%s: group %d key arity differs", label, gi)
		}
		for ki := range want[gi].Key {
			if !want[gi].Key[ki].Equal(got[gi].Key[ki]) {
				t.Fatalf("%s: group %d key[%d] = %s sequentially, %s in parallel",
					label, gi, ki, want[gi].Key[ki], got[gi].Key[ki])
			}
		}
		if !want[gi].Frame.Equal(got[gi].Frame) {
			t.Fatalf("%s: group %d frame differs between sequential and parallel", label, gi)
		}
	}
}

func TestGroupByMatchesSequential(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	for _, nRows := range frameShapes {
		f := randomFrame(rng, nRows)
		for _, cols := range [][]string{{"variant"}, {"variant", "profile"}, {"node"}} {
			want := atParallelism(1, func() []dataframe.Group {
				gs, err := f.GroupBy(cols...)
				if err != nil {
					t.Fatal(err)
				}
				return gs
			})
			for _, w := range workerCounts[1:] {
				got := atParallelism(w, func() []dataframe.Group {
					gs, err := f.GroupBy(cols...)
					if err != nil {
						t.Fatal(err)
					}
					return gs
				})
				groupsEqual(t, fmt.Sprintf("GroupBy(%v) rows=%d workers=%d", cols, nRows, w), want, got)
			}
		}
	}
}

// TestPivotMatchesSequential uses a left-fold sum aggregator — the most
// order-sensitive float reduction — so any reordering of cell samples
// between sequential and parallel collection would change low-order bits
// and fail the exact comparison.
func TestPivotMatchesSequential(t *testing.T) {
	rng := rand.New(rand.NewSource(37))
	foldSum := func(xs []float64) float64 {
		s := 0.0
		for _, x := range xs {
			s += x
		}
		return s
	}
	for _, nRows := range frameShapes {
		f := randomFrame(rng, nRows)
		want, wantErr := atParallelismPivot(1, f, foldSum)
		for _, w := range workerCounts[1:] {
			got, gotErr := atParallelismPivot(w, f, foldSum)
			if (wantErr == nil) != (gotErr == nil) {
				t.Fatalf("Pivot rows=%d workers=%d: errors differ (%v vs %v)", nRows, w, wantErr, gotErr)
			}
			if wantErr != nil {
				continue
			}
			if !want.Equal(got) {
				t.Fatalf("Pivot rows=%d workers=%d differs from sequential", nRows, w)
			}
		}
	}
}

func atParallelismPivot(n int, f *dataframe.Frame, agg func([]float64) float64) (*dataframe.Frame, error) {
	prev := parallel.Set(n)
	defer parallel.Set(prev)
	return f.Pivot("node", "variant", "time", agg)
}

func TestInnerJoinOnIndexMatchesSequential(t *testing.T) {
	rng := rand.New(rand.NewSource(53))
	// Frames joined on index need unique keys: build per-frame unique
	// (node, profile) pairs with partial overlap.
	build := func(n, salt int) *dataframe.Frame {
		var nodes []string
		var profiles []int64
		seen := map[string]bool{}
		vals := dataframe.NewSeries(fmt.Sprintf("m%d", salt), dataframe.Float)
		for len(nodes) < n {
			k := fmt.Sprintf("main/k%d", rng.Intn(8))
			p := int64(rng.Intn(6))
			enc := fmt.Sprintf("%s|%d", k, p)
			if seen[enc] {
				continue
			}
			seen[enc] = true
			nodes = append(nodes, k)
			profiles = append(profiles, p)
			if rng.Intn(5) == 0 {
				_ = vals.Append(dataframe.NaN())
			} else {
				_ = vals.Append(dataframe.Float64(rng.NormFloat64()))
			}
		}
		ix := dataframe.MustIndex(
			dataframe.NewStringSeries("node", nodes),
			dataframe.NewIntSeries("profile", profiles),
		)
		return dataframe.MustFrame(ix, vals)
	}
	for trial := 0; trial < 20; trial++ {
		a, b := build(5+rng.Intn(20), 0), build(5+rng.Intn(20), 1)
		join := func(w int) (*dataframe.Frame, error) {
			prev := parallel.Set(w)
			defer parallel.Set(prev)
			// Fresh copies so lazily-built lookup state never leaks
			// between parallelism levels.
			return dataframe.InnerJoinOnIndex([]string{"A", "B"}, []*dataframe.Frame{a.Copy(), b.Copy()})
		}
		want, wantErr := join(1)
		for _, w := range workerCounts[1:] {
			got, gotErr := join(w)
			if (wantErr == nil) != (gotErr == nil) {
				t.Fatalf("join trial=%d workers=%d: errors differ (%v vs %v)", trial, w, wantErr, gotErr)
			}
			if wantErr == nil && !want.Equal(got) {
				t.Fatalf("join trial=%d workers=%d differs from sequential", trial, w)
			}
		}
	}
}

// TestNaNCellsSurviveExactly pins the missing-cell semantics the
// differential harness relies on: NaN and null float cells compare equal
// to themselves under Frame.Equal, so "exact equality" is well defined
// for frames with missing data.
func TestNaNCellsSurviveExactly(t *testing.T) {
	v := dataframe.NaN()
	if !v.Equal(dataframe.NaN()) {
		t.Fatal("NaN cells must compare equal for exact differential testing")
	}
	if !math.IsNaN(v.Float()) {
		t.Fatal("NaN cell lost its payload")
	}
}
