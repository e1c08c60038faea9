package store

import (
	"context"
	"fmt"
	"math/rand"
	"os"
	"path/filepath"
	"testing"

	"repro/internal/calltree"
	"repro/internal/core"
	"repro/internal/dataframe"
	"repro/internal/profile"
)

// viewPaths are the call paths a viewProfile may sample besides "main".
var viewPaths = [][]string{
	{"main", "solve"},
	{"main", "solve", "mg"},
	{"main", "solve", "cg"},
	{"main", "io"},
	{"main", "io", "write"},
	{"main", "setup"},
	{"init"},
	{"init", "mpi"},
}

// viewProfile builds profile id, whose call tree drifts with arrival
// order: each of viewPaths joins it or not, in a random order.
func viewProfile(rng *rand.Rand, id int) *profile.Profile {
	p := profile.New()
	p.SetMeta("run", dataframe.Int64(int64(id)))
	sample := func(path []string) {
		if err := p.AddSample(path, map[string]dataframe.Value{"time": dataframe.Float64(rng.Float64())}); err != nil {
			panic(err)
		}
	}
	sample([]string{"main"})
	for _, i := range rng.Perm(len(viewPaths)) {
		if rng.Intn(2) == 0 {
			sample(viewPaths[i])
		}
	}
	return p
}

// preOrder renders a tree's paths in pre-order, sibling order included.
func preOrder(t *calltree.Tree) string { return fmt.Sprint(t.Paths()) }

// TestViewUnionMatchesLiveTrees: over seeded sequences of appends,
// compactions of a random contiguous run and reopens, the view's union
// tree is, after every step, calltree.Union of the live segments' trees
// in layout order, and Load's tree, pre-order included.
func TestViewUnionMatchesLiveTrees(t *testing.T) {
	for seed := int64(1); seed <= 3; seed++ {
		rng := rand.New(rand.NewSource(seed))
		nextID := 0
		batch := func() *core.Thicket {
			ps := make([]*profile.Profile, 1+rng.Intn(3))
			for i := range ps {
				ps[i] = viewProfile(rng, nextID)
				nextID++
			}
			return dirThicket(t, ps)
		}
		dir := filepath.Join(t.TempDir(), "store")
		if err := CreateDir(dir, batch()); err != nil {
			t.Fatal(err)
		}
		s, err := Open(dir)
		if err != nil {
			t.Fatal(err)
		}
		for step := 0; step < 30; step++ {
			var what string
			switch r, n := rng.Intn(10), s.NumSegments(); {
			case r < 5 || n < 2 && r < 8:
				what = "append"
				if err := s.Append(batch()); err != nil {
					t.Fatal(err)
				}
			case r < 8:
				run := 2 + rng.Intn(n-1)
				lo := rng.Intn(n - run + 1)
				what = fmt.Sprintf("compact [%d,%d)", lo, lo+run)
				gens := s.Generations()[lo : lo+run]
				if err := s.ReplaceSegments(gens, mustSegments(t, s, gens...), 1); err != nil {
					t.Fatal(err)
				}
			default:
				what = "reopen"
				s.Close()
				if s, err = Open(dir); err != nil {
					t.Fatal(err)
				}
			}
			label := fmt.Sprintf("seed %d step %d (%s)", seed, step, what)
			sn := s.Snapshot()
			trees := make([]*calltree.Tree, sn.NumSegments())
			for i := range trees {
				hp, _, err := sn.Segment(i).head()
				if err != nil {
					t.Fatal(err)
				}
				trees[i] = hp.tree
			}
			want, got := preOrder(calltree.Union(trees...)), preOrder(sn.Tree())
			sn.Release()
			if got != want {
				t.Fatalf("%s: view tree\n%s\nwant the union of the live trees\n%s", label, got, want)
			}
			th, err := s.Load()
			if err != nil {
				t.Fatal(err)
			}
			if loaded := preOrder(th.Tree); loaded != want {
				t.Fatalf("%s: Load's tree\n%s\nwant\n%s", label, loaded, want)
			}
		}
		s.Close()
	}
}

// viewStore builds a directory store of n two-profile MARBL segments,
// one append each.
func viewStore(tb testing.TB, n int) *Store {
	tb.Helper()
	dir := filepath.Join(tb.TempDir(), "store")
	if err := InitDir(dir, ""); err != nil {
		tb.Fatal(err)
	}
	s, err := Open(dir)
	if err != nil {
		tb.Fatal(err)
	}
	tb.Cleanup(func() { s.Close() })
	profiles := dirProfiles(tb, 2*n, 51)
	for i := 0; i < n; i++ {
		if err := s.Append(dirThicket(tb, profiles[2*i:2*i+2])); err != nil {
			tb.Fatal(err)
		}
	}
	return s
}

// TestViewPinIsConstant: pinning and releasing a view allocates nothing,
// whatever the number of segments.
func TestViewPinIsConstant(t *testing.T) {
	for _, n := range []int{2, 64} {
		s := viewStore(t, n)
		if allocs := testing.AllocsPerRun(100, func() { s.Snapshot().Release() }); allocs != 0 {
			t.Errorf("%d segments: a pin and its release allocate %v times, want 0", n, allocs)
		}
	}
}

// TestViewRetiredFileOutlivesPin: a segment compacted away while a pinned
// view names it still scans through that view, its file open, until the
// view is released; then the file is closed and deleted.
func TestViewRetiredFileOutlivesPin(t *testing.T) {
	s := viewStore(t, 3)
	sn := s.Snapshot()
	gens := s.Generations()
	if err := s.ReplaceSegments(gens[1:], mustSegments(t, s, gens[1:]...), 1); err != nil {
		t.Fatal(err)
	}
	retired := []string{sn.segs[1].file, sn.segs[2].file}
	for i := 1; i < 3; i++ {
		if _, err := sn.Segment(i).Scan(context.Background(), false); err != nil {
			t.Fatalf("retired segment %d through the pinned view: %v", i, err)
		}
	}
	for _, f := range retired {
		if _, err := os.Stat(f); err != nil {
			t.Fatalf("a retired segment's file is gone while a view names it: %v", err)
		}
	}
	// Open: the live segment, the merged one and the two retired ones.
	if n, ok := openFilesUnder(s.Path()); ok && n != 4 {
		t.Fatalf("%d files open under the store while the view is pinned, want 4", n)
	}
	sn.Release()
	if n, ok := openFilesUnder(s.Path()); ok && n != 2 {
		t.Errorf("%d files open under the store after the release, want 2", n)
	}
	for _, f := range retired {
		if _, err := os.Stat(f); !os.IsNotExist(err) {
			t.Errorf("retired segment file %s after the release: %v, want it deleted", filepath.Base(f), err)
		}
	}
	if s.NumSegments() != 2 {
		t.Fatalf("%d live segments, want 2", s.NumSegments())
	}
}

// BenchmarkSnapshot times, over directory stores of two-profile MARBL
// segments built by appends, a pin and its release (pin), and one draw
// of the disjoint verdict over the view's segments, their profile
// indexes already built (draw).
func BenchmarkSnapshot(b *testing.B) {
	for _, n := range []int{8, 64, 512} {
		s := viewStore(b, n)
		b.Run(fmt.Sprintf("segments=%d/pin", n), func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				s.Snapshot().Release()
			}
		})
		b.Run(fmt.Sprintf("segments=%d/draw", n), func(b *testing.B) {
			sn := s.Snapshot()
			defer sn.Release()
			if !s.shareNoProfile(sn.segs) {
				b.Fatal("the segments share a profile")
			}
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				s.shareNoProfile(sn.segs)
			}
		})
	}
}
