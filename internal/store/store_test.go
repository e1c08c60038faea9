package store_test

import (
	"bytes"
	"fmt"
	"math"
	"math/rand"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"repro/internal/core"
	"repro/internal/dataframe"
	"repro/internal/ingest"
	"repro/internal/plan"
	"repro/internal/profile"
	"repro/internal/store"
)

// randomEnsemble mirrors the differential harness generator: overlapping
// tree shapes from a shared vocabulary, random metric subsets (missing
// cells), and groupable metadata of every scalar kind.
func randomEnsemble(t testing.TB, seed int64, nProfiles int) []*profile.Profile {
	t.Helper()
	rng := rand.New(rand.NewSource(seed))
	vocab := []string{"solve", "io", "mult", "add", "halo", "reduce"}
	profiles := make([]*profile.Profile, nProfiles)
	for i := range profiles {
		p := profile.New()
		p.SetMeta("id", dataframe.Int64(int64(i)))
		p.SetMeta("group", dataframe.Str(fmt.Sprintf("g%d", rng.Intn(3))))
		p.SetMeta("scale", dataframe.Int64(int64(1<<rng.Intn(4))))
		p.SetMeta("tuned", dataframe.BoolVal(rng.Intn(2) == 0))
		p.SetMeta("ratio", dataframe.Float64(rng.Float64()))
		for j := 0; j < 1+rng.Intn(6); j++ {
			depth := 1 + rng.Intn(3)
			path := []string{"main"}
			for d := 1; d < depth; d++ {
				path = append(path, vocab[rng.Intn(len(vocab))])
			}
			metrics := map[string]dataframe.Value{}
			for _, m := range []string{"time", "bytes", "flops"} {
				if rng.Intn(4) > 0 {
					metrics[m] = dataframe.Float64(rng.NormFloat64() * 50)
				}
			}
			if rng.Intn(3) > 0 {
				metrics["reps"] = dataframe.Int64(int64(rng.Intn(1000)))
			}
			if err := p.AddSample(path, metrics); err != nil {
				t.Fatal(err)
			}
		}
		profiles[i] = p
	}
	return profiles
}

func randomThicket(t *testing.T, seed int64, nProfiles int) *core.Thicket {
	t.Helper()
	th, err := core.FromProfiles(randomEnsemble(t, seed, nProfiles), core.Options{IndexBy: "id"})
	if err != nil {
		t.Fatal(err)
	}
	return th
}

// assertThicketsEqual asserts exact equality of every component.
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

func TestCreateOpenLoad(t *testing.T) {
	th := randomThicket(t, 7, 5)
	path := filepath.Join(t.TempDir(), "e.tks")
	if err := store.Create(path, th); err != nil {
		t.Fatal(err)
	}
	s, err := store.Open(path)
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	got, err := s.Load()
	if err != nil {
		t.Fatal(err)
	}
	assertThicketsEqual(t, "load", th, got)
	info := s.Info()
	if info.Segments != 1 || info.Profiles != 5 {
		t.Fatalf("info: %+v", info)
	}
	if info.Nodes != th.Tree.Len() {
		t.Fatalf("info nodes %d, tree %d", info.Nodes, th.Tree.Len())
	}
	// A single-file store's segment has no file of its own.
	if len(info.SegmentList) != 1 || info.SegmentList[0].File != "" {
		t.Fatalf("info segment list: %+v", info.SegmentList)
	}
	if segs := s.Segments(); len(segs) != 1 || segs[0].File != "" {
		t.Fatalf("segments: %+v", segs)
	}
}

// TestFromThicketReadOnly: an in-memory store is one read-only segment
// that refuses appends and compaction.
func TestFromThicketReadOnly(t *testing.T) {
	th := randomThicket(t, 8, 4)
	s, err := store.FromThicket(th)
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	if s.NumSegments() != 1 || s.IsDir() {
		t.Fatalf("in-memory store: segments=%d dir=%v", s.NumSegments(), s.IsDir())
	}
	more := randomThicket(t, 9, 2)
	if err := s.Append(more); err == nil || !strings.Contains(err.Error(), "read-only") {
		t.Fatalf("Append on an in-memory store: %v, want a read-only error", err)
	}
	if info := s.Info(); info.Segments != 1 || info.Profiles != 4 || info.SegmentList[0].File != "" {
		t.Fatalf("info: %+v", info)
	}
}

// TestRoundTripMatchesJSON is the acceptance property test: for many
// random thickets (with computed stats), the store round-trip must
// reproduce exactly what the established JSON round-trip reproduces —
// frame for frame, bit for bit.
func TestRoundTripMatchesJSON(t *testing.T) {
	for seed := int64(0); seed < 25; seed++ {
		th := randomThicket(t, 1000+seed, 2+int(seed%6))
		if seed%2 == 0 {
			if err := th.AggregateStats(nil, []string{"mean", "std", "min", "max"}); err != nil {
				t.Fatal(err)
			}
		}

		var buf bytes.Buffer
		if err := th.WriteJSON(&buf); err != nil {
			t.Fatal(err)
		}
		viaJSON, err := core.ReadThicket(&buf)
		if err != nil {
			t.Fatal(err)
		}

		path := filepath.Join(t.TempDir(), "rt.tks")
		if err := store.Create(path, th); err != nil {
			t.Fatal(err)
		}
		s, err := store.Open(path)
		if err != nil {
			t.Fatal(err)
		}
		viaStore, err := s.Load()
		s.Close()
		if err != nil {
			t.Fatal(err)
		}

		mem, err := store.FromThicket(th)
		if err != nil {
			t.Fatal(err)
		}
		viaMemory, err := mem.Load()
		if err != nil {
			t.Fatal(err)
		}

		assertThicketsEqual(t, fmt.Sprintf("seed %d store-vs-source", seed), th, viaStore)
		assertThicketsEqual(t, fmt.Sprintf("seed %d store-vs-json", seed), viaJSON, viaStore)
		assertThicketsEqual(t, fmt.Sprintf("seed %d memory-vs-source", seed), th, viaMemory)
	}
}

// appendLegacySegment appends th to the single-file store at path the
// way older versions' Append did: the segment record store.Create writes
// after FileMagic, added at the file's tail. Single-file stores take no
// appends now, but files grown this way still read.
func appendLegacySegment(t testing.TB, path string, th *core.Thicket) {
	t.Helper()
	seg := filepath.Join(t.TempDir(), "segment.tks")
	if err := store.Create(seg, th); err != nil {
		t.Fatal(err)
	}
	rec, err := os.ReadFile(seg)
	if err != nil {
		t.Fatal(err)
	}
	raw, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(path, append(raw, rec[len(store.FileMagic):]...), 0o644); err != nil {
		t.Fatal(err)
	}
}

// refusesAppend asserts that appendTo, an append to the single-file
// store at path, fails as read-only, naming the path, and leaves the
// file byte for byte as it was.
func refusesAppend(t *testing.T, label, path string, appendTo func() error) {
	t.Helper()
	before, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if err := appendTo(); err == nil || !strings.Contains(err.Error(), path) || !strings.Contains(err.Error(), "read-only") {
		t.Fatalf("%s: append to a single-file store: err = %v, want a read-only error naming %s", label, err, path)
	}
	after, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(before, after) {
		t.Fatalf("%s: a refused append changed the file", label)
	}
}

// TestSingleFileRefusesAppends: a single-file store is written once.
// Append and AppendProfiles refuse it, on the handle that opened it
// first and on one that reopened it after a refusal, and it still
// loads what Create wrote.
func TestSingleFileRefusesAppends(t *testing.T) {
	profiles := randomEnsemble(t, 44, 6)
	th, err := core.FromProfiles(profiles[:3], core.Options{IndexBy: "id"})
	if err != nil {
		t.Fatal(err)
	}
	more, err := core.FromProfiles(profiles[3:], core.Options{IndexBy: "id"})
	if err != nil {
		t.Fatal(err)
	}
	path := filepath.Join(t.TempDir(), "once.tks")
	if err := store.Create(path, th); err != nil {
		t.Fatal(err)
	}
	for _, handle := range []string{"fresh", "reopened"} {
		s, err := store.Open(path)
		if err != nil {
			t.Fatalf("%s: %v", handle, err)
		}
		refusesAppend(t, handle+" Append", path, func() error { return s.Append(more) })
		refusesAppend(t, handle+" AppendProfiles", path, func() error { return s.AppendProfiles(profiles[3:]) })
		got, err := s.Load()
		s.Close()
		if err != nil {
			t.Fatalf("%s: load after refused appends: %v", handle, err)
		}
		assertThicketsEqual(t, handle, th, got)
	}
}

func TestAppendMatchesConcat(t *testing.T) {
	profiles := randomEnsemble(t, 42, 8)
	// Distinct id ranges per half so profile indexes stay unique.
	for i, p := range profiles {
		p.SetMeta("id", dataframe.Int64(int64(i)))
	}
	th1, err := core.FromProfiles(profiles[:5], core.Options{IndexBy: "id"})
	if err != nil {
		t.Fatal(err)
	}
	th2, err := core.FromProfiles(profiles[5:], core.Options{IndexBy: "id"})
	if err != nil {
		t.Fatal(err)
	}
	want, err := core.ConcatProfiles([]*core.Thicket{th1, th2})
	if err != nil {
		t.Fatal(err)
	}

	// A single file that an older version appended th2 to reads as the
	// concatenation, and refuses a further append.
	path := filepath.Join(t.TempDir(), "a.tks")
	if err := store.Create(path, th1); err != nil {
		t.Fatal(err)
	}
	appendLegacySegment(t, path, th2)
	s, err := store.Open(path)
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	if s.NumSegments() != 2 {
		t.Fatalf("segments = %d, want 2", s.NumSegments())
	}
	got, err := s.Load()
	if err != nil {
		t.Fatal(err)
	}
	assertThicketsEqual(t, "legacy two-segment file", want, got)
	extra := randomEnsemble(t, 43, 1)
	extra[0].SetMeta("id", dataframe.Int64(100))
	refusesAppend(t, "legacy two-segment file", path, func() error { return s.AppendProfiles(extra) })

	// The same on a directory store, where a compaction has since moved
	// the duplicated profiles into a merged segment.
	dir := filepath.Join(t.TempDir(), "dir")
	if err := store.CreateDir(dir, th1); err != nil {
		t.Fatal(err)
	}
	d, err := store.Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	defer d.Close()
	if err := d.AppendProfiles(profiles[5:7]); err != nil {
		t.Fatal(err)
	}
	if err := d.AppendProfiles(profiles[7:]); err != nil {
		t.Fatal(err)
	}
	if err := ingest.CompactAll(d); err != nil {
		t.Fatal(err)
	}
	d2, err := store.Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	defer d2.Close()
	for name, h := range map[string]*store.Store{"open": d, "reopened": d2} {
		for _, dup := range [][]*profile.Profile{profiles[0:1], profiles[6:7]} {
			if err := h.AppendProfiles(dup); err == nil || !strings.Contains(err.Error(), "already present") {
				t.Fatalf("%s directory store: duplicate append err = %v, want already present", name, err)
			}
		}
	}
	// A new profile still lands, and the duplicate check then sees it.
	if err := d.AppendProfiles(extra); err != nil {
		t.Fatal(err)
	}
	if err := d.AppendProfiles(extra); err == nil {
		t.Fatal("expected a second append of the same new profile to fail")
	}
}

func TestLoadProjection(t *testing.T) {
	th := randomThicket(t, 9, 6)
	path := filepath.Join(t.TempDir(), "p.tks")
	if err := store.Create(path, th); err != nil {
		t.Fatal(err)
	}
	s, err := store.Open(path)
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()

	key := dataframe.ColKey{"time"}
	got, err := s.LoadProjection([]dataframe.ColKey{key})
	if err != nil {
		t.Fatal(err)
	}
	if got.PerfData.NCols() != 1 {
		t.Fatalf("projection has %d columns, want 1", got.PerfData.NCols())
	}
	// It decodes the index levels, the projected perf block and the
	// metadata blocks, and nothing else.
	wantMisses := th.PerfData.Index().NLevels() + 1 + th.Metadata.Index().NLevels() + th.Metadata.NCols()
	if misses := s.Info().CacheMisses; misses != int64(wantMisses) {
		t.Fatalf("projected load decoded %d blocks, want %d", misses, wantMisses)
	}
	wantCol, err := th.PerfData.Column(key)
	if err != nil {
		t.Fatal(err)
	}
	gotCol, err := got.PerfData.Column(key)
	if err != nil {
		t.Fatal(err)
	}
	if !wantCol.Equal(gotCol) {
		t.Fatal("projected column differs from source")
	}
	if !got.PerfData.Index().Equal(th.PerfData.Index()) {
		t.Fatal("projected index differs from source")
	}
	if !got.Metadata.Equal(th.Metadata) {
		t.Fatal("projection should load full metadata")
	}

	if _, err := s.LoadProjection([]dataframe.ColKey{{"no-such-metric"}}); err == nil {
		t.Fatal("expected unknown-column projection to fail")
	}
}

func TestMetadataOnly(t *testing.T) {
	th := randomThicket(t, 5, 4)
	path := filepath.Join(t.TempDir(), "m.tks")
	if err := store.Create(path, th); err != nil {
		t.Fatal(err)
	}
	s, err := store.Open(path)
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	meta, err := s.Metadata()
	if err != nil {
		t.Fatal(err)
	}
	if !meta.Equal(th.Metadata) {
		t.Fatal("metadata differs")
	}
}

func TestCacheHits(t *testing.T) {
	th := randomThicket(t, 11, 4)
	path := filepath.Join(t.TempDir(), "c.tks")
	if err := store.Create(path, th); err != nil {
		t.Fatal(err)
	}
	s, err := store.Open(path)
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	first, err := s.Load()
	if err != nil {
		t.Fatal(err)
	}
	second, err := s.Load()
	if err != nil {
		t.Fatal(err)
	}
	assertThicketsEqual(t, "cached reload", first, second)
	info := s.Info()
	if info.CacheHits == 0 {
		t.Fatalf("expected cache hits on reload, info=%+v", info)
	}
	// A caller mutating its loaded thicket must not poison the cache.
	lv := first.PerfData.Index().Level(0)
	if err := lv.Set(0, dataframe.Str("mutated")); err != nil {
		t.Fatal(err)
	}
	third, err := s.Load()
	if err != nil {
		t.Fatal(err)
	}
	assertThicketsEqual(t, "post-mutation reload", second, third)
}

// TestSharedColumnsStayIsolated: the column cache shares its decoded
// series with every reader, and each segment its call tree, so each
// call that could hand one segment's frames or tree out whole must hand
// out copies. A caller mutating an answer — a level Set, then
// AggregateStats recomputing a stored statistic in place over a changed
// metric, and, except for plan results, which share the layout's union
// tree read-only, a node added to the tree and its children sorted —
// must not change the next answer of the same call.
func TestSharedColumnsStayIsolated(t *testing.T) {
	metric := []dataframe.ColKey{{"time"}}
	part := func(seed, idBase int64) *core.Thicket {
		ps := randomEnsemble(t, seed, 4)
		for i, p := range ps {
			p.SetMeta("id", dataframe.Int64(idBase+int64(i)))
		}
		th, err := core.FromProfiles(ps, core.Options{IndexBy: "id"})
		if err != nil {
			t.Fatal(err)
		}
		// The stored stats table holds the statistic recomputed below.
		if err := th.AggregateStats(metric, []string{"mean"}); err != nil {
			t.Fatal(err)
		}
		return th
	}
	// One segment reads from a single file; more grow a directory store.
	open := func(segments int) *store.Store {
		path := filepath.Join(t.TempDir(), "iso.tks")
		create := store.Create
		if segments > 1 {
			create = store.CreateDir
		}
		if err := create(path, part(71, 0)); err != nil {
			t.Fatal(err)
		}
		s, err := store.Open(path)
		if err != nil {
			t.Fatal(err)
		}
		t.Cleanup(func() { s.Close() })
		for i := 1; i < segments; i++ {
			if err := s.Append(part(71+int64(i), 100*int64(i))); err != nil {
				t.Fatal(err)
			}
		}
		return s
	}
	// setLevels rewrites row 0 of the first index level of each frame:
	// to the last row's value, or to a null where the frame has one row.
	setLevels := func(frames ...*dataframe.Frame) {
		for _, f := range frames {
			lv := f.Index().Level(0)
			v := dataframe.Null(lv.Kind())
			if n := lv.Len(); n > 1 {
				v = lv.At(n - 1)
			}
			if err := lv.Set(0, v); err != nil {
				t.Fatal(err)
			}
		}
	}

	t.Run("Metadata", func(t *testing.T) {
		s := open(1)
		first, err := s.Metadata()
		if err != nil {
			t.Fatal(err)
		}
		want := first.Copy()
		setLevels(first)
		if err := first.ColumnAt(0).Set(1, dataframe.Null(first.ColumnAt(0).Kind())); err != nil {
			t.Fatal(err)
		}
		next, err := s.Metadata()
		if err != nil {
			t.Fatal(err)
		}
		if !next.Equal(want) {
			t.Fatal("mutating one Metadata answer changed the next")
		}
	})

	for _, tc := range []struct {
		name     string
		segments int
		get      func(*store.Store) (*core.Thicket, error)
	}{
		{"LoadSegments", 1, func(s *store.Store) (*core.Thicket, error) {
			return s.LoadSegments([]int64{s.Segments()[0].Gen})
		}},
		{"Load, three segments", 3, func(s *store.Store) (*core.Thicket, error) {
			return s.Load()
		}},
		{"LoadProjection", 1, func(s *store.Store) (*core.Thicket, error) {
			return s.LoadProjection(metric)
		}},
		{"full Refresh", 1, func(s *store.Store) (*core.Thicket, error) {
			th, _, _, mode, err := s.Refresh(nil)
			if err == nil && mode != store.RefreshFull {
				err = fmt.Errorf("Refresh(nil) ran mode %s", mode)
			}
			return th, err
		}},
		{"full Refresh, three segments", 3, func(s *store.Store) (*core.Thicket, error) {
			th, _, _, _, err := s.Refresh(nil)
			return th, err
		}},
		{"delta Refresh", 3, func(s *store.Store) (*core.Thicket, error) {
			// prev is what Load returned before the third segment landed.
			prev, err := s.LoadSegments(s.Generations()[:2])
			if err != nil {
				return nil, err
			}
			th, _, _, mode, err := s.Refresh(prev)
			if err == nil && mode != store.RefreshDelta {
				err = fmt.Errorf("Refresh(prev) ran mode %s", mode)
			}
			return th, err
		}},
		{"ExecuteStore", 1, func(s *store.Store) (*core.Thicket, error) {
			th, _, err := plan.ExecuteStore(s, nil)
			return th, err
		}},
		{"ExecuteStore, three segments", 3, func(s *store.Store) (*core.Thicket, error) {
			th, _, err := plan.ExecuteStore(s, nil)
			return th, err
		}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			s := open(tc.segments)
			first, err := tc.get(s)
			if err != nil {
				t.Fatal(err)
			}
			want := first.Copy()
			setLevels(first.PerfData, first.Metadata)
			times, err := first.PerfData.Column(metric[0])
			if err != nil {
				t.Fatal(err)
			}
			for r := 0; r < times.Len(); r++ {
				if err := times.Set(r, dataframe.Float64(float64(r))); err != nil {
					t.Fatal(err)
				}
			}
			if err := first.AggregateStats(metric, []string{"mean"}); err != nil {
				t.Fatal(err)
			}
			if first.Stats.Equal(want.Stats) {
				t.Fatal("the mutations left the stats table unchanged; they test nothing")
			}
			if !strings.HasPrefix(tc.name, "ExecuteStore") {
				first.Tree.MustAddPath("main", "isolation-probe")
				first.Tree.SortChildren()
			}
			next, err := tc.get(s)
			if err != nil {
				t.Fatal(err)
			}
			assertThicketsEqual(t, tc.name, want, next)
			if got, want := fmt.Sprint(next.Tree.Paths()), fmt.Sprint(want.Tree.Paths()); got != want {
				t.Fatalf("%s: tree order changed:\n got %s\nwant %s", tc.name, got, want)
			}
		})
	}
}

func TestOpenErrorsNamePath(t *testing.T) {
	dir := t.TempDir()
	missing := filepath.Join(dir, "missing.tks")
	if _, err := store.Open(missing); err == nil || !strings.Contains(err.Error(), "missing.tks") {
		t.Fatalf("open missing: error should name the path, got %v", err)
	}

	garbage := filepath.Join(dir, "garbage.tks")
	if err := os.WriteFile(garbage, []byte("not a store at all"), 0o644); err != nil {
		t.Fatal(err)
	}
	if _, err := store.Open(garbage); err == nil || !strings.Contains(err.Error(), "garbage.tks") {
		t.Fatalf("open garbage: error should name the path, got %v", err)
	}

	// A valid store with a flipped data byte must fail at load with the
	// offending path in the message (CRC protection).
	th := randomThicket(t, 3, 3)
	corrupt := filepath.Join(dir, "corrupt.tks")
	if err := store.Create(corrupt, th); err != nil {
		t.Fatal(err)
	}
	raw, err := os.ReadFile(corrupt)
	if err != nil {
		t.Fatal(err)
	}
	raw[len(raw)-10] ^= 0xff
	if err := os.WriteFile(corrupt, raw, 0o644); err != nil {
		t.Fatal(err)
	}
	s, err := store.Open(corrupt) // headers may still be intact
	if err == nil {
		defer s.Close()
		if _, lerr := s.Load(); lerr == nil || !strings.Contains(lerr.Error(), "corrupt.tks") {
			t.Fatalf("load corrupted: error should name the path, got %v", lerr)
		}
	} else if !strings.Contains(err.Error(), "corrupt.tks") {
		t.Fatalf("open corrupted: error should name the path, got %v", err)
	}
}

func TestAppendRejectsMismatchedProfileLevel(t *testing.T) {
	th := randomThicket(t, 21, 3)                                             // indexed by "id", ints
	other, err := core.FromProfiles(randomEnsemble(t, 22, 2), core.Options{}) // default hash index
	if err != nil {
		t.Fatal(err)
	}
	p := randomEnsemble(t, 23, 1)[0]
	p.SetMeta("id", dataframe.Float64(100.5))
	floatID, err := core.FromProfiles([]*profile.Profile{p}, core.Options{IndexBy: "id"})
	if err != nil {
		t.Fatal(err)
	}
	for _, tc := range []struct {
		name, want string
		th         *core.Thicket
	}{
		{"other profile level", "profile level", other},
		{"float id on an int level", `index level "id" kind float conflicts with stored kind int`, floatID},
	} {
		path := filepath.Join(t.TempDir(), "lvl")
		if err := store.CreateDir(path, th); err != nil {
			t.Fatal(err)
		}
		s, err := store.Open(path)
		if err != nil {
			t.Fatal(err)
		}
		if err := s.Append(tc.th); err == nil || !strings.Contains(err.Error(), tc.want) {
			t.Fatalf("%s: append err = %v, want %q", tc.name, err, tc.want)
		}
		s.Close()
		// The refused append left nothing behind: the store still loads.
		s, err = store.Open(path)
		if err != nil {
			t.Fatal(err)
		}
		got, err := s.Load()
		s.Close()
		if err != nil {
			t.Fatalf("%s: load after refused append: %v", tc.name, err)
		}
		assertThicketsEqual(t, tc.name, th, got)
	}
}

// infEnsemble is randomEnsemble with ±Inf planted in the "time" metric
// and in a float metadata column, "bound", of every profile.
func infEnsemble(t *testing.T, seed int64, idBase int64, n int) []*profile.Profile {
	t.Helper()
	profiles := randomEnsemble(t, seed, n)
	for i, p := range profiles {
		p.SetMeta("id", dataframe.Int64(idBase+int64(i)))
		inf := math.Inf(1 - 2*(i%2))
		p.SetMeta("bound", dataframe.Float64(inf))
		if err := p.AddSample([]string{"main"}, map[string]dataframe.Value{"time": dataframe.Float64(-inf)}); err != nil {
			t.Fatal(err)
		}
	}
	return profiles
}

// TestInfRoundTrip: float columns holding ±Inf, in metrics and in
// metadata, must survive Create in both layouts, and Append and
// compaction in the directory layout. An infinite bound cannot go into
// the JSON header, so such blocks carry no zone map.
func TestInfRoundTrip(t *testing.T) {
	first, second := infEnsemble(t, 61, 0, 3), infEnsemble(t, 62, 100, 4)
	compose := func(ps []*profile.Profile) *core.Thicket {
		th, err := core.FromProfiles(ps, core.Options{IndexBy: "id"})
		if err != nil {
			t.Fatal(err)
		}
		return th
	}
	th1 := compose(first)
	for _, layout := range []string{"file", "dir"} {
		path := filepath.Join(t.TempDir(), "inf")
		create := store.Create
		if layout == "dir" {
			create = store.CreateDir
		}
		if err := create(path, th1); err != nil {
			t.Fatalf("%s: create: %v", layout, err)
		}
		s, err := store.Open(path)
		if err != nil {
			t.Fatal(err)
		}
		defer s.Close()
		got, err := s.Load()
		if err != nil {
			t.Fatal(err)
		}
		assertThicketsEqual(t, layout+" create", th1, got)

		if layout == "dir" {
			if err := s.Append(compose(second)); err != nil {
				t.Fatalf("append: %v", err)
			}
			want, err := core.ConcatProfiles([]*core.Thicket{th1, compose(second)})
			if err != nil {
				t.Fatal(err)
			}
			if got, err = s.Load(); err != nil {
				t.Fatal(err)
			}
			assertThicketsEqual(t, "append", want, got)

			if err := ingest.CompactAll(s); err != nil {
				t.Fatalf("compact: %v", err)
			}
			if s.NumSegments() != 1 {
				t.Fatalf("compacted to %d segments, want 1", s.NumSegments())
			}
			if got, err = s.Load(); err != nil {
				t.Fatal(err)
			}
			assertThicketsEqual(t, "compact", compose(append(first, second...)), got)
		}
		for _, c := range s.Info().MetaColumns {
			if c.Key.Leaf() == "bound" && c.Kind != "float" {
				t.Fatalf("%s: bound stored as %s", layout, c.Kind)
			}
		}
	}
}
