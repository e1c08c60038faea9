package store

import (
	"os"
	"path/filepath"
	"testing"

	"repro/internal/core"
	"repro/internal/profile"
	"repro/internal/sim"
)

func dirProfiles(t testing.TB, n int, seed int64) []*profile.Profile {
	t.Helper()
	out := make([]*profile.Profile, n)
	for i := range out {
		p, err := sim.GenerateMarbl(sim.MarblConfig{
			Cluster: sim.ClusterRZTopaz, Nodes: 1, Trial: i, Seed: seed,
		})
		if err != nil {
			t.Fatal(err)
		}
		out[i] = p
	}
	return out
}

func dirThicket(t testing.TB, profiles []*profile.Profile) *core.Thicket {
	t.Helper()
	th, err := core.FromProfiles(profiles, core.Options{})
	if err != nil {
		t.Fatal(err)
	}
	return th
}

func TestDirStoreCreateOpenAppend(t *testing.T) {
	profiles := dirProfiles(t, 6, 42)
	dir := filepath.Join(t.TempDir(), "store")
	if err := CreateDir(dir, dirThicket(t, profiles[:2])); err != nil {
		t.Fatal(err)
	}
	s, err := Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	if !s.IsDir() || !s.CanCompact() {
		t.Fatal("directory store must report IsDir and CanCompact")
	}
	if n := s.NumSegments(); n != 1 {
		t.Fatalf("segments = %d, want 1", n)
	}
	gen0, content0 := s.Generation(), s.ContentGeneration()
	if err := s.AppendSegment(dirThicket(t, profiles[2:4]), 0); err != nil {
		t.Fatal(err)
	}
	if s.Generation() != gen0+1 || s.ContentGeneration() != content0+1 {
		t.Fatal("append must bump both layout and content generation")
	}
	if err := s.AppendProfiles(profiles[4:6]); err != nil {
		t.Fatal(err)
	}
	th, err := s.Load()
	if err != nil {
		t.Fatal(err)
	}
	if got := th.NumProfiles(); got != 6 {
		t.Fatalf("profiles = %d, want 6", got)
	}

	// Reopen: generations and levels persist via the manifest.
	s2, err := Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	defer s2.Close()
	segs := s2.Segments()
	if len(segs) != 3 {
		t.Fatalf("reopened segments = %d, want 3", len(segs))
	}
	if segs[0].Level != 1 || segs[1].Level != 0 || segs[2].Level != 0 {
		t.Fatalf("levels = %d,%d,%d, want 1,0,0", segs[0].Level, segs[1].Level, segs[2].Level)
	}
	if segs[0].Gen >= segs[1].Gen || segs[1].Gen >= segs[2].Gen {
		t.Fatalf("generation stamps not increasing: %+v", segs)
	}
}

func TestDirStoreReplaceSegments(t *testing.T) {
	profiles := dirProfiles(t, 8, 9)
	dir := filepath.Join(t.TempDir(), "store")
	if err := InitDir(dir, ""); err != nil {
		t.Fatal(err)
	}
	s, err := Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	for i := 0; i < 4; i++ {
		if err := s.AppendSegment(dirThicket(t, profiles[i*2:i*2+2]), 0); err != nil {
			t.Fatal(err)
		}
	}
	gens := s.Generations()
	content0 := s.ContentGeneration()
	layout0 := s.Generation()

	// Replace the middle two segments (a contiguous run).
	merged, err := core.ConcatProfiles([]*core.Thicket{
		mustSegments(t, s, gens[1]), mustSegments(t, s, gens[2]),
	})
	if err != nil {
		t.Fatal(err)
	}
	if err := s.ReplaceSegments([]int64{gens[1], gens[2]}, merged, 1); err != nil {
		t.Fatal(err)
	}
	if s.ContentGeneration() != content0 {
		t.Fatal("compaction must not bump the content generation")
	}
	if s.Generation() != layout0+1 {
		t.Fatal("compaction must bump the layout generation")
	}
	if n := s.NumSegments(); n != 3 {
		t.Fatalf("segments = %d, want 3", n)
	}
	th, err := s.Load()
	if err != nil {
		t.Fatal(err)
	}
	if got := th.NumProfiles(); got != 8 {
		t.Fatalf("profiles after replace = %d, want 8", got)
	}

	// Guards: unknown gen, non-contiguous run, wrong profile count.
	if err := s.ReplaceSegments([]int64{999}, merged, 1); err == nil {
		t.Error("replace with unknown generation must fail")
	}
	now := s.Generations()
	if err := s.ReplaceSegments([]int64{now[0], now[2]}, merged, 1); err == nil {
		t.Error("replace of non-contiguous run must fail")
	}
	if err := s.ReplaceSegments([]int64{now[0]}, merged, 1); err == nil {
		t.Error("replace with mismatched profile count must fail")
	}
}

// mustSegments reads the live segments stamped gens, in that order.
func mustSegments(t testing.TB, s *Store, gens ...int64) *core.Thicket {
	t.Helper()
	th, err := s.LoadSegments(gens)
	if err != nil {
		t.Fatal(err)
	}
	return th
}

func TestDirStoreOrphanSweep(t *testing.T) {
	profiles := dirProfiles(t, 2, 4)
	dir := filepath.Join(t.TempDir(), "store")
	if err := CreateDir(dir, dirThicket(t, profiles)); err != nil {
		t.Fatal(err)
	}
	// Simulate a crash between segment write and manifest commit: an
	// orphan segment file the manifest never adopted.
	orphan := filepath.Join(dir, "seg-000099.tks")
	if err := os.WriteFile(orphan, []byte("garbage"), 0o644); err != nil {
		t.Fatal(err)
	}
	s, err := Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	if _, err := os.Stat(orphan); !os.IsNotExist(err) {
		t.Error("orphan segment file must be swept on open")
	}
	if n := s.NumSegments(); n != 1 {
		t.Fatalf("segments = %d, want 1", n)
	}
}

func TestDirStoreEmptyInit(t *testing.T) {
	dir := filepath.Join(t.TempDir(), "store")
	if err := InitDir(dir, "profile"); err != nil {
		t.Fatal(err)
	}
	if err := InitDir(dir, "profile"); err == nil {
		t.Fatal("double init must fail")
	}
	s, err := Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	if n := s.NumSegments(); n != 0 {
		t.Fatalf("segments = %d, want 0", n)
	}
	if _, err := s.Load(); err == nil {
		t.Fatal("loading an empty store must fail")
	}
	// First append works and sets the store in motion.
	if err := s.AppendProfiles(dirProfiles(t, 1, 3)); err != nil {
		t.Fatal(err)
	}
	if n := s.NumSegments(); n != 1 {
		t.Fatalf("segments = %d, want 1", n)
	}
}

func TestColumnMinMaxStats(t *testing.T) {
	profiles := dirProfiles(t, 3, 8)
	path := filepath.Join(t.TempDir(), "s.tks")
	if err := Create(path, dirThicket(t, profiles)); err != nil {
		t.Fatal(err)
	}
	s, err := Open(path)
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	th, err := s.Load()
	if err != nil {
		t.Fatal(err)
	}
	// Every numeric perf column must carry a min/max covering its values.
	seg := s.segs[0]
	fm := seg.header.frame(framePerf)
	if fm == nil {
		t.Fatal("no perf frame")
	}
	checked := 0
	for _, cm := range fm.Cols {
		if cm.Kind != "float" && cm.Kind != "int" {
			if cm.Min != nil || cm.Max != nil {
				t.Errorf("column %v: non-numeric column carries min/max", cm.Key)
			}
			continue
		}
		col, err := th.PerfData.Column(cm.Key)
		if err != nil {
			t.Fatal(err)
		}
		hasValue := false
		for i := 0; i < col.Len(); i++ {
			v := col.At(i)
			if v.IsNull() {
				continue
			}
			hasValue = true
			f := v.Float()
			if cm.Kind == "int" {
				f = float64(v.Int())
			}
			if cm.Min == nil || cm.Max == nil {
				t.Fatalf("column %v: missing min/max", cm.Key)
			}
			if f < *cm.Min || f > *cm.Max {
				t.Errorf("column %v: value %v outside [%v, %v]", cm.Key, f, *cm.Min, *cm.Max)
			}
		}
		if hasValue {
			checked++
		}
	}
	if checked == 0 {
		t.Fatal("no numeric columns checked")
	}
}

func TestColumnCacheSurvivesCompaction(t *testing.T) {
	profiles := dirProfiles(t, 6, 12)
	dir := filepath.Join(t.TempDir(), "store")
	if err := CreateDir(dir, dirThicket(t, profiles[:2])); err != nil {
		t.Fatal(err)
	}
	s, err := Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	for i := 1; i < 3; i++ {
		if err := s.AppendSegment(dirThicket(t, profiles[i*2:i*2+2]), 0); err != nil {
			t.Fatal(err)
		}
	}
	if _, err := s.Load(); err != nil { // warm the cache for all segments
		t.Fatal(err)
	}
	_, _, bytesBefore, entriesBefore := s.cache.stats()
	if entriesBefore == 0 {
		t.Fatal("cache not warmed")
	}

	// Compact the two L0 segments; the base segment's entries survive.
	gens := s.Generations()
	merged, err := core.ConcatProfiles([]*core.Thicket{
		mustSegments(t, s, gens[1]), mustSegments(t, s, gens[2]),
	})
	if err != nil {
		t.Fatal(err)
	}
	if err := s.ReplaceSegments([]int64{gens[1], gens[2]}, merged, 1); err != nil {
		t.Fatal(err)
	}
	_, _, bytesAfter, entriesAfter := s.cache.stats()
	if entriesAfter == 0 || entriesAfter >= entriesBefore {
		t.Fatalf("cache entries after compaction = %d (before %d): retired segments must drop, survivors must stay",
			entriesAfter, entriesBefore)
	}
	if bytesAfter >= bytesBefore {
		t.Fatalf("cache bytes after compaction = %d (before %d)", bytesAfter, bytesBefore)
	}
}

// TestRefresh pins Refresh's contract: no change or a pure compaction
// hands prev back, an append decodes only the new profiles (also when a
// compaction merged them with rows prev already holds), a thicket that is
// not a prefix of the store falls back to a full load, and the returned
// generations are the store's.
func TestRefresh(t *testing.T) {
	profiles := dirProfiles(t, 10, 21)
	dir := filepath.Join(t.TempDir(), "store")
	if err := CreateDir(dir, dirThicket(t, profiles[:2])); err != nil {
		t.Fatal(err)
	}
	s, err := Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	appendL0 := func(lo, hi int) {
		t.Helper()
		if err := s.AppendSegment(dirThicket(t, profiles[lo:hi]), 0); err != nil {
			t.Fatal(err)
		}
	}
	compactLast2 := func() {
		t.Helper()
		gens := s.Generations()
		run := gens[len(gens)-2:]
		merged, err := core.ConcatProfiles([]*core.Thicket{mustSegments(t, s, run[0]), mustSegments(t, s, run[1])})
		if err != nil {
			t.Fatal(err)
		}
		if err := s.ReplaceSegments(run, merged, 1); err != nil {
			t.Fatal(err)
		}
	}
	// refresh runs Refresh, checks its generations and mode, and checks
	// the result answers like Load: same tree and metadata, same perf
	// rows up to order (a compacted segment sorts its rows node-major).
	refresh := func(prev *core.Thicket, wantMode string) *core.Thicket {
		t.Helper()
		th, gen, contentGen, mode, err := s.Refresh(prev)
		if err != nil {
			t.Fatal(err)
		}
		if mode != wantMode {
			t.Fatalf("mode = %s, want %s", mode, wantMode)
		}
		if gen != s.Generation() || contentGen != s.ContentGeneration() {
			t.Fatalf("generations (%d, %d), store at (%d, %d)", gen, contentGen, s.Generation(), s.ContentGeneration())
		}
		want, err := s.Load()
		if err != nil {
			t.Fatal(err)
		}
		if !th.Tree.Equal(want.Tree) || !th.Metadata.Equal(want.Metadata) ||
			!th.SortedByIndex().PerfData.Equal(want.SortedByIndex().PerfData) {
			t.Fatal("refreshed thicket differs from a fresh Load")
		}
		return th
	}

	prev, err := s.Load()
	if err != nil {
		t.Fatal(err)
	}
	if th := refresh(prev, RefreshDelta); th != prev {
		t.Fatal("Refresh of an unchanged store must return prev")
	}
	appendL0(2, 4)
	appendL0(4, 6)
	th := refresh(prev, RefreshDelta)
	if th == prev || th.NumProfiles() != 6 {
		t.Fatalf("append: got %d profiles (same thicket: %v), want a new thicket of 6", th.NumProfiles(), th == prev)
	}
	compactLast2()
	if got := refresh(th, RefreshDelta); got != th {
		t.Fatal("Refresh after a pure compaction must return prev")
	}
	// An L0 segment merged with rows th already holds before th looked.
	appendL0(6, 8)
	compactLast2()
	th = refresh(th, RefreshDelta)
	if th.NumProfiles() != 8 {
		t.Fatalf("tail of a merged segment: %d profiles, want 8", th.NumProfiles())
	}

	// Not a prefix: a foreign thicket, stored profiles out of their
	// order, one longer than the store, nil.
	refresh(dirThicket(t, profiles[8:10]), RefreshFull)
	refresh(dirThicket(t, []*profile.Profile{profiles[1], profiles[0]}), RefreshFull)
	refresh(dirThicket(t, dirProfiles(t, 9, 22)), RefreshFull)
	refresh(nil, RefreshFull)
}

// TestDisjointProof: the store proves at most once per content
// generation that no two segments share a profile. A proof that holds
// carries across appends and compactions, which cannot add a shared
// profile; one that fails is drawn again only once the content moves.
func TestDisjointProof(t *testing.T) {
	profiles := dirProfiles(t, 8, 41)
	dir := filepath.Join(t.TempDir(), "store")
	if err := CreateDir(dir, dirThicket(t, profiles[:2])); err != nil {
		t.Fatal(err)
	}
	s, err := Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	appendL0 := func(lo, hi int) {
		t.Helper()
		if err := s.AppendSegment(dirThicket(t, profiles[lo:hi]), 0); err != nil {
			t.Fatal(err)
		}
	}
	load := func() error {
		_, err := s.Load()
		return err
	}
	appendL0(2, 4)
	if s.proof.Load() != nil {
		t.Fatal("a proof was drawn before any gather")
	}
	if err := load(); err != nil {
		t.Fatal(err)
	}
	held := s.proof.Load()
	if held == nil || !held.ok {
		t.Fatalf("proof after a load of disjoint segments: %+v", held)
	}
	appendL0(4, 6)
	gens := s.Generations()
	if err := s.ReplaceSegments(gens[1:], mustSegments(t, s, gens[1:]...), 1); err != nil {
		t.Fatal(err)
	}
	if err := load(); err != nil {
		t.Fatal(err)
	}
	if s.proof.Load() != held {
		t.Fatal("a proof that held was drawn again")
	}

	// A segment that bypasses the append check and repeats profile 0.
	rec, err := encodeSegment(dirThicket(t, profiles[:1]))
	if err != nil {
		t.Fatal(err)
	}
	s.proof.Store(nil)
	if err := s.appendSegmentDir(rec, 1, 0); err != nil {
		t.Fatal(err)
	}
	if err := load(); err == nil {
		t.Fatal("load of a repeated profile succeeded")
	}
	failed := s.proof.Load()
	if failed == nil || failed.ok || failed.contentGen != s.ContentGeneration() {
		t.Fatalf("proof over a repeated profile: %+v at content generation %d", failed, s.ContentGeneration())
	}
	if err := load(); err == nil {
		t.Fatal("second load of a repeated profile succeeded")
	}
	if s.proof.Load() != failed {
		t.Fatal("a failed proof was drawn again at the same content generation")
	}
	appendL0(6, 8)
	if err := load(); err == nil {
		t.Fatal("load of a repeated profile succeeded after an append")
	}
	if again := s.proof.Load(); again == failed || again.ok {
		t.Fatalf("after an append the failed proof is %+v, want a new failed one", again)
	}
}
