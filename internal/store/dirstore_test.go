package store

import (
	"bytes"
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"sync"
	"testing"

	"repro/internal/core"
	"repro/internal/dataframe"
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
	if !s.IsDir() {
		t.Fatal("directory store must report IsDir")
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

// TestDirStoreCommitRollsBack: when the manifest swap fails, an append
// and a compaction each leave the store as it was — its layout, both
// generations and the manifest on disk — and remove the segment file
// they wrote, so the next commit takes the same generation.
func TestDirStoreCommitRollsBack(t *testing.T) {
	profiles := dirProfiles(t, 6, 17)
	dir := filepath.Join(t.TempDir(), "store")
	if err := CreateDir(dir, dirThicket(t, profiles[:2])); err != nil {
		t.Fatal(err)
	}
	s, err := Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	if err := s.AppendSegment(dirThicket(t, profiles[2:4]), 0); err != nil {
		t.Fatal(err)
	}
	gens, layout, content := s.Generations(), s.Generation(), s.ContentGeneration()
	manifestPath := filepath.Join(dir, ManifestName)
	before, err := os.ReadFile(manifestPath)
	if err != nil {
		t.Fatal(err)
	}
	// A directory where the manifest's temp file goes fails every swap.
	block := filepath.Join(dir, ManifestName+".tmp")
	if err := os.Mkdir(block, 0o755); err != nil {
		t.Fatal(err)
	}
	next := filepath.Join(dir, segFileName(3)) // next_gen after generations 1 and 2
	for _, tc := range []struct {
		name   string
		commit func() error
	}{
		{"append", func() error { return s.Append(dirThicket(t, profiles[4:])) }},
		{"compact", func() error { return s.ReplaceSegments(gens, mustSegments(t, s, gens...), 1) }},
	} {
		if err := tc.commit(); err == nil {
			t.Fatalf("%s: committed with the manifest swap failing", tc.name)
		}
		if got := s.Generations(); fmt.Sprint(got) != fmt.Sprint(gens) || s.Generation() != layout || s.ContentGeneration() != content {
			t.Fatalf("%s: after a failed commit: generations %v, layout %d, content %d; want %v, %d, %d",
				tc.name, got, s.Generation(), s.ContentGeneration(), gens, layout, content)
		}
		if _, err := os.Stat(next); !os.IsNotExist(err) {
			t.Fatalf("%s: a failed commit left its segment file (err=%v)", tc.name, err)
		}
		if after, err := os.ReadFile(manifestPath); err != nil || !bytes.Equal(before, after) {
			t.Fatalf("%s: a failed commit changed the manifest (err=%v)", tc.name, err)
		}
	}
	if err := os.Remove(block); err != nil {
		t.Fatal(err)
	}
	if err := s.Append(dirThicket(t, profiles[4:])); err != nil {
		t.Fatal(err)
	}
	if got := s.Generations(); len(got) != 3 || got[2] != 3 {
		t.Fatalf("generations after the swap recovered = %v, want [1 2 3]", got)
	}
	reopened, err := Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	defer reopened.Close()
	th, err := reopened.Load()
	if err != nil {
		t.Fatal(err)
	}
	if n := th.NumProfiles(); n != 6 {
		t.Fatalf("reopened store holds %d profiles, want 6", n)
	}
}

func TestDirStoreOrphanSweep(t *testing.T) {
	profiles := dirProfiles(t, 6, 4)
	dir := filepath.Join(t.TempDir(), "store")
	if err := CreateDir(dir, dirThicket(t, profiles[:2])); err != nil {
		t.Fatal(err)
	}
	s, err := Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	if err := s.AppendSegment(dirThicket(t, profiles[2:4]), 0); err != nil {
		t.Fatal(err)
	}
	// Compaction retires generations 1 and 2 into 3; next_gen is now 4.
	if err := s.ReplaceSegments([]int64{1, 2}, dirThicket(t, profiles[:4]), 2); err != nil {
		t.Fatal(err)
	}
	s.Close()

	// Simulate two crashes: one interrupted the deletion of a retired
	// segment (below next_gen), the other came between a segment write
	// and its manifest commit (at next_gen).
	stale := filepath.Join(dir, segFileName(1))
	dead := filepath.Join(dir, segFileName(4))
	for _, path := range []string{stale, dead} {
		if err := os.WriteFile(path, []byte("garbage"), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	s, err = Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := os.Stat(stale); !os.IsNotExist(err) {
		t.Error("a retired segment file below next_gen must be swept on open")
	}
	// Open cannot tell a dead file at next_gen from a writer's segment
	// in flight, so it keeps it; the next append overwrites it.
	if _, err := os.Stat(dead); err != nil {
		t.Errorf("the file at next_gen must survive open: %v", err)
	}
	if n := s.NumSegments(); n != 1 {
		t.Fatalf("segments = %d, want 1", n)
	}
	if err := s.AppendSegment(dirThicket(t, profiles[4:]), 0); err != nil {
		t.Fatal(err)
	}
	s.Close()

	s, err = Open(dir)
	if err != nil {
		t.Fatalf("reopen after overwriting the dead file: %v", err)
	}
	defer s.Close()
	if got := s.Generations(); len(got) != 2 || got[1] != 4 {
		t.Fatalf("generations = %v, want [3 4]", got)
	}
	th, err := s.Load()
	if err != nil {
		t.Fatal(err)
	}
	if n := th.NumProfiles(); n != 6 {
		t.Fatalf("profiles = %d, want 6", n)
	}
}

// opensDuring runs write while two goroutines open and close the
// directory store at dir in a loop. It fails the test if write fails or
// if any open fails.
func opensDuring(t *testing.T, dir string, write func() error) {
	t.Helper()
	done := make(chan struct{})
	var wg sync.WaitGroup
	readerErrs := make(chan error, 2)
	for r := 0; r < 2; r++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				select {
				case <-done:
					return
				default:
				}
				st, err := Open(dir)
				if err != nil {
					readerErrs <- err
					return
				}
				st.Close()
			}
		}()
	}
	err := write()
	close(done)
	wg.Wait()
	close(readerErrs)
	if err != nil {
		t.Fatal(err)
	}
	for err := range readerErrs {
		t.Errorf("concurrent open: %v", err)
	}
}

// tinyBatch is the i-th batch of n tiny profiles.
func tinyBatch(t testing.TB, i, n int) *core.Thicket {
	t.Helper()
	batch := make([]*profile.Profile, n)
	for j := range batch {
		batch[j] = tinyProfile(t, i*n+j)
	}
	return dirThicket(t, batch)
}

// TestDirStoreOpenDuringAppend: a Store opening the directory while
// another Store appends to it must not sweep the writer's new segment,
// which is on disk before the writer's manifest names it. Every open
// must succeed, and the store must reopen with every appended profile.
func TestDirStoreOpenDuringAppend(t *testing.T) {
	dir := filepath.Join(t.TempDir(), "store")
	if err := InitDir(dir, ""); err != nil {
		t.Fatal(err)
	}
	w, err := Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	defer w.Close()

	const segments, perSegment = 300, 3
	opensDuring(t, dir, func() error {
		for i := 0; i < segments; i++ {
			if err := w.Append(tinyBatch(t, i, perSegment)); err != nil {
				return fmt.Errorf("append %d: %w", i, err)
			}
		}
		return nil
	})

	st, err := Open(dir)
	if err != nil {
		t.Fatalf("reopen: %v", err)
	}
	defer st.Close()
	if n := st.NumSegments(); n != segments {
		t.Fatalf("segments = %d, want %d", n, segments)
	}
	th, err := st.Load()
	if err != nil {
		t.Fatal(err)
	}
	if n := th.NumProfiles(); n != segments*perSegment {
		t.Fatalf("profiles = %d, want %d", n, segments*perSegment)
	}
}

// TestDirStoreOpenDuringCompaction: a Store opening the directory while
// another Store compacts it can read a manifest naming a segment that
// the compaction then retires and deletes. Open must re-read the
// manifest rather than fail: every open must succeed, and the store must
// reopen with every appended profile.
func TestDirStoreOpenDuringCompaction(t *testing.T) {
	dir := filepath.Join(t.TempDir(), "store")
	if err := InitDir(dir, ""); err != nil {
		t.Fatal(err)
	}
	w, err := Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	defer w.Close()

	// After each append, merge the last four segments into one.
	const segments, perSegment, run = 200, 3, 4
	opensDuring(t, dir, func() error {
		for i := 0; i < segments; i++ {
			if err := w.Append(tinyBatch(t, i, perSegment)); err != nil {
				return fmt.Errorf("append %d: %w", i, err)
			}
			gens := w.Generations()
			if len(gens) < run {
				continue
			}
			gens = gens[len(gens)-run:]
			merged, err := w.LoadSegments(gens)
			if err == nil {
				err = w.ReplaceSegments(gens, merged, 1)
			}
			if err != nil {
				return fmt.Errorf("compact after append %d: %w", i, err)
			}
		}
		return nil
	})

	st, err := Open(dir)
	if err != nil {
		t.Fatalf("reopen: %v", err)
	}
	defer st.Close()
	th, err := st.Load()
	if err != nil {
		t.Fatal(err)
	}
	if n := th.NumProfiles(); n != segments*perSegment {
		t.Fatalf("profiles = %d, want %d", n, segments*perSegment)
	}
}

// TestDirStoreOpenMissingSegment: a segment file the manifest names but
// that is gone is a broken store, not a compaction in flight. Open must
// still fail, naming the file, after it has re-read the manifest.
func TestDirStoreOpenMissingSegment(t *testing.T) {
	profiles := dirProfiles(t, 4, 5)
	dir := filepath.Join(t.TempDir(), "store")
	if err := CreateDir(dir, dirThicket(t, profiles[:2])); err != nil {
		t.Fatal(err)
	}
	s, err := Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	if err := s.Append(dirThicket(t, profiles[2:])); err != nil {
		t.Fatal(err)
	}
	s.Close()
	missing := segFileName(2)
	if err := os.Remove(filepath.Join(dir, missing)); err != nil {
		t.Fatal(err)
	}
	st, err := Open(dir)
	if err == nil {
		st.Close()
		t.Fatal("a store whose manifest names a deleted segment opened")
	}
	if !strings.Contains(err.Error(), missing) || !errors.Is(err, os.ErrNotExist) {
		t.Fatalf("open error %v does not name the missing file %s", err, missing)
	}
}

// tinyProfile is a one-node, one-metric profile told apart by seq.
func tinyProfile(t testing.TB, seq int) *profile.Profile {
	t.Helper()
	p := profile.New()
	p.SetMeta("seq", dataframe.Int64(int64(seq)))
	if err := p.AddSample([]string{"main"}, map[string]dataframe.Value{"time": dataframe.Float64(float64(seq))}); err != nil {
		t.Fatal(err)
	}
	return p
}

// TestManifestRejectsForeignFile: a manifest entry must name its own
// generation's segment file. One naming another store's segment used to
// open and load it, and compaction then deleted it.
func TestManifestRejectsForeignFile(t *testing.T) {
	root := t.TempDir()
	a, b := filepath.Join(root, "a"), filepath.Join(root, "b")
	if err := CreateDir(a, dirThicket(t, dirProfiles(t, 3, 1))); err != nil {
		t.Fatal(err)
	}
	if err := CreateDir(b, dirThicket(t, dirProfiles(t, 3, 2))); err != nil {
		t.Fatal(err)
	}
	m, err := readManifest(a)
	if err != nil {
		t.Fatal(err)
	}
	const foreign = "../b/seg-000001.tks"
	m.Segments = append(m.Segments, manifestSeg{File: foreign, Level: 1, Gen: 2})
	m.NextGen = 3
	if err := writeManifest(a, m); err != nil {
		t.Fatal(err)
	}
	if st, err := Open(a); err == nil {
		st.Close()
		t.Fatal("a manifest naming a file outside its own segments opened")
	} else if !strings.Contains(err.Error(), foreign) {
		t.Fatalf("error does not name the entry: %v", err)
	}
	sb, err := Open(b)
	if err != nil {
		t.Fatalf("the other store no longer opens: %v", err)
	}
	defer sb.Close()
	th, err := sb.Load()
	if err != nil {
		t.Fatal(err)
	}
	if n := th.NumProfiles(); n != 3 {
		t.Fatalf("other store holds %d profiles, want 3", n)
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
	seg := s.view.Load().segs[0]
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

// TestDisjointProof: a view holds the verdict that no two of its
// segments share a profile without drawing it when a validated append or
// a compaction hands it on from a view that held it. A reopened
// multi-segment store draws it at its first gather, and not before. A
// profile that two segments share is never proven, fails every Load, and
// is drawn again by the next view.
func TestDisjointProof(t *testing.T) {
	profiles := dirProfiles(t, 10, 41)
	dir := filepath.Join(t.TempDir(), "store")
	if err := CreateDir(dir, dirThicket(t, profiles[:2])); err != nil {
		t.Fatal(err)
	}
	s, err := Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { s.Close() })
	reopen := func() {
		t.Helper()
		s.Close()
		if s, err = Open(dir); err != nil {
			t.Fatal(err)
		}
	}
	verdict := func(want int32, when string) {
		t.Helper()
		if got := s.view.Load().disjoint.Load(); got != want {
			t.Fatalf("%s: verdict %d, want %d", when, got, want)
		}
	}
	appendL0 := func(lo, hi int) {
		t.Helper()
		if err := s.AppendSegment(dirThicket(t, profiles[lo:hi]), 0); err != nil {
			t.Fatal(err)
		}
	}
	compactTail := func() {
		t.Helper()
		gens := s.Generations()
		if err := s.ReplaceSegments(gens[1:], mustSegments(t, s, gens[1:]...), 1); err != nil {
			t.Fatal(err)
		}
	}

	appendL0(2, 4)
	appendL0(4, 6)
	verdict(verdictHolds, "a store grown by appends, before any gather")
	compactTail()
	verdict(verdictHolds, "after a compaction")

	reopen()
	verdict(verdictUndrawn, "a reopened two-segment store, before any gather")
	if _, err := s.Load(); err != nil {
		t.Fatal(err)
	}
	verdict(verdictHolds, "after the first gather")
	appendL0(6, 8)
	verdict(verdictHolds, "an append onto a drawn verdict, before any gather")
	compactTail()
	verdict(verdictHolds, "a compaction onto a drawn verdict, before any gather")

	// A copy of the first segment's file, added to the manifest by hand,
	// repeats its profiles, which no append lets in.
	s.Close()
	m, err := readManifest(dir)
	if err != nil {
		t.Fatal(err)
	}
	raw, err := os.ReadFile(filepath.Join(dir, m.Segments[0].File))
	if err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(filepath.Join(dir, segFileName(m.NextGen)), raw, 0o644); err != nil {
		t.Fatal(err)
	}
	m.Segments = append(m.Segments, manifestSeg{File: segFileName(m.NextGen), Level: 1, Gen: m.NextGen})
	m.NextGen++
	if err := writeManifest(dir, m); err != nil {
		t.Fatal(err)
	}
	reopen()
	for i := 0; i < 2; i++ {
		if _, err := s.Load(); !errors.Is(err, core.ErrSharedProfiles) {
			t.Fatalf("load %d of a repeated profile: %v, want %v", i, err, core.ErrSharedProfiles)
		}
		verdict(verdictFails, "over a repeated profile")
	}
	appendL0(8, 10)
	verdict(verdictUndrawn, "an append onto a verdict that did not hold")
	if _, err := s.Load(); !errors.Is(err, core.ErrSharedProfiles) {
		t.Fatalf("load of a repeated profile after an append: %v", err)
	}
	verdict(verdictFails, "drawn again after the append")
}
