package store_test

import (
	"bytes"
	"fmt"
	"math/rand"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"repro/internal/core"
	"repro/internal/dataframe"
	"repro/internal/ingest"
	"repro/internal/profile"
	"repro/internal/store"
)

// randomEnsemble mirrors the differential harness generator: overlapping
// tree shapes from a shared vocabulary, random metric subsets (missing
// cells), and groupable metadata of every scalar kind.
func randomEnsemble(t *testing.T, seed int64, nProfiles int) []*profile.Profile {
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

		assertThicketsEqual(t, fmt.Sprintf("seed %d store-vs-source", seed), th, viaStore)
		assertThicketsEqual(t, fmt.Sprintf("seed %d store-vs-json", seed), viaJSON, viaStore)
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

	path := filepath.Join(t.TempDir(), "a.tks")
	if err := store.Create(path, th1); err != nil {
		t.Fatal(err)
	}
	s, err := store.Open(path)
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	if err := s.AppendProfiles(profiles[5:]); err != nil {
		t.Fatal(err)
	}
	if s.NumSegments() != 2 {
		t.Fatalf("segments = %d, want 2", s.NumSegments())
	}

	want, err := core.ConcatProfiles([]*core.Thicket{th1, th2})
	if err != nil {
		t.Fatal(err)
	}
	got, err := s.Load()
	if err != nil {
		t.Fatal(err)
	}
	assertThicketsEqual(t, "append", want, got)

	// Reopening sees both segments identically.
	s2, err := store.Open(path)
	if err != nil {
		t.Fatal(err)
	}
	defer s2.Close()
	got2, err := s2.Load()
	if err != nil {
		t.Fatal(err)
	}
	assertThicketsEqual(t, "append-reopen", want, got2)

	// Appending a duplicate profile index must fail, through the writing
	// handle and through a reopened one.
	if err := s.AppendProfiles(profiles[5:6]); err == nil {
		t.Fatal("expected duplicate-profile append to fail")
	}
	if err := s2.AppendProfiles(profiles[0:1]); err == nil {
		t.Fatal("expected duplicate-profile append to a reopened store to fail")
	}

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
	// A new profile still lands, and the key set remembers it.
	extra := randomEnsemble(t, 43, 1)
	extra[0].SetMeta("id", dataframe.Int64(100))
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
	th := randomThicket(t, 21, 3)                                             // indexed by "id"
	other, err := core.FromProfiles(randomEnsemble(t, 22, 2), core.Options{}) // default hash index
	if err != nil {
		t.Fatal(err)
	}
	path := filepath.Join(t.TempDir(), "lvl.tks")
	if err := store.Create(path, th); err != nil {
		t.Fatal(err)
	}
	s, err := store.Open(path)
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	if err := s.Append(other); err == nil || !strings.Contains(err.Error(), "profile level") {
		t.Fatalf("expected profile-level mismatch error, got %v", err)
	}
}
