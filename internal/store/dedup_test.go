package store_test

import (
	"fmt"
	"math"
	"math/rand"
	"path/filepath"
	"strings"
	"sync"
	"testing"

	"repro/internal/core"
	"repro/internal/dataframe"
	"repro/internal/ingest"
	"repro/internal/profile"
	"repro/internal/store"
)

// dedupRef is the append check as a set of stored profile keys: every
// stored profile-index value's EncodeKey, the identity the store's
// duplicate check had before segment profile indexes replaced it. kind
// is the stored level's kind: a batch whose level has another kind is
// refused before any key is compared.
type dedupRef struct {
	kind dataframe.Kind
	keys map[string]bool
}

func newDedupRef(th *core.Thicket) *dedupRef {
	ref := &dedupRef{kind: th.Metadata.Index().Level(0).Kind(), keys: map[string]bool{}}
	for _, v := range th.Profiles() {
		ref.keys[dataframe.EncodeKey([]dataframe.Value{v})] = true
	}
	return ref
}

// append returns the error the store must report for appending th at
// path, nil when it must accept th; an accepted th joins the key set.
func (ref *dedupRef) append(path string, th *core.Thicket) error {
	if k := th.Metadata.Index().Level(0).Kind(); k != ref.kind {
		return fmt.Errorf("store: %s: index level %q kind %s conflicts with stored kind %s", path, "id", k, ref.kind)
	}
	for _, v := range th.Profiles() {
		if ref.keys[dataframe.EncodeKey([]dataframe.Value{v})] {
			return fmt.Errorf("store: %s: profile index %s already present", path, v)
		}
	}
	for _, v := range th.Profiles() {
		ref.keys[dataframe.EncodeKey([]dataframe.Value{v})] = true
	}
	return nil
}

// idPools are small per-kind pools of profile-index values, so that
// draws collide often: across batches (duplicates), within a batch
// (rejected at composition) and across kinds (int 1 vs float 1.0 never
// match; a null of any kind, NaN included, matches every other).
var idPools = map[dataframe.Kind][]dataframe.Value{
	dataframe.Int: {dataframe.Int64(0), dataframe.Int64(1), dataframe.Int64(2),
		dataframe.Int64(-1), dataframe.Int64(math.MaxInt64), dataframe.Int64(100)},
	dataframe.Float: {dataframe.Float64(0), dataframe.Float64(math.Copysign(0, -1)),
		dataframe.Float64(1), dataframe.Float64(2.5), dataframe.Float64(100.5),
		dataframe.Float64(math.NaN()), dataframe.Float64(math.Inf(1)), dataframe.Float64(math.Inf(-1))},
	dataframe.String: {dataframe.Str("a"), dataframe.Str("b"), dataframe.Str(""),
		dataframe.Str("1"), dataframe.Str("n")},
}

var idKinds = []dataframe.Kind{dataframe.Int, dataframe.Float, dataframe.String}

// drawBatch composes 1–3 profiles indexed by "id", mostly of kind
// (sometimes of another kind, sometimes null), redrawing until the
// batch composes: a repeat inside one batch never reaches the store.
func drawBatch(t *testing.T, rng *rand.Rand, kind dataframe.Kind) *core.Thicket {
	t.Helper()
	for {
		k := kind
		if rng.Intn(4) == 0 {
			k = idKinds[rng.Intn(len(idKinds))]
		}
		n := 1 + rng.Intn(3)
		profiles := make([]*profile.Profile, n)
		for i := range profiles {
			id := idPools[k][rng.Intn(len(idPools[k]))]
			if rng.Intn(8) == 0 {
				id = dataframe.Null(k)
			}
			p := profile.New()
			p.SetMeta("id", id)
			p.SetMeta("run", dataframe.Int64(rng.Int63n(100)))
			if err := p.AddSample([]string{"main"}, map[string]dataframe.Value{
				"time": dataframe.Float64(rng.Float64()),
			}); err != nil {
				t.Fatal(err)
			}
			profiles[i] = p
		}
		if th, err := core.FromProfiles(profiles, core.Options{IndexBy: "id"}); err == nil {
			return th
		}
	}
}

// TestAppendDuplicateCheckMatchesKeySet drives seeded append sequences
// through directory stores and holds every append's verdict — accepted,
// or refused with an exact error text — to dedupRef. Reopens and
// compactions between appends leave segments whose profile index has not
// been built yet.
func TestAppendDuplicateCheckMatchesKeySet(t *testing.T) {
	var verdicts [3]int // accepted, refused as duplicate, refused for kind
	for seed := int64(1); seed <= 32; seed++ {
		rng := rand.New(rand.NewSource(seed))
		label := fmt.Sprintf("seed %d", seed)
		base := drawBatch(t, rng, idKinds[rng.Intn(len(idKinds))])
		path := filepath.Join(t.TempDir(), "dedup")
		if err := store.CreateDir(path, base); err != nil {
			t.Fatal(err)
		}
		s, err := store.Open(path)
		if err != nil {
			t.Fatal(err)
		}
		ref := newDedupRef(base)
		accepted := base.NumProfiles()
		for step := 0; step < 10; step++ {
			switch r := rng.Intn(6); {
			case r == 0:
				s.Close()
				if s, err = store.Open(path); err != nil {
					t.Fatal(err)
				}
			case r == 1:
				if err := ingest.CompactAll(s); err != nil {
					t.Fatal(err)
				}
			}
			th := drawBatch(t, rng, ref.kind)
			want := ref.append(path, th)
			got := s.Append(th)
			if fmt.Sprint(got) != fmt.Sprint(want) {
				t.Fatalf("%s step %d: append %v: err = %v, want %v", label, step, th.Profiles(), got, want)
			}
			switch {
			case want == nil:
				accepted += th.NumProfiles()
				verdicts[0]++
			case th.Metadata.Index().Level(0).Kind() == ref.kind:
				verdicts[1]++
			default:
				verdicts[2]++
			}
		}
		s.Close()
		s, err = store.Open(path)
		if err != nil {
			t.Fatal(err)
		}
		th, err := s.Load()
		s.Close()
		if err != nil {
			t.Fatalf("%s: load: %v", label, err)
		}
		if th.NumProfiles() != accepted {
			t.Fatalf("%s: loaded %d profiles, want %d", label, th.NumProfiles(), accepted)
		}
	}
	if verdicts[0] == 0 || verdicts[1] == 0 || verdicts[2] == 0 {
		t.Fatalf("verdicts (accepted, duplicate, kind) = %v: every kind must occur", verdicts)
	}
	t.Logf("verdicts (accepted, duplicate, kind) = %v", verdicts)
}

// TestProfileIndexConcurrentFirstUse races Refresh's prefix check
// against appends' duplicate checks on a reopened store, whose segments
// have not built their profile index yet. Run it with -race.
func TestProfileIndexConcurrentFirstUse(t *testing.T) {
	profiles := randomEnsemble(t, 31, 10)
	prev, err := core.FromProfiles(profiles[:4], core.Options{IndexBy: "id"})
	if err != nil {
		t.Fatal(err)
	}
	dir := filepath.Join(t.TempDir(), "store")
	if err := store.CreateDir(dir, prev); err != nil {
		t.Fatal(err)
	}
	s, err := store.Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	for _, batch := range [][]*profile.Profile{profiles[4:6], profiles[6:8]} {
		if err := s.AppendProfiles(batch); err != nil {
			t.Fatal(err)
		}
	}
	s.Close()
	if s, err = store.Open(dir); err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	var wg sync.WaitGroup
	for g := 0; g < 4; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < 5; i++ {
				if _, _, _, mode, err := s.Refresh(prev); err != nil || mode != store.RefreshDelta {
					t.Errorf("refresh: mode %s, err %v; want delta", mode, err)
					return
				}
			}
		}()
	}
	if err := s.AppendProfiles(profiles[7:8]); err == nil || !strings.Contains(err.Error(), "already present") {
		t.Errorf("duplicate append: err = %v, want already present", err)
	}
	if err := s.AppendProfiles(profiles[8:]); err != nil {
		t.Error(err)
	}
	wg.Wait()
}
