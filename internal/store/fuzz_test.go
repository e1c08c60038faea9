package store

import (
	"math"
	"os"
	"path/filepath"
	"reflect"
	"testing"

	"repro/internal/core"
	"repro/internal/dataframe"
	"repro/internal/profile"
)

// seedBlocks returns one valid encoded block per scalar kind, with
// nulls sprinkled in.
func seedBlocks(t interface{ Fatal(...any) }) [][]byte {
	f := dataframe.NewFloatSeries("f", []float64{1.5, math.NaN(), -0.25, math.Inf(1), math.Inf(-1)})
	i := dataframe.NewIntSeries("i", []int64{0, -9007199254740993, 42})
	s := dataframe.NewStringSeries("s", []string{"", "hello", "περφ"})
	b := dataframe.NewBoolSeries("b", []bool{true, false, true})
	var out [][]byte
	for _, series := range []*dataframe.Series{f, i, s, b} {
		blk, err := encodeBlock(series)
		if err != nil {
			t.Fatal(err)
		}
		out = append(out, blk)
	}
	return out
}

// FuzzDecodeBlock hammers the binary column decoder with corrupted
// blocks: any input must either decode cleanly or return an error —
// never panic, never over-allocate on absurd row counts.
func FuzzDecodeBlock(f *testing.F) {
	for _, blk := range seedBlocks(f) {
		f.Add(blk)
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		for _, kind := range []dataframe.Kind{dataframe.Float, dataframe.Int, dataframe.String, dataframe.Bool} {
			s, err := decodeBlock(data, "col", kind, -1)
			if err != nil {
				continue
			}
			// A successful decode must re-encode to a decodable block of
			// identical content (the codec is its own inverse).
			re, err := encodeBlock(s)
			if err != nil {
				t.Fatalf("re-encode of decoded block failed: %v", err)
			}
			s2, err := decodeBlock(re, "col", kind, s.Len())
			if err != nil {
				t.Fatalf("decode of re-encoded block failed: %v", err)
			}
			if !s.Equal(s2) {
				t.Fatal("decode(encode(decode(x))) differs from decode(x)")
			}
		}
	})
}

// FuzzOpenStore mutates whole store files: Open/Load on corrupted
// headers or blocks must fail gracefully, never panic.
func FuzzOpenStore(f *testing.F) {
	// Seed with a real single-segment store file.
	p := profile.New()
	p.SetMeta("id", dataframe.Int64(1))
	if err := p.AddSample([]string{"main", "solve"}, map[string]dataframe.Value{
		"time": dataframe.Float64(1.25),
	}); err != nil {
		f.Fatal(err)
	}
	th, err := core.FromProfiles([]*profile.Profile{p}, core.Options{IndexBy: "id"})
	if err != nil {
		f.Fatal(err)
	}
	seedPath := filepath.Join(f.TempDir(), "seed.tks")
	if err := Create(seedPath, th); err != nil {
		f.Fatal(err)
	}
	seed, err := os.ReadFile(seedPath)
	if err != nil {
		f.Fatal(err)
	}
	f.Add(seed)
	f.Add([]byte(FileMagic))
	f.Add([]byte(FileMagic + segMagic))
	f.Fuzz(func(t *testing.T, data []byte) {
		dir := t.TempDir()
		path := filepath.Join(dir, "fuzz.tks")
		if err := os.WriteFile(path, data, 0o644); err != nil {
			t.Skip()
		}
		s, err := Open(path)
		if err != nil {
			return
		}
		defer s.Close()
		_, _ = s.Load()
		_, _ = s.Metadata()
		_ = s.Info()
	})
}

// FuzzReadManifest feeds arbitrary bytes to readManifest as a directory
// store's MANIFEST.json. It must never panic; a manifest it accepts must
// name only files inside the directory and round-trip unchanged through
// writeManifest.
func FuzzReadManifest(f *testing.F) {
	f.Add([]byte(`{"version":1,"profile_level":"profile","next_gen":4,"content_gen":3,` +
		`"segments":[{"file":"seg-000001.tks","level":1,"gen":1},{"file":"seg-000003.tks","level":0,"gen":3}]}`))
	f.Add([]byte(`{"version":1,"profile_level":"profile","next_gen":1,"content_gen":0,"segments":[]}`))
	f.Add([]byte(`{"version":1,"next_gen":3,"segments":[{"file":"../b/seg-000001.tks","level":1,"gen":2}]}`))
	f.Add([]byte(`{"version":1,"next_gen":2,"segments":[{"file":"seg-000001.tks","gen":1},{"file":"seg-000001.tks","gen":1}]}`))
	f.Add([]byte(`{"version":2,"segments":null}`))
	// Each worker runs its inputs one at a time, so two directories
	// serve every input.
	dir, again := f.TempDir(), f.TempDir()
	f.Fuzz(func(t *testing.T, data []byte) {
		if err := os.WriteFile(filepath.Join(dir, ManifestName), data, 0o644); err != nil {
			t.Fatal(err)
		}
		m, err := readManifest(dir)
		if err != nil {
			return
		}
		for _, ms := range m.Segments {
			if !filepath.IsLocal(ms.File) || filepath.Base(ms.File) != ms.File {
				t.Fatalf("accepted manifest names %q, outside the directory", ms.File)
			}
		}
		if err := writeManifest(again, m); err != nil {
			t.Fatal(err)
		}
		m2, err := readManifest(again)
		if err != nil {
			t.Fatalf("rewritten manifest no longer reads: %v", err)
		}
		if !reflect.DeepEqual(m, m2) {
			t.Fatalf("manifest changed in a round trip:\n%+v\n%+v", m, m2)
		}
	})
}
