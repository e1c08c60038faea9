package store_test

import (
	"encoding/binary"
	"encoding/json"
	"hash/crc32"
	"math"
	"os"
	"path/filepath"
	"testing"

	"repro/internal/core"
	"repro/internal/dataframe"
	"repro/internal/store"
)

// This file pins backward compatibility with store format version 1 by
// re-implementing the v1 writer from the documented on-disk layout —
// independent of the package's current encoder — and asserting that
// today's read path loads a v1 file bit-for-bit. Version 1 wrote string
// columns as plain uvarint-length-prefixed bytes per row (kind code 2);
// version 2 writes dictionary pages (kind code 4).

const (
	v1KindFloat  = 0
	v1KindInt    = 1
	v1KindString = 2
	v1KindBool   = 3
)

func v1AppendUvarint(buf []byte, v uint64) []byte {
	var tmp [binary.MaxVarintLen64]byte
	n := binary.PutUvarint(tmp[:], v)
	return append(buf, tmp[:n]...)
}

func v1EncodeBlock(t testing.TB, s *dataframe.Series) []byte {
	t.Helper()
	var kc byte
	switch s.Kind() {
	case dataframe.Float:
		kc = v1KindFloat
	case dataframe.Int:
		kc = v1KindInt
	case dataframe.String:
		kc = v1KindString
	case dataframe.Bool:
		kc = v1KindBool
	default:
		t.Fatalf("unsupported kind %v", s.Kind())
	}
	n := s.Len()
	buf := []byte{kc}
	buf = v1AppendUvarint(buf, uint64(n))
	nulls := make([]byte, (n+7)/8)
	for i := 0; i < n; i++ {
		if s.At(i).IsNull() {
			nulls[i/8] |= 1 << (i % 8)
		}
	}
	buf = append(buf, nulls...)
	switch s.Kind() {
	case dataframe.Float:
		for i := 0; i < n; i++ {
			var bits uint64
			if v := s.At(i); !v.IsNull() {
				bits = math.Float64bits(v.Float())
			}
			buf = binary.LittleEndian.AppendUint64(buf, bits)
		}
	case dataframe.Int:
		for i := 0; i < n; i++ {
			var iv int64
			if v := s.At(i); !v.IsNull() {
				iv = v.Int()
			}
			buf = binary.LittleEndian.AppendUint64(buf, uint64(iv))
		}
	case dataframe.String:
		for i := 0; i < n; i++ {
			var sv string
			if v := s.At(i); !v.IsNull() {
				sv = v.Str()
			}
			buf = v1AppendUvarint(buf, uint64(len(sv)))
			buf = append(buf, sv...)
		}
	case dataframe.Bool:
		bits := make([]byte, (n+7)/8)
		for i := 0; i < n; i++ {
			if v := s.At(i); !v.IsNull() && v.Bool() {
				bits[i/8] |= 1 << (i % 8)
			}
		}
		buf = append(buf, bits...)
	}
	return binary.LittleEndian.AppendUint32(buf, crc32.ChecksumIEEE(buf))
}

type v1ColumnMeta struct {
	Key    []string `json:"key"`
	Kind   string   `json:"kind"`
	Offset uint64   `json:"offset"`
	Length uint64   `json:"length"`
}

type v1FrameMeta struct {
	Name   string         `json:"name"`
	NRows  int            `json:"nrows"`
	Levels []v1ColumnMeta `json:"levels"`
	Cols   []v1ColumnMeta `json:"cols"`
}

type v1Header struct {
	Version      int           `json:"version"`
	ProfileLevel string        `json:"profile_level"`
	NProfiles    int           `json:"nprofiles"`
	TreePaths    [][]string    `json:"tree_paths"`
	Frames       []v1FrameMeta `json:"frames"`
}

// v1WriteStore writes th as a complete single-segment version-1 file.
func v1WriteStore(t *testing.T, path string, th *core.Thicket) {
	t.Helper()
	hdr := v1Header{
		Version:      1,
		ProfileLevel: th.ProfileLevelName(),
		NProfiles:    th.NumProfiles(),
		TreePaths:    th.Tree.Paths(),
	}
	var data []byte
	for _, fr := range []struct {
		name  string
		frame *dataframe.Frame
	}{{"perf", th.PerfData}, {"meta", th.Metadata}, {"stats", th.Stats}} {
		fm := v1FrameMeta{Name: fr.name, NRows: fr.frame.NRows()}
		put := func(key []string, s *dataframe.Series) v1ColumnMeta {
			blk := v1EncodeBlock(t, s)
			cm := v1ColumnMeta{Key: key, Kind: s.Kind().String(), Offset: uint64(len(data)), Length: uint64(len(blk))}
			data = append(data, blk...)
			return cm
		}
		ix := fr.frame.Index()
		for l := 0; l < ix.NLevels(); l++ {
			fm.Levels = append(fm.Levels, put([]string{ix.Names()[l]}, ix.Level(l)))
		}
		for c := 0; c < fr.frame.NCols(); c++ {
			fm.Cols = append(fm.Cols, put(fr.frame.ColIndex().Key(c), fr.frame.ColumnAt(c)))
		}
		hdr.Frames = append(hdr.Frames, fm)
	}
	hdrBytes, err := json.Marshal(hdr)
	if err != nil {
		t.Fatal(err)
	}
	out := []byte(store.FileMagic)
	out = append(out, "TSEG"...)
	out = binary.LittleEndian.AppendUint32(out, uint32(len(hdrBytes)))
	out = binary.LittleEndian.AppendUint32(out, crc32.ChecksumIEEE(hdrBytes))
	out = binary.LittleEndian.AppendUint64(out, uint64(len(data)))
	out = append(out, hdrBytes...)
	out = append(out, data...)
	if err := os.WriteFile(path, out, 0o644); err != nil {
		t.Fatal(err)
	}
}

// TestV1FileStillLoads asserts the current read path accepts a
// version-1 file and reproduces the thicket exactly.
func TestV1FileStillLoads(t *testing.T) {
	th := randomThicket(t, 424242, 6)
	if err := th.AggregateStats(nil, []string{"mean", "max"}); err != nil {
		t.Fatal(err)
	}
	path := filepath.Join(t.TempDir(), "v1.tks")
	v1WriteStore(t, path, th)

	s, err := store.Open(path)
	if err != nil {
		t.Fatalf("open v1 file: %v", err)
	}
	defer s.Close()
	got, err := s.Load()
	if err != nil {
		t.Fatalf("load v1 file: %v", err)
	}
	assertThicketsEqual(t, "v1 load", th, got)
}

// TestV1AppendUpgrades asserts a segment of the current encoder that an
// older version appended to a v1 file reads back as the concatenation —
// mixed-version files are valid — and that Append on such a file is
// refused and leaves it byte-identical.
func TestV1AppendUpgrades(t *testing.T) {
	th1 := randomThicket(t, 5151, 3)
	path := filepath.Join(t.TempDir(), "mixed.tks")
	v1WriteStore(t, path, th1)
	p2 := randomEnsemble(t, 5252, 3)
	for i, p := range p2 {
		p.SetMeta("id", dataframe.Int64(int64(100+i)))
	}
	th2, err := core.FromProfiles(p2, core.Options{IndexBy: "id"})
	if err != nil {
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
	want, err := core.ConcatProfiles([]*core.Thicket{th1, th2})
	if err != nil {
		t.Fatal(err)
	}
	assertThicketsEqual(t, "mixed-version load", want, got)
	more := randomThicket(t, 5353, 2)
	refusesAppend(t, "mixed-version file", path, func() error { return s.Append(more) })
}

// TestUnknownVersionRejected asserts a header version beyond the
// current one fails loudly at open.
func TestUnknownVersionRejected(t *testing.T) {
	th := randomThicket(t, 99, 2)
	path := filepath.Join(t.TempDir(), "future.tks")
	if err := store.Create(path, th); err != nil {
		t.Fatal(err)
	}
	raw, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	// Patch the header's version field and fix up the CRC.
	off := len(store.FileMagic)
	hdrLen := binary.LittleEndian.Uint32(raw[off+4 : off+8])
	hdrStart := off + 20
	var hdr map[string]any
	if err := json.Unmarshal(raw[hdrStart:hdrStart+int(hdrLen)], &hdr); err != nil {
		t.Fatal(err)
	}
	hdr["version"] = 99
	newHdr, err := json.Marshal(hdr)
	if err != nil {
		t.Fatal(err)
	}
	var out []byte
	out = append(out, raw[:off+4]...)
	out = binary.LittleEndian.AppendUint32(out, uint32(len(newHdr)))
	out = binary.LittleEndian.AppendUint32(out, crc32.ChecksumIEEE(newHdr))
	out = append(out, raw[off+12:hdrStart]...)
	out = append(out, newHdr...)
	out = append(out, raw[hdrStart+int(hdrLen):]...)
	if err := os.WriteFile(path, out, 0o644); err != nil {
		t.Fatal(err)
	}
	if _, err := store.Open(path); err == nil {
		t.Fatal("open accepted unknown format version 99")
	}
}
